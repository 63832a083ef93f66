//! `dataset_mc_verified`: one verified Monte-Carlo dataset shard.
//!
//! `oasys::dataset::generate` on a benchmark-owned manifest — 12 seeded
//! draws around case A × 5 µm and 3 µm × slow/typ/fast corners × 2
//! Monte-Carlo instances (144 points) — as one shard on a pool of
//! `nproc` workers, into a fresh directory each call. A run makes as
//! many calls as fit its time, and reports medians over calls, so a slow
//! burst of the host during one call does not move the figures. It is the only
//! workload with parallel verification on the pool, corner-derived
//! processes, Pelgrom mismatch bound per MOSFET per Newton iteration,
//! Monte-Carlo siblings sharing one design, and the sealed, flushed
//! shard sink.
//!
//! Latency here is the wait of a consumer streaming the shard: from the
//! start of the `generate` call until a record is durable in the shard's
//! partial file, watched from outside by polling that file.

use crate::inputs::{self, Design};
use crate::probe;
use crate::procfs::{self, Sampler};
use crate::report::Report;
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::Ctx;
use oasys::batch::{BatchOptions, Manifest};
use oasys::dataset::{self, sink, DatasetOptions, DatasetPlan, ShardReport};
use oasys::SearchOptions;
use oasys_plan::MemoCache;
use oasys_telemetry::json;
use oasys_telemetry::Telemetry;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Points probed by the verification probe (Monte-Carlo instances).
const VERIFY_PROBES: usize = 3;
/// Points probed by the synthesis probe.
const SYNTH_PROBES: usize = 120;

/// The manifest, with the workload seed as the sampling seed.
fn manifest_text(seed: u64) -> String {
    format!(
        "spec = spec-a.txt\n\
         tech = generic-5um.tech\n\
         tech = generic-3um.tech\n\
         sample.count = 12\n\
         sample.seed = {seed}\n\
         sample.dc_gain_db = 55..68\n\
         sample.load_pf = 2..10\n\
         corners = slow,typ,fast\n\
         mc.samples = 2\n\
         mc.avt_mv_um = 15\n\
         mc.akp_pct_um = 2\n"
    )
}

/// Writes the manifest and its inputs into `dir`.
fn write_inputs(ctx: &Ctx, dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for file in ["spec-a.txt", "generic-5um.tech", "generic-3um.tech"] {
        std::fs::copy(ctx.root.join("data").join(file), dir.join(file))
            .map_err(|e| format!("{file}: {e}"))?;
    }
    let path = dir.join("bench.manifest");
    std::fs::write(&path, manifest_text(ctx.seed)).map_err(|e| e.to_string())?;
    Ok(path)
}

fn load(path: &Path) -> Result<(Manifest, DatasetPlan), String> {
    let manifest = Manifest::load(path).map_err(|e| e.to_string())?;
    let plan = DatasetPlan::expand(&manifest).map_err(|e| e.to_string())?;
    Ok((manifest, plan))
}

/// Polls the shard's partial file and timestamps each record line as
/// it becomes durable.
struct Watcher {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<f64>>,
}

impl Watcher {
    fn start(dir: &Path, start: Instant) -> Self {
        let path = sink::shard_partial_path(dir, 0, 1);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut arrivals = Vec::new();
            let mut offset = 0u64;
            let mut buf = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                if let Ok(mut file) = std::fs::File::open(&path) {
                    buf.clear();
                    if file.seek(SeekFrom::Start(offset)).is_ok()
                        && file.read_to_end(&mut buf).is_ok()
                    {
                        let now = start.elapsed().as_secs_f64() * 1e3;
                        let complete = buf.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
                        let lines = buf[..complete].iter().filter(|&&b| b == b'\n').count();
                        arrivals.extend(std::iter::repeat_n(now, lines));
                        offset += complete as u64;
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            arrivals
        });
        Self { stop, handle }
    }

    fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().unwrap_or_default()
    }
}

/// One timed `generate` call into a fresh directory.
struct Call {
    report: ShardReport,
    wall_s: f64,
    /// Time to durable record of every record, ms.
    arrivals_ms: Vec<f64>,
    dir: PathBuf,
}

fn generate(ctx: &Ctx, manifest: &Manifest, dir: PathBuf) -> Result<Call, String> {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut batch = BatchOptions::default();
    batch.apply_manifest(&manifest.settings());
    let options = DatasetOptions {
        shards: 1,
        shard_index: 0,
        batch: batch.with_workers(ctx.workers),
    };
    let start = Instant::now();
    let watcher = Watcher::start(&dir, start);
    // Telemetry on, as the `oasys dataset` command runs it.
    let result = dataset::generate(manifest, &dir, &options, &Telemetry::new());
    let wall_s = start.elapsed().as_secs_f64();
    let mut arrivals_ms = watcher.finish();
    let report = result.map_err(|e| e.to_string())?;
    // Lines written between the last poll and publication arrive at the
    // end of the call.
    while arrivals_ms.len() < report.records {
        arrivals_ms.push(wall_s * 1e3);
    }
    Ok(Call {
        report,
        wall_s,
        arrivals_ms,
        dir,
    })
}

/// Checks the published shard: every line sealed and schema-valid, no
/// failed records, and the record and passed counts matching the plan
/// and the shard report. Returns a digest of the shard's bytes.
fn check(call: &Call, points: usize, report: &mut Report) -> u64 {
    let path = sink::shard_records_path(&call.dir, 0, 1);
    let Ok(text) = std::fs::read_to_string(&path) else {
        report.fail(format!("{} missing", path.display()));
        return 0;
    };
    let (mut lines, mut passed) = (0usize, 0usize);
    for line in text.lines() {
        lines += 1;
        let record = sink::open_record_line(line).and_then(|p| json::parse(p).ok());
        let Some(record) = record else {
            report.fail(format!("record line {lines} is corrupt"));
            continue;
        };
        if let Err(e) = dataset::schema::validate_record(&record) {
            report.fail(format!("record line {lines}: {e}"));
        }
        if record.get("outcome").and_then(json::Json::as_str) == Some("failed") {
            report.fail(format!("record line {lines} failed"));
        }
        passed += usize::from(
            record
                .get("ok")
                .and_then(|ok| ok.get("meets_spec"))
                .and_then(json::Json::as_bool)
                == Some(true),
        );
    }
    if lines != points || call.report.records != points {
        report.fail(format!(
            "{lines} lines and {} records for {points} points",
            call.report.records
        ));
    }
    if passed != call.report.passed {
        report.fail(format!(
            "{passed} passing lines, shard report says {}",
            call.report.passed
        ));
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new(ctx.traced);
    let work = ctx.tmp.join(format!("dataset-{}", std::process::id()));
    let result = run_in(ctx, &work, &mut report);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = result {
        report.problems.push(e);
    }
    report
}

fn run_in(ctx: &Ctx, work: &Path, report: &mut Report) -> Result<(), String> {
    let manifest_path = write_inputs(ctx, &work.join("inputs"))?;
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        loaded = Some(load(&manifest_path)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setups), setups.len());
    let (manifest, plan) = loaded.ok_or("no set-up ran")?;
    let points = plan.points.len();

    let mut tracer = Tracer::new(Instant::now());
    let mut calls = Vec::new();
    let mut digests = Vec::new();
    let mut untraced_wall = None;
    let mut rss = None;
    let start = Instant::now();
    // Untraced runs repeat the shard until the time is up; traced runs
    // make one untraced and one traced call, for the overhead ratio.
    let mut index = 0usize;
    while if ctx.traced {
        index < 2
    } else {
        start.elapsed().as_secs_f64() < ctx.seconds
    } {
        let traced_call = ctx.traced && index == 1;
        let dir = work.join(format!("out-{index}"));
        let sampler =
            traced_call.then(|| Sampler::start(None, procfs::current_tid().into_iter().collect()));
        let t0 = Instant::now();
        let call = generate(ctx, &manifest, dir)?;
        let threads = sampler.map(Sampler::finish);
        report.attempted += points as u64;
        digests.push(check(&call, points, report));
        // Read after the first call, so the figure does not depend on
        // how many calls the host's speed fits into the run.
        rss = rss.or_else(|| procfs::peak_rss_mb(None));
        if traced_call {
            let root = tracer.record("dataset.generate", None, index as u64, t0, Instant::now());
            for (id, ms) in call.arrivals_ms.iter().enumerate() {
                let end = t0 + Duration::from_secs_f64(ms / 1e3);
                tracer.record("dataset.record_durable", Some(root), id as u64, t0, end);
            }
            if let Some(t) = threads {
                report.set_pool(t, ctx.workers, call.wall_s, points);
            }
        } else {
            untraced_wall = Some(call.wall_s);
            let _ = std::fs::remove_dir_all(&call.dir);
        }
        calls.push(call);
        index += 1;
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        report.fail("repeated shard runs published different bytes");
    }
    let records: usize = calls.iter().map(|c| c.report.records).sum();
    let per_call = |f: &dyn Fn(&Call) -> Option<f64>| -> Option<f64> {
        let values = calls.iter().map(f).collect::<Option<Vec<f64>>>()?;
        (!values.is_empty()).then(|| median(&values))
    };
    for (name, q) in [("latency_ms_p50", 0.5), ("latency_ms_p90", 0.9)] {
        match per_call(&|c| percentile(&c.arrivals_ms, q)) {
            Some(v) => report.set(name, v, records),
            None => report
                .problems
                .push(format!("{name}: too few records per call")),
        }
    }
    let throughput = per_call(&|c| Some(c.report.records as f64 / c.wall_s));
    report.set("throughput_per_s", throughput.unwrap_or(0.0), records);
    report.set("peak_rss_mb", rss.unwrap_or(0.0), 1);
    if !ctx.traced {
        return Ok(());
    }

    let traced = calls.last().ok_or("no traced call")?;
    if let Some(base) = untraced_wall {
        report.set("trace.overhead_ratio", ratio(traced.wall_s, base), 1);
    }
    set_dataset_layer(report, &manifest, traced, work)?;
    let lookups = (traced.report.cache_hits + traced.report.cache_misses) as usize;
    report.set("cache.hit_ratio", report_ratio(traced), lookups);

    // Synthesis and verification probes on the plan's own points.
    let parsed: Vec<_> = plan
        .points
        .iter()
        .take(SYNTH_PROBES)
        .map(|p| {
            let spec = oasys::specfile::parse(&p.spec_text).map_err(|e| e.to_string())?;
            let process =
                oasys_process::techfile::parse(&p.tech_text).map_err(|e| e.to_string())?;
            Ok((p, spec, process))
        })
        .collect::<Result<_, String>>()?;
    let (mut attempts, mut pruned, mut infeasible) = (0u64, 0u64, 0u64);
    let mut synth_ms = Vec::new();
    let mut probes = Vec::new();
    for (i, (point, spec, process)) in parsed.iter().enumerate() {
        let synth = inputs::synthesize(spec, process, &SearchOptions::new(), &MemoCache::new());
        tracer.record("synth.call", None, point.id as u64, synth.start, synth.end);
        synth_ms.push(synth.ms());
        attempts += synth.counts.attempts;
        pruned += synth.counts.pruned;
        infeasible += u64::from(synth.answer == Design::Infeasible);
        let mismatch = plan.mismatch_for(point);
        if probes.len() < VERIFY_PROBES && mismatch.is_some() {
            if let Some(design) = &synth.selected {
                let probe = probe::verify_probe(
                    design,
                    process,
                    spec.load().farads(),
                    mismatch,
                    &mut tracer,
                    (points + i) as u64,
                )
                .ok_or_else(|| format!("verification probe failed on point {}", point.id))?;
                probes.push(probe);
            }
        }
    }
    report.set_percentiles("synth.call_ms_p50", "synth.call_ms_p90", &synth_ms);
    report.set(
        "synth.infeasible_frac",
        ratio(infeasible as f64, parsed.len() as f64),
        parsed.len(),
    );
    report.set(
        "synth.pruned_frac",
        ratio(pruned as f64, attempts as f64),
        attempts as usize,
    );
    let verify: Vec<f64> = probes.iter().map(|p| p.verify_ms).collect();
    report.set_percentiles("verify.call_ms_p50", "verify.call_ms_p90", &verify);
    report.set_verify_probes(&probes);
    let techs: Vec<&str> = parsed
        .iter()
        .take(6)
        .map(|(p, _, _)| p.tech_text.as_str())
        .collect();
    let specs: Vec<&str> = parsed
        .iter()
        .take(30)
        .map(|(p, _, _)| p.spec_text.as_str())
        .collect();
    let (tech_us, spec_us) = probe::parse_times_us(&techs, &specs, 20);
    report.set("parse.tech_us", tech_us, techs.len());
    report.set("parse.spec_us", spec_us, specs.len());
    ctx.write_trace(&tracer, report);
    Ok(())
}

/// The shard call's design-cache hit ratio.
fn report_ratio(call: &Call) -> f64 {
    let (hits, misses) = (call.report.cache_hits, call.report.cache_misses);
    ratio(hits as f64, (hits + misses) as f64)
}

/// Sets the dataset-layer metrics from one published shard call.
fn set_dataset_layer(
    report: &mut Report,
    manifest: &Manifest,
    call: &Call,
    work: &Path,
) -> Result<(), String> {
    let lookups = (call.report.cache_hits + call.report.cache_misses) as usize;
    report.set("dataset.cache_hit_ratio", report_ratio(call), lookups);
    let expand: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let _ = std::hint::black_box(DatasetPlan::expand(manifest));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.set("dataset.plan_expand_ms", median(&expand), expand.len());
    report.set(
        "dataset.sink_us_per_record",
        replay_sink(call, work)?,
        call.report.records,
    );
    let t = Instant::now();
    dataset::merge(&call.dir).map_err(|e| format!("merge: {e}"))?;
    report.set("dataset.merge_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    Ok(())
}

/// The dataset layer measured from another workload's traced run: one
/// checked shard call of this workload's manifest, then the
/// dataset-layer metrics of [`set_dataset_layer`].
///
/// # Errors
///
/// Inputs, generation or the sink failing.
pub fn layer_probe(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let work = ctx
        .tmp
        .join(format!("dataset-probe-{}", std::process::id()));
    let result = (|| {
        let (manifest, plan) = load(&write_inputs(ctx, &work.join("inputs"))?)?;
        let call = generate(ctx, &manifest, work.join("out"))?;
        check(&call, plan.points.len(), report);
        set_dataset_layer(report, &manifest, &call, &work)
    })();
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Replays the published shard's records through a fresh sink — open,
/// one `record` per line, finalize — and returns µs per record.
fn replay_sink(call: &Call, work: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(sink::shard_records_path(&call.dir, 0, 1))
        .map_err(|e| e.to_string())?;
    let summary = std::fs::read_to_string(sink::shard_summary_path(&call.dir, 0, 1))
        .map_err(|e| e.to_string())?;
    let payloads: Vec<(usize, &str)> = text
        .lines()
        .filter_map(|l| Some((sink::parse_record_id(l)?, sink::open_record_line(l)?)))
        .collect();
    let dir = work.join("replay");
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    let mut replay = sink::ShardSink::open(&dir, 0, 1).map_err(|e| e.to_string())?;
    for (id, payload) in &payloads {
        replay.record(*id, payload).map_err(|e| e.to_string())?;
    }
    replay.finalize(&summary).map_err(|e| e.to_string())?;
    let us = start.elapsed().as_secs_f64() * 1e6 / payloads.len().max(1) as f64;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_carries_the_seed() {
        assert!(manifest_text(7).contains("sample.seed = 7\n"));
        assert_ne!(manifest_text(7), manifest_text(8));
        let manifest = Manifest::parse(&manifest_text(3)).expect("manifest parses");
        assert_eq!(manifest.sampling().count, Some(12));
    }
}
