//! `synth_explore`: design-space exploration without verification.
//!
//! Closed loop, one in-process caller, one shared bounded design cache
//! of `DEFAULT_CACHE_ENTRIES` entries namespaced per process, as `oasys
//! batch` runs it. Requests are seeded draws, with replacement, from a
//! fixed pool of distinct specs spread over the samplable fields and all
//! three processes; some are statically infeasible. The pool is large
//! enough that the cache both hits and evicts. The plan engine, pruner,
//! block designers and design cache do all the work here, the simulator
//! none.

use crate::inputs::{self, Design, TECHS};
use crate::procfs::{self, Sampler};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::Ctx;
use oasys::batch::DEFAULT_CACHE_ENTRIES;
use oasys::{OpAmpSpec, SearchOptions};
use oasys_plan::MemoCache;
use oasys_process::Process;
use std::time::Instant;

/// Distinct specs in the pool.
pub const POOL_SIZE: usize = 600;
/// Seed of the pool itself, fixed so that the reference answers hold
/// for every workload seed; the workload seed picks the draws.
const POOL_SEED: u64 = 0x0A5_1987;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Random stream of the draws.
const STREAM: u64 = 3;
/// Draws per window: the end-to-end figures are medians over windows.
const WINDOW: usize = 1000;
/// `peak_rss_mb` is read after this many timed draws: cache churn
/// fragments the heap, so a reading at the end of the run would grow
/// with the host's speed.
const RSS_AT_DRAWS: u64 = 10_000;
/// The reference answers, relative to the benchmark directory.
pub const REFERENCE: &str = "reference/explore.tsv";

/// Samplable spec fields and their ranges.
const FIELDS: [(&str, f64, f64); 6] = [
    ("dc_gain_db", 50.0, 80.0),
    ("unity_gain_mhz", 0.2, 2.0),
    ("phase_margin_deg", 45.0, 65.0),
    ("load_pf", 2.0, 10.0),
    ("slew_rate_v_per_us", 0.5, 4.0),
    ("output_swing_v", 1.0, 3.5),
];

/// One pool entry.
pub struct Entry {
    /// Spec file text.
    pub spec_text: String,
    /// Index into the processes.
    pub tech: usize,
    spec: OpAmpSpec,
}

/// The processes, their texts and their cache namespaces.
struct Techs {
    texts: Vec<String>,
    processes: Vec<Process>,
    options: Vec<SearchOptions>,
}

fn load_techs(ctx: &Ctx) -> Result<Techs, String> {
    let mut techs = Techs {
        texts: Vec::new(),
        processes: Vec::new(),
        options: Vec::new(),
    };
    for name in TECHS {
        let path = ctx.root.join("data").join(format!("{name}.tech"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let process = oasys_process::techfile::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        let namespace = format!("{:016x}", oasys::batch::fingerprint("", &text));
        techs
            .options
            .push(SearchOptions::new().with_cache_namespace(namespace));
        techs.texts.push(text);
        techs.processes.push(process);
    }
    Ok(techs)
}

/// The spec pool: `POOL_SIZE` distinct specs, process by index.
///
/// # Errors
///
/// A generated spec that does not parse (a benchmark bug).
pub fn pool() -> Result<Vec<Entry>, String> {
    let mut rng = Rng::new(POOL_SEED, 0);
    (0..POOL_SIZE)
        .map(|i| {
            let fields: Vec<(String, f64)> = FIELDS
                .iter()
                .map(|(name, lo, hi)| {
                    (
                        (*name).to_owned(),
                        (rng.range(*lo, *hi) * 1000.0).round() / 1000.0,
                    )
                })
                .collect();
            let spec_text = oasys::dataset::sample::render_spec(&format!("pool-{i:04}"), &fields);
            let spec =
                oasys::specfile::parse(&spec_text).map_err(|e| format!("pool-{i:04}: {e}"))?;
            Ok(Entry {
                spec_text,
                tech: i % TECHS.len(),
                spec,
            })
        })
        .collect()
}

/// Writes the reference answer of every pool entry.
///
/// # Errors
///
/// Inputs missing.
pub fn write_reference(ctx: &Ctx) -> Result<(), String> {
    let techs = load_techs(ctx)?;
    let mut out = String::from("# pool index\tdesign (style|area_um2 or infeasible)\n");
    for (i, entry) in pool()?.iter().enumerate() {
        let synth = inputs::synthesize(
            &entry.spec,
            &techs.processes[entry.tech],
            &SearchOptions::new(),
            &MemoCache::new(),
        );
        out.push_str(&format!("{i}\t{}\n", synth.answer.render()));
    }
    std::fs::write(ctx.bench_dir.join(REFERENCE), out).map_err(|e| e.to_string())
}

fn reference(ctx: &Ctx) -> Result<Vec<Design>, String> {
    let lines = inputs::read_reference(&ctx.bench_dir.join(REFERENCE))?;
    if lines.len() != POOL_SIZE {
        return Err(format!(
            "{REFERENCE}: {} answers for {POOL_SIZE} specs",
            lines.len()
        ));
    }
    lines
        .iter()
        .map(|(key, fields)| {
            fields
                .first()
                .and_then(|f| Design::parse(f))
                .ok_or_else(|| format!("{REFERENCE}: bad line {key}"))
        })
        .collect()
}

/// Start of an FNV-1a digest over a sequence of answers.
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends an FNV-1a digest over (style, area) answers by `answer`.
fn digest(h: u64, answer: &Design) -> u64 {
    answer
        .render()
        .bytes()
        .chain(std::iter::once(b'\n'))
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new(ctx.traced);
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let loaded = load_techs(ctx).and_then(|t| pool().map(|p| (t, p)));
        let (techs, entries) = match loaded {
            Ok(x) => x,
            Err(e) => {
                report.problems.push(e);
                return report;
            }
        };
        // Warm-up: every pool spec once, which fills the cache to its
        // steady state before the timed draws.
        let cache = MemoCache::bounded(DEFAULT_CACHE_ENTRIES);
        for e in &entries {
            inputs::synthesize(
                &e.spec,
                &techs.processes[e.tech],
                &techs.options[e.tech],
                &cache,
            );
        }
        setups.push(start.elapsed().as_secs_f64());
        state = Some((techs, entries, cache));
    }
    report.set("setup_s", median(&setups), setups.len());
    let Some((techs, entries, cache)) = state else {
        return report;
    };
    let expected = match reference(ctx) {
        Ok(r) => r,
        Err(e) => {
            report.problems.push(e);
            return report;
        }
    };

    let mut rng = Rng::new(ctx.seed, STREAM);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let sampler = ctx
        .traced
        .then(|| Sampler::start(None, procfs::current_tid().into_iter().collect()));
    let (hits0, misses0, evictions0) = (cache.hits(), cache.misses(), cache.evictions());
    let mut seen = vec![false; entries.len()];
    let (mut repeats, mut attempts, mut pruned, mut infeasible) = (0u64, 0u64, 0u64, 0u64);
    let (mut traced_ms, mut traced_n, mut plain_ms, mut plain_n) = (0.0, 0usize, 0.0, 0usize);
    let mut latencies = Vec::new();
    let mut done_s = Vec::new();
    let mut rss = None;
    let (mut got_digest, mut want_digest) = (DIGEST_SEED, DIGEST_SEED);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let index = rng.below(entries.len());
        let entry = &entries[index];
        let id = report.attempted;
        report.attempted += 1;
        let synth = inputs::synthesize(
            &entry.spec,
            &techs.processes[entry.tech],
            &techs.options[entry.tech],
            &cache,
        );
        let ms = synth.ms();
        latencies.push(ms);
        done_s.push((synth.end - start).as_secs_f64());
        if ctx.traced && id.is_multiple_of(2) {
            tracer.record("synth.call", None, id, synth.start, synth.end);
            traced_ms += ms;
            traced_n += 1;
        } else {
            plain_ms += ms;
            plain_n += 1;
        }
        repeats += u64::from(std::mem::replace(&mut seen[index], true));
        attempts += synth.counts.attempts;
        pruned += synth.counts.pruned;
        infeasible += u64::from(synth.answer == Design::Infeasible);
        if synth.answer != expected[index] {
            report.fail(format!(
                "pool-{index:04}: {} != reference {}",
                synth.answer.render(),
                expected[index].render()
            ));
        }
        want_digest = digest(want_digest, &expected[index]);
        got_digest = digest(got_digest, &synth.answer);
        if report.attempted == RSS_AT_DRAWS {
            rss = procfs::peak_rss_mb(None);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let threads = sampler.map(Sampler::finish);
    println!("synth_explore answer digest {got_digest:016x} (reference {want_digest:016x})");
    if got_digest != want_digest && report.failed == 0 {
        report.fail("answer digest differs from the reference");
    }
    let n = latencies.len();
    report.set_windowed(&latencies, &done_s, WINDOW);
    let rss = rss.or_else(|| procfs::peak_rss_mb(None));
    report.set("peak_rss_mb", rss.unwrap_or(0.0), 1);
    if !ctx.traced {
        return report;
    }

    let tech_texts: Vec<&str> = techs.texts.iter().map(String::as_str).collect();
    let spec_texts: Vec<&str> = entries
        .iter()
        .take(30)
        .map(|e| e.spec_text.as_str())
        .collect();
    let (tech_us, spec_us) = crate::probe::parse_times_us(&tech_texts, &spec_texts, 20);
    report.set("parse.tech_us", tech_us, tech_texts.len());
    report.set("parse.spec_us", spec_us, spec_texts.len());
    let synth = tracer.durations_ms("synth.call");
    report.set_percentiles("synth.call_ms_p50", "synth.call_ms_p90", &synth);
    report.set(
        "synth.infeasible_frac",
        ratio(infeasible as f64, n as f64),
        n,
    );
    report.set(
        "synth.pruned_frac",
        ratio(pruned as f64, attempts as f64),
        attempts as usize,
    );
    let (hits, misses) = (cache.hits() - hits0, cache.misses() - misses0);
    report.set(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        (hits + misses) as usize,
    );
    report.set(
        "cache.evictions",
        (cache.evictions() - evictions0) as f64,
        n,
    );
    report.set("explore.repeat_frac", ratio(repeats as f64, n as f64), n);
    if let Some(t) = threads {
        report.set_pool(t, ctx.workers, wall, n);
    }
    report.set(
        "trace.overhead_ratio",
        ratio(traced_ms / traced_n as f64, plain_ms / plain_n as f64),
        traced_n,
    );
    ctx.write_trace(&tracer, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_fixed_and_distinct() {
        let a = pool().expect("pool parses");
        let b = pool().expect("pool parses");
        assert_eq!(a.len(), POOL_SIZE);
        assert!(a.iter().zip(&b).all(|(x, y)| x.spec_text == y.spec_text));
        let mut texts: Vec<&str> = a.iter().map(|e| e.spec_text.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), POOL_SIZE);
    }

    #[test]
    fn draws_depend_on_the_seed() {
        let draws = |seed| {
            let mut rng = Rng::new(seed, STREAM);
            (0..50).map(|_| rng.below(POOL_SIZE)).collect::<Vec<_>>()
        };
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
    }
}
