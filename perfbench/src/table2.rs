//! `table2_verified`: the paper's Table 2 as a designer waits for it.
//!
//! Closed loop, one in-process caller. Each request is the CLI path:
//! synthesis with a fresh design cache, then simulator verification of
//! the selected design and the datasheet verdict. Every round sends the
//! nine Table-1 pairs in a seeded order. Verification is ~98 % of a
//! request here, so every simulator change shows; the two statically
//! infeasible pairs (b and c on 1.2 µm) bypass the simulator.

use crate::inputs::{self, Design, Pair};
use crate::probe;
use crate::procfs::{self, Sampler};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::Ctx;
use oasys::SearchOptions;
use oasys_plan::MemoCache;
use std::path::Path;
use std::time::Instant;

/// Requests per window: the end-to-end figures are medians over
/// windows of twelve rounds (enough for a 90th percentile with ten
/// samples beyond it). A run makes at least one window.
const WINDOW: usize = 108;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Random stream of the per-round order.
const STREAM: u64 = 2;
/// The reference answers, relative to the benchmark directory.
pub const REFERENCE: &str = "reference/table2.tsv";

/// Measured-value tolerances: (field, absolute, relative). A value
/// passes when within either. They admit simulator changes that move
/// results slightly (warm starts, reordered solves) but not a different
/// operating point.
const TOLERANCES: [(&str, f64, f64); 10] = [
    ("dc_gain_db", 0.5, 0.0),
    ("unity_gain_hz", 0.0, 0.03),
    ("phase_margin_deg", 2.0, 0.0),
    ("slew_v_per_s", 0.0, 0.05),
    ("swing_symmetric_v", 0.05, 0.0),
    ("offset_v", 2e-3, 0.0),
    ("power_w", 0.0, 0.02),
    ("cmrr_db", 3.0, 0.0),
    ("noise_v_rthz", 0.0, 0.05),
    ("psrr_db", 3.0, 0.0),
];

/// A verified answer: the design plus what the simulator measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Selected style and area, or infeasible.
    pub design: Design,
    /// The ten predicted figures, bit-exact.
    pub predicted: Vec<f64>,
    /// The datasheet verdict.
    pub meets_spec: bool,
    /// The ten measured figures, in [`TOLERANCES`] order.
    pub measured: Vec<Option<f64>>,
}

fn measured_fields(m: &oasys::Measured) -> Vec<Option<f64>> {
    vec![
        Some(m.dc_gain_db),
        m.unity_gain_hz,
        m.phase_margin_deg,
        m.slew_v_per_s,
        m.swing_symmetric_v,
        m.offset_v,
        Some(m.power_w),
        m.cmrr_db,
        m.noise_v_rthz,
        m.psrr_db,
    ]
}

fn predicted_fields(p: &oasys::Predicted) -> Vec<f64> {
    vec![
        p.dc_gain_db,
        p.unity_gain_hz,
        p.phase_margin_deg,
        p.slew_v_per_s,
        p.swing_neg_v,
        p.swing_pos_v,
        p.offset_v,
        p.power_w,
        p.cmrr_db,
        p.noise_v_rthz,
    ]
}

impl Answer {
    fn render(&self) -> String {
        if self.design == Design::Infeasible {
            return self.design.render();
        }
        let predicted: Vec<String> = self.predicted.iter().map(|v| format!("{v:?}")).collect();
        let measured: Vec<String> = self
            .measured
            .iter()
            .map(|v| v.map_or_else(|| "none".to_owned(), |v| format!("{v:?}")))
            .collect();
        format!(
            "{}\t{}\t{}\t{}",
            self.design.render(),
            predicted.join(","),
            self.meets_spec,
            measured.join(",")
        )
    }

    fn parse(fields: &[String]) -> Option<Self> {
        let design = Design::parse(fields.first()?)?;
        if design == Design::Infeasible {
            return Some(Self {
                design,
                predicted: Vec::new(),
                meets_spec: false,
                measured: Vec::new(),
            });
        }
        let predicted = fields
            .get(1)?
            .split(',')
            .map(str::parse)
            .collect::<Result<Vec<f64>, _>>()
            .ok()?;
        let meets_spec = fields.get(2)?.parse().ok()?;
        let measured = fields
            .get(3)?
            .split(',')
            .map(|v| {
                if v == "none" {
                    Ok(None)
                } else {
                    v.parse().map(Some)
                }
            })
            .collect::<Result<Vec<Option<f64>>, _>>()
            .ok()?;
        Some(Self {
            design,
            predicted,
            meets_spec,
            measured,
        })
    }

    /// Differences from `reference`: design and predicted figures must
    /// match exactly, the verdict must match, and measured figures must
    /// agree within [`TOLERANCES`].
    fn differences(&self, reference: &Answer) -> Vec<String> {
        let mut out = Vec::new();
        if self.design != reference.design {
            out.push(format!(
                "design {} != reference {}",
                self.design.render(),
                reference.design.render()
            ));
            return out;
        }
        if self.predicted != reference.predicted {
            out.push("predicted figures differ from the reference".to_owned());
        }
        if self.meets_spec != reference.meets_spec {
            out.push(format!("meets_spec {} != reference", self.meets_spec));
        }
        for ((name, abs, rel), (got, want)) in TOLERANCES
            .iter()
            .zip(self.measured.iter().zip(&reference.measured))
        {
            let ok = match (got, want) {
                (Some(g), Some(w)) => (g - w).abs() <= abs.max(rel * w.abs()),
                (None, None) => true,
                _ => false,
            };
            if !ok {
                out.push(format!("measured {name} {got:?} vs reference {want:?}"));
            }
        }
        out
    }
}

/// What one request did.
struct Request {
    answer: Answer,
    synth: inputs::Synth,
    verify_ms: Option<(Instant, Instant)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// One CLI-path request: synthesis with a fresh cache, verification,
/// datasheet verdict.
fn request(pair: &Pair) -> Result<Request, String> {
    let cache = MemoCache::new();
    let synth = inputs::synthesize(&pair.spec, &pair.process, &SearchOptions::new(), &cache);
    let mut verify_ms = None;
    let answer = match &synth.selected {
        None => Answer {
            design: Design::Infeasible,
            predicted: Vec::new(),
            meets_spec: false,
            measured: Vec::new(),
        },
        Some(design) => {
            let start = Instant::now();
            let verification = oasys::verify(design, &pair.process, pair.spec.load().farads())
                .map_err(|e| format!("{}: verification failed: {e}", pair.label()))?;
            let meets_spec = inputs::meets_spec(&pair.spec, design, &verification.measured);
            verify_ms = Some((start, Instant::now()));
            Answer {
                design: synth.answer.clone(),
                predicted: predicted_fields(design.predicted()),
                meets_spec,
                measured: measured_fields(&verification.measured),
            }
        }
    };
    Ok(Request {
        answer,
        synth,
        verify_ms,
        hits: cache.hits(),
        misses: cache.misses(),
        evictions: cache.evictions(),
    })
}

/// Reads the reference answers, keyed by pair label.
fn reference(dir: &Path) -> Result<Vec<(String, Answer)>, String> {
    inputs::read_reference(&dir.join(REFERENCE))?
        .into_iter()
        .map(|(key, fields)| {
            Answer::parse(&fields)
                .map(|a| (key.clone(), a))
                .ok_or_else(|| format!("{REFERENCE}: bad line for {key}"))
        })
        .collect()
}

fn key(pair: &Pair) -> String {
    format!("{}|{}", pair.spec_name, pair.tech_name)
}

/// Writes the reference answers of the nine pairs.
///
/// # Errors
///
/// Inputs missing or a request failing.
pub fn write_reference(ctx: &Ctx) -> Result<(), String> {
    let mut out = String::from(
        "# pair\tdesign\tpredicted\tmeets_spec\tmeasured (dc_gain_db,unity_gain_hz,phase_margin_deg,\
         slew_v_per_s,swing_symmetric_v,offset_v,power_w,cmrr_db,noise_v_rthz,psrr_db)\n",
    );
    for pair in inputs::table1(&ctx.root)? {
        out.push_str(&format!(
            "{}\t{}\n",
            key(&pair),
            request(&pair)?.answer.render()
        ));
    }
    std::fs::write(ctx.bench_dir.join(REFERENCE), out).map_err(|e| e.to_string())
}

/// Checks that the 5 µm cases, designed on the builtin 5 µm process the
/// golden fixtures were captured on, still give the golden style, area
/// and predicted figures. (The bundled `generic-5um.tech` rounds some
/// parameters differently, so its designs are checked against the
/// benchmark's own reference instead.)
fn golden_check(ctx: &Ctx, report: &mut Report) {
    let process = oasys_process::builtin::cmos_5um();
    for (name, file) in [
        ("spec-a", "case_a"),
        ("spec-b", "case_b"),
        ("spec-c", "case_c"),
    ] {
        let path = ctx.root.join("tests/golden").join(format!("{file}.txt"));
        let spec_path = ctx.root.join("data").join(format!("{name}.txt"));
        let (Ok(golden), Ok(spec_text)) = (
            std::fs::read_to_string(&path),
            std::fs::read_to_string(&spec_path),
        ) else {
            report
                .problems
                .push(format!("cannot read {}", path.display()));
            continue;
        };
        let Ok(spec) = oasys::specfile::parse(&spec_text) else {
            report.problems.push(format!("{name} does not parse"));
            continue;
        };
        let Ok(synthesis) = oasys::synthesize(&spec, &process) else {
            report
                .problems
                .push(format!("{name} on builtin 5 µm is infeasible"));
            continue;
        };
        let d = synthesis.selected();
        let p = d.predicted();
        let mut rendered = vec![
            format!("style: {}", d.style()),
            format!(
                "area_um2: active={:?} capacitor={:?}",
                d.area().active().square_micrometers(),
                d.area().capacitor().square_micrometers()
            ),
        ];
        for (field, v) in [
            ("dc_gain_db", p.dc_gain_db),
            ("unity_gain_hz", p.unity_gain_hz),
            ("phase_margin_deg", p.phase_margin_deg),
            ("slew_v_per_s", p.slew_v_per_s),
            ("swing_neg_v", p.swing_neg_v),
            ("swing_pos_v", p.swing_pos_v),
            ("offset_v", p.offset_v),
            ("power_w", p.power_w),
            ("cmrr_db", p.cmrr_db),
            ("noise_v_rthz", p.noise_v_rthz),
        ] {
            rendered.push(format!("  {field}: {v:?}"));
        }
        for line in rendered {
            if !golden.lines().any(|g| g == line) {
                report.fail(format!(
                    "{file}: `{}` not in the golden fixture",
                    line.trim()
                ));
            }
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new(ctx.traced);
    let mut setups = Vec::new();
    let mut pairs = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        pairs = match inputs::table1(&ctx.root) {
            Ok(p) => p,
            Err(e) => {
                report.problems.push(e);
                return report;
            }
        };
        for pair in &pairs {
            if let Err(e) = request(pair) {
                report.problems.push(e);
            }
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setups), setups.len());
    golden_check(ctx, &mut report);
    let reference = match reference(&ctx.bench_dir) {
        Ok(r) => r,
        Err(e) => {
            report.problems.push(e);
            return report;
        }
    };

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut rng = Rng::new(ctx.seed, STREAM);
    let sampler = ctx
        .traced
        .then(|| Sampler::start(None, procfs::current_tid().into_iter().collect()));
    let mut latencies = Vec::new();
    let mut done_s = Vec::new();
    let (mut traced_ms, mut traced_n, mut plain_ms, mut plain_n) = (0.0, 0usize, 0.0, 0usize);
    let (mut attempts, mut pruned, mut infeasible) = (0u64, 0u64, 0u64);
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    let mut round = 0usize;
    let start = Instant::now();
    loop {
        let enough = if ctx.traced {
            tracer.durations_ms("verify.call").len() >= WINDOW
        } else {
            latencies.len() >= WINDOW
        };
        if enough && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        // Traced runs alternate traced and untraced rounds of the same
        // nine pairs, so the two halves compare like with like.
        let traced_round = ctx.traced && round % 2 == 1;
        rng.shuffle(&mut order);
        for &index in &order {
            let pair = &pairs[index];
            let id = report.attempted;
            report.attempted += 1;
            let t0 = Instant::now();
            let outcome = request(pair);
            let t1 = Instant::now();
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            latencies.push(ms);
            done_s.push((t1 - start).as_secs_f64());
            let req = match outcome {
                Ok(req) => req,
                Err(e) => {
                    report.fail(e);
                    continue;
                }
            };
            if traced_round {
                let root = tracer.record("request", None, id, t0, t1);
                tracer.record("synth.call", Some(root), id, req.synth.start, req.synth.end);
                if let Some((v0, v1)) = req.verify_ms {
                    tracer.record("verify.call", Some(root), id, v0, v1);
                }
                traced_ms += ms;
                traced_n += 1;
            } else {
                plain_ms += ms;
                plain_n += 1;
            }
            attempts += req.synth.counts.attempts;
            pruned += req.synth.counts.pruned;
            infeasible += u64::from(req.answer.design == Design::Infeasible);
            hits += req.hits;
            misses += req.misses;
            evictions += req.evictions;
            match reference.iter().find(|(k, _)| *k == key(pair)) {
                Some((_, want)) => {
                    let diffs = req.answer.differences(want);
                    if !diffs.is_empty() {
                        report.fail(format!("{}: {}", pair.label(), diffs.join("; ")));
                    }
                }
                None => report.fail(format!("{}: no reference answer", pair.label())),
            }
        }
        round += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let threads = sampler.map(Sampler::finish);
    report.set_windowed(&latencies, &done_s, WINDOW);
    report.set("peak_rss_mb", procfs::peak_rss_mb(None).unwrap_or(0.0), 1);
    if !ctx.traced {
        return report;
    }

    let n = report.attempted as usize;
    let techs: Vec<&str> = pairs.iter().map(|p| p.tech_text.as_str()).collect();
    let specs: Vec<&str> = pairs.iter().map(|p| p.spec_text.as_str()).collect();
    let (tech_us, spec_us) = probe::parse_times_us(&techs, &specs, 50);
    report.set("parse.tech_us", tech_us, techs.len());
    report.set("parse.spec_us", spec_us, specs.len());
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
    report.set(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        n,
    );
    report.set("cache.evictions", evictions as f64, n);
    let verify = tracer.durations_ms("verify.call");
    report.set_percentiles("verify.call_ms_p50", "verify.call_ms_p90", &verify);
    if let Some(t) = threads {
        report.set_pool(t, ctx.workers, wall, n);
    }
    report.set(
        "trace.overhead_ratio",
        ratio(traced_ms / traced_n as f64, plain_ms / plain_n as f64),
        traced_n,
    );

    // One verification probe per feasible pair.
    let mut probes = Vec::new();
    for (i, pair) in pairs.iter().enumerate() {
        let synth = inputs::synthesize(
            &pair.spec,
            &pair.process,
            &SearchOptions::new(),
            &MemoCache::new(),
        );
        if let Some(design) = synth.selected {
            let id = (n + i) as u64;
            match probe::verify_probe(
                &design,
                &pair.process,
                pair.spec.load().farads(),
                None,
                &mut tracer,
                id,
            ) {
                Some(p) => probes.push(p),
                None => report.fail(format!("{}: verification probe failed", pair.label())),
            }
        }
    }
    report.set_verify_probes(&probes);
    ctx.write_trace(&tracer, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_round_trip_and_tolerate_small_drift() {
        let answer = Answer {
            design: Design::Selected {
                style: "two-stage".to_owned(),
                area_um2: 1234.5,
            },
            predicted: (0..10).map(f64::from).collect(),
            meets_spec: true,
            measured: (0..10)
                .map(|i| (i != 3).then_some(100.0 + f64::from(i)))
                .collect(),
        };
        let fields: Vec<String> = answer.render().split('\t').map(str::to_owned).collect();
        let parsed = Answer::parse(&fields).expect("parses");
        assert_eq!(parsed, answer);
        assert!(answer.differences(&parsed).is_empty());
        let mut drifted = answer.clone();
        drifted.measured[0] = Some(100.2);
        assert!(drifted.differences(&answer).is_empty());
        drifted.measured[0] = Some(101.0);
        assert_eq!(drifted.differences(&answer).len(), 1);
        drifted.meets_spec = false;
        assert_eq!(drifted.differences(&answer).len(), 2);
    }
}
