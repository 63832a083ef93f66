//! The OASYS benchmark: end-to-end metrics of four workloads on the
//! verified paths, and per-layer metrics from a separate traced run.
//!
//! ```text
//! oasys-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 --root <checkout> --tmp <dir> --oasys-bin <path>
//! oasys-perfbench --write-reference --root <checkout>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). See `NOTES.md` beside this crate.

mod dataset;
mod explore;
mod inputs;
mod probe;
mod procfs;
mod report;
mod rng;
mod serve;
mod stats;
mod table2;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by the names later changes refer to.
pub const WORKLOADS: [&str; 4] = [
    "table2_verified",
    "synth_explore",
    "dataset_mc_verified",
    "serve_open_loop",
];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Root of the checkout (holds `data/`, `tests/golden/`).
    pub root: PathBuf,
    /// The benchmark's own directory (holds `reference/`).
    pub bench_dir: PathBuf,
    /// Scratch directory for this run.
    pub tmp: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time, s.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// The built `oasys` binary (serve workload).
    pub oasys_bin: PathBuf,
    /// Worker count for pools and servers: the host's parallelism.
    pub workers: usize,
}

impl Ctx {
    /// Writes the run's spans next to its scratch files.
    pub fn write_trace(&self, tracer: &trace::Tracer, report: &mut Report) {
        let path = self
            .tmp
            .join(format!("trace-{}-{}.jsonl", self.workload, self.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            report.problems.push(format!("{}: {e}", path.display()));
        }
    }
}

fn parse_args() -> Result<(Ctx, bool), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut root = PathBuf::from(".");
    let mut tmp = None;
    let mut oasys_bin = None;
    let mut write_reference = false;
    while let Some(flag) = args.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: bad seed `{value}`"))?
            }
            "--seconds" => seconds = number(&value)?,
            "--trace" => traced = value == "1",
            "--root" => root = PathBuf::from(value),
            "--tmp" => tmp = Some(PathBuf::from(value)),
            "--oasys-bin" => oasys_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = match workload {
        Some(w) if WORKLOADS.contains(&w.as_str()) => w,
        Some(w) => return Err(format!("unknown workload `{w}` (one of {WORKLOADS:?})")),
        None if write_reference => String::new(),
        None => return Err("--workload is required".to_owned()),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    let bench_dir = root.join("perfbench");
    let tmp = tmp.unwrap_or_else(|| root.join(".bench_build/perfbench-tmp"));
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Ok((
        Ctx {
            workload,
            root,
            bench_dir,
            tmp,
            seed,
            seconds,
            traced,
            oasys_bin: oasys_bin.unwrap_or_else(|| PathBuf::from("oasys")),
            workers,
        },
        write_reference,
    ))
}

fn main() -> ExitCode {
    let (ctx, write_reference) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if write_reference {
        return match table2::write_reference(&ctx).and_then(|()| explore::write_reference(&ctx)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("perfbench: {}: {e}", ctx.tmp.display());
        return ExitCode::FAILURE;
    }
    let report = match ctx.workload.as_str() {
        "table2_verified" => table2::run(&ctx),
        "synth_explore" => explore::run(&ctx),
        "dataset_mc_verified" => dataset::run(&ctx),
        _ => serve::run(&ctx),
    };
    let catalogue: &[(&str, &str)] = if ctx.traced { &PER_LAYER } else { &END_TO_END };
    println!(
        "{} seed={} workers={} traced={}",
        ctx.workload, ctx.seed, ctx.workers, ctx.traced
    );
    for line in report.describe(catalogue) {
        println!("  {line}");
    }
    for problem in &report.problems {
        eprintln!("perfbench: {problem}");
    }
    let (correct, line) = report.json(catalogue);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
