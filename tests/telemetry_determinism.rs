//! Worker-count determinism of telemetry exports: the batch runner
//! forks one telemetry seed per job attempt and absorbs the recordings
//! back in job order, so a traced batch under an injected
//! [`ManualClock`] must render **byte-identical** reports at any worker
//! count — spans, events, counters, and latency histograms alike. The
//! one sanctioned difference is the root `batch` span's `workers`
//! annotation, which records the width the run was asked for.

use oasys::batch::{Batch, BatchOptions, Manifest, SynthRunner};
use oasys_telemetry::{schema, ManualClock, RunReport, Telemetry};
use std::rc::Rc;
use std::sync::Arc;

/// The paper's 3×3 sweep (specs A/B/C × the three bundled processes),
/// verified, run at `workers` width with a frozen clock. Any difference
/// between runs is structural, not temporal.
fn traced_batch(workers: usize) -> RunReport {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/data/sweep.manifest");
    let jobs = Manifest::load(manifest)
        .and_then(|m| m.expand())
        .expect("bundled sweep manifest expands");
    let tel = Telemetry::with_clock(Rc::new(ManualClock::new()));
    let report = Batch::new(jobs, BatchOptions::default().with_workers(workers))
        .run(&Arc::new(SynthRunner::new()), &tel, |_| {})
        .expect("sweep runs without a checkpoint");
    assert_eq!(report.counts().failed, 0, "every job reaches an answer");
    tel.report()
}

/// The JSON-lines export with the root span's `workers` annotation
/// masked, after checking it carries the expected width.
fn masked_jsonl(report: &RunReport, workers: usize) -> String {
    let jsonl = report.render_jsonl();
    schema::validate_jsonl(&jsonl).expect("export validates");
    let annotation = format!("\"workers\":\"{workers}\"");
    assert_eq!(
        jsonl.matches(&annotation).count(),
        1,
        "exactly one {annotation} annotation in:\n{jsonl}"
    );
    jsonl.replace(&annotation, "\"workers\":\"*\"")
}

#[test]
fn batch_reports_are_byte_identical_across_worker_counts() {
    let sequential = masked_jsonl(&traced_batch(1), 1);
    let parallel = masked_jsonl(&traced_batch(3), 3);
    assert_eq!(
        sequential, parallel,
        "workers=3 must render the exact bytes of workers=1"
    );
}

#[test]
fn batch_latency_histograms_are_worker_count_independent() {
    let histograms = |workers: usize| {
        traced_batch(workers)
            .metrics()
            .histograms()
            .map(|(name, h)| (name.to_owned(), h.count(), h.sum(), h.buckets().to_vec()))
            .collect::<Vec<_>>()
    };
    let sequential = histograms(1);
    // Per-step and per-analysis spans exist, so the set is non-trivial.
    assert!(
        sequential
            .iter()
            .any(|(name, ..)| name.starts_with("span:step:")),
        "per-step latency histograms are recorded"
    );
    assert_eq!(sequential, histograms(3));
}
