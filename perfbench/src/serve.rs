//! `serve_open_loop`: the built `oasys serve` under an open-loop client.
//!
//! The server runs as a child process on a socket in a fresh scratch
//! directory, with one pool worker per core. One generator process,
//! with at most one thread and one connection per core, sends a seeded
//! fixed sequence of the nine Table-1 pairs on a fixed schedule of 3
//! requests/s per worker, about a fifth of what the server can answer:
//! nearer capacity, queueing amplifies the host's speed drift into the
//! latency figures. Each request is timed from when it was due, so a
//! stall also charges the requests queued behind it. Framing, the accept loop, admission
//! and the warm, small-working-set cache are exercised only here.

use crate::inputs::{self, Design, Pair};
use crate::probe;
use crate::procfs::{self, Sampler};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, percentile, ratio, windowed};
use crate::trace::Tracer;
use crate::Ctx;
use oasys::serve::{op_request, request, synth_request};
use oasys::SearchOptions;
use oasys_plan::MemoCache;
use oasys_telemetry::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered load per server worker, requests/s.
const RATE_PER_WORKER: f64 = 3.0;
/// Set-up repetitions (server start + warm-up); `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Requests per window of the median latency: `latency_ms_p50` is the
/// median over windows of 30 consecutive requests, so a slow burst of
/// the host covering a minority of the run does not move it. A run is
/// too short for more than one window of a 90th percentile, which is
/// taken over the whole run.
const P50_WINDOW: usize = 30;
/// Idle pings of the traced run.
const PINGS: usize = 110;
/// Random stream of the request order.
const STREAM: u64 = 4;
/// How long the server may take to answer its first ping or to drain.
const START_STOP_LIMIT: Duration = Duration::from_secs(20);

/// A running `oasys serve` child. Dropping it kills and reaps the
/// process, so a failed run leaves no server behind.
struct Server {
    child: Option<Child>,
    socket: PathBuf,
    stderr: PathBuf,
}

impl Server {
    /// Starts the server in `dir` and waits until `ping` answers.
    fn start(ctx: &Ctx, dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("s.sock");
        let stderr = dir.join("server.err");
        let log = std::fs::File::create(&stderr).map_err(|e| e.to_string())?;
        let child = Command::new(&ctx.oasys_bin)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--workers")
            .arg(ctx.workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("{}: {e}", ctx.oasys_bin.display()))?;
        let mut server = Self {
            child: Some(child),
            socket,
            stderr,
        };
        let start = Instant::now();
        loop {
            if server.call(&op_request("ping")).is_ok() {
                return Ok(server);
            }
            if let Some(child) = server.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("server exited before answering: {status}"));
                }
            }
            if start.elapsed() > START_STOP_LIMIT {
                return Err("server did not answer ping".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    fn call(&self, body: &str) -> Result<Json, String> {
        let text = request(&self.socket, body).map_err(|e| e.to_string())?;
        json::parse(&text).map_err(|e| e.to_string())
    }

    /// Asks the server to drain, waits for it to exit, and returns its
    /// standard error.
    fn stop(mut self) -> Result<String, String> {
        let asked = self.call(&op_request("shutdown"));
        let mut child = self.child.take().ok_or("server already stopped")?;
        let start = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if start.elapsed() < START_STOP_LIMIT => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        asked?;
        let log = std::fs::read_to_string(&self.stderr).unwrap_or_default();
        match status {
            Some(s) if s.success() => Ok(log),
            Some(s) => Err(format!("server exited with {s}: {log}")),
            None => Err("server did not drain; killed".to_owned()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The expected answer of one pair.
struct Expected {
    design: Design,
    meets_spec: Option<bool>,
}

/// In-process answers of the nine pairs: style and area from a local
/// synthesis, the verdict from the Table-2 reference.
fn expected(ctx: &Ctx, pairs: &[Pair]) -> Result<Vec<Expected>, String> {
    let reference = inputs::read_reference(&ctx.bench_dir.join(crate::table2::REFERENCE))?;
    pairs
        .iter()
        .map(|pair| {
            let synth = inputs::synthesize(
                &pair.spec,
                &pair.process,
                &SearchOptions::new(),
                &MemoCache::new(),
            );
            let key = format!("{}|{}", pair.spec_name, pair.tech_name);
            let meets_spec = reference
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, f)| f.get(2))
                .and_then(|v| v.parse().ok());
            if synth.answer != Design::Infeasible && meets_spec.is_none() {
                return Err(format!("no reference verdict for {key}"));
            }
            Ok(Expected {
                design: synth.answer,
                meets_spec,
            })
        })
        .collect()
}

/// Checks one answer; returns why it counts as failed.
fn judge(answer: &Result<Json, String>, want: &Expected) -> Option<String> {
    let answer = match answer {
        Ok(a) => a,
        Err(e) => return Some(format!("request failed: {e}")),
    };
    let status = answer.get("status").and_then(Json::as_str);
    match (status, &want.design) {
        (Some("ok"), Design::Selected { style, area_um2 }) => {
            let got_style = answer.get("style").and_then(Json::as_str);
            let got_area = answer.get("area_um2").and_then(Json::as_num);
            if got_style != Some(style.as_str()) || got_area != Some(*area_um2) {
                return Some(format!(
                    "answer {got_style:?} {got_area:?} != in-process {style} {area_um2}"
                ));
            }
            if answer.get("degraded").is_some() {
                return Some("degraded answer".to_owned());
            }
            let meets = answer.get("meets_spec").and_then(Json::as_bool);
            if meets.is_none() || meets != want.meets_spec {
                return Some(format!("meets_spec {meets:?} != {:?}", want.meets_spec));
            }
            None
        }
        (Some("error"), Design::Infeasible)
            if answer.get("kind").and_then(Json::as_str) == Some("infeasible") =>
        {
            None
        }
        (Some("busy"), _) => Some("shed".to_owned()),
        _ => Some(format!("unexpected answer {:?}", answer.get("status"))),
    }
}

/// One open-loop request as the generator saw it.
struct Sent {
    index: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    verdict: Option<String>,
}

/// Sends `sequence` on the schedule `t0 + i / rate` from `threads`
/// threads, one connection each at a time.
fn open_loop(
    server: &Server,
    bodies: &[String],
    wanted: &[Expected],
    sequence: &[usize],
    rate: f64,
    threads: usize,
) -> (Instant, Vec<Sent>) {
    let t0 = Instant::now() + Duration::from_millis(50);
    let next = AtomicUsize::new(0);
    let mut all = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&pair) = sequence.get(index) else {
                            break;
                        };
                        let due = t0 + Duration::from_secs_f64(index as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let answer = server.call(&bodies[pair]);
                        let done = Instant::now();
                        mine.push(Sent {
                            index,
                            due,
                            sent,
                            done,
                            verdict: judge(&answer, &wanted[pair]),
                        });
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            all.extend(handle.join().unwrap_or_default());
        }
    });
    all.sort_by_key(|s| s.index);
    (t0, all)
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new(ctx.traced);
    let dir = ctx.tmp.join(format!("serve-{}", std::process::id()));
    if let Err(e) = run_in(ctx, &dir, &mut report) {
        report.problems.push(e);
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn run_in(ctx: &Ctx, dir: &Path, report: &mut Report) -> Result<(), String> {
    let pairs = inputs::table1(&ctx.root)?;
    let wanted = expected(ctx, &pairs)?;
    let bodies: Vec<String> = pairs
        .iter()
        .map(|p| synth_request(&p.spec_text, &p.tech_text, None))
        .collect();

    // Set-up: start a server until ping answers, then one warm-up pass.
    // All but the last server are stopped again.
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            Server::stop(previous)?;
        }
        let start = Instant::now();
        let s = Server::start(ctx, &dir.join(format!("s{rep}")))?;
        for (body, want) in bodies.iter().zip(&wanted) {
            if let Some(why) = judge(&s.call(body), want) {
                return Err(format!("warm-up: {why}"));
            }
        }
        setups.push(start.elapsed().as_secs_f64());
        server = Some(s);
    }
    report.set("setup_s", median(&setups), setups.len());
    let server = server.ok_or("no server started")?;

    let rate = RATE_PER_WORKER * ctx.workers as f64;
    let count = (rate * ctx.seconds).round().max(1.0) as usize;
    let mut rng = Rng::new(ctx.seed, STREAM);
    let mut sequence = Vec::with_capacity(count);
    while sequence.len() < count {
        let mut round: Vec<usize> = (0..pairs.len()).collect();
        rng.shuffle(&mut round);
        sequence.extend(round);
    }
    sequence.truncate(count);

    let sampler = ctx
        .traced
        .then(|| Sampler::start(server.pid(), server.pid().into_iter().collect()));
    let (t0, sent) = open_loop(&server, &bodies, &wanted, &sequence, rate, ctx.workers);
    let threads = sampler.map(Sampler::finish);
    let last = sent.iter().map(|s| s.done).max().unwrap_or(t0);
    report.attempted = sent.len() as u64;
    let mut answered = 0usize;
    for s in &sent {
        match &s.verdict {
            Some(why) => report.fail(format!("request {}: {why}", s.index)),
            None => answered += 1,
        }
    }
    let latencies: Vec<f64> = sent.iter().map(|s| ms(s.due, s.done)).collect();
    let late: Vec<f64> = sent.iter().map(|s| ms(s.due, s.sent)).collect();
    let n = latencies.len();
    match windowed(&latencies, P50_WINDOW, |w| percentile(w, 0.5)) {
        Some(v) => report.set("latency_ms_p50", v, n),
        None => report
            .problems
            .push(format!("latency_ms_p50: {n} requests fill no window")),
    }
    match percentile(&latencies, 0.9) {
        Some(v) => report.set("latency_ms_p90", v, n),
        None => report
            .problems
            .push(format!("latency_ms_p90: {n} requests are too few")),
    }
    report.set(
        "throughput_per_s",
        answered as f64 / ms(t0, last).max(1e-3) * 1e3,
        answered,
    );

    // Run hygiene: a shed or degraded answer, or a generator that fell
    // behind its schedule, makes the run invalid.
    let health = server.call(&op_request("health"))?;
    let count_of = |key: &str| health.get(key).and_then(Json::as_num).unwrap_or(f64::NAN);
    for key in ["shed", "degraded_served"] {
        if count_of(key) != 0.0 {
            report
                .problems
                .push(format!("server health: {key} = {}", count_of(key)));
        }
    }
    let late_p90 = percentile(&late, 0.9);
    let period_ms = 1e3 / rate;
    match late_p90 {
        Some(v) if v <= period_ms => {}
        other => report.problems.push(format!(
            "generator fell behind its schedule: p90 lateness {other:?} ms > {period_ms:.1} ms"
        )),
    }
    let rss = server.pid().and_then(|pid| procfs::peak_rss_mb(Some(pid)));
    report.set("peak_rss_mb", rss.unwrap_or(0.0), 1);
    if !ctx.traced {
        Server::stop(server)?;
        return Ok(());
    }

    let mut tracer = Tracer::new(t0);
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for s in &sent {
        if s.index % 2 == 0 {
            let root = tracer.record("serve.request", None, s.index as u64, s.due, s.done);
            tracer.record(
                "serve.roundtrip",
                Some(root),
                s.index as u64,
                s.sent,
                s.done,
            );
            traced.push(ms(s.due, s.done));
        } else {
            plain.push(ms(s.due, s.done));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.set(
        "trace.overhead_ratio",
        ratio(mean(&traced), mean(&plain)),
        traced.len(),
    );
    report.set("loadgen.late_ms_p90", late_p90.unwrap_or(0.0), late.len());
    for (metric, key) in [
        ("serve.shed", "shed"),
        ("serve.degraded_served", "degraded_served"),
        ("serve.brownout_entries", "brownout_entries"),
        ("serve.evicted", "evicted"),
    ] {
        report.set(metric, count_of(key), 1);
    }
    if let Some(t) = threads {
        report.set_pool(t, ctx.workers, ms(t0, last) / 1e3, sent.len());
    }
    let mut pings = Vec::new();
    for i in 0..PINGS {
        let start = Instant::now();
        server.call(&op_request("ping"))?;
        let end = Instant::now();
        tracer.record("serve.ping", None, (sent.len() + i) as u64, start, end);
        pings.push(ms(start, end));
    }
    report.set_percentiles("serve.ping_ms_p50", "serve.ping_ms_p90", &pings);
    let log = Server::stop(server)?;
    // The dataset layer has no gated workload of its own (its shard
    // calls were too noisy on a shared host); it is measured here, with
    // the server gone.
    crate::dataset::layer_probe(ctx, report)?;
    if let Some((hits, misses, evictions)) = drain_cache_counts(&log) {
        report.set(
            "cache.hit_ratio",
            ratio(hits, hits + misses),
            (hits + misses) as usize,
        );
        report.set("cache.evictions", evictions, 1);
    }

    // In-process probes of the same nine pairs, after the server is gone.
    let (mut attempts, mut pruned, mut infeasible) = (0u64, 0u64, 0u64);
    let mut synth_ms = Vec::new();
    let mut probes = Vec::new();
    for (i, pair) in pairs.iter().enumerate() {
        for _ in 0..12 {
            let synth = inputs::synthesize(
                &pair.spec,
                &pair.process,
                &SearchOptions::new(),
                &MemoCache::new(),
            );
            synth_ms.push(synth.ms());
            attempts += synth.counts.attempts;
            pruned += synth.counts.pruned;
            infeasible += u64::from(synth.answer == Design::Infeasible);
        }
        let synth = inputs::synthesize(
            &pair.spec,
            &pair.process,
            &SearchOptions::new(),
            &MemoCache::new(),
        );
        if let Some(design) = synth.selected {
            let id = (sent.len() + PINGS + i) as u64;
            let probe = probe::verify_probe(
                &design,
                &pair.process,
                pair.spec.load().farads(),
                None,
                &mut tracer,
                id,
            )
            .ok_or_else(|| format!("{}: verification probe failed", pair.label()))?;
            probes.push(probe);
        }
    }
    report.set_percentiles("synth.call_ms_p50", "synth.call_ms_p90", &synth_ms);
    report.set(
        "synth.infeasible_frac",
        ratio(infeasible as f64, synth_ms.len() as f64),
        synth_ms.len(),
    );
    report.set(
        "synth.pruned_frac",
        ratio(pruned as f64, attempts as f64),
        attempts as usize,
    );
    let verify: Vec<f64> = probes.iter().map(|p| p.verify_ms).collect();
    report.set_percentiles("verify.call_ms_p50", "verify.call_ms_p90", &verify);
    report.set_verify_probes(&probes);
    let techs: Vec<&str> = pairs.iter().map(|p| p.tech_text.as_str()).collect();
    let specs: Vec<&str> = pairs.iter().map(|p| p.spec_text.as_str()).collect();
    let (tech_us, spec_us) = probe::parse_times_us(&techs, &specs, 50);
    report.set("parse.tech_us", tech_us, techs.len());
    report.set("parse.spec_us", spec_us, specs.len());
    ctx.write_trace(&tracer, report);
    Ok(())
}

/// Cache hits, misses and evictions from the server's drain line
/// (`… cache H hits / M misses / E evictions`).
fn drain_cache_counts(log: &str) -> Option<(f64, f64, f64)> {
    let line = log.lines().find(|l| l.contains("drained"))?;
    let tail = &line[line.find("cache ")? + 6..];
    let numbers: Vec<f64> = tail
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    match numbers[..] {
        [hits, misses, evictions, ..] => Some((hits, misses, evictions)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_drain_line() {
        let log = "serve: listening\nserve: drained — 12 served (0 degraded), 0 shed, 0 evicted, \
                   0 brownouts, 0 workers replaced, cache 40 hits / 10 misses / 2 evictions\n";
        assert_eq!(drain_cache_counts(log), Some((40.0, 10.0, 2.0)));
        assert_eq!(drain_cache_counts("nothing"), None);
    }
}
