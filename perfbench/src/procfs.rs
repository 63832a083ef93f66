//! Readings from `/proc`: peak resident memory and per-thread scheduler
//! statistics.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `VmHWM` (peak resident set) of `pid`, or of this process, in MiB.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Parses a `schedstat` line: nanoseconds on CPU, nanoseconds runnable
/// but waiting on a run queue, and the timeslice count.
#[must_use]
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let cpu = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    fields.next()?.parse::<u64>().ok()?;
    Some((cpu, wait))
}

/// This thread's kernel thread id, from the `/proc/thread-self` link.
#[must_use]
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU and run-queue wait summed over a process's threads during a
/// sampling window.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadTimes {
    /// Nanoseconds on CPU.
    pub cpu_ns: u64,
    /// Nanoseconds runnable but not running.
    pub wait_ns: u64,
}

type Snapshot = HashMap<u32, (u64, u64)>;

fn snapshot(task_dir: &PathBuf, exclude: &[u32]) -> Snapshot {
    let mut out = HashMap::new();
    let Ok(entries) = std::fs::read_dir(task_dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if exclude.contains(&tid) {
            continue;
        }
        if let Some(stat) = std::fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|t| parse_schedstat(&t))
        {
            out.insert(tid, stat);
        }
    }
    out
}

/// Polls `/proc/<pid>/task/*/schedstat` on a background thread. Threads
/// alive at the start are measured from their first reading; threads
/// born during the window from zero. A thread that exits between two
/// polls loses at most one poll interval of its tail.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<ThreadTimes>>,
}

/// Poll interval of [`Sampler`].
const POLL: Duration = Duration::from_millis(2);

impl Sampler {
    /// Starts sampling the threads of `pid` (this process when `None`),
    /// skipping the thread ids in `exclude` and the sampler itself.
    #[must_use]
    pub fn start(pid: Option<u32>, exclude: Vec<u32>) -> Self {
        let task_dir = PathBuf::from(match pid {
            Some(pid) => format!("/proc/{pid}/task"),
            None => "/proc/self/task".to_owned(),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut exclude = exclude;
            if pid.is_none() {
                exclude.extend(current_tid());
            }
            let base = snapshot(&task_dir, &exclude);
            let mut last = base.clone();
            loop {
                let done = flag.load(Ordering::SeqCst);
                for (tid, stat) in snapshot(&task_dir, &exclude) {
                    last.insert(tid, stat);
                }
                if done {
                    break;
                }
                std::thread::sleep(POLL);
            }
            let mut total = ThreadTimes::default();
            for (tid, (cpu, wait)) in last {
                let (cpu0, wait0) = base.get(&tid).copied().unwrap_or((0, 0));
                total.cpu_ns += cpu.saturating_sub(cpu0);
                total.wait_ns += wait.saturating_sub(wait0);
            }
            total
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the sampler and returns the window's totals.
    #[must_use]
    pub fn finish(mut self) -> ThreadTimes {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedstat_lines() {
        assert_eq!(
            parse_schedstat("123456789 2345678 901\n"),
            Some((123_456_789, 2_345_678))
        );
        assert_eq!(parse_schedstat("1 2"), None);
        assert_eq!(parse_schedstat("x 2 3"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
        let tid = current_tid().expect("thread-self link");
        let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).unwrap();
        assert!(parse_schedstat(&text).is_some());
    }

    #[test]
    fn sampler_sees_a_busy_thread() {
        let sampler = Sampler::start(None, Vec::new());
        let worker = std::thread::spawn(|| {
            let start = std::time::Instant::now();
            let mut x = 0u64;
            while start.elapsed() < Duration::from_millis(60) {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            std::thread::sleep(Duration::from_millis(10));
            x
        });
        let _ = worker.join();
        let times = sampler.finish();
        assert!(times.cpu_ns > 20_000_000, "{times:?}");
    }
}
