//! The benchmark's own spans. A traced run records one span around each
//! call it makes into a layer — name, start, end, parent, and the id of
//! the request it belongs to — keeps them in memory, and writes them as
//! JSON lines when the run ends. Per-layer figures are computed from
//! these spans. Untraced runs record nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `synth.call`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span ending now-or-later; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Ends the span `index` now.
    pub fn close(&mut self, index: usize) {
        let now = self.ns(Instant::now());
        self.spans[index].end_ns = now;
    }

    /// Durations, in ms, of every span named `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_parent() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch);
        let root = tracer.open("request", None, 1);
        let now = Instant::now();
        let child = tracer.record("synth.call", Some(root), 1, now, now);
        tracer.close(root);
        assert_eq!(tracer.spans[child].parent, Some(root));
        assert_eq!(tracer.durations_ms("request").len(), 1);
        assert!(tracer.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let path =
            std::env::temp_dir().join(format!("perfbench-trace-{}.jsonl", std::process::id()));
        tracer.write_jsonl(&path).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads");
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0,\"request\":1"));
    }
}
