//! In-memory spans recorded from the benchmark's own code around each call
//! into a layer; written out once when the run ends.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call: its layer name, the span that caused it, and its
/// interval relative to the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// Spans of one run, in the order they began.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Raw spans written beyond the per-name summary (per-query spans of a
/// serve round run to hundreds of thousands).
const RAW_SPAN_LIMIT: usize = 5_000;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span that already ended; returns its id.
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<Cow<'static, str>>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Close span `id` now, returning its duration.
    pub fn end(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Per-name `(count, total, self)` where a span's self time is its
    /// duration minus the durations of its direct children.
    pub fn summary(&self) -> BTreeMap<String, (u64, Duration, Duration)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<String, (u64, Duration, Duration)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let total = s.end - s.start;
            let e = out.entry(s.name.to_string()).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(children);
        }
        out
    }

    /// Write the per-name summary, then the first raw spans, as TSV.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "# name\tcount\ttotal_ms\tself_ms")?;
        for (name, (count, total, own)) in self.summary() {
            writeln!(
                f,
                "{name}\t{count}\t{:.4}\t{:.4}",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            )?;
        }
        writeln!(f, "# id\tparent\tname\tstart_us\tend_us")?;
        for (i, s) in self.spans.iter().take(RAW_SPAN_LIMIT).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        f.flush()
    }
}
