//! `sweep_million`: `sweep::run_streamed` over the whole 999,936-cell
//! `sweep::million_cell()` grid — the library call `repro sweep` makes,
//! which the binary itself only reaches for the 512-cell prefix — with a
//! memo-free context, no disk cache and two workers, writing into a sink
//! that counts and fingerprints the CSV stream. Bulk pricing: three
//! quarters of the cells stop at the OOM wall in preflight and the rest
//! take the analytic fast path.

use crate::trace::Tracer;
use crate::{stats, Bench, Metric, Phase, JOBS};
use mlperf_suite::runner::{Ctx, Pool};
use mlperf_suite::sweep::{self, StreamSummary, SweepSpec};
use mlperf_testkit::hash::Fnv1a64;
use std::io::Write;
use std::time::{Duration, Instant};

/// Cells per shard: the one `repro sweep` streams with.
pub const SHARD: usize = 1024;

/// The full grid's exact shape and output, which every pass must repeat.
const CELLS: usize = 999_936;
const ERRORS: usize = 760_776;
const FAST_PATH: (u64, u64) = (231_726, 231_726);
const FINGERPRINT: u64 = 0x49ec_77b1_a4d4_6469;

/// A `Write` sink that fingerprints (FNV-1a) and counts the CSV stream and
/// stamps the moment each shard's last row arrives.
pub struct Sink {
    hash: Fnv1a64,
    pub bytes: u64,
    lines: u64,
    pub marks: Vec<Instant>,
}

impl Sink {
    pub fn new() -> Sink {
        Sink {
            hash: Fnv1a64::new(),
            bytes: 0,
            lines: 0,
            marks: Vec::new(),
        }
    }

    pub fn fingerprint(&self) -> u64 {
        self.hash.finish()
    }
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.hash.update(buf);
        self.bytes += buf.len() as u64;
        for _ in buf.iter().filter(|&&c| c == b'\n') {
            self.lines += 1;
            // Line 1 is the header; every SHARD-th row closes a shard.
            if self.lines > 1 && (self.lines - 1).is_multiple_of(SHARD as u64) {
                self.marks.push(Instant::now());
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One streamed pass over `spec` on a fresh memo-free context.
pub struct Pass {
    pub start: Instant,
    pub end: Instant,
    pub summary: std::io::Result<StreamSummary>,
    pub sink: Sink,
    pub fast: (u64, u64),
}

pub fn pass(spec: &SweepSpec, workers: usize) -> Pass {
    let start = Instant::now();
    let ctx = Ctx::without_memo();
    let pool = Pool::with_workers(workers);
    let mut sink = Sink::new();
    let summary = sweep::run_streamed(&pool, &ctx, spec, None, &mut sink, SHARD);
    let end = Instant::now();
    // The last shard may be partial; it closes when the call returns.
    if sink.lines > 1 && !(sink.lines - 1).is_multiple_of(SHARD as u64) {
        sink.marks.push(end);
    }
    Pass {
        start,
        end,
        summary,
        sink,
        fast: ctx.fast_stats(),
    }
}

impl Pass {
    /// Call to first shard written.
    pub fn first_shard(&self) -> Duration {
        self.sink.marks.first().map_or(self.end, |&m| m) - self.start
    }

    /// Time between consecutive shard completions, ms (the first measured
    /// from the call).
    pub fn shard_ms(&self) -> Vec<f64> {
        let mut prev = self.start;
        self.sink
            .marks
            .iter()
            .map(|&m| {
                let d = (m - prev).as_secs_f64() * 1e3;
                prev = m;
                d
            })
            .collect()
    }
}

pub fn run(b: &Bench, mut tracer: Option<&mut Tracer>) -> Result<Phase, String> {
    let mut phase = Phase {
        ledger_key: "sweep_million".to_string(),
        ..Phase::default()
    };
    let spec = sweep::million_cell();
    // Set-up samples: a one-shard prefix is exactly "call to first shard
    // written"; every full pass adds its own first shard below.
    let mut setup: Vec<f64> = (0..5)
        .map(|_| {
            pass(&spec.clone().truncate(SHARD), JOBS)
                .first_shard()
                .as_secs_f64()
        })
        .collect();
    let mut shard_ms = Vec::new();
    let started = Instant::now();
    while phase.attempted == 0 || started.elapsed() < b.budget {
        let p = pass(&spec, JOBS);
        phase.attempted += CELLS as u64;
        phase.busy += p.end - p.start;
        setup.push(p.first_shard().as_secs_f64());
        shard_ms.extend(p.shard_ms());
        if let Some(t) = tracer.as_deref_mut() {
            let root = t.record("sweep.pass", None, p.start, p.end);
            let mut prev = p.start;
            for &m in &p.sink.marks {
                t.record("sweep.shard", Some(root), prev, m);
                prev = m;
            }
        }
        let summary = match &p.summary {
            Ok(s) => *s,
            Err(e) => {
                phase.failed += CELLS as u64 - 1;
                phase.fail(format!("sink write failed: {e}"));
                continue;
            }
        };
        let got = (summary.cells, summary.errors, p.fast, p.sink.fingerprint());
        if got != (CELLS, ERRORS, FAST_PATH, FINGERPRINT) {
            // The whole pass is wrong: count every cell of it.
            phase.failed += CELLS as u64 - 1;
            phase.fail(format!(
                "pass gave (cells, errors, fast path, fingerprint) = ({}, {}, {:?}, {:016x}), \
                 expected ({CELLS}, {ERRORS}, {FAST_PATH:?}, {FINGERPRINT:016x})",
                got.0, got.1, got.2, got.3
            ));
            continue;
        }
        phase.ops += summary.cells as u64;
        phase.expect_counts(vec![
            ("sweep.cells".to_string(), summary.cells as u64),
            ("sweep.errors".to_string(), summary.errors as u64),
            ("sweep.fast_attempts".to_string(), p.fast.0),
            ("sweep.fast_hits".to_string(), p.fast.1),
            ("sweep.csv_bytes".to_string(), p.sink.bytes),
            ("sweep.fingerprint".to_string(), p.sink.fingerprint()),
        ]);
    }
    let rss = stats::vm_hwm_mb("self").ok_or("cannot read /proc/self/status")?;
    phase.set_end_to_end(&setup, &shard_ms, rss);
    phase.extra = vec![
        Metric::new("p90_ms", stats::percentile(&shard_ms, 0.9), "ms"),
        Metric::new(
            "sweep_cells_per_s",
            phase.ops as f64 / phase.busy.as_secs_f64(),
            "cells/s",
        ),
        Metric::new(
            "failed_ratio",
            phase.failed as f64 / phase.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    Ok(phase)
}
