//! End-to-end benchmark of the reproduction: the `repro` report and CSV
//! path (cold and warm persistent cache), the full million-cell streamed
//! sweep, and the `repro serve` daemon under a seeded what-if mix.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run through `python3 perfbench/run.py` from the repository root, which
//! builds `repro` and this binary first. `--trace 0` measures the workload
//! and prints the end-to-end metrics; `--trace 1` runs the workload half
//! untraced and half traced (so tracing overhead shows) and then times
//! calls into each layer's public functions, printing the per-layer
//! metrics. Human-readable `#` lines precede the last stdout line, the
//! JSON result. See `perfbench/README.md`.

mod layers;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use mlperf_suite::serve::protocol::json_escape;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Worker count every measured process runs with (`MLPERF_JOBS`): the
/// benchmark is sized for a 2-core machine.
pub const JOBS: usize = 2;

/// Where runs keep scratch files, relative to the checkout root.
const WORK_DIR: &str = ".bench_work";

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "report_cold",
    "report_warm",
    "sweep_million",
    "serve_whatif",
];

/// One run's settings.
pub struct Bench {
    /// The checkout root (the working directory).
    pub root: PathBuf,
    /// This workload's scratch directory under [`WORK_DIR`].
    pub work: PathBuf,
    /// The `repro` binary under test.
    pub repro: PathBuf,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the measured loop runs (at least one operation).
    pub budget: Duration,
}

/// One named number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload phase (or the layer probes) measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations attempted and failed (wrong bytes, non-zero exit, busy
    /// frame, transport error, or an inexact count).
    pub attempted: u64,
    pub failed: u64,
    /// Operations completed and the time spent in them.
    pub ops: u64,
    pub busy: Duration,
    /// The metrics the JSON result carries.
    pub metrics: Vec<Metric>,
    /// Further named metrics printed on `#` lines only.
    pub extra: Vec<Metric>,
    /// Exact counts for the deterministic-counter ledger, with the key
    /// they must repeat under (workload, plus the seed when they depend
    /// on it).
    pub ledger_key: String,
    pub counts: Vec<(String, u64)>,
    /// The first few failure messages.
    pub problems: Vec<String>,
}

impl Phase {
    /// Count one failed operation, keeping its message if it is among the
    /// first few.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(message.into());
        }
    }

    /// Record a set of exact counts that every operation of the run must
    /// reproduce: the first set becomes the run's, a later set that
    /// differs is a failure.
    pub fn expect_counts(&mut self, counts: Vec<(String, u64)>) {
        if self.counts.is_empty() {
            self.counts = counts;
        } else if self.counts != counts {
            self.fail(format!(
                "counts moved within the run: {counts:?} vs {:?}",
                self.counts
            ));
        }
    }

    /// The end-to-end metrics every workload reports, from its set-up
    /// samples (seconds), per-operation latencies (ms) and peak memory.
    /// Each workload prints its tail percentile among its `extra` metrics
    /// rather than gating it: on a shared 2-core host the tails drift
    /// between runs by more than a usable regression bound.
    pub fn set_end_to_end(&mut self, setup_s: &[f64], latency_ms: &[f64], rss_mb: f64) {
        self.metrics = vec![
            Metric::new("setup_s", stats::median(setup_s), "s"),
            Metric::new(
                "ops_per_s",
                self.ops as f64 / self.busy.as_secs_f64(),
                "1/s",
            ),
            Metric::new("p50_ms", stats::median(latency_ms), "ms"),
            Metric::new("peak_rss_mb", rss_mb, "MiB"),
        ];
    }

    fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 8 {
                self.problems.push(p);
            }
        }
    }
}

fn run_workload(b: &Bench, name: &str, tracer: Option<&mut Tracer>) -> Result<Phase, String> {
    match name {
        "report_cold" => report::cold(b, tracer),
        "report_warm" => report::warm(b, tracer),
        "sweep_million" => sweep::run(b, tracer),
        "serve_whatif" => serve::run(b, tracer),
        other => unreachable!("workload '{other}' was validated against WORKLOADS"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {usage}"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag '{flag}'; {usage}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

/// `nproc`, `MLPERF_JOBS`, CPU model and `rustc -V`, as JSON fields.
fn machine_note() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "\"nproc\":{nproc},\"MLPERF_JOBS\":{JOBS},\"cpu\":\"{}\",\"rustc\":\"{}\"",
        json_escape(&cpu),
        json_escape(&rustc)
    )
}

/// Check `counts` against the first run recorded under the same key in
/// this checkout's ledger, appending them if the key is new. Returns the
/// mismatch, if any.
fn ledger_check(work: &Path, key: &str, counts: &[(String, u64)]) -> Option<String> {
    if counts.is_empty() {
        return None;
    }
    let path = work.join("ledger.tsv");
    let line: String = counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",");
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    if let Some(prev) = existing
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key}\t")))
    {
        return (prev != line)
            .then(|| format!("ledger {key}: {line} differs from an earlier run's {prev}"));
    }
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{key}\t{line}\n").as_bytes()));
    appended
        .err()
        .map(|e| format!("ledger {}: {e}", path.display()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (known: {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    // In-process library calls resolve their pool from the environment
    // exactly as `repro` does; pin it before any thread exists.
    std::env::set_var("MLPERF_JOBS", JOBS.to_string());
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let repro = std::env::var_os("PERFBENCH_REPRO")
        .map(PathBuf::from)
        .ok_or("PERFBENCH_REPRO is not set (run through perfbench/run.py)")?;
    if !repro.is_file() {
        return Err(format!("no repro binary at {}", repro.display()));
    }
    let work_root = root.join(WORK_DIR);
    let work = work_root.join(&args.workload);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let bench = Bench {
        root: root.clone(),
        work,
        repro,
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
    };
    let machine = machine_note();
    let started = Instant::now();

    let (mut result, note) = if args.trace {
        // Half the budget untraced, half traced: the two throughputs side
        // by side are the tracing overhead.
        let half = Bench {
            budget: bench.budget / 2,
            ..bench
        };
        let mut tracer = Tracer::new();
        let plain = run_workload(&half, &args.workload, None)?;
        let traced = run_workload(&half, &args.workload, Some(&mut tracer))?;
        let probes = layers::probe(&half, &mut tracer)?;
        let rate = |p: &Phase| p.ops as f64 / p.busy.as_secs_f64();
        let note = format!(
            "\"untraced_busy_s\":{},\"untraced_ops_per_s\":{},\"traced_busy_s\":{},\"traced_ops_per_s\":{},\"tracing_overhead\":{}",
            plain.busy.as_secs_f64(),
            rate(&plain),
            traced.busy.as_secs_f64(),
            rate(&traced),
            rate(&plain) / rate(&traced) - 1.0
        );
        let trace_file = work_root.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        tracer
            .write(&trace_file)
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
        // The probes carry the metrics and exact counts; the workload
        // halves contribute their checks.
        let mut result = probes;
        result.absorb(plain);
        result.absorb(traced);
        (result, note)
    } else {
        let result = run_workload(&bench, &args.workload, None)?;
        let note = format!(
            "\"ops\":{},\"busy_s\":{}",
            result.ops,
            result.busy.as_secs_f64()
        );
        (result, note)
    };
    if let Some(problem) = ledger_check(&work_root, &result.ledger_key, &result.counts) {
        result.fail(problem);
    }
    if result.metrics.iter().any(|m| !m.value.is_finite()) {
        result.fail("a metric is not a finite number");
        for m in &mut result.metrics {
            if !m.value.is_finite() {
                m.value = -1.0;
            }
        }
    }

    let attempted = result.attempted.max(1);
    let correct = result.failed == 0;
    let mut human = String::new();
    let _ = writeln!(human, "# machine: {{{machine}}}");
    let _ = writeln!(
        human,
        "# {} seed={} trace={}: attempted={} failed={} failed_ratio={} wall_s={:.3}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        attempted,
        result.failed,
        result.failed as f64 / attempted as f64,
        started.elapsed().as_secs_f64()
    );
    let _ = writeln!(human, "# note: {{{note}}}");
    let counts: Vec<String> = result
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let _ = writeln!(
        human,
        "# counts [{}]: {}",
        result.ledger_key,
        counts.join(" ")
    );
    for m in result.metrics.iter().chain(&result.extra) {
        let _ = writeln!(human, "# metric {} = {} {}", m.name, m.value, m.unit);
    }
    for p in &result.problems {
        let _ = writeln!(human, "# FAILED: {p}");
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed,
        metrics.join(", ")
    );
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"machine\":{{{machine}}},\"note\":{{{note}}},\"result\":{json}}}\n",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let results = work_root.join("results.jsonl");
    let _ = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()));
    print!("{human}");
    println!("{json}");
    Ok(())
}
