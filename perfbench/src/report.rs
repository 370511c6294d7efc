//! `report_cold` and `report_warm`: the paper-reproduction path, through
//! the shipped binary. One operation is `repro --report` followed by
//! `repro --csv` on one private `MLPERF_CACHE_DIR`: cold in a fresh
//! directory (experiments run, sections and files are stored), or warm in
//! a directory a cold pair already filled (everything is loaded and
//! verified). The same cache layer writes in one workload and reads in
//! the other, so a gain in one that costs the other shows.

use crate::trace::Tracer;
use crate::{stats, Bench, Metric, Phase, JOBS};
use mlperf_suite::csv_export::EXPORT_FILES;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The committed outputs every run must reproduce byte for byte.
struct Golden {
    report: Vec<u8>,
    csvs: Vec<(&'static str, Vec<u8>)>,
}

fn golden(b: &Bench) -> Result<Golden, String> {
    let read = |p: PathBuf| std::fs::read(&p).map_err(|e| format!("{}: {e}", p.display()));
    Ok(Golden {
        report: read(b.root.join("REPORT.md"))?,
        csvs: EXPORT_FILES
            .iter()
            .map(|(file, _)| Ok((*file, read(b.root.join("artifacts").join(file))?)))
            .collect::<Result<_, String>>()?,
    })
}

/// One `repro` process: spawn to exit.
struct Invocation {
    start: Instant,
    end: Instant,
    ok: bool,
    stderr: String,
}

impl Invocation {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

fn repro(b: &Bench, args: &[&std::ffi::OsStr], cache: &Path) -> Invocation {
    let start = Instant::now();
    let out = Command::new(&b.repro)
        .args(args)
        .env_clear()
        .env("MLPERF_JOBS", JOBS.to_string())
        .env("MLPERF_CACHE_DIR", cache)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output();
    let end = Instant::now();
    match out {
        Ok(o) => Invocation {
            start,
            end,
            ok: o.status.success(),
            stderr: String::from_utf8_lossy(&o.stderr).into_owned(),
        },
        Err(e) => Invocation {
            start,
            end,
            ok: false,
            stderr: e.to_string(),
        },
    }
}

/// `repro --report` then `repro --csv`, both on `dir/cache`, writing
/// `dir/<tag>.md` and `dir/<tag>-csv/`.
struct Pair {
    report: Invocation,
    csv: Invocation,
}

fn pair(b: &Bench, dir: &Path, tag: &str) -> Pair {
    let cache = dir.join("cache");
    let md = dir.join(format!("{tag}.md"));
    let csv_dir = dir.join(format!("{tag}-csv"));
    Pair {
        report: repro(b, &["--report".as_ref(), md.as_os_str()], &cache),
        csv: repro(b, &["--csv".as_ref(), csv_dir.as_os_str()], &cache),
    }
}

impl Pair {
    fn ms(&self) -> f64 {
        self.report.ms() + self.csv.ms()
    }

    fn trace(&self, tracer: &mut Tracer, name: &'static str) {
        let op = tracer.record(name, None, self.report.start, self.csv.end);
        tracer.record("repro.report", Some(op), self.report.start, self.report.end);
        tracer.record("repro.csv", Some(op), self.csv.start, self.csv.end);
    }

    /// Exit status, output bytes against the committed files, and the
    /// exact cache counters both processes print on stderr.
    fn check(&self, dir: &Path, tag: &str, golden: &Golden) -> Result<Vec<(String, u64)>, String> {
        for (what, inv) in [("report", &self.report), ("csv", &self.csv)] {
            if !inv.ok {
                return Err(format!("repro --{what} failed: {}", inv.stderr.trim()));
            }
        }
        let md = std::fs::read(dir.join(format!("{tag}.md"))).map_err(|e| e.to_string())?;
        if md != golden.report {
            return Err("report bytes differ from REPORT.md".to_string());
        }
        for (file, want) in &golden.csvs {
            let got = std::fs::read(dir.join(format!("{tag}-csv")).join(file))
                .map_err(|e| format!("{file}: {e}"))?;
            if got != *want {
                return Err(format!("{file} differs from artifacts/{file}"));
            }
        }
        let mut counts = Vec::new();
        let (hits, requests) = memo_counts(&self.report.stderr)
            .ok_or("repro --report printed no executor cache counts")?;
        counts.push(("report.memo_hits".to_string(), hits));
        counts.push(("report.memo_requests".to_string(), requests));
        for (what, inv) in [("report", &self.report), ("csv", &self.csv)] {
            let c = disk_counts(&inv.stderr)
                .ok_or_else(|| format!("repro --{what} printed no persistent-cache counts"))?;
            for (name, v) in ["hits", "misses", "stores", "corrupt"].iter().zip(c) {
                counts.push((format!("{what}.disk_{name}"), v));
            }
        }
        Ok(counts)
    }
}

/// `(hits, requests)` from the executor's stderr line
/// (`executor: ...; cache H/R hits (...)`).
fn memo_counts(stderr: &str) -> Option<(u64, u64)> {
    let line = stderr.lines().find(|l| l.starts_with("executor:"))?;
    let (hits, rest) = line.split_once("cache ")?.1.split_once('/')?;
    Some((
        hits.parse().ok()?,
        rest.split_whitespace().next()?.parse().ok()?,
    ))
}

/// `[hits, misses, stores, corrupt]` from the persistent cache's stderr
/// line (`persistent cache [DIR]: H hits / M misses (...), S stored,
/// I invalidated, C corrupt quarantined, ...`).
fn disk_counts(stderr: &str) -> Option<[u64; 4]> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("persistent cache ["))?;
    let nums: Vec<u64> = line
        .split_once("]: ")?
        .1
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    (nums.len() >= 5).then(|| [nums[0], nums[1], nums[2], nums[4]])
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Per-operation milliseconds: whole pairs and their two invocations.
struct Latencies {
    pair: Vec<f64>,
    report: Vec<f64>,
    csv: Vec<f64>,
}

/// The measured loop shared by both workloads: run `op` until the budget
/// is spent, checking each pair and recording latencies.
fn measure(
    b: &Bench,
    phase: &mut Phase,
    mut tracer: Option<&mut Tracer>,
    span: &'static str,
    mut op: impl FnMut(u64) -> Result<(Pair, PathBuf), String>,
) -> Result<Latencies, String> {
    let golden = golden(b)?;
    let (mut lat, mut report_ms, mut csv_ms) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while lat.is_empty() || started.elapsed() < b.budget {
        let (p, dir) = op(phase.attempted)?;
        phase.attempted += 1;
        if let Some(t) = tracer.as_deref_mut() {
            p.trace(t, span);
        }
        lat.push(p.ms());
        report_ms.push(p.report.ms());
        csv_ms.push(p.csv.ms());
        phase.busy += Duration::from_secs_f64(p.ms() / 1e3);
        match p.check(&dir, "out", &golden) {
            Ok(counts) => {
                phase.ops += 1;
                phase.expect_counts(counts);
            }
            Err(e) => phase.fail(e),
        }
    }
    Ok(Latencies {
        pair: lat,
        report: report_ms,
        csv: csv_ms,
    })
}

/// Every cold pair starts from an empty cache directory. Set-up is the
/// binary's start-up with no work (`repro --list`), which every
/// invocation pays.
pub fn cold(b: &Bench, tracer: Option<&mut Tracer>) -> Result<Phase, String> {
    let mut phase = Phase {
        ledger_key: "report_cold".to_string(),
        ..Phase::default()
    };
    let mut setup = Vec::new();
    for _ in 0..7 {
        let start = Instant::now();
        let ok = Command::new(&b.repro)
            .arg("--list")
            .env_clear()
            .env("MLPERF_CACHE_DIR", b.work.join("list-cache"))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        setup.push(start.elapsed().as_secs_f64());
        if !ok {
            return Err("repro --list failed".to_string());
        }
    }
    let dir = b.work.join("op");
    let lat = measure(b, &mut phase, tracer, "report_cold.op", |_| {
        fresh_dir(&dir)?;
        Ok((pair(b, &dir, "out"), dir.clone()))
    })?;
    let rss = stats::children_peak_rss_mb().ok_or("getrusage failed")?;
    phase.set_end_to_end(&setup, &lat.pair, rss);
    phase.extra = named(&phase, "cold", &lat);
    Ok(phase)
}

/// Warm pairs rotate over directories that one cold pair each filled
/// during set-up; set-up is that cold fill.
pub fn warm(b: &Bench, tracer: Option<&mut Tracer>) -> Result<Phase, String> {
    const DIRS: u64 = 3;
    let mut phase = Phase {
        ledger_key: "report_warm".to_string(),
        ..Phase::default()
    };
    let golden = golden(b)?;
    let mut setup = Vec::new();
    let dirs: Vec<PathBuf> = (0..DIRS).map(|i| b.work.join(format!("dir{i}"))).collect();
    for dir in &dirs {
        fresh_dir(dir)?;
        let fill = pair(b, dir, "out");
        setup.push(fill.ms() / 1e3);
        fill.check(dir, "out", &golden)
            .map_err(|e| format!("cold fill of {}: {e}", dir.display()))?;
    }
    let lat = measure(b, &mut phase, tracer, "report_warm.op", |n| {
        let dir = &dirs[(n % DIRS) as usize];
        Ok((pair(b, dir, "out"), dir.clone()))
    })?;
    let rss = stats::children_peak_rss_mb().ok_or("getrusage failed")?;
    phase.set_end_to_end(&setup, &lat.pair, rss);
    phase.extra = named(&phase, "warm", &lat);
    Ok(phase)
}

/// The per-invocation metrics under the names the benchmark was specified
/// with (`report_cold_ms`, `csv_warm_ms`, ...), plus the pair tail.
fn named(phase: &Phase, temp: &str, lat: &Latencies) -> Vec<Metric> {
    vec![
        Metric::new(
            format!("report_{temp}_ms"),
            stats::median(&lat.report),
            "ms",
        ),
        Metric::new(format!("csv_{temp}_ms"), stats::median(&lat.csv), "ms"),
        Metric::new("p90_ms", stats::percentile(&lat.pair, 0.9), "ms"),
        Metric::new(
            "failed_ratio",
            phase.failed as f64 / phase.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}
