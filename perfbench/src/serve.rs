//! `serve_whatif`: a `repro serve --no-cache` daemon driven closed-loop by
//! two connections — closed-loop because `repro query` waits for each
//! answer. The queries come from a seeded `testkit::loadgen` plan over a
//! vocabulary of what-if cells drawn from the million-cell grid: some over
//! the OOM wall, some replicated (`"runs":32`) or partitioned
//! (`"partition":"1of2x2"`), a few expected-TTT cells, rare sweep
//! queries, and a hot set that coalescing absorbs. The misses expose
//! pricing, replication, parse and encode; every answer is checked against
//! an in-process reference built from `price_cell` and the `protocol`
//! frame functions.

use crate::trace::Tracer;
use crate::{stats, Bench, Metric, Phase, JOBS};
use mlperf_hw::systems::SystemId;
use mlperf_models::PrecisionPolicy;
use mlperf_sim::{SimError, Simulator};
use mlperf_suite::runner::{Ctx, Pool};
use mlperf_suite::serve::protocol::{self, QueryV1};
use mlperf_suite::serve::DEFAULT_SHARD;
use mlperf_suite::sweep::{self, CellError, CellKind, CellSpec};
use mlperf_suite::{BenchmarkId, Config};
use mlperf_testkit::hash::Fnv1a64;
use mlperf_testkit::loadgen::LoadSpec;
use mlperf_testkit::rng::Rng;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The workload's mix: vocabulary size, per-client plan length, hot set.
pub const MIX: LoadSpec = LoadSpec {
    vocab: 50_000,
    hot: 64,
    hot_pct: 30,
    queries: 100_000,
};

/// Closed-loop client connections.
pub const CLIENTS: u64 = 2;

/// One (workload, system, GPUs, precision) column of the million-cell
/// grid and the largest per-GPU batch that passes preflight there (0:
/// none does).
struct Column {
    cell: CellSpec,
    wall: u64,
}

/// The engine's admission check for a training cell, exactly as the
/// daemon runs it before coalescing: the interned template with the
/// precision and batch overrides, on the first `gpus` ordinals.
pub fn preflight(ctx: &Ctx, spec: &CellSpec) -> Result<(), SimError> {
    let (Some(workload), Some(system), Some(gpus)) = (spec.workload, spec.system, spec.gpus) else {
        return Ok(());
    };
    let mut job = (*ctx.base_job(workload, false)).clone();
    if let Some(p) = spec.precision {
        job = job.with_precision(p);
    }
    if let Some(b) = spec.batch {
        job = job.with_per_gpu_batch(b);
    }
    let ordinals: Vec<u32> = (0..gpus).collect();
    Simulator::new(&ctx.system_spec(system))
        .preflight(&job, &ordinals)
        .map(|_| ())
}

fn columns(ctx: &Ctx) -> (Vec<Column>, u64) {
    let grid = sweep::million_cell();
    let batches = grid.axes().last().map_or(1, |a| a.values.len());
    let max = batches as u64;
    let columns = (0..grid.len() / batches)
        .map(|c| {
            let cell = grid.cell_at(c * batches);
            let fits = |b: u64| {
                let mut probe = cell.clone();
                probe.batch = Some(b);
                preflight(ctx, &probe).is_ok()
            };
            // Memory grows with the batch, so the wall is one threshold.
            let wall = if !fits(1) {
                0
            } else if fits(max) {
                max
            } else {
                let (mut lo, mut hi) = (1, max);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if fits(mid) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            };
            Column { cell, wall }
        })
        .collect();
    (columns, max)
}

fn cell_line(id: usize, cell: &CellSpec, batch: u64, extra: &str) -> String {
    let workload = cell.workload.map_or("-", BenchmarkId::abbreviation);
    let system = cell.system.map_or_else(String::new, SystemId::token);
    let precision = match cell.precision {
        Some(PrecisionPolicy::Fp32) => "fp32",
        _ => "amp",
    };
    format!(
        r#"{{"v":1,"id":"e{id}","kind":"cell","workload":"{workload}","system":"{system}","gpus":{},"precision":"{precision}","batch":{batch}{extra}}}"#,
        cell.gpus.unwrap_or(1)
    )
}

/// Draw a grid cell uniformly from the cells on one side of the OOM wall:
/// `weight(column)` is how many of that column's cells qualify; returns
/// the column and the draw's offset among its qualifying cells.
fn draw<'a>(
    rng: &mut Rng,
    columns: &'a [Column],
    weight: impl Fn(&Column) -> u64,
) -> (&'a Column, u64) {
    let total: u64 = columns.iter().map(&weight).sum();
    let mut r = rng.gen_range(0..total);
    for c in columns {
        let w = weight(c);
        if r < w {
            return (c, r);
        }
        r -= w;
    }
    unreachable!("the draw is below the total weight")
}

/// The seeded query vocabulary, one request line per entry.
pub fn vocabulary(seed: u64, size: usize) -> Vec<String> {
    let ctx = Ctx::from_config(&Config::default());
    let (columns, max) = columns(&ctx);
    let mut rng = Rng::stream(seed, 0x7768_6174_6966);
    (0..size)
        .map(|id| {
            let r = rng.gen_range(0u64..10_000);
            if r < 1_500 {
                // Over the OOM wall (or a GPU set the system lacks).
                let (c, k) = draw(&mut rng, &columns, |c| max - c.wall);
                cell_line(id, &c.cell, c.wall + 1 + k, "")
            } else if r < 1_505 {
                format!(r#"{{"v":1,"id":"e{id}","kind":"sweep","sweep":"fault_ttt"}}"#)
            } else if r < 1_600 {
                let (c, _) = draw(&mut rng, &columns, |c| c.wall);
                let mtbf = *rng.sample(&[1u32, 4, 24, 168]);
                let interval = *rng.sample(&["\"daly\"", "10", "60", "240"]);
                format!(
                    r#"{{"v":1,"id":"e{id}","kind":"cell","cell_kind":"expected-ttt","workload":"{}","system":"{}","gpus":{},"mtbf_hours":{mtbf},"interval":{interval}}}"#,
                    c.cell.workload.map_or("-", BenchmarkId::abbreviation),
                    c.cell.system.map_or_else(String::new, SystemId::token),
                    c.cell.gpus.unwrap_or(1),
                )
            } else {
                let (c, k) = draw(&mut rng, &columns, |c| c.wall);
                let batch = 1 + k;
                let extra = match rng.gen_range(0u32..100) {
                    0..=11 => r#","runs":32"#,
                    12..=17 => r#","partition":"1of2x2""#,
                    _ => "",
                };
                cell_line(id, &c.cell, batch, extra)
            }
        })
        .collect()
}

/// The daemon's answer to one cell query, rebuilt in-process.
pub fn cell_answer(ctx: &Ctx, id: &str, spec: &CellSpec) -> String {
    if spec.kind == CellKind::Training {
        if let Err(e) = preflight(ctx, spec) {
            let e = CellError::from_sim(e);
            return protocol::error_frame(id, &e.kind, &e.message);
        }
    }
    match sweep::price_cell(ctx, spec) {
        Ok(v) => protocol::cell_ok_frame(id, spec.kind, v.values()),
        // Coalesced outcomes travel in the disk cache's line-oriented
        // encoding, which flattens newlines in messages.
        Err(e) => protocol::error_frame(id, &e.kind, &e.message.replace('\n', " ")),
    }
}

/// The daemon's answer to one sweep query: the stream header, the rows in
/// shards of [`DEFAULT_SHARD`], and the totals.
fn sweep_answer(id: &str, name: &str) -> Result<String, String> {
    let spec = sweep::registry()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("no sweep '{name}'"))?;
    let mut csv = Vec::new();
    let ctx = Ctx::from_config(&Config::default());
    let summary = sweep::run_streamed(
        &Pool::with_workers(1),
        &ctx,
        &spec,
        None,
        &mut csv,
        DEFAULT_SHARD,
    )
    .map_err(|e| e.to_string())?;
    let text = String::from_utf8(csv).map_err(|e| e.to_string())?;
    let mut lines = text.lines();
    let columns: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
    let mut out = protocol::stream_header_frame(id, spec.name, spec.len(), &columns);
    let rows: Vec<String> = lines.map(str::to_string).collect();
    for chunk in rows.chunks(DEFAULT_SHARD) {
        out.push_str(&protocol::rows_frame(id, chunk));
    }
    out.push_str(&protocol::done_frame(id, summary.cells, summary.errors));
    Ok(out)
}

/// The expected response bytes of one request line.
pub fn reference(ctx: &Ctx, line: &str) -> Result<Vec<u8>, String> {
    let req = protocol::parse_request(line).map_err(|(_, m)| format!("{line}: {m}"))?;
    match &req.query {
        QueryV1::Cell(spec) => Ok(cell_answer(ctx, &req.id, spec).into_bytes()),
        QueryV1::Sweep(name) => sweep_answer(&req.id, name).map(String::into_bytes),
        QueryV1::Ping | QueryV1::Shutdown => Err(format!("{line}: not a what-if query")),
    }
}

/// References for every vocabulary entry some plan uses (empty for the
/// rest), computed on [`JOBS`] threads sharing one memoizing context.
pub fn references(lines: &[String], plans: &[Vec<usize>]) -> Result<Vec<Vec<u8>>, String> {
    let mut used = vec![false; lines.len()];
    for &i in plans.iter().flatten() {
        used[i] = true;
    }
    let todo: Vec<usize> = (0..lines.len()).filter(|&i| used[i]).collect();
    let ctx = Ctx::from_config(&Config::default());
    type Part = Result<Vec<(usize, Vec<u8>)>, String>;
    let parts: Vec<Part> = std::thread::scope(|s| {
        let handles: Vec<_> = todo
            .chunks(todo.len().div_ceil(JOBS).max(1))
            .map(|chunk| {
                let ctx = &ctx;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&i| reference(ctx, &lines[i]).map(|r| (i, r)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("reference thread panicked".to_string()))
            })
            .collect()
    });
    let mut out = vec![Vec::new(); lines.len()];
    for part in parts {
        for (i, r) in part? {
            out[i] = r;
        }
    }
    Ok(out)
}

/// A running `repro serve --no-cache` process.
pub struct Daemon {
    child: Child,
    pub socket: PathBuf,
}

/// How long the daemon may take to come up or to drain.
const DAEMON_DEADLINE: Duration = Duration::from_secs(20);

impl Daemon {
    /// Spawn the daemon and wait for its first `pong`; returns the time
    /// from spawn to that answer.
    pub fn start(b: &Bench, jobs: usize) -> Result<(Daemon, Duration), String> {
        // Relative to the checkout root: a Unix socket path must stay
        // short, wherever the checkout lives.
        let socket = b
            .work
            .strip_prefix(&b.root)
            .unwrap_or(&b.work)
            .join("d.sock");
        let _ = std::fs::remove_file(&socket);
        let spawned = Instant::now();
        let child = Command::new(&b.repro)
            .args([
                "serve".as_ref(),
                "--no-cache".as_ref(),
                "--socket".as_ref(),
                socket.as_os_str(),
            ])
            .env_clear()
            .env("MLPERF_JOBS", jobs.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning repro serve: {e}"))?;
        let mut daemon = Daemon { child, socket };
        let stream = loop {
            match UnixStream::connect(&daemon.socket) {
                Ok(s) => break s,
                Err(_) if spawned.elapsed() < DAEMON_DEADLINE => {
                    if let Ok(Some(status)) = daemon.child.try_wait() {
                        return Err(format!("repro serve exited early: {status}"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(format!("connecting to repro serve: {e}")),
            }
        };
        let pong = exchange(&stream, br#"{"v":1,"id":"setup","kind":"ping"}"#)
            .map_err(|e| format!("ping: {e}"))?;
        let setup = spawned.elapsed();
        if pong != protocol::pong_frame("setup").as_bytes() {
            return Err(format!(
                "unexpected ping answer {}",
                String::from_utf8_lossy(&pong)
            ));
        }
        Ok((daemon, setup))
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Send `shutdown`, wait for the process to exit, and return its
    /// stderr (the shutdown summary with the coalescing counters).
    pub fn stop(mut self) -> Result<String, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|e| format!("shutdown: {e}"))?;
        let ack = exchange(&stream, br#"{"v":1,"id":"stop","kind":"shutdown"}"#)
            .map_err(|e| format!("shutdown: {e}"))?;
        if ack != protocol::shutdown_frame("stop").as_bytes() {
            return Err(format!(
                "unexpected shutdown answer {}",
                String::from_utf8_lossy(&ack)
            ));
        }
        drop(stream);
        let deadline = Instant::now() + DAEMON_DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("repro serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => return Err("repro serve did not exit after shutdown".to_string()),
                Err(e) => return Err(e.to_string()),
            }
        }
        let mut stderr = String::new();
        if let Some(mut pipe) = self.child.stderr.take() {
            pipe.read_to_string(&mut stderr)
                .map_err(|e| e.to_string())?;
        }
        Ok(stderr)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After `stop` the process has exited and this is a no-op; on an
        // error path it guarantees no daemon outlives the run.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Send one request line and read its answer up to the terminal frame.
fn exchange(stream: &UnixStream, line: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut w = stream;
    let mut request = line.to_vec();
    request.push(b'\n');
    w.write_all(&request)?;
    let mut reader = BufReader::new(stream);
    let mut answer = Vec::new();
    read_answer(&mut reader, &mut answer)?;
    Ok(answer)
}

/// Append frames to `out` until a terminal one (`ok`, `error`, `busy`,
/// `done`).
fn read_answer(reader: &mut impl BufRead, out: &mut Vec<u8>) -> std::io::Result<()> {
    loop {
        let from = out.len();
        if reader.read_until(b'\n', out)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let frame = std::str::from_utf8(&out[from..]).unwrap_or("");
        if matches!(
            protocol::response_status(frame.trim_end()).as_deref(),
            Some("ok" | "error" | "busy" | "done")
        ) {
            return Ok(());
        }
    }
}

/// `(queries, busy, coalesce hits, coalesce misses)` from the daemon's
/// shutdown summary (`serve: Q queries (O ok, E error, B busy, D
/// drained), coalesce H hits / M unique cells ...`).
pub fn summary_counts(stderr: &str) -> Option<[u64; 4]> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("serve: ") && l.contains("coalesce"))?;
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse().ok())
        .collect();
    (nums.len() >= 7).then(|| [nums[0], nums[3], nums[5], nums[6]])
}

/// One client connection's replay of its plan.
pub struct ClientRun {
    pub start: Instant,
    pub end: Instant,
    /// Per query: when it was sent and when its terminal frame arrived.
    pub times: Vec<(Instant, Instant)>,
    /// FNV-1a over every response byte, in order.
    pub fingerprint: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Replay `plan` closed-loop on one connection, comparing each answer
/// with `expect`.
pub fn client(socket: &Path, plan: &[usize], lines: &[Vec<u8>], expect: &[Vec<u8>]) -> ClientRun {
    let start = Instant::now();
    let mut run = ClientRun {
        start,
        end: start,
        times: Vec::with_capacity(plan.len()),
        fingerprint: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let mut hash = Fnv1a64::new();
    let stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => {
            run.failed = plan.len() as u64;
            run.problems.push(format!("connect: {e}"));
            return run;
        }
    };
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    let mut answer = Vec::new();
    for (n, &i) in plan.iter().enumerate() {
        let sent = Instant::now();
        answer.clear();
        let io = writer
            .write_all(&lines[i])
            .and_then(|()| read_answer(&mut reader, &mut answer));
        let done = Instant::now();
        if let Err(e) = io {
            run.failed += (plan.len() - n) as u64;
            run.problems
                .push(format!("transport error at query {n}: {e}"));
            break;
        }
        run.times.push((sent, done));
        hash.update(&answer);
        if answer != expect[i] {
            run.failed += 1;
            if run.problems.len() < 4 {
                run.problems.push(format!(
                    "answer to {} was {}, expected {}",
                    String::from_utf8_lossy(&lines[i]).trim_end(),
                    String::from_utf8_lossy(&answer).trim_end(),
                    String::from_utf8_lossy(&expect[i]).trim_end()
                ));
            }
        }
    }
    run.end = Instant::now();
    run.fingerprint = hash.finish();
    run
}

/// One daemon lifetime: spawn, replay every plan concurrently, stop.
pub struct Round {
    pub setup: Duration,
    pub rss_mb: f64,
    pub clients: Vec<ClientRun>,
    /// `(queries, busy, coalesce hits, coalesce misses)`.
    pub summary: [u64; 4],
}

pub fn round(
    b: &Bench,
    jobs: usize,
    plans: &[Vec<usize>],
    lines: &[Vec<u8>],
    expect: &[Vec<u8>],
) -> Result<Round, String> {
    let (daemon, setup) = Daemon::start(b, jobs)?;
    let clients: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| s.spawn(|| client(&daemon.socket, plan, lines, expect)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let rss_mb = stats::vm_hwm_mb(&daemon.pid()).unwrap_or(0.0);
    let stderr = daemon.stop()?;
    let summary = summary_counts(&stderr)
        .ok_or_else(|| format!("no shutdown summary in daemon stderr: {stderr}"))?;
    Ok(Round {
        setup,
        rss_mb,
        clients,
        summary,
    })
}

/// Request lines as the bytes a client sends (newline-terminated).
pub fn wire(lines: &[String]) -> Vec<Vec<u8>> {
    lines
        .iter()
        .map(|l| {
            let mut v = l.clone().into_bytes();
            v.push(b'\n');
            v
        })
        .collect()
}

pub fn run(b: &Bench, mut tracer: Option<&mut Tracer>) -> Result<Phase, String> {
    let mut phase = Phase {
        ledger_key: format!("serve_whatif/seed={}", b.seed),
        ..Phase::default()
    };
    let vocab = vocabulary(b.seed, MIX.vocab);
    let plans = MIX.plans(b.seed, CLIENTS);
    let expect = references(&vocab, &plans)?;
    let lines = wire(&vocab);
    // Extra set-up samples: spawn to first pong, then an idle shutdown.
    let mut setup = Vec::new();
    for _ in 0..4 {
        let (daemon, s) = Daemon::start(b, JOBS)?;
        setup.push(s.as_secs_f64());
        daemon.stop()?;
    }
    let mut latency_ms = Vec::new();
    let mut rss: f64 = 0.0;
    let started = Instant::now();
    while phase.attempted == 0 || started.elapsed() < b.budget {
        let r = round(b, JOBS, &plans, &lines, &expect)?;
        setup.push(r.setup.as_secs_f64());
        rss = rss.max(r.rss_mb);
        let first = r
            .clients
            .iter()
            .map(|c| c.start)
            .min()
            .unwrap_or_else(Instant::now);
        let last = r.clients.iter().map(|c| c.end).max().unwrap_or(first);
        phase.busy += last - first;
        let root = tracer
            .as_deref_mut()
            .map(|t| t.record("serve.round", None, first, last));
        let mut counts = vec![
            ("serve.queries".to_string(), r.summary[0]),
            ("serve.busy".to_string(), r.summary[1]),
            ("serve.coalesce_hits".to_string(), r.summary[2]),
            ("serve.coalesce_misses".to_string(), r.summary[3]),
        ];
        for (n, c) in r.clients.iter().enumerate() {
            phase.attempted += plans[n].len() as u64;
            phase.ops += c.times.len() as u64;
            for p in &c.problems {
                phase.fail(p.clone());
            }
            // `fail` counted one per message; the rest of the failures are
            // mismatches whose messages were not kept.
            phase.failed += c.failed - c.problems.len() as u64;
            latency_ms.extend(c.times.iter().map(|(s, e)| (*e - *s).as_secs_f64() * 1e3));
            counts.push((format!("serve.client{n}.fingerprint"), c.fingerprint));
            if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
                let conn = t.record("serve.client", Some(root), c.start, c.end);
                for &(s, e) in &c.times {
                    t.record("serve.query", Some(conn), s, e);
                }
            }
        }
        if r.summary[1] != 0 {
            phase.fail(format!("{} busy answers", r.summary[1]));
        }
        phase.expect_counts(counts);
    }
    if latency_ms.is_empty() {
        return Err("no query was answered".to_string());
    }
    phase.set_end_to_end(&setup, &latency_ms, rss);
    phase.extra = vec![
        Metric::new(
            "serve_qps",
            phase.ops as f64 / phase.busy.as_secs_f64(),
            "1/s",
        ),
        Metric::new("serve_p50_ms", stats::median(&latency_ms), "ms"),
        Metric::new("serve_p99_ms", stats::percentile(&latency_ms, 0.99), "ms"),
        Metric::new(
            "failed_ratio",
            phase.failed as f64 / phase.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    Ok(phase)
}
