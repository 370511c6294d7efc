//! `repro serve`: the long-lived what-if query server.
//!
//! The paper's value proposition is answering "what if I change the
//! system / batch / precision / GPU count" without burning cluster time;
//! this module promotes that from a batch CLI into a persistent,
//! zero-dependency daemon on a Unix-domain socket. The request API is the
//! versioned, typed [`protocol`] (newline-delimited JSON, hand-rolled
//! like everything else in the workspace); the execution substrate is the
//! batch path's, unchanged: the memoizing [`Ctx`], the thread
//! [`Pool`], the persistent [`DiskCache`], and the sweep layer's
//! cell pricing and streaming.
//!
//! Service model (DESIGN.md §2f):
//!
//! * **Coalescing** — identical in-flight cells across clients are priced
//!   once. This lifts the runner's `InFlight`/`Ready` slot machinery
//!   ([`ShardedCache`]) to the request layer: the coalescing key is the
//!   FNV-1a hash of the query's canonical bytes (request hash = cache
//!   key), and the value is the cell's typed outcome, so an error is
//!   coalesced as the error it is, never re-minted as a success. Every
//!   answer's frame is built from that value.
//! * **Admission control** — a fixed number of active query slots
//!   (default: the pool's worker count) plus a bounded wait queue;
//!   overflow gets a typed `busy` response instead of an unbounded pile
//!   of blocked threads.
//! * **Budgets** — `MLPERF_STEP_BUDGET` (or the per-request `budget`
//!   override) arms a meter that each connection keeps for itself; a
//!   later override re-limits it and keeps what was spent. Each query
//!   charges its whole cost up front, after admission — one unit per
//!   cell, `len()` units per sweep — and an over-budget query is answered
//!   `deadline-exceeded` without pricing anything. Pricing itself is
//!   unmetered (a coalescing miss inline on the connection thread, a
//!   sweep on the pool's workers), so the verdict is a pure function of
//!   the client's own query sequence: invariant across `MLPERF_JOBS`,
//!   cache state, and whoever else is hammering the server.
//! * **Degraded responses** — every failure is a typed error frame on
//!   the PR-4 [`ExperimentError`]/`CellError` vocabulary; a poisoned
//!   query unwinds into an `error` response at the per-request
//!   catch-unwind boundary and the server keeps serving.
//! * **Determinism** — response bytes carry no live counters (no disk
//!   hits, no timings, no coalesce flags), so a replayed transcript is
//!   byte-identical cold or warm, serial or oversubscribed. Live counters
//!   go to stderr at shutdown.
//! * **Hostile-client hardening** (DESIGN.md §2h) — per-connection
//!   read/write deadlines bound how long a slow-loris client can hold a
//!   handler thread; request frames are capped (`--max-frame`) and an
//!   oversized frame gets a typed
//!   [`protocol::FRAME_TOO_LARGE`] error before the connection closes;
//!   the frame writer tolerates short writes; stalled readers are
//!   reaped at the write deadline; and shutdown drains gracefully —
//!   stop accepting, finish in-flight requests, refuse new queries
//!   with a typed [`protocol::SHUTTING_DOWN`] frame, then exit. The
//!   wall clock touches only connection lifetimes, never response
//!   bytes.

pub mod protocol;

use crate::config::Config;
use crate::runner::{panic_payload_message, Ctx, ExperimentError, Lane, Meter, Pool, ShardedCache};
use crate::sweep::{self, registry, CellError, CellKind, CellSpec, CellValue, DiskCache};
use mlperf_testkit::hash::fnv1a64;
use protocol::{QueryV1, Request, BAD_REQUEST};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default socket path, relative to the working directory.
pub const DEFAULT_SOCKET: &str = "artifacts/serve.sock";
/// Default bounded-wait-queue depth.
pub const DEFAULT_QUEUE: usize = 1024;
/// Default sweep-streaming shard (cells per `rows` frame), matching the
/// batch CLI's streaming shard.
pub const DEFAULT_SHARD: usize = 1024;

/// Default per-connection read deadline (milliseconds).
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 30_000;
/// Default per-connection write deadline (milliseconds).
pub const DEFAULT_WRITE_TIMEOUT_MS: u64 = 30_000;
/// Default maximum request-frame size (bytes).
pub const DEFAULT_MAX_FRAME: usize = 64 * 1024;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Server construction knobs (the CLI flags of `repro serve`).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Concurrent active query slots (`None`: the pool's worker count).
    pub max_active: Option<usize>,
    /// Bounded wait-queue depth beyond the active slots; overflow is
    /// answered `busy`.
    pub queue: usize,
    /// Sweep-streaming shard: cells per `rows` frame.
    pub shard: usize,
    /// Per-connection read deadline in milliseconds, also the per-frame
    /// wall-clock budget a trickling client gets (`0`: no deadline).
    pub read_timeout_ms: u64,
    /// Per-connection write deadline in milliseconds; stalled readers are
    /// reaped when it expires (`0`: no deadline).
    pub write_timeout_ms: u64,
    /// Maximum request-frame size in bytes, the line excluding its
    /// newline (`0`: unbounded).
    pub max_frame: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: PathBuf::from(DEFAULT_SOCKET),
            max_active: None,
            queue: DEFAULT_QUEUE,
            shard: DEFAULT_SHARD,
            read_timeout_ms: DEFAULT_READ_TIMEOUT_MS,
            write_timeout_ms: DEFAULT_WRITE_TIMEOUT_MS,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// One server's live counters (stderr / test instrumentation — never
/// rendered into response bytes, which must replay byte-identically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests that parsed as well-formed queries.
    pub queries: u64,
    /// Terminal `ok`/`done` frames written.
    pub ok_responses: u64,
    /// Terminal `error` frames written (bad requests included).
    pub error_responses: u64,
    /// `busy` rejections from admission control.
    pub busy_responses: u64,
    /// Cell queries answered by the request-layer coalescing cache
    /// (including waits on an in-flight identical cell).
    pub coalesce_hits: u64,
    /// Cell queries that actually priced a cell — with compute-once
    /// semantics, exactly the number of unique cells priced.
    pub coalesce_misses: u64,
    /// Connections closed after an oversized request frame (a typed
    /// [`protocol::FRAME_TOO_LARGE`] error was written first).
    pub frames_too_large: u64,
    /// Connections reaped at a read or write deadline (slow-loris
    /// senders, stalled readers).
    pub reaped: u64,
    /// Connections that hit EOF mid-frame (a half-written request with
    /// no newline); the partial frame is dropped, never parsed.
    pub dropped_partial: u64,
    /// Queries refused with [`protocol::SHUTTING_DOWN`] during the
    /// graceful drain.
    pub drained: u64,
}

/// Bounded admission: `max_active` concurrent query slots plus a bounded
/// wait queue. `admit` blocks while a queue slot is available and returns
/// `None` (→ typed `busy` response) once the queue is full, so a traffic
/// spike degrades into fast rejections instead of unbounded blocked
/// threads.
struct Admission {
    max_active: usize,
    queue: usize,
    state: Mutex<AdmissionState>,
    freed: Condvar,
}

#[derive(Debug, Clone, Copy)]
struct AdmissionState {
    active: usize,
    waiting: usize,
}

struct Ticket<'a> {
    admission: &'a Admission,
}

impl Admission {
    fn new(max_active: usize, queue: usize) -> Admission {
        Admission {
            max_active: max_active.max(1),
            queue,
            state: Mutex::new(AdmissionState {
                active: 0,
                waiting: 0,
            }),
            freed: Condvar::new(),
        }
    }

    fn admit(&self) -> Option<Ticket<'_>> {
        let mut st = lock(&self.state);
        if st.active < self.max_active {
            st.active += 1;
            return Some(Ticket { admission: self });
        }
        if st.waiting >= self.queue {
            return None;
        }
        st.waiting += 1;
        while st.active >= self.max_active {
            st = self.freed.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.waiting -= 1;
        st.active += 1;
        Some(Ticket { admission: self })
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.admission.state);
        st.active -= 1;
        drop(st);
        self.admission.freed.notify_one();
    }
}

/// What a connection does after one answered request.
enum Action {
    Continue,
    /// The query was refused with the typed `shutting-down` frame, which
    /// is the draining connection's last.
    Drained,
    Shutdown,
}

/// The query server: one listener, one memoizing context, one pool, one
/// coalescing cache — shared by every connection for the server's
/// lifetime, which is exactly what makes repeated questions cheap.
pub struct Server {
    listener: UnixListener,
    socket: PathBuf,
    ctx: Ctx,
    pool: Pool,
    cache: Option<DiskCache>,
    /// Request-layer coalescing: canonical-query-bytes hash → the cell's
    /// typed outcome. The error is boxed so that every slot stays as
    /// narrow as a value's `Vec`.
    coalesce: ShardedCache<u64, Result<CellValue, Box<CellError>>>,
    admission: Admission,
    default_budget: Option<u64>,
    shard: usize,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    max_frame: usize,
    shutdown: AtomicBool,
    queries: AtomicU64,
    ok_responses: AtomicU64,
    error_responses: AtomicU64,
    busy_responses: AtomicU64,
    frames_too_large: AtomicU64,
    reaped: AtomicU64,
    dropped_partial: AtomicU64,
    drained: AtomicU64,
}

impl Server {
    /// Bind the socket and assemble the execution substrate from an
    /// explicitly resolved [`Config`] (`repro` resolves the environment
    /// once, at startup, and the daemon keeps that view).
    ///
    /// # Errors
    ///
    /// Propagates [`io::Error`] from socket setup.
    pub fn bind(opts: &ServeOptions, cfg: &Config) -> io::Result<Server> {
        if let Some(parent) = opts.socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // A stale socket file from a dead server refuses rebinding;
        // remove it. (A *live* server would still own connections on it —
        // running two servers on one path is operator error either way.)
        let _ = std::fs::remove_file(&opts.socket);
        let listener = UnixListener::bind(&opts.socket)?;
        let pool = Pool::from_config(cfg);
        let max_active = opts.max_active.unwrap_or_else(|| pool.workers());
        let timeout = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
        let max_frame = match opts.max_frame {
            0 => usize::MAX,
            n => n,
        };
        Ok(Server {
            listener,
            socket: opts.socket.clone(),
            ctx: Ctx::from_config(cfg),
            pool,
            cache: DiskCache::from_config(cfg),
            coalesce: ShardedCache::new(),
            admission: Admission::new(max_active, opts.queue),
            default_budget: cfg.step_budget,
            shard: opts.shard.max(1),
            read_timeout: timeout(opts.read_timeout_ms),
            write_timeout: timeout(opts.write_timeout_ms),
            max_frame,
            shutdown: AtomicBool::new(false),
            queries: AtomicU64::new(0),
            ok_responses: AtomicU64::new(0),
            error_responses: AtomicU64::new(0),
            busy_responses: AtomicU64::new(0),
            frames_too_large: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            dropped_partial: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        })
    }

    /// The socket path this server listens on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Live counters (see [`ServeStats`]).
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            queries: self.queries.load(Ordering::Relaxed),
            ok_responses: self.ok_responses.load(Ordering::Relaxed),
            error_responses: self.error_responses.load(Ordering::Relaxed),
            busy_responses: self.busy_responses.load(Ordering::Relaxed),
            coalesce_hits: self.coalesce.hits(),
            coalesce_misses: self.coalesce.misses(),
            frames_too_large: self.frames_too_large.load(Ordering::Relaxed),
            reaped: self.reaped.load(Ordering::Relaxed),
            dropped_partial: self.dropped_partial.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
        }
    }

    /// Serve until a `shutdown` query arrives: accept connections, one
    /// handler thread per connection, requests answered serially per
    /// connection (transcript order = request order). Blocks the caller;
    /// returns after the shutdown handshake once every handler thread has
    /// drained.
    ///
    /// # Errors
    ///
    /// Propagates [`io::Error`] from the accept loop (per-connection I/O
    /// errors only end that connection).
    pub fn run(&self) -> io::Result<()> {
        std::thread::scope(|scope| {
            for conn in self.listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        scope.spawn(move || {
                            let _ = self.handle(stream);
                        });
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })?;
        let _ = std::fs::remove_file(&self.socket);
        let s = self.stats();
        let coalesce_requests = s.coalesce_hits + s.coalesce_misses;
        eprintln!(
            "serve: {} queries ({} ok, {} error, {} busy, {} drained), \
             coalesce {} hits / {} unique cells{}, \
             {} oversized frames, {} reaped, {} partial frames dropped",
            s.queries,
            s.ok_responses,
            s.error_responses,
            s.busy_responses,
            s.drained,
            s.coalesce_hits,
            s.coalesce_misses,
            if coalesce_requests > 0 {
                format!(
                    " ({:.0}% hit rate)",
                    s.coalesce_hits as f64 / coalesce_requests as f64 * 100.0
                )
            } else {
                String::new()
            },
            s.frames_too_large,
            s.reaped,
            s.dropped_partial,
        );
        if let Some(cache) = &self.cache {
            eprint!("{}", cache.summary());
        }
        Ok(())
    }

    fn handle(&self, stream: UnixStream) -> io::Result<()> {
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.write_timeout)?;
        let raw = stream.try_clone()?;
        let mut reader =
            BoundedLineReader::new(stream.try_clone()?, self.max_frame, self.read_timeout);
        let mut writer = BufWriter::new(FrameWriter { inner: stream });
        // The connection's step budget, armed by its first budgeted query.
        let mut meter = None;
        loop {
            let line = match reader.next_line() {
                Ok(Some(line)) => line,
                // Clean EOF: the client hung up between frames.
                Ok(None) => break,
                Err(FrameError::TooLarge) => {
                    // The rest of the oversized frame is never read; the
                    // typed error is the connection's last frame. The id
                    // is unknowable (the line was never parsed).
                    self.frames_too_large.fetch_add(1, Ordering::Relaxed);
                    self.error_responses.fetch_add(1, Ordering::Relaxed);
                    let frame = protocol::error_frame(
                        "-",
                        protocol::FRAME_TOO_LARGE,
                        &format!("request frame exceeds {} bytes", self.max_frame),
                    );
                    let _ = writer
                        .write_all(frame.as_bytes())
                        .and_then(|()| writer.flush());
                    // A Unix socket closed with unread request bytes
                    // resets its peer, which can discard the frame just
                    // written; drain the leftovers (bounded) so a
                    // well-behaved-but-oversized client reliably reads
                    // the typed error before the clean EOF.
                    drain_discard(&raw);
                    break;
                }
                Err(FrameError::Deadline) => {
                    // Slow-loris sender or an idle connection outliving
                    // the read deadline: reap it.
                    self.reaped.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(FrameError::PartialEof) => {
                    // Half-written request, then EOF: nothing to answer,
                    // and the fragment must never reach the parser.
                    self.dropped_partial.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(FrameError::Io(e)) => return Err(e),
            };
            if line.trim().is_empty() {
                continue;
            }
            let answered = self
                .respond(&line, &mut meter, &mut writer)
                .and_then(|action| {
                    writer.flush()?;
                    Ok(action)
                });
            match answered {
                Ok(Action::Shutdown) => {
                    // Unblock the accept loop so `run` can observe the flag.
                    let _ = UnixStream::connect(&self.socket);
                    break;
                }
                // Close only after the typed refusal: a connection idle
                // when the shutdown lands must still get that frame for
                // its next query, not a closed socket.
                Ok(Action::Drained) => break,
                Ok(Action::Continue) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // The client stopped reading and the socket buffer
                    // filled: the write deadline reaps the connection.
                    self.reaped.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Answer one request line, charging `meter`, the connection's step
    /// budget. Everything below the admission gate runs inside a
    /// catch-unwind boundary: a panic becomes a typed `panicked` frame,
    /// and the connection (and server) live on.
    fn respond(
        &self,
        line: &str,
        meter: &mut Option<Meter>,
        out: &mut dyn Write,
    ) -> io::Result<Action> {
        let req = match protocol::parse_request(line) {
            Ok(req) => req,
            Err((id, msg)) => {
                self.error(out, &id, BAD_REQUEST, &msg)?;
                return Ok(Action::Continue);
            }
        };
        self.queries.fetch_add(1, Ordering::Relaxed);
        match &req.query {
            QueryV1::Ping => {
                self.ok_responses.fetch_add(1, Ordering::Relaxed);
                out.write_all(protocol::pong_frame(&req.id).as_bytes())?;
                Ok(Action::Continue)
            }
            QueryV1::Shutdown => {
                // Flag first, ack second: once a client holds the ack,
                // every other connection's next query is guaranteed to
                // see the drain.
                self.shutdown.store(true, Ordering::SeqCst);
                self.ok_responses.fetch_add(1, Ordering::Relaxed);
                out.write_all(protocol::shutdown_frame(&req.id).as_bytes())?;
                Ok(Action::Shutdown)
            }
            QueryV1::Cell(_) | QueryV1::Sweep(_) => {
                if self.shutdown.load(Ordering::SeqCst) {
                    self.drained.fetch_add(1, Ordering::Relaxed);
                    self.error(out, &req.id, protocol::SHUTTING_DOWN, "server is draining")?;
                    return Ok(Action::Drained);
                }
                let Some(_ticket) = self.admission.admit() else {
                    self.busy_responses.fetch_add(1, Ordering::Relaxed);
                    out.write_all(protocol::busy_frame(&req.id).as_bytes())?;
                    return Ok(Action::Continue);
                };
                if let Some(budget) = req.budget.or(self.default_budget) {
                    // A re-limit keeps what the connection already spent.
                    meter.get_or_insert(Meter { used: 0, budget }).budget = budget;
                }
                match catch_unwind(AssertUnwindSafe(|| self.execute(&req, meter, out))) {
                    Ok(io_result) => io_result?,
                    Err(payload) => {
                        let message = panic_payload_message(payload.as_ref());
                        self.error(out, &req.id, "panicked", &message)?;
                    }
                }
                Ok(Action::Continue)
            }
        }
    }

    /// Write a terminal error frame and count it.
    fn error(&self, out: &mut dyn Write, id: &str, kind: &str, message: &str) -> io::Result<()> {
        self.error_responses.fetch_add(1, Ordering::Relaxed);
        out.write_all(protocol::error_frame(id, kind, message).as_bytes())
    }

    fn execute(
        &self,
        req: &Request,
        meter: &mut Option<Meter>,
        out: &mut dyn Write,
    ) -> io::Result<()> {
        match &req.query {
            QueryV1::Cell(spec) => self.execute_cell(req, spec, meter, out),
            QueryV1::Sweep(name) => self.execute_sweep(req, name, meter, out),
            QueryV1::Ping | QueryV1::Shutdown => unreachable!("answered before admission"),
        }
    }

    fn execute_cell(
        &self,
        req: &Request,
        spec: &CellSpec,
        meter: &mut Option<Meter>,
        out: &mut dyn Write,
    ) -> io::Result<()> {
        // The whole cost, up front: the budget verdict must not depend on
        // coalescing or cache state.
        if let Some(Err(trip)) = meter.as_mut().map(|m| m.charge(1)) {
            let e = ExperimentError::from(trip);
            return self.error(out, &req.id, e.kind(), &e.to_string());
        }
        // Cheap typed admission for whole-device training cells: the
        // engine's preflight runs exactly the checks pricing runs first,
        // so rejecting here produces the error bytes the priced path
        // would, without occupying the coalescing machinery. Sliced and
        // expected-TTT cells are gated inside the priced path (the latter
        // check their own fields before touching the engine).
        if spec.kind == CellKind::Training && spec.partition.is_none() {
            let admitted = spec
                .point()
                .and_then(|point| self.ctx.preflight(&point).map_err(CellError::from_sim));
            if let Err(err) = admitted {
                return self.error(out, &req.id, &err.kind, &err.message);
            }
        }
        let key = fnv1a64(&req.canonical_bytes());
        let outcome = self.coalesce.get_or_compute(key, || {
            let mut lane = Lane::new(&self.ctx);
            let (outcome, _) = sweep::run_cell(&mut lane, spec, self.cache.as_ref());
            outcome.map_err(|e| Box::new(CellError::from(e)))
        });
        match outcome {
            Ok(value) => {
                self.ok_responses.fetch_add(1, Ordering::Relaxed);
                let frame = protocol::cell_ok_frame(&req.id, spec.kind, value.values());
                out.write_all(frame.as_bytes())
            }
            // One line, as the disk cache's `err v1` entry spells it.
            Err(e) => self.error(out, &req.id, &e.kind, &e.message.replace('\n', " ")),
        }
    }

    fn execute_sweep(
        &self,
        req: &Request,
        name: &str,
        meter: &mut Option<Meter>,
        out: &mut dyn Write,
    ) -> io::Result<()> {
        let Some(spec) = registry().into_iter().find(|s| s.name == name) else {
            let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
            let message = format!("unknown sweep '{name}' (registered: {})", names.join(", "));
            return self.error(out, &req.id, BAD_REQUEST, &message);
        };
        // Whole sweep cost up front; the cells themselves then price on
        // the pool's workers, unmetered (this thread only appends their
        // rendered rows).
        if let Some(Err(trip)) = meter.as_mut().map(|m| m.charge(spec.len() as u64)) {
            let e = ExperimentError::from(trip);
            return self.error(out, &req.id, e.kind(), &e.to_string());
        }
        let mut framer = ShardFramer::new(out, &req.id, spec.name, spec.len(), self.shard);
        let summary = sweep::run_streamed(
            &self.pool,
            &self.ctx,
            &spec,
            self.cache.as_ref(),
            &mut framer,
            self.shard,
        )?;
        framer.finish(summary.cells, summary.errors)?;
        self.ok_responses.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Why [`BoundedLineReader::next_line`] gave up on a frame.
enum FrameError {
    /// The line exceeded the configured maximum frame size.
    TooLarge,
    /// The read deadline (or the per-frame wall-clock budget a trickling
    /// sender gets) expired.
    Deadline,
    /// EOF arrived mid-frame: bytes were buffered but no newline came.
    PartialEof,
    /// Any other I/O failure.
    Io(io::Error),
}

/// A line reader that enforces the two bounds [`BufRead::lines`] cannot:
/// a maximum frame size (an attacker may not buffer unbounded bytes
/// server-side) and a per-frame wall-clock deadline (a slow-loris sender
/// trickling one byte per read-timeout window may not hold a handler
/// thread forever — the socket's own read timeout only bounds each
/// *read*, this bounds the whole frame).
struct BoundedLineReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    max_frame: usize,
    frame_budget: Option<Duration>,
}

impl<R: Read> BoundedLineReader<R> {
    fn new(inner: R, max_frame: usize, frame_budget: Option<Duration>) -> BoundedLineReader<R> {
        BoundedLineReader {
            inner,
            buf: Vec::new(),
            max_frame,
            frame_budget,
        }
    }

    /// The next newline-terminated line (without its newline), `None` on
    /// clean EOF between frames.
    fn next_line(&mut self) -> Result<Option<String>, FrameError> {
        let deadline = self.frame_budget.map(|budget| Instant::now() + budget);
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                if pos > self.max_frame {
                    return Err(FrameError::TooLarge);
                }
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                return Ok(Some(line));
            }
            if self.buf.len() > self.max_frame {
                return Err(FrameError::TooLarge);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(FrameError::Deadline);
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(FrameError::PartialEof)
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(FrameError::Deadline);
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

/// Discard whatever request bytes the client already sent, so the close
/// that follows a terminal error frame is a clean EOF instead of a
/// connection reset (which could destroy the frame in flight). Bounded
/// twice over — a short per-read timeout and a total byte cap — so a
/// client that floods forever gets the reset it asked for instead of a
/// captive handler thread.
fn drain_discard(stream: &UnixStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let mut sink = [0u8; 4096];
    let mut budget: usize = 256 * 1024;
    while budget > 0 {
        match (&mut &*stream).read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// A [`Write`] adapter that upgrades the raw stream's `write` to
/// all-or-error semantics: short writes are retried until the buffer is
/// fully accepted, `Interrupted` is swallowed, and zero-progress becomes
/// a hard `WriteZero` — so a response frame is never silently truncated
/// between the `BufWriter` above and the socket below. Deadline errors
/// (`WouldBlock`/`TimedOut`) still propagate: that is how stalled
/// readers get reaped.
struct FrameWriter<W: Write> {
    inner: W,
}

impl<W: Write> Write for FrameWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut written = 0;
        while written < buf.len() {
            match self.inner.write(&buf[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A [`Write`] adapter that turns [`sweep::run_streamed`]'s CSV byte
/// stream into response frames: the header line becomes the `stream`
/// frame, every `shard` rows become one `rows` frame. This is what lets
/// the server reuse the streaming runner *literally* — same pricing, same
/// row rendering, same shard-bounded memory — with only the framing
/// changed.
struct ShardFramer<'a> {
    out: &'a mut dyn Write,
    id: &'a str,
    sweep: &'a str,
    cells: usize,
    shard: usize,
    buf: Vec<u8>,
    rows: Vec<String>,
    sent_header: bool,
}

impl<'a> ShardFramer<'a> {
    fn new(
        out: &'a mut dyn Write,
        id: &'a str,
        sweep: &'a str,
        cells: usize,
        shard: usize,
    ) -> ShardFramer<'a> {
        ShardFramer {
            out,
            id,
            sweep,
            cells,
            shard: shard.max(1),
            buf: Vec::new(),
            rows: Vec::new(),
            sent_header: false,
        }
    }

    fn flush_rows(&mut self) -> io::Result<()> {
        if !self.rows.is_empty() {
            self.out
                .write_all(protocol::rows_frame(self.id, &self.rows).as_bytes())?;
            self.rows.clear();
        }
        Ok(())
    }

    fn finish(mut self, cells: usize, errors: usize) -> io::Result<()> {
        self.flush_rows()?;
        self.out
            .write_all(protocol::done_frame(self.id, cells, errors).as_bytes())
    }

    /// One CSV line: the first is the header (the `stream` frame), every
    /// later one a row, framed `shard` at a time.
    fn line(&mut self, line: String) -> io::Result<()> {
        if self.sent_header {
            self.rows.push(line);
            if self.rows.len() >= self.shard {
                self.flush_rows()?;
            }
        } else {
            self.sent_header = true;
            let columns: Vec<&str> = line.split(',').collect();
            self.out.write_all(
                protocol::stream_header_frame(self.id, self.sweep, self.cells, &columns).as_bytes(),
            )?;
        }
        Ok(())
    }
}

impl Write for ShardFramer<'_> {
    /// Linear in the bytes written however many lines one call carries:
    /// lines are cut at a cursor and the buffer drained once per call.
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        let mut start = 0;
        while let Some(len) = self.buf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.buf[start..start + len]).into_owned();
            start += len + 1;
            if let Err(e) = self.line(line) {
                self.buf.drain(..start);
                return Err(e);
            }
        }
        self.buf.drain(..start);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// The `repro query` client: replay newline-delimited request lines from
/// `input` against the server at `socket`, echoing every response frame
/// to `out` in transcript order. Each request is sent and its answer
/// drained to the terminal frame (`ok`/`error`/`busy`/`done`) before the
/// next is sent, so the transcript is deterministic for a deterministic
/// request sequence.
///
/// # Errors
///
/// Propagates [`io::Error`] from either side of the conversation.
pub fn replay_client(
    socket: &Path,
    input: &mut dyn BufRead,
    out: &mut dyn Write,
) -> io::Result<()> {
    let stream = UnixStream::connect(socket)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        loop {
            let mut frame = String::new();
            if reader.read_line(&mut frame)? == 0 {
                // Server closed the connection (e.g. after a shutdown
                // acknowledgement on another line of this transcript).
                return Ok(());
            }
            out.write_all(frame.as_bytes())?;
            if matches!(
                protocol::response_status(frame.trim_end()).as_deref(),
                Some("ok" | "error" | "busy" | "done")
            ) {
                break;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn admission_grants_up_to_active_plus_queue() {
        let a = Admission::new(1, 2);
        let first = a.admit().expect("first slot");
        // The active slot is taken; exactly `queue` waiters may block, so
        // from this thread (which would deadlock waiting on itself) we
        // only check the overflow path deterministically: fill the queue
        // from two helper threads, then overflow.
        let queued = AtomicUsize::new(0);
        let rejected = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| match a.admit() {
                    Some(_t) => {
                        queued.fetch_add(1, Ordering::SeqCst);
                    }
                    None => {
                        rejected.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            // Wait until both helpers are parked in the queue, then free
            // the active slot so they drain.
            while lock(&a.state).waiting < 2 {
                let st = *lock(&a.state);
                if st.waiting + queued.load(Ordering::SeqCst) + rejected.load(Ordering::SeqCst) >= 2
                {
                    break;
                }
                std::thread::yield_now();
            }
            drop(first);
        });
        assert_eq!(
            queued.load(Ordering::SeqCst) + rejected.load(Ordering::SeqCst),
            2
        );
        assert_eq!(lock(&a.state).active, 0, "every ticket returned its slot");
    }

    #[test]
    fn admission_overflow_is_rejected_not_blocked() {
        let a = Admission::new(1, 0);
        let _held = a.admit().expect("first slot");
        assert!(
            a.admit().is_none(),
            "zero-depth queue must reject immediately"
        );
    }

    /// A reader handing out its script of `Ok(chunk)` / error-kind steps,
    /// for driving [`BoundedLineReader`] and [`FrameWriter`] without a
    /// socket.
    struct ScriptedReader {
        steps: Vec<Result<Vec<u8>, io::ErrorKind>>,
    }

    impl Read for ScriptedReader {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.steps.is_empty() {
                return Ok(0);
            }
            match self.steps.remove(0) {
                Ok(bytes) => {
                    out[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Err(kind) => Err(kind.into()),
            }
        }
    }

    #[test]
    fn bounded_reader_splits_lines_across_chunks() {
        let mut r = BoundedLineReader::new(
            ScriptedReader {
                steps: vec![
                    Ok(b"hel".to_vec()),
                    Ok(b"lo\nwor".to_vec()),
                    Ok(b"ld\n".to_vec()),
                ],
            },
            1024,
            None,
        );
        assert_eq!(r.next_line().ok().flatten().as_deref(), Some("hello"));
        assert_eq!(r.next_line().ok().flatten().as_deref(), Some("world"));
        assert!(matches!(r.next_line(), Ok(None)), "clean EOF");
    }

    #[test]
    fn bounded_reader_rejects_oversized_frames() {
        // Oversized with the newline already buffered …
        let mut r = BoundedLineReader::new(
            ScriptedReader {
                steps: vec![Ok(b"0123456789\n".to_vec())],
            },
            4,
            None,
        );
        assert!(matches!(r.next_line(), Err(FrameError::TooLarge)));
        // … and oversized while still unterminated.
        let mut r = BoundedLineReader::new(
            ScriptedReader {
                steps: vec![Ok(b"0123456789".to_vec()), Ok(b"ab".to_vec())],
            },
            4,
            None,
        );
        assert!(matches!(r.next_line(), Err(FrameError::TooLarge)));
        // A line of exactly max_frame bytes is fine.
        let mut r = BoundedLineReader::new(
            ScriptedReader {
                steps: vec![Ok(b"0123\n".to_vec())],
            },
            4,
            None,
        );
        assert_eq!(r.next_line().ok().flatten().as_deref(), Some("0123"));
    }

    #[test]
    fn bounded_reader_maps_timeouts_and_partial_eof() {
        let mut r = BoundedLineReader::new(
            ScriptedReader {
                steps: vec![Ok(b"half a frame".to_vec()), Err(io::ErrorKind::WouldBlock)],
            },
            1024,
            None,
        );
        assert!(matches!(r.next_line(), Err(FrameError::Deadline)));
        let mut r = BoundedLineReader::new(
            ScriptedReader {
                steps: vec![Ok(b"half a frame".to_vec())],
            },
            1024,
            None,
        );
        assert!(
            matches!(r.next_line(), Err(FrameError::PartialEof)),
            "EOF mid-frame must not surface the fragment"
        );
    }

    #[test]
    fn bounded_reader_enforces_the_frame_wall_clock() {
        // A trickler that never finishes a frame: each read succeeds, so
        // only the per-frame budget can end it.
        struct Trickle;
        impl Read for Trickle {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                std::thread::sleep(Duration::from_millis(2));
                out[0] = b'x';
                Ok(1)
            }
        }
        let mut r = BoundedLineReader::new(Trickle, usize::MAX, Some(Duration::from_millis(30)));
        let started = Instant::now();
        assert!(matches!(r.next_line(), Err(FrameError::Deadline)));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the budget must cut the trickle short"
        );
    }

    /// A sink that accepts at most 3 bytes per call and injects periodic
    /// `Interrupted`, the worst case a real socket hands `write`.
    struct ChunkySink {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for ChunkySink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(4) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(3);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_writer_survives_short_writes_and_interrupts() {
        let mut w = FrameWriter {
            inner: ChunkySink {
                bytes: Vec::new(),
                calls: 0,
            },
        };
        let frame = b"{\"v\":1,\"id\":\"q1\",\"status\":\"ok\"}\n";
        w.write_all(frame).unwrap();
        w.write_all(b"tail\n").unwrap();
        let mut expect = frame.to_vec();
        expect.extend_from_slice(b"tail\n");
        assert_eq!(w.inner.bytes, expect, "no byte lost, none reordered");
    }

    #[test]
    fn frame_writer_turns_zero_progress_into_an_error() {
        struct Stuck;
        impl Write for Stuck {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = FrameWriter { inner: Stuck };
        let e = w.write_all(b"frame\n").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn shard_framer_frames_a_csv_stream() {
        const CSV: &[u8] = b"a,b,c\n1,2,3\n4,5,6\n7,8,9\n";
        let framed = |writes: &[&[u8]]| {
            let mut sink: Vec<u8> = Vec::new();
            {
                let out: &mut dyn Write = &mut sink;
                let mut f = ShardFramer::new(&mut *out, "q1", "demo", 3, 2);
                for w in writes {
                    f.write_all(w).unwrap();
                }
                f.finish(3, 1).unwrap();
            }
            String::from_utf8(sink).unwrap()
        };
        // The same 3-row CSV in one write, row by row, byte by byte and
        // across awkward boundaries frames identically.
        let text = framed(&[CSV]);
        let rows: Vec<&[u8]> = CSV.split_inclusive(|&b| b == b'\n').collect();
        assert_eq!(framed(&rows), text);
        let bytes: Vec<&[u8]> = CSV.chunks(1).collect();
        assert_eq!(framed(&bytes), text);
        assert_eq!(framed(&[b"a,b,c\n1,2", b",3\n4,5,6\n7,8,9\n"]), text);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].contains("\"status\":\"stream\"") && lines[0].contains("\"cells\":3"));
        assert!(
            lines[1].contains("\"rows\":[\"1,2,3\",\"4,5,6\"]"),
            "{text}"
        );
        assert!(lines[2].contains("\"rows\":[\"7,8,9\"]"), "{text}");
        assert!(lines[3].contains("\"status\":\"done\"") && lines[3].contains("\"errors\":1"));
    }
}
