//! Scoped thread pool (std only).
//!
//! The executor wants parallelism but the workspace has a zero-dependency
//! policy (see "Offline build & determinism policy" in DESIGN.md), so this
//! is a small scheduler built directly on [`std::thread::scope`]. A task
//! DAG ([`Pool::run_dag`]) runs from one ready queue behind one lock, and
//! every finished task wakes the idle workers. The worker count comes from
//! [`MLPERF_JOBS`](JOBS_ENV) or [`std::thread::available_parallelism`];
//! nothing produced *through* the pool may depend on it — results come
//! back in submission order and the experiment layer is memoized, so
//! report bytes are identical for any worker count (the determinism
//! policy in DESIGN.md "Execution model").
//!
//! Bulk streams (a sweep's rows) skip the DAG machinery: see
//! [`Pool::stream_ordered`], where workers claim contiguous chunks and the
//! caller consumes them in index order inside a bounded window.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Environment variable overriding the worker count (`MLPERF_JOBS=1`
/// forces fully serial execution; unset falls back to
/// `available_parallelism`).
pub const JOBS_ENV: &str = "MLPERF_JOBS";

/// Lock that survives a poisoned mutex. Tasks and stream callbacks never
/// run under a pool lock, and the pool catches or re-raises their panics
/// itself (see [`Pool::run_dag`] and [`Pool::stream_ordered`]), so a
/// poisoned guard carries no failure worth propagating.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed-width scoped thread pool executing dependency DAGs of tasks.
#[derive(Debug, Clone)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with exactly `workers` threads (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Pool {
        Pool {
            workers: workers.max(1),
        }
    }

    /// Worker count from [`JOBS_ENV`] when set to a positive integer,
    /// otherwise [`std::thread::available_parallelism`] — resolved through
    /// the typed [`Config`](crate::config::Config).
    pub fn from_env() -> Pool {
        Pool::from_config(&crate::config::Config::from_env())
    }

    /// The pool an explicitly resolved [`Config`](crate::config::Config)
    /// dictates.
    pub fn from_config(config: &crate::config::Config) -> Pool {
        Pool::with_workers(config.jobs)
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute a task DAG and return every task's result in submission
    /// order, regardless of the execution interleaving.
    ///
    /// `deps[i]` lists the task indices task `i` waits for (independent
    /// tasks get empty lists). Tasks whose dependencies are satisfied run
    /// concurrently on up to [`workers`](Pool::workers) threads, the
    /// caller among them. They wait in one ready queue: the independent
    /// tasks in submission order, and a dependent that becomes ready goes
    /// to the front.
    ///
    /// # Panics
    ///
    /// Re-raises the first task panic on the calling thread — but only
    /// after the rest of the DAG has drained: every task independent of
    /// the panicking one still runs to completion (transitive dependents
    /// are skipped). Also panics on malformed input: `deps` and `tasks`
    /// lengths differing, an out-of-range or self dependency, or a
    /// dependency cycle, once every task the cycle does not block has run.
    pub fn run_dag<T, F>(&self, tasks: Vec<F>, deps: &[Vec<usize>]) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        assert_eq!(n, deps.len(), "one dependency list per task");
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                assert!(d < n, "task {i} depends on out-of-range task {d}");
                assert_ne!(d, i, "task {i} depends on itself");
                dependents[d].push(i);
            }
        }
        let dag = Mutex::new(DagState {
            tasks: tasks.into_iter().map(Some).collect(),
            results: (0..n).map(|_| None).collect(),
            pending: deps.iter().map(Vec::len).collect(),
            ready: (0..n).filter(|&i| deps[i].is_empty()).collect(),
            running: 0,
            panic: None,
        });
        // Notified whenever a task finishes: it may have readied dependents,
        // or been the last one running.
        let progress = Condvar::new();
        // Each worker runs ready tasks until the queue is empty with nothing
        // running: the DAG is done, or every task left waits on a cycle.
        let work = || {
            let mut state = lock(&dag);
            loop {
                state = progress
                    .wait_while(state, |s| s.ready.is_empty() && s.running > 0)
                    .unwrap_or_else(PoisonError::into_inner);
                let Some(i) = state.ready.pop_front() else {
                    return;
                };
                if deps[i].iter().all(|&d| state.results[d].is_some()) {
                    let task = state.tasks[i].take().expect("task runs exactly once");
                    state.running += 1;
                    drop(state);
                    let outcome = catch_unwind(AssertUnwindSafe(task));
                    state = lock(&dag);
                    state.running -= 1;
                    match outcome {
                        Ok(value) => state.results[i] = Some(value),
                        Err(payload) if state.panic.is_none() => state.panic = Some(payload),
                        Err(_) => {}
                    }
                }
                // Newly ready dependents go to the front of the queue, so a
                // chain continues as soon as its head finishes.
                for &dep in &dependents[i] {
                    state.pending[dep] -= 1;
                    if state.pending[dep] == 0 {
                        state.ready.push_front(dep);
                    }
                }
                progress.notify_all();
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..self.workers.min(n) {
                scope.spawn(work);
            }
            work();
        });
        let state = dag.into_inner().unwrap_or_else(PoisonError::into_inner);
        // The workers stopped with the queue empty and nothing running, so
        // a task still waiting on a dependency sits on a cycle.
        assert!(
            state.pending.iter().all(|&p| p == 0),
            "task DAG contains a dependency cycle"
        );
        if let Some(payload) = state.panic {
            resume_unwind(payload);
        }
        let results: Option<Vec<T>> = state.results.into_iter().collect();
        results.expect("an empty slot implies a panic, re-raised above")
    }

    /// Produce items `0..len` on the workers and consume them, in index
    /// order, on the calling thread — one thread scope for the whole
    /// stream.
    ///
    /// Each worker claims the next contiguous chunk of indices and fills a
    /// `T` for it with `produce` (a `T` the caller already consumed is
    /// handed back for reuse, so `produce` must overwrite it). The caller
    /// passes finished chunks to `consume` strictly in chunk order. At most
    /// `window` items are claimed but not yet consumed at any moment, so
    /// memory is bounded by the window, never by `len`. Returns the peak of
    /// that claimed-but-unconsumed count (≤ `window`).
    ///
    /// # Errors
    ///
    /// The first error `consume` returns. It stops new claims: workers
    /// finish the chunks they hold (at most `window` items) and exit.
    ///
    /// # Panics
    ///
    /// Re-raises a `produce` panic on the calling thread once every worker
    /// has stopped; chunks after the panicking one are never consumed.
    pub fn stream_ordered<T, E>(
        &self,
        len: usize,
        window: usize,
        produce: impl Fn(Range<usize>, &mut T) + Sync,
        mut consume: impl FnMut(&mut T) -> Result<(), E>,
    ) -> Result<usize, E>
    where
        T: Default + Send,
    {
        let window = window.max(1);
        // A few chunks per worker inside the window: a worker that finishes
        // early can run ahead while a slower one still holds the head chunk.
        let chunk = (window / self.workers.saturating_mul(4)).max(1);
        let stream = Stream {
            len,
            window,
            chunk,
            state: Mutex::new(StreamState {
                claimed: 0,
                consumed: 0,
                head: 0,
                ready: VecDeque::new(),
                spare: Vec::new(),
                peak: 0,
                stopped: false,
                panic: None,
            }),
            finished: Condvar::new(),
            room: Condvar::new(),
        };
        let result = std::thread::scope(|scope| {
            // Stops the workers however the caller leaves: done, on a
            // consumer error, or unwinding (out of `consume` or a spawn).
            let _stop = StopOnDrop(&stream);
            for _ in 0..self.workers.min(len.div_ceil(chunk)) {
                scope.spawn(|| stream.produce(&produce));
            }
            stream.consume(&mut consume)
        });
        let mut state = lock(&stream.state);
        if let Some(payload) = state.panic.take() {
            drop(state);
            resume_unwind(payload);
        }
        result.map(|()| state.peak)
    }
}

/// Shared state of one [`Pool::stream_ordered`] call.
struct Stream<T> {
    len: usize,
    window: usize,
    /// Items per claim (the last chunk may be shorter).
    chunk: usize,
    state: Mutex<StreamState<T>>,
    /// Signalled when a chunk is finished or the stream stops; the caller
    /// waits on it.
    finished: Condvar,
    /// Signalled when the caller consumed a chunk or the stream stops;
    /// workers waiting for window room wait on it.
    room: Condvar,
}

struct StreamState<T> {
    /// Items handed to workers so far (always a chunk boundary or `len`).
    claimed: usize,
    /// Items the caller has consumed so far.
    consumed: usize,
    /// Chunk index of `ready[0]`.
    head: usize,
    /// Claimed chunks from `head` on; `Some` once produced.
    ready: VecDeque<Option<T>>,
    /// Consumed outputs waiting to be reused by the next claim.
    spare: Vec<T>,
    /// Peak of `claimed - consumed`.
    peak: usize,
    /// No new claims: the caller left, or a producer panicked.
    stopped: bool,
    /// The first producer panic, re-raised on the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl<T: Default> Stream<T> {
    fn wait<'a>(
        cv: &Condvar,
        guard: MutexGuard<'a, StreamState<T>>,
    ) -> MutexGuard<'a, StreamState<T>> {
        cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    fn produce(&self, produce: &(impl Fn(Range<usize>, &mut T) + Sync)) {
        let mut state = lock(&self.state);
        loop {
            let (start, end) = loop {
                if state.stopped || state.claimed >= self.len {
                    return;
                }
                let end = (state.claimed + self.chunk).min(self.len);
                if end - state.consumed <= self.window {
                    break (state.claimed, end);
                }
                state = Stream::wait(&self.room, state);
            };
            state.claimed = end;
            state.peak = state.peak.max(end - state.consumed);
            state.ready.push_back(None);
            let mut item = state.spare.pop().unwrap_or_default();
            drop(state);
            let outcome = catch_unwind(AssertUnwindSafe(|| produce(start..end, &mut item)));
            state = lock(&self.state);
            match outcome {
                Ok(()) => {
                    let slot = start / self.chunk - state.head;
                    state.ready[slot] = Some(item);
                    self.finished.notify_one();
                }
                Err(payload) => {
                    state.panic.get_or_insert(payload);
                    state.stopped = true;
                    self.finished.notify_one();
                    self.room.notify_all();
                    return;
                }
            }
        }
    }

    fn consume<E>(&self, consume: &mut impl FnMut(&mut T) -> Result<(), E>) -> Result<(), E> {
        loop {
            let mut state = lock(&self.state);
            let mut item = loop {
                if state.stopped || state.consumed >= self.len {
                    return Ok(());
                }
                if let Some(Some(_)) = state.ready.front() {
                    break state
                        .ready
                        .pop_front()
                        .flatten()
                        .expect("front chunk is finished");
                }
                state = Stream::wait(&self.finished, state);
            };
            state.head += 1;
            drop(state);
            let result = consume(&mut item);
            let mut state = lock(&self.state);
            if result.is_ok() {
                state.consumed = (state.consumed + self.chunk).min(self.len);
                state.spare.push(item);
            } else {
                // Under the same lock as the failure: no claim follows it.
                state.stopped = true;
            }
            self.room.notify_all();
            drop(state);
            result?;
        }
    }
}

/// Marks a stream stopped and wakes every waiter when dropped.
struct StopOnDrop<'a, T>(&'a Stream<T>);

impl<T> Drop for StopOnDrop<'_, T> {
    fn drop(&mut self) {
        lock(&self.0.state).stopped = true;
        self.0.room.notify_all();
    }
}

/// Scheduler state of one [`Pool::run_dag`] call, behind its one lock.
struct DagState<F, T> {
    /// Each task, taken by the worker that runs it (a skipped task stays).
    tasks: Vec<Option<F>>,
    /// Result slots, indexed like `tasks`. A slot stays empty when its task
    /// panicked, or was skipped because a dependency's slot is empty — so
    /// a failure cascades to its dependents and never abandons the DAG.
    results: Vec<Option<T>>,
    /// Unmet-dependency counts; a task is ready when its count hits 0.
    pending: Vec<usize>,
    /// Ready tasks, the next one to run first.
    ready: VecDeque<usize>,
    /// Tasks running outside the lock.
    running: usize,
    /// The first task panic, re-raised by `run_dag` once the DAG drains.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::error::panic_message;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = Pool::with_workers(4);
        let tasks: Vec<_> = (0..64).map(|i| move || i * i).collect();
        let got = pool.run_dag(tasks, &vec![Vec::new(); 64]);
        let want: Vec<_> = (0..64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn dependencies_run_before_dependents() {
        // A diamond: 0 -> {1, 2} -> 3. Each task records its finish tick.
        let clock = AtomicU64::new(0);
        let pool = Pool::with_workers(4);
        let tick = |_: ()| clock.fetch_add(1, Ordering::SeqCst);
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
            Box::new(|| tick(())),
            Box::new(|| tick(())),
            Box::new(|| tick(())),
            Box::new(|| tick(())),
        ];
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let ticks = pool.run_dag(tasks, &deps);
        assert!(ticks[0] < ticks[1] && ticks[0] < ticks[2]);
        assert!(ticks[3] > ticks[1] && ticks[3] > ticks[2]);
    }

    #[test]
    fn single_worker_pool_is_fully_serial() {
        // With one worker the ready-first order is deterministic, so a
        // task-side counter observes a strictly serial schedule.
        let active = AtomicU64::new(0);
        let pool = Pool::with_workers(1);
        let tasks: Vec<_> = (0..32)
            .map(|i| {
                let active = &active;
                move || {
                    assert_eq!(active.fetch_add(1, Ordering::SeqCst), 0);
                    let r = i * 3;
                    active.fetch_sub(1, Ordering::SeqCst);
                    r
                }
            })
            .collect();
        let got = pool.run_dag(tasks, &vec![Vec::new(); 32]);
        assert_eq!(got, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let pool = Pool::with_workers(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("boom in task")),
            Box::new(|| 3),
        ];
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run_dag(tasks, &[vec![], vec![], vec![]])
        }))
        .expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom in task"), "payload was {msg:?}");
    }

    #[test]
    fn regression_panicked_dag_drains_all_tasks() {
        // Before the resilience layer the first panic set an abort flag
        // and every remaining queued task was abandoned. Now the DAG
        // drains before the panic is re-raised: independent tasks all run,
        // and the panicker's dependents never do.
        let ran = AtomicU64::new(0);
        let pool = Pool::with_workers(2);
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = vec![
            Box::new(|| panic!("boom at task 0")),
            Box::new(|| ran.fetch_add(1, Ordering::SeqCst)),
            Box::new(|| ran.fetch_add(1, Ordering::SeqCst)),
            Box::new(|| ran.fetch_add(1, Ordering::SeqCst)),
            Box::new(|| ran.fetch_add(1, Ordering::SeqCst)),
        ];
        // 1 depends on the panicker, 4 depends on 1 (transitive); 2 and 3
        // are independent and must still run.
        let deps = vec![vec![], vec![0], vec![], vec![], vec![1]];
        let err = catch_unwind(AssertUnwindSafe(|| pool.run_dag(tasks, &deps)))
            .expect_err("the panic must reach the caller");
        assert!(panic_message(err.as_ref()).contains("boom at task 0"));
        assert_eq!(
            ran.load(Ordering::SeqCst),
            2,
            "only the independent tasks ran"
        );

        // The pool object stays usable afterwards.
        let tasks: Vec<_> = (0..8).map(|i| move || i).collect();
        assert_eq!(
            pool.run_dag(tasks, &vec![Vec::new(); 8]),
            (0..8).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "dependency cycle")]
    fn cycle_is_detected() {
        let pool = Pool::with_workers(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 1), Box::new(|| 2)];
        pool.run_dag(tasks, &[vec![1], vec![0]]);
    }

    /// A dependent that becomes ready runs before the independent tasks
    /// still queued, so a chain continues as soon as its head finishes.
    #[test]
    fn ready_dependents_run_before_queued_tasks() {
        let order = Mutex::new(Vec::new());
        let tasks: Vec<_> = (0..3)
            .map(|i| {
                let order = &order;
                move || lock(order).push(i)
            })
            .collect();
        Pool::with_workers(1).run_dag(tasks, &[vec![], vec![], vec![0]]);
        assert_eq!(order.into_inner().unwrap(), [0, 2, 1]);
    }

    /// A cycle behind a runnable prefix (0, then 1 <-> 2) panics once the
    /// prefix has run instead of leaving the workers waiting.
    #[test]
    fn cycle_behind_a_runnable_prefix_is_detected() {
        for workers in [1, 4] {
            let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> =
                vec![Box::new(|| 0), Box::new(|| 1), Box::new(|| 2)];
            let deps = [vec![], vec![0, 2], vec![1]];
            let err = catch_unwind(AssertUnwindSafe(|| {
                Pool::with_workers(workers).run_dag(tasks, &deps)
            }))
            .expect_err("a cycle must panic");
            assert!(
                panic_message(err.as_ref()).contains("dependency cycle"),
                "{workers}w"
            );
        }
    }

    /// Index order for every worker count, window and length, including
    /// windows smaller than the worker count and an empty stream.
    #[test]
    fn stream_ordered_consumes_in_index_order() {
        for workers in 1..=7 {
            let pool = Pool::with_workers(workers);
            for window in [1, 3, 10, 64] {
                for len in [0, 1, 97] {
                    let mut seen = Vec::new();
                    let peak = pool
                        .stream_ordered(
                            len,
                            window,
                            |range, out: &mut Vec<usize>| {
                                out.clear();
                                out.extend(range);
                            },
                            |out| {
                                seen.extend_from_slice(out);
                                Ok::<(), ()>(())
                            },
                        )
                        .unwrap();
                    assert_eq!(
                        seen,
                        (0..len).collect::<Vec<_>>(),
                        "{workers}w window {window}"
                    );
                    assert!(peak <= window, "{workers}w: peak {peak} > window {window}");
                }
            }
        }
    }

    /// The producer of the first chunk holds it until the other workers
    /// have claimed everything the window allows, so the window fills —
    /// and the claimed-but-unconsumed count, measured from outside, never
    /// passes it.
    #[test]
    fn stream_ordered_never_exceeds_its_window() {
        for workers in 2..=7 {
            // A whole number of chunks, so the window can fill exactly.
            let window = 16 * workers;
            let in_flight = AtomicUsize::new(0);
            let most = AtomicUsize::new(0);
            let peak = Pool::with_workers(workers)
                .stream_ordered(
                    1000,
                    window,
                    |range, n: &mut usize| {
                        let now = in_flight.fetch_add(range.len(), Ordering::SeqCst) + range.len();
                        most.fetch_max(now, Ordering::SeqCst);
                        if range.start == 0 {
                            let deadline = std::time::Instant::now() + Duration::from_secs(20);
                            while in_flight.load(Ordering::SeqCst) < window {
                                assert!(
                                    std::time::Instant::now() < deadline,
                                    "window never filled"
                                );
                                std::thread::yield_now();
                            }
                        }
                        *n = range.len();
                    },
                    |n| {
                        in_flight.fetch_sub(*n, Ordering::SeqCst);
                        Ok::<(), ()>(())
                    },
                )
                .unwrap();
            assert_eq!(most.load(Ordering::SeqCst), window, "{workers}w");
            assert_eq!(peak, window, "{workers}w");
        }
    }

    #[test]
    fn stream_ordered_reraises_a_producer_panic() {
        for workers in [1, 2, 4] {
            let mut seen = Vec::new();
            let err = catch_unwind(AssertUnwindSafe(|| {
                Pool::with_workers(workers).stream_ordered(
                    200,
                    16,
                    |range, out: &mut Vec<usize>| {
                        assert!(!range.contains(&50), "boom at item 50");
                        out.clear();
                        out.extend(range);
                    },
                    |out| {
                        seen.extend_from_slice(out);
                        Ok::<(), ()>(())
                    },
                )
            }))
            .expect_err("the producer panic must reach the caller");
            assert!(panic_message(err.as_ref()).contains("boom at item 50"));
            assert!(
                seen.len() <= 50,
                "{workers}w consumed past the panicking chunk"
            );
            assert_eq!(seen, (0..seen.len()).collect::<Vec<_>>());
        }
    }

    /// A writer that fails mid-sweep gets its error back, and pricing
    /// stops: at most one shard of cells is priced beyond what was
    /// written.
    #[test]
    fn failing_writer_stops_pricing_within_one_shard() {
        struct FailsAfter {
            writes: usize,
            rows: usize,
        }
        impl std::io::Write for FailsAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.writes == 0 {
                    return Err(std::io::Error::other("disk full"));
                }
                self.writes -= 1;
                self.rows += buf.iter().filter(|&&b| b == b'\n').count();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let spec = crate::sweep::million_cell().truncate(5000);
        let shard = 64;
        for workers in [1, 2, 4] {
            let ctx = crate::runner::Ctx::without_memo();
            // The header and one chunk of rows get through.
            let mut out = FailsAfter { writes: 2, rows: 0 };
            let err = crate::sweep::run_streamed(
                &Pool::with_workers(workers),
                &ctx,
                &spec,
                None,
                &mut out,
                shard,
            )
            .expect_err("the write error must surface");
            assert_eq!(err.to_string(), "disk full");
            let written = out.rows - 1;
            let priced = ctx.cache_stats().uncached as usize;
            assert!(written > 0, "{workers}w: no chunk was written");
            assert!(
                priced <= written + shard,
                "{workers}w: priced {priced} cells after writing {written} (shard {shard})"
            );
        }
    }

    #[test]
    fn env_override_parses_and_falls_back() {
        // `from_env` itself is covered via `workers()` bounds; direct env
        // manipulation is avoided because tests run concurrently.
        assert!(Pool::from_env().workers() >= 1);
        assert_eq!(Pool::with_workers(0).workers(), 1);
    }
}
