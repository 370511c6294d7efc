//! The parallel memoized experiment executor.
//!
//! The paper's artifacts (Tables II–V, Figures 1–5, the validation
//! scorecard, and the extension studies) used to be regenerated as fifteen
//! strictly-serial `run()` calls that re-simulated overlapping
//! (benchmark × system × gpu-set × precision) points many times — Table IV,
//! Figure 4, the cluster study, and the energy study all need the same
//! DSS-8440 scaling sweep, and validation re-derived three whole tables.
//! This module fixes that structurally:
//!
//! * [`Pool`] — a zero-dependency scoped-thread pool that runs a DAG
//!   from one locked ready queue;
//! * [`ShardedCache`] — a compute-once memo cache keyed by [`RunKey`], so
//!   each simulation point is priced exactly once per report;
//! * [`Experiment`] — what the executor schedules; every experiment module
//!   declares one [`Decl`], whose generic impl erases its typed payload
//!   into an [`Artifact`] and renders its report section and CSV files;
//! * [`execute`] — topological scheduling of an experiment DAG onto the
//!   pool, with output assembled in declaration order (strict,
//!   fail-fast);
//! * [`execute_resilient`] — the same schedule with full failure
//!   isolation: each experiment runs once, its panics, budget trips,
//!   and non-finite outputs become typed [`ExperimentError`]s,
//!   dependents of a failure degrade as
//!   [`ExperimentError::DependencyFailed`], and every independent
//!   subgraph still completes (see [`ResilienceConfig`]). A failure is
//!   final: every experiment is a pure function of its inputs, so a
//!   second attempt would fail again. A step budget is metered per
//!   attempt, on the thread that runs it, never in the shared [`Ctx`];
//! * `execute_cached` — the resilient schedule behind `repro --report`
//!   and `repro --csv`: it loads each output from the persistent result
//!   cache and re-runs only the experiments missing one.
//!
//! **Determinism policy.** Report and CSV bytes must be identical for any
//! worker count (`MLPERF_JOBS=1` vs `=N`), so nothing nondeterministic may
//! flow into rendered output: results are assembled in declaration order,
//! cache hit/miss counts are scheduling-invariant (see [`CacheStats`]),
//! and per-experiment wall-clock — inherently nondeterministic —
//! stays in [`ExecutorStats`], which is surfaced on stderr and read by
//! perfbench, never in the report body. DESIGN.md "Execution model" is
//! the long-form writeup.

mod error;
mod lane;
mod memo;
mod pool;

pub(crate) use error::panic_message as panic_payload_message;
pub use error::{BudgetExceeded, ExperimentError};
pub(crate) use lane::Lane;
pub use memo::ShardedCache;
pub use pool::{Pool, JOBS_ENV};

use crate::benchmark::BenchmarkId;
use crate::experiments::{
    batch_sweep, cluster_study, colocation_study, energy_cost, fault_study, figure1, figure2,
    figure3, figure4, figure5, partition_study, storage_study, table1, table2, table3, table4,
    table5, variance_decomposition,
};
use crate::report::Table;
use crate::sweep::DiskCache;
use crate::workloads::{self, WorkloadRun, WorkloadSpec};
use crate::{sensitivity, validation};
use error::panic_message;
use mlperf_analysis::roofline::RooflineModel;
use mlperf_hw::systems::{SystemId, SystemSpec};
use mlperf_hw::{Bytes, PartitionSpec, Precision};
use mlperf_models::PrecisionPolicy;
use mlperf_sim::engine::{SimError, Simulator, StepReport};
use mlperf_sim::training::{train, TrainingOutcome};
use mlperf_sim::TrainingJob;
use std::any::Any;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// GPU ordinals `0..=64`: the first `n` GPUs of any chassis with up to 64
/// of them, plus its first absent ordinal (see [`Ctx::ordinals`]).
const ORDINALS: [u32; 65] = {
    let mut table = [0u32; 65];
    let mut i = 0;
    while i < table.len() {
        table[i] = i as u32;
        i += 1;
    }
    table
};

/// The identity of one memoized simulation point.
///
/// Every field that changes the engine's answer is part of the key; the
/// batch and precision are the *effective* values after job-builder
/// overrides, so e.g. Figure 3's first AMP attempt at the default batch
/// shares the cache entry with Table IV's plain scaling run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// The benchmark whose job is simulated.
    pub benchmark: BenchmarkId,
    /// Whether the FP32 reference implementation's job is used.
    pub reference: bool,
    /// The platform.
    pub system: SystemId,
    /// GPU count: the point runs on the system's first `gpus` ordinals.
    pub gpus: u32,
    /// Effective precision policy of the job.
    pub precision: PrecisionPolicy,
    /// Effective per-GPU batch before the engine's global-batch cap.
    pub per_gpu_batch: u64,
    /// Simulation window `(warmup, measured)` iterations.
    pub window: (u64, u64),
    /// Fractional-device partition the job runs inside, if any (`None`
    /// keys exactly as every pre-partition entry did).
    pub partition: Option<PartitionSpec>,
}

/// A memoizable training-simulation request: a benchmark's (possibly
/// adjusted) job on the first `gpus` GPUs of a platform.
#[derive(Debug, Clone)]
pub struct TrainPoint {
    pub(crate) benchmark: BenchmarkId,
    reference: bool,
    system: SystemId,
    pub(crate) gpus: u32,
    precision: Option<PrecisionPolicy>,
    per_gpu_batch: Option<u64>,
    partition: Option<PartitionSpec>,
}

impl TrainPoint {
    /// The benchmark's tuned job on the first `gpus` GPUs of `system`.
    pub fn new(benchmark: BenchmarkId, system: SystemId, gpus: u32) -> Self {
        TrainPoint {
            benchmark,
            reference: false,
            system,
            gpus,
            precision: None,
            per_gpu_batch: None,
            partition: None,
        }
    }

    /// The benchmark's FP32 reference-implementation job instead.
    pub fn reference(benchmark: BenchmarkId, system: SystemId, gpus: u32) -> Self {
        TrainPoint {
            reference: true,
            ..TrainPoint::new(benchmark, system, gpus)
        }
    }

    /// Override the precision policy.
    #[must_use]
    pub fn with_precision(mut self, precision: PrecisionPolicy) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Override the per-GPU batch size.
    #[must_use]
    pub fn with_per_gpu_batch(mut self, batch: u64) -> Self {
        self.per_gpu_batch = Some(batch);
        self
    }

    /// Run the job inside a fractional-device partition (`None` — the
    /// default — is the whole device, and keys identically to a point
    /// built before partitioning existed).
    #[must_use]
    pub fn with_partition(mut self, partition: Option<PartitionSpec>) -> Self {
        self.partition = partition;
        self
    }

    /// The cache key, with overrides resolved to effective values.
    fn key(&self, job: &TrainingJob, window: (u64, u64)) -> RunKey {
        RunKey {
            benchmark: self.benchmark,
            reference: self.reference,
            system: self.system,
            gpus: self.gpus,
            precision: job.precision(),
            per_gpu_batch: job.per_gpu_batch(),
            window,
            partition: job.partition(),
        }
    }
}

/// Key for memoized DeepBench kernel-loop runs (no job to derive a
/// [`RunKey`] from; the tuple below is the whole identity).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct KernelKey {
    id: crate::workloads::DeepBenchId,
    system: SystemId,
    gpus: u32,
}

/// Cache counters, scheduling-invariant by construction (compute-once
/// caches over a fixed request set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Training-step requests answered from the memo cache.
    pub step_hits: u64,
    /// Training-step points actually priced by the engine.
    pub step_misses: u64,
    /// Kernel-loop requests answered from the memo cache.
    pub kernel_hits: u64,
    /// Kernel loops actually priced.
    pub kernel_misses: u64,
    /// Requests that bypassed the cache (perturbed calibration knobs and
    /// other points with no stable key).
    pub uncached: u64,
}

impl CacheStats {
    /// Total cacheable requests (hits + misses, both caches).
    pub fn requests(&self) -> u64 {
        self.step_hits + self.step_misses + self.kernel_hits + self.kernel_misses
    }

    /// Requests answered without recomputation.
    pub fn hits(&self) -> u64 {
        self.step_hits + self.kernel_hits
    }

    /// Fraction of cacheable requests answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.requests() as f64
        }
    }
}

/// Interned platform specs: one slot per [`SystemId`] variant, indexed by
/// discriminant (`Dgx1V`, outside [`SystemId::ALL`], is the last variant).
const SYSTEM_SLOTS: usize = SystemId::Dgx1V as usize + 1;
/// Interned template jobs: a tuned and a reference slot per
/// [`BenchmarkId`] variant ([`BenchmarkId::ALL`] lists every one).
const TEMPLATE_SLOTS: usize = 2 * BenchmarkId::ALL.len();

/// Key of one roofline pre-screen verdict: (benchmark, reference,
/// system, precision, gpus, partition).
type ScreenKey = (
    BenchmarkId,
    bool,
    SystemId,
    PrecisionPolicy,
    u32,
    Option<PartitionSpec>,
);

/// Shared execution context: the memo caches, the artifact store, and the
/// cache counters. One `Ctx` spans one report (or one standalone
/// experiment run); sharing it across experiments is what deduplicates
/// their overlapping simulation points. It holds no step budget: the
/// executor meters each experiment attempt, the query server each
/// connection.
pub struct Ctx {
    steps: ShardedCache<RunKey, Result<StepReport, SimError>>,
    kernels: ShardedCache<KernelKey, Result<WorkloadRun, SimError>>,
    artifacts: Mutex<HashMap<&'static str, Artifact>>,
    uncached: AtomicU64,
    memoize: bool,
    /// Interned platform specs, built on first use: building a
    /// [`SystemSpec`] and routing its topology must not repeat per cell.
    /// Lock-free to read, so sweep workers share nothing but the spec.
    systems: [OnceLock<Arc<SystemSpec>>; SYSTEM_SLOTS],
    /// Interned benchmark template jobs (tuned, then reference, per
    /// benchmark): cloning a template is an `Arc` bump on the model graph,
    /// where rebuilding one re-allocates the whole operator list per cell.
    templates: [OnceLock<TrainingJob>; TEMPLATE_SLOTS],
    /// Whether the engine's analytic fast path may be attempted at all
    /// (off only in the differential tests' reference contexts).
    fastpath: bool,
    /// Roofline pre-screen verdicts, one per (benchmark, reference,
    /// system, precision, gpus) combo — batch-independent by construction
    /// so the cached verdict is scheduling-invariant.
    fast_screen: Mutex<HashMap<ScreenKey, bool>>,
    /// Unique simulation points that attempted the analytic fast path.
    /// Like `uncached`, each pricing lane adds its own count once, when it
    /// drops.
    fast_attempts: AtomicU64,
    /// Unique simulation points the fast path actually priced.
    fast_hits: AtomicU64,
    /// How many seeded runs each Training cell replicates (the
    /// `MLPERF_RUNS` resolution; 1 = point pricing, no extra columns).
    runs: u32,
}

impl Ctx {
    /// A fresh memoizing context at the default knobs; it reads no
    /// environment, so it prices one run per cell unless
    /// [`Ctx::with_runs`] says otherwise. `repro` builds its contexts with
    /// [`Ctx::from_config`] from the one `Config` it resolves.
    pub fn new() -> Ctx {
        Ctx::from_config(&crate::config::Config::default())
    }

    /// A fresh memoizing context under an explicitly resolved [`Config`]
    /// (what a long-lived server constructs once at startup instead of
    /// re-reading the environment per request).
    ///
    /// [`Config`]: crate::config::Config
    pub fn from_config(cfg: &crate::config::Config) -> Ctx {
        Ctx {
            steps: ShardedCache::new(),
            kernels: ShardedCache::new(),
            artifacts: Mutex::new(HashMap::new()),
            uncached: AtomicU64::new(0),
            memoize: true,
            systems: [const { OnceLock::new() }; SYSTEM_SLOTS],
            templates: [const { OnceLock::new() }; TEMPLATE_SLOTS],
            fastpath: true,
            fast_screen: Mutex::new(HashMap::new()),
            fast_attempts: AtomicU64::new(0),
            fast_hits: AtomicU64::new(0),
            runs: cfg.runs.max(1),
        }
    }

    /// A context that never memoizes — every request is recomputed and
    /// counted as uncached. `repro sweep` and perfbench's sweep use it
    /// (sweep cells are pairwise distinct, so a memo would only grow), as
    /// do the tests that count priced cells.
    pub fn without_memo() -> Ctx {
        Ctx {
            memoize: false,
            ..Ctx::new()
        }
    }

    /// Force the analytic fast path on or off (it is on by default). Off
    /// is the reference the differential tests compare against: the
    /// output bytes are identical either way (the fast path is exact);
    /// only the throughput changes.
    #[must_use]
    pub fn with_fastpath(mut self, enabled: bool) -> Ctx {
        self.fastpath = enabled;
        self
    }

    /// Override the per-cell replication count (what `repro sweep` sets
    /// from [`RUNS_ENV`] through its `Config`, and what tests and the
    /// variance experiment use to pin a run count).
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero — a cell is always at least one run.
    #[must_use]
    pub fn with_runs(mut self, runs: u32) -> Ctx {
        assert!(runs >= 1, "a cell is always at least one run");
        self.runs = runs;
        self
    }

    /// The per-cell replication count this context prices sweeps at.
    pub fn runs(&self) -> u32 {
        self.runs
    }

    /// `(attempted, priced)` counts for the analytic fast path, over
    /// unique simulation points that reached a verdict (error cells are
    /// excluded: both engines reject them in shared validation before
    /// either loop runs). Stderr-only instrumentation: never rendered
    /// into report bytes, which must not depend on the fast path being
    /// on or off.
    pub fn fast_stats(&self) -> (u64, u64) {
        (
            self.fast_attempts.load(Ordering::Relaxed),
            self.fast_hits.load(Ordering::Relaxed),
        )
    }

    /// The interned platform spec for `id`.
    pub fn system_spec(&self, id: SystemId) -> Arc<SystemSpec> {
        Arc::clone(self.system(id))
    }

    /// The interned spec, borrowed: the per-cell lane reads it without
    /// touching the reference count every worker shares.
    fn system(&self, id: SystemId) -> &Arc<SystemSpec> {
        self.systems[id as usize].get_or_init(|| Arc::new(id.spec()))
    }

    /// The interned template job for a benchmark (tuned or reference
    /// implementation), shared across every cell that starts from it.
    pub fn base_job(&self, benchmark: BenchmarkId, reference: bool) -> &TrainingJob {
        self.templates[2 * benchmark as usize + usize::from(reference)].get_or_init(|| {
            if reference {
                benchmark.reference_job()
            } else {
                benchmark.job()
            }
        })
    }

    /// The engine's admission check for a training point — GPU set,
    /// partition and device-memory gate, in the order pricing runs them —
    /// without pricing anything. Returns the admitted per-GPU HBM
    /// footprint; an error here is the error [`Ctx::step`] returns.
    ///
    /// # Errors
    ///
    /// As [`Simulator::preflight`].
    pub fn preflight(&self, point: &TrainPoint) -> Result<Bytes, SimError> {
        Lane::new(self).preflight(point)
    }

    /// The GPU set a point runs on: the system's first `gpus` ordinals,
    /// cut after the first absent one. The engine rejects a set at its
    /// first absent ordinal, so the cut changes no verdict, and a count of
    /// `u32::MAX` costs what `gpu_count + 1` does. Borrowed from a static
    /// table: no allocation per cell.
    fn ordinals(system: &SystemSpec, gpus: u32) -> &'static [u32] {
        &ORDINALS[..(gpus as usize).min(system.gpu_count() + 1)]
    }

    /// The steady-state step report for a training point, memoized.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the engine (errors are memoized too:
    /// a point that OOMs once OOMs always).
    pub fn step(&self, point: &TrainPoint) -> Result<StepReport, SimError> {
        Lane::new(self).step(point)
    }

    /// The full training outcome for a point: the memoized step report
    /// composed with the closed-form convergence model.
    ///
    /// # Errors
    ///
    /// As [`Ctx::step`].
    pub fn outcome(&self, point: &TrainPoint) -> Result<TrainingOutcome, SimError> {
        Lane::new(self).outcome(point)
    }

    /// The step report and the outcome derived from it, sharing one job
    /// materialization and one engine request (calling [`Ctx::step`] then
    /// [`Ctx::outcome`] costs two of each). Values are identical to the
    /// separate calls by construction.
    ///
    /// # Errors
    ///
    /// As [`Ctx::step`].
    pub fn step_and_outcome(
        &self,
        point: &TrainPoint,
    ) -> Result<(StepReport, TrainingOutcome), SimError> {
        Lane::new(self).step_and_outcome(point)
    }

    /// Roofline pre-screen for the analytic fast path: worth attempting
    /// only when the template's device time (lower-bounded by the
    /// attainable roof) can plausibly cover the host's per-iteration feed
    /// work — i.e. the cell is compute- or bandwidth-bound, not
    /// host-bound. Soundness does not depend on this verdict: the engine
    /// re-proves eligibility exactly and declines otherwise; the screen
    /// only spares ineligible cells the warmup replay. The verdict is
    /// computed once per (benchmark, reference, system, precision, gpus)
    /// combo *at the template's own batch size*, so it is deterministic
    /// regardless of which cell of a sweep arrives first.
    fn fast_screen(&self, point: &TrainPoint, job: &TrainingJob, system: &SystemSpec) -> bool {
        let key = (
            point.benchmark,
            point.reference,
            point.system,
            job.precision(),
            point.gpus,
            job.partition(),
        );
        if let Some(&verdict) = lock(&self.fast_screen).get(&key) {
            return verdict;
        }
        let verdict = self.screen_verdict(point, job.precision(), system);
        lock(&self.fast_screen).insert(key, verdict);
        verdict
    }

    fn screen_verdict(
        &self,
        point: &TrainPoint,
        precision: PrecisionPolicy,
        system: &SystemSpec,
    ) -> bool {
        // Clone the interned template instead of rebuilding it from the
        // zoo — the verdict is per-combo, but a strided sweep can visit
        // hundreds of combos.
        let template = self
            .base_job(point.benchmark, point.reference)
            .clone()
            .with_precision(precision);
        let k = point.gpus as u64;
        let batch = template.effective_per_gpu_batch(k.max(1));
        let pass = template.model().pass_cost(batch, template.precision());
        let flops = pass.total_flops().as_u64();
        let bytes = pass.mem_bytes.as_u64();
        if flops == 0 || bytes == 0 {
            // Degenerate template; attempt the fast path and let the
            // engine's exact checks (and typed errors) decide.
            return true;
        }
        // Device-time lower bound from the attainable roof, at the
        // fastest ceiling the policy can reach — of the *slice* the job
        // runs inside, when the point is partitioned.
        let parent = system.gpu_model().spec();
        let gpu_spec = match point.partition {
            None => parent,
            Some(p) => match p.sliced_spec(&parent) {
                Ok(sliced) => sliced,
                // An invalid slice is a typed engine error either way;
                // attempt the fast path so both loops reject identically.
                Err(_) => return true,
            },
        };
        let roofline = RooflineModel::for_gpu(&gpu_spec);
        let roof_precision = match template.precision() {
            PrecisionPolicy::Amp => Precision::TensorCore,
            _ => Precision::Single,
        };
        let intensity = flops as f64 / bytes as f64;
        let attainable = roofline.attainable(intensity, roof_precision);
        let device_secs = flops as f64 / attainable.as_flops_per_sec();
        // Host feed upper bound per iteration: the whole loader chain
        // plus every GPU's H2D transfer as if they shared one uplink.
        let cpu = system.cpu_model().spec();
        let sockets = system.cpu_count() as f64;
        let pipeline = template.pipeline();
        let prep_secs =
            pipeline.host_time_per_batch(&cpu, batch).as_secs() / sockets * point.gpus as f64;
        let h2d = pipeline.h2d_bytes_per_batch(batch);
        let worst_uplink = Ctx::ordinals(system, point.gpus)
            .iter()
            .filter_map(|&g| {
                let path = system.topology().gpu_host_path(g).ok()?;
                path.links
                    .iter()
                    .map(|l| l.effective_bandwidth().as_bytes_per_sec())
                    .min_by(|a, b| a.partial_cmp(b).expect("finite bandwidths"))
            })
            .min_by(|a, b| a.partial_cmp(b).expect("finite bandwidths"));
        let Some(uplink) = worst_uplink else {
            // Unroutable or invalid GPU set: attempt the fast path so the
            // engine surfaces the identical typed error either way.
            return true;
        };
        let h2d_secs = h2d.as_u64() as f64 / uplink * point.gpus as f64;
        device_secs >= prep_secs + h2d_secs
    }

    /// A characterized workload run (either suite), memoized.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`]; DeepBench misuse (multi-GPU compute
    /// kernels, absent GPUs) surfaces as [`SimError::BadGpuSet`].
    pub fn workload(
        &self,
        spec: WorkloadSpec,
        system: SystemId,
        gpus: u32,
    ) -> Result<WorkloadRun, SimError> {
        match spec {
            WorkloadSpec::Trainable(id) => {
                let outcome = self.outcome(&TrainPoint::new(id, system, gpus))?;
                Ok(workloads::trainable_from_outcome(
                    id,
                    self.base_job(id, false),
                    self.system(system),
                    &outcome,
                ))
            }
            WorkloadSpec::DeepBench(id) => {
                charge(1);
                let compute = || workloads::deepbench(id, self.system(system), gpus);
                if !self.memoize {
                    self.uncached.fetch_add(1, Ordering::Relaxed);
                    return compute();
                }
                self.kernels
                    .get_or_compute(KernelKey { id, system, gpus }, compute)
            }
        }
    }

    /// Train a hand-built job that has no stable cache identity (the
    /// sensitivity study's perturbed calibration knobs). Always computed;
    /// counted in [`CacheStats::uncached`].
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the engine.
    pub fn train_uncached(
        &self,
        system: SystemId,
        job: &TrainingJob,
        gpus: u32,
    ) -> Result<TrainingOutcome, SimError> {
        charge(1);
        self.uncached.fetch_add(1, Ordering::Relaxed);
        let spec = self.system(system);
        train(&Simulator::new(spec), job, Ctx::ordinals(spec, gpus))
    }

    /// A completed dependency's payload, if the executor stored one of
    /// type `T` under `id`.
    pub fn artifact<T: Any + Send + Sync>(&self, id: &str) -> Option<Arc<T>> {
        self.stored(id)?.0.downcast().ok()
    }

    /// The artifact the executor stored under `id`, whatever its type.
    pub(crate) fn stored(&self, id: &str) -> Option<Artifact> {
        lock(&self.artifacts).get(id).cloned()
    }

    fn store_artifact(&self, id: &'static str, artifact: Artifact) {
        lock(&self.artifacts).insert(id, artifact);
    }

    /// Fetch a dependency's result from the artifact store, or recompute
    /// it through this context (cheap: the underlying simulation points
    /// are already memoized) when the experiment runs standalone.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the fallback computation.
    pub fn dep_or<T: Any + Send + Sync + Clone>(
        &self,
        id: &'static str,
        compute: impl FnOnce(&Ctx) -> Result<T, SimError>,
    ) -> Result<T, SimError> {
        if self.memoize {
            if let Some(value) = self.artifact::<T>(id) {
                return Ok((*value).clone());
            }
        }
        compute(self)
    }

    /// Snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            step_hits: self.steps.hits(),
            step_misses: self.steps.misses(),
            kernel_hits: self.kernels.hits(),
            kernel_misses: self.kernels.misses(),
            uncached: self.uncached.load(Ordering::Relaxed),
        }
    }
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx::new()
    }
}

/// The typed result of one experiment, erased so the executor can store
/// any experiment's payload for its dependents ([`Experiment::deps`]) to
/// read back with [`Artifact::get`] or [`Ctx::dep_or`].
#[derive(Clone)]
pub struct Artifact(Arc<dyn Any + Send + Sync>);

impl Artifact {
    /// Erase a payload.
    pub fn new<T: Any + Send + Sync>(payload: T) -> Artifact {
        Artifact(Arc::new(payload))
    }

    /// The payload, if it is a `T`.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.0.downcast_ref()
    }
}

/// One experiment as the executor schedules it.
///
/// Implementations must keep `run` free of global state (everything
/// shared goes through the [`Ctx`]) and `render` a pure function of the
/// artifact — that is what makes the schedule's interleaving invisible in
/// the output.
pub trait Experiment: Sync {
    /// Stable identifier (artifact-store key and `deps` vocabulary).
    fn id(&self) -> &'static str;

    /// Human-readable title for the report appendix.
    fn title(&self) -> &'static str;

    /// Ids of experiments whose artifacts this one consumes. Dependencies
    /// not present in the submitted set are ignored (the consumer falls
    /// back to recomputing through the memoized [`Ctx`]).
    fn deps(&self) -> &'static [&'static str] {
        &[]
    }

    /// Canonical bytes describing everything the experiment's output
    /// depends on besides the code itself. The persistent result cache
    /// (`mlperf-core::sweep::cache`) keys each rendered section by
    /// `fnv1a64(code_epoch ‖ spec_bytes)`; the default — the experiment's
    /// id — is correct for experiments whose parameters are all
    /// compile-time constants. A [`Decl`] fed by a declarative
    /// [`SweepSpec`](crate::sweep::SweepSpec) appends the sweep's
    /// canonical bytes, so editing a grid invalidates exactly the sections
    /// that consume it.
    fn spec_bytes(&self) -> Vec<u8> {
        format!("exp:{}", self.id()).into_bytes()
    }

    /// Produce the experiment's artifact.
    ///
    /// # Errors
    ///
    /// An [`ExperimentError`] — typically [`ExperimentError::Sim`] or
    /// [`ExperimentError::NonFiniteOutput`] converted from the simulation
    /// points the experiment prices (the executor supplies the panic,
    /// budget, and dependency variants itself).
    fn run(&self, ctx: &Ctx) -> Result<Artifact, ExperimentError>;

    /// Render the artifact to the report's text form.
    fn render(&self, artifact: &Artifact) -> String;

    /// Names of the CSV files the experiment exports (`repro --csv`);
    /// none by default.
    fn csv_files(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// Render the CSV export `file` from the artifact, or, for an
    /// experiment that failed, its header row plus a `# degraded:` line
    /// naming the error.
    ///
    /// # Panics
    ///
    /// Panics if the experiment exports no `file`.
    fn csv(&self, file: &str, _: Result<&Artifact, &ExperimentError>) -> String {
        panic!("{} exports no {file}", self.id())
    }
}

/// One CSV file an experiment exports, declared in its [`Decl`]: the
/// file name, the header row, and the rows read from the typed payload.
pub struct CsvFile<T> {
    /// Output file name.
    pub(crate) file: &'static str,
    /// The table with its header row and no rows.
    pub(crate) header: fn() -> Table,
    /// Append the payload's rows to the header table.
    pub(crate) rows: fn(&T, &mut Table),
}

/// A header table from its CSV header row, as the file spells it.
pub(crate) fn csv_header(row: &str) -> Table {
    Table::new("", row.split(','))
}

/// One experiment, declared once in its module: the identity the
/// executor schedules and the report renders, plus the module's own
/// typed `run_ctx`, `render` and CSV files. Its [`Experiment`] impl
/// erases the payload into an [`Artifact`] and reads it back to render
/// it.
pub struct Decl<T: 'static, E = SimError> {
    /// Stable identifier ([`Experiment::id`]).
    pub(crate) id: &'static str,
    /// Report-appendix title ([`Experiment::title`]).
    pub(crate) title: &'static str,
    /// Ids of the experiments whose artifacts this one reads
    /// ([`Experiment::deps`]).
    pub(crate) deps: &'static [&'static str],
    /// Canonical bytes of the sweeps and seeds that feed the experiment,
    /// appended to its id in [`Experiment::spec_bytes`]; `None` when every
    /// parameter is a compile-time constant.
    pub(crate) spec: Option<fn() -> Vec<u8>>,
    /// Produce the payload through a shared context.
    pub(crate) run: fn(&Ctx) -> Result<T, E>,
    /// Render the payload to its report section.
    pub(crate) render: fn(&T) -> String,
    /// The CSV files the experiment exports (most export none).
    pub(crate) csv: &'static [CsvFile<T>],
}

impl<T: Any, E> Decl<T, E> {
    fn payload<'a>(&self, artifact: &'a Artifact) -> &'a T {
        artifact
            .get()
            .unwrap_or_else(|| panic!("{} asked to render another experiment's artifact", self.id))
    }
}

impl<T: Any + Send + Sync, E: Into<ExperimentError>> Experiment for Decl<T, E> {
    fn id(&self) -> &'static str {
        self.id
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn deps(&self) -> &'static [&'static str] {
        self.deps
    }

    fn spec_bytes(&self) -> Vec<u8> {
        match self.spec {
            None => format!("exp:{}", self.id).into_bytes(),
            Some(spec) => {
                let mut s = format!("exp:{};", self.id).into_bytes();
                s.extend_from_slice(&spec());
                s
            }
        }
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, ExperimentError> {
        (self.run)(ctx).map(Artifact::new).map_err(Into::into)
    }

    fn render(&self, artifact: &Artifact) -> String {
        (self.render)(self.payload(artifact))
    }

    fn csv_files(&self) -> Vec<&'static str> {
        self.csv.iter().map(|c| c.file).collect()
    }

    fn csv(&self, file: &str, artifact: Result<&Artifact, &ExperimentError>) -> String {
        let export = self
            .csv
            .iter()
            .find(|c| c.file == file)
            .unwrap_or_else(|| panic!("{} exports no {file}", self.id));
        let mut table = (export.header)();
        match artifact {
            Ok(artifact) => {
                (export.rows)(self.payload(artifact), &mut table);
                table.to_csv()
            }
            Err(err) => format!(
                "{}# degraded: {} failed ({}): {err}\n",
                table.to_csv(),
                self.id,
                err.kind()
            ),
        }
    }
}

/// One scheduled experiment's output.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// The experiment's id.
    pub id: &'static str,
    /// Display title.
    pub title: &'static str,
    /// Declared dependencies.
    pub deps: &'static [&'static str],
    /// The rendered section text; for a failed experiment this is a
    /// deterministic degraded-mode placeholder, so downstream assembly
    /// stays positional.
    pub rendered: String,
    /// Why the experiment failed, if it did.
    pub error: Option<ExperimentError>,
    /// Wall-clock of `run` + `render` on the worker that executed it
    /// (nondeterministic; never rendered into report bytes).
    pub wall: Duration,
}

/// One experiment that failed (failure-appendix row).
#[derive(Debug, Clone)]
pub struct ExperimentFailure {
    /// The experiment's id.
    pub id: &'static str,
    /// Display title.
    pub title: &'static str,
    /// Why it produced no artifact.
    pub error: ExperimentError,
}

/// Executor instrumentation. Everything here except [`CacheStats`] is
/// wall-clock and therefore nondeterministic — it is surfaced on stderr
/// and read by perfbench, never in the report body.
#[derive(Debug, Clone)]
pub struct ExecutorStats {
    /// Worker threads the pool ran.
    pub workers: usize,
    /// End-to-end wall-clock of the whole DAG.
    pub total_wall: Duration,
    /// Per-experiment wall-clock, in declaration order.
    pub per_experiment: Vec<(&'static str, Duration)>,
    /// Cache counters (deterministic; also rendered in the appendix).
    pub cache: CacheStats,
}

impl ExecutorStats {
    /// A compact human-readable multi-line summary (for stderr).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "executor: {} experiments on {} worker(s) in {:.2}s; cache {}/{} hits ({:.0}%), {} uncached\n",
            self.per_experiment.len(),
            self.workers,
            self.total_wall.as_secs_f64(),
            self.cache.hits(),
            self.cache.requests(),
            self.cache.hit_rate() * 100.0,
            self.cache.uncached,
        ));
        for (id, wall) in &self.per_experiment {
            out.push_str(&format!("  {:>8.1} ms  {id}\n", wall.as_secs_f64() * 1e3));
        }
        out
    }
}

/// Everything the executor produced.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Per-experiment outputs, in the order the experiments were given —
    /// one entry per experiment even in degraded mode (failed ones carry
    /// a placeholder section and their error).
    pub reports: Vec<ExperimentReport>,
    /// Experiments that failed, in declaration order.
    pub failures: Vec<ExperimentFailure>,
    /// Pool and cache instrumentation.
    pub stats: ExecutorStats,
}

impl Execution {
    /// Whether any experiment failed (the run is degraded but complete).
    pub fn degraded(&self) -> bool {
        !self.failures.is_empty()
    }

    /// The first failure in declaration order that is not a dependency
    /// cascade (falling back to the cascade if every failure is one) —
    /// what strict mode reports as the hard error.
    pub fn root_cause(&self) -> Option<&ExperimentFailure> {
        self.failures
            .iter()
            .find(|f| !matches!(f.error, ExperimentError::DependencyFailed { .. }))
            .or_else(|| self.failures.first())
    }
}

/// Environment variable: `MLPERF_STRICT=1` restores fail-fast execution
/// (the first failure aborts the run) for CI.
pub const STRICT_ENV: &str = "MLPERF_STRICT";
/// Environment variable naming one experiment id to chaos-panic.
pub const CHAOS_ENV: &str = "MLPERF_CHAOS";
/// Environment variable setting a per-experiment simulation-request
/// budget (cooperative, deterministic — not wall-clock).
pub const STEP_BUDGET_ENV: &str = "MLPERF_STEP_BUDGET";
/// Environment variable setting how many seeded runs each Training cell
/// replicates (1–512; default 1 = point pricing, byte-identical to the
/// pre-replication suite). Above one, sweeps and cell queries append the
/// epochs-to-target distribution columns.
pub const RUNS_ENV: &str = "MLPERF_RUNS";
/// Environment variable applying a fractional-device partition to every
/// sweep base cell (`full`, or a slice token like `1of4` / `1of4x3` —
/// profile plus optional co-tenant count). Pinned experiments ignore it,
/// exactly as they ignore [`RUNS_ENV`]; unset (or `full`) is
/// byte-identical to the pre-partition suite.
pub const PARTITION_ENV: &str = "MLPERF_PARTITION";

/// How [`execute_resilient`] treats failure.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Per-experiment simulation-request budget, if any.
    pub step_budget: Option<u64>,
    /// Fail-fast mode: the caller turns the first failure into a hard
    /// error instead of a degraded report.
    pub strict: bool,
    /// Id of the experiment to chaos-panic, if any: the injected panic
    /// fires inside the executor's unwind boundary, exercising the path a
    /// real panic takes.
    pub chaos: Option<String>,
}

impl ResilienceConfig {
    /// Fail-fast: no chaos, no budget (today's CI behavior).
    pub fn strict() -> Self {
        ResilienceConfig {
            step_budget: None,
            strict: true,
            chaos: None,
        }
    }

    /// Degrade gracefully: a failed experiment becomes a placeholder
    /// section and a failure-appendix row.
    pub fn resilient() -> Self {
        ResilienceConfig {
            strict: false,
            ..ResilienceConfig::strict()
        }
    }

    /// The failure policy an explicitly resolved
    /// [`Config`](crate::config::Config) dictates: [`STRICT_ENV`],
    /// [`STEP_BUDGET_ENV`] and [`CHAOS_ENV`].
    pub fn from_config(config: &crate::config::Config) -> Self {
        ResilienceConfig {
            step_budget: config.step_budget,
            strict: config.strict,
            chaos: config.chaos.clone(),
        }
    }
}

/// The deterministic placeholder section a failed experiment contributes,
/// keeping downstream assembly positional in degraded mode.
fn degraded_section(e: &dyn Experiment, err: &ExperimentError) -> String {
    format!(
        "[degraded] {} ({}) produced no artifact: {} — see the failure appendix\n",
        e.title(),
        e.id(),
        err.kind(),
    )
}

/// A step budget and the simulation requests charged against it. Budgets
/// count requests, not wall-clock, so a verdict is a pure function of the
/// requests made, the same at any worker count or cache state. The
/// executor meters each experiment attempt; the query server meters each
/// connection.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Meter {
    /// Requests charged so far.
    pub(crate) used: u64,
    /// The limit `used` may reach.
    pub(crate) budget: u64,
}

impl Meter {
    /// Charge `n` requests; the reading once the spend exceeds the budget.
    pub(crate) fn charge(&mut self, n: u64) -> Result<(), BudgetExceeded> {
        self.used += n;
        if self.used > self.budget {
            return Err(BudgetExceeded {
                used: self.used,
                budget: self.budget,
            });
        }
        Ok(())
    }
}

thread_local! {
    /// The meter of the experiment attempt running on this thread, when
    /// its run has a step budget (armed and cleared by
    /// [`attempt_experiment`]).
    static METER: Cell<Option<Meter>> = const { Cell::new(None) };
}

/// Charge `n` simulation requests against the meter of the experiment
/// attempt running on this thread, if it has one.
///
/// # Panics
///
/// Unwinds with a [`BudgetExceeded`] payload when the budget trips, which
/// [`attempt_experiment`] turns into [`ExperimentError::DeadlineExceeded`].
/// The unwind skips the panic hook: a trip is a verdict, not a bug, so it
/// prints no panic report.
fn charge(n: u64) {
    if let Some(mut meter) = METER.get() {
        let verdict = meter.charge(n);
        METER.set(Some(meter));
        if let Err(trip) = verdict {
            resume_unwind(Box::new(trip));
        }
    }
}

/// One isolated run of an experiment: chaos injection, the step budget's
/// meter, and the unwind boundary that converts panics and budget trips
/// into typed errors.
fn attempt_experiment(
    e: &dyn Experiment,
    ctx: &Ctx,
    cfg: &ResilienceConfig,
) -> Result<String, ExperimentError> {
    METER.set(cfg.step_budget.map(|budget| Meter { used: 0, budget }));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // The injection panics *inside* the unwind boundary so chaos runs
        // exercise exactly the conversion path a real panic would take.
        if cfg.chaos.as_deref() == Some(e.id()) {
            std::panic::panic_any(format!("chaos: injected panic in '{}'", e.id()));
        }
        e.run(ctx)
    }));
    METER.set(None);
    match outcome {
        Ok(Ok(artifact)) => {
            ctx.store_artifact(e.id(), artifact.clone());
            Ok(e.render(&artifact))
        }
        Ok(Err(err)) => Err(err),
        Err(payload) => match payload.downcast::<BudgetExceeded>() {
            Ok(trip) => Err((*trip).into()),
            Err(payload) => Err(ExperimentError::Panicked {
                message: panic_message(payload.as_ref()),
            }),
        },
    }
}

/// Topologically schedule `experiments` onto `pool`, sharing `ctx`'s memo
/// caches, with full failure isolation: each experiment runs once, a
/// panic, error, or budget trip becomes a typed [`ExperimentError`],
/// dependents of a failed experiment are marked
/// [`ExperimentError::DependencyFailed`], and every independent
/// subgraph completes. The returned [`Execution`] always has one report
/// per experiment.
///
/// # Panics
///
/// Panics on duplicate experiment ids (a programming error).
pub fn execute_resilient(
    pool: &Pool,
    ctx: &Ctx,
    experiments: &[&dyn Experiment],
    cfg: &ResilienceConfig,
) -> Execution {
    let index: HashMap<&str, usize> = experiments
        .iter()
        .enumerate()
        .map(|(i, e)| (e.id(), i))
        .collect();
    assert_eq!(index.len(), experiments.len(), "duplicate experiment ids");
    // Dependencies outside the submitted set are dropped: the consumer's
    // `dep_or` fallback recomputes through the shared memo cache instead.
    let deps: Vec<Vec<usize>> = experiments
        .iter()
        .map(|e| {
            e.deps()
                .iter()
                .filter_map(|d| index.get(d).copied())
                .collect()
        })
        .collect();
    let failed: Mutex<HashSet<&'static str>> = Mutex::new(HashSet::new());
    let started = Instant::now();
    let tasks: Vec<_> = experiments
        .iter()
        .map(|&e| {
            let failed = &failed;
            move || -> (Result<String, ExperimentError>, Duration) {
                for dep in e.deps() {
                    if lock(failed).contains(dep) {
                        lock(failed).insert(e.id());
                        let err = ExperimentError::DependencyFailed {
                            dependency: (*dep).to_string(),
                        };
                        return (Err(err), Duration::ZERO);
                    }
                }
                let t0 = Instant::now();
                let rendered = attempt_experiment(e, ctx, cfg);
                if rendered.is_err() {
                    lock(failed).insert(e.id());
                }
                (rendered, t0.elapsed())
            }
        })
        .collect();
    // The closures never unwind (each run is caught above), so the pool's
    // own catching layer is purely a backstop here.
    let outputs = pool.run_dag(tasks, &deps);
    let total_wall = started.elapsed();

    let mut reports = Vec::with_capacity(outputs.len());
    let mut failures = Vec::new();
    for (e, (rendered, wall)) in experiments.iter().zip(outputs) {
        let (rendered, error) = match rendered {
            Ok(rendered) => (rendered, None),
            Err(err) => {
                failures.push(ExperimentFailure {
                    id: e.id(),
                    title: e.title(),
                    error: err.clone(),
                });
                (degraded_section(*e, &err), Some(err))
            }
        };
        reports.push(ExperimentReport {
            id: e.id(),
            title: e.title(),
            deps: e.deps(),
            rendered,
            error,
            wall,
        });
    }
    let stats = ExecutorStats {
        workers: pool.workers(),
        total_wall,
        per_experiment: reports.iter().map(|r| (r.id, r.wall)).collect(),
        cache: ctx.cache_stats(),
    };
    Execution {
        reports,
        failures,
        stats,
    }
}

/// Strict (fail-fast) execution: schedule the DAG and return the first
/// root-cause failure in declaration order as a hard error.
///
/// # Errors
///
/// The first [`ExperimentError`] in declaration order that is not a
/// dependency cascade (falling back to the cascade if every failure is
/// one).
///
/// # Panics
///
/// Panics on duplicate experiment ids.
pub fn execute(
    pool: &Pool,
    ctx: &Ctx,
    experiments: &[&dyn Experiment],
) -> Result<Execution, ExperimentError> {
    let execution = execute_resilient(pool, ctx, experiments, &ResilienceConfig::strict());
    if let Some(f) = execution.root_cause() {
        return Err(f.error.clone());
    }
    Ok(execution)
}

/// Schedule `experiments` through the persistent result cache: the one
/// sequence `repro --report` and `repro --csv` share. `outputs` pairs
/// each cache entry's spec with the index of the experiment that renders
/// it. Every output is loaded from `cache`; exactly the experiments
/// owning a missing one re-run (their dependencies outside that subset
/// fall back to the memoized `ctx`); `render(i, report)` renders missing
/// output `i` from its owner's fresh report, and is stored when the owner
/// ran healthy. Returns every output, in the given order, with the
/// re-run's [`Execution`] (empty and healthy when nothing was missing).
/// Without a cache every owner runs and nothing is stored.
pub(crate) fn execute_cached(
    pool: &Pool,
    ctx: &Ctx,
    cfg: &ResilienceConfig,
    cache: Option<&DiskCache>,
    experiments: &[&dyn Experiment],
    outputs: &[(Vec<u8>, usize)],
    render: impl Fn(usize, &ExperimentReport) -> String,
) -> (Vec<String>, Execution) {
    let cached: Vec<Option<String>> = outputs
        .iter()
        .map(|(spec, _)| String::from_utf8(cache?.load(spec)?).ok())
        .collect();
    let missing = |i: usize| {
        outputs
            .iter()
            .zip(&cached)
            .any(|((_, owner), c)| *owner == i && c.is_none())
    };
    let rerun: Vec<&dyn Experiment> = (0..experiments.len())
        .filter(|&i| missing(i))
        .map(|i| experiments[i])
        .collect();
    let execution = execute_resilient(pool, ctx, &rerun, cfg);
    let merged = outputs
        .iter()
        .zip(cached)
        .enumerate()
        .map(|(i, ((spec, owner), cached))| {
            cached.unwrap_or_else(|| {
                let id = experiments[*owner].id();
                let report = execution
                    .reports
                    .iter()
                    .find(|r| r.id == id)
                    .expect("the owner of a missing output re-ran");
                let fresh = render(i, report);
                if let (Some(cache), None) = (cache, &report.error) {
                    cache.store(spec, fresh.as_bytes());
                }
                fresh
            })
        })
        .collect();
    (merged, execution)
}

/// Every experiment, in report order: Tables I–V and Figures 1–5 (the
/// paper's artifacts; Table I is the synthesis over the others), the
/// validation scorecard, then the extension studies.
static REGISTRY: [&dyn Experiment; 20] = [
    &table1::EXP,
    &table2::EXP,
    &table3::EXP,
    &table4::EXP,
    &table5::EXP,
    &figure1::EXP,
    &figure2::EXP,
    &figure3::EXP,
    &figure4::EXP,
    &figure5::EXP,
    &validation::EXP,
    &sensitivity::EXP,
    &cluster_study::EXP,
    &energy_cost::EXP,
    &storage_study::EXP,
    &batch_sweep::EXP,
    &fault_study::EXP,
    &variance_decomposition::EXP,
    &partition_study::EXP,
    &colocation_study::EXP,
];

/// Every experiment, in report order.
pub fn all_experiments() -> Vec<&'static dyn Experiment> {
    REGISTRY.to_vec()
}

/// The registered experiment with this id.
pub fn experiment(id: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().copied().find(|e| e.id() == id)
}
