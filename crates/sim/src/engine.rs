//! The training-pipeline simulation engine.
//!
//! One training step is a pipeline: host workers preprocess the next batch
//! (shared CPU loader), the tensors cross the host link (shared PCIe
//! uplinks where the topology has them), each GPU runs forward+backward
//! (roofline-priced), the replicas all-reduce gradients (partially hidden
//! behind backward), and the optimizer updates. The engine executes this
//! pipeline iteration-by-iteration over shared [`FifoResource`]s with
//! prefetching, then reports the steady-state step time and the phase and
//! resource accounting the telemetry layer turns into Table V.
//!
//! Scaling behaviour is *emergent* here: adding GPUs grows the all-reduce,
//! queues more work on the loader and shared uplinks, and (for capped-batch
//! jobs) shrinks the per-GPU batch — the three mechanisms §IV-D and §V
//! attribute the observed scaling curves to.

use crate::allreduce::plan_allreduce;
use crate::des::FifoResource;
use crate::job::TrainingJob;
use crate::kernel::KernelTimer;
use mlperf_hw::gpu::GpuSpec;
use mlperf_hw::partition::PartitionError;
use mlperf_hw::systems::SystemSpec;
use mlperf_hw::topology::{NodeId, P2pClass};
use mlperf_hw::units::{Bytes, Seconds};
use mlperf_models::IterationCost;
use std::fmt;

/// Iterations simulated before measurement starts (pipeline fill).
const WARMUP_ITERS: u64 = 8;
/// Iterations measured for the steady-state averages.
const MEASURE_ITERS: u64 = 32;

/// Fraction of the compute phase that is the backward pass (the window
/// bucketed all-reduce can hide under).
const BWD_FRACTION: f64 = 2.0 / 3.0;

/// Errors from a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The GPU set is empty or names ordinals outside the system.
    BadGpuSet(String),
    /// The training replica does not fit in device memory.
    OutOfMemory {
        /// Bytes the replica needs.
        required: Bytes,
        /// Bytes the device has.
        available: Bytes,
    },
    /// Topology routing failed.
    Topology(mlperf_hw::TopologyError),
    /// The job's device partition is invalid on this system's GPU (typed
    /// layout refusal from `mlperf_hw::partition` — never a clamp).
    Partition(PartitionError),
    /// An analytical-model boundary produced NaN/Inf or a degenerate
    /// cost; `context` names the offending (benchmark, system,
    /// precision, batch) point.
    NonFinite {
        /// Human-readable description of the offending point.
        context: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadGpuSet(msg) => write!(f, "bad GPU set: {msg}"),
            SimError::OutOfMemory {
                required,
                available,
            } => {
                write!(f, "replica needs {required} but device has {available}")
            }
            SimError::Topology(e) => write!(f, "topology error: {e}"),
            SimError::Partition(e) => write!(f, "bad partition: {e}"),
            SimError::NonFinite { context } => {
                write!(f, "non-finite output: {context}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Topology(e) => Some(e),
            SimError::Partition(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mlperf_hw::TopologyError> for SimError {
    fn from(e: mlperf_hw::TopologyError) -> Self {
        SimError::Topology(e)
    }
}

/// Steady-state accounting for one training step of one job on one system.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// GPUs used.
    pub n_gpus: u64,
    /// Effective per-GPU batch after any global cap.
    pub per_gpu_batch: u64,
    /// Steady-state wall-clock time per step.
    pub step_time: Seconds,
    /// Forward+backward device time per step.
    pub compute_time: Seconds,
    /// Full (pre-overlap) gradient all-reduce time per step.
    pub allreduce_time: Seconds,
    /// All-reduce time left exposed after overlap with backward.
    pub exposed_comm: Seconds,
    /// Average per-step time a GPU waits on the input pipeline.
    pub data_stall: Seconds,
    /// Fraction of the step each GPU spends with kernels resident.
    pub gpu_busy_fraction: f64,
    /// Host CPU busy time per step (reference-core-seconds, whole chassis).
    pub cpu_core_secs_per_step: f64,
    /// Host-to-device input bytes per step, summed over GPUs.
    pub h2d_bytes_per_step: Bytes,
    /// All-reduce wire bytes per step, summed over GPUs.
    pub wire_bytes_per_step: Bytes,
    /// The classification of the worst peer path the collective crosses
    /// (`None` on a single GPU).
    pub comm_class: Option<P2pClass>,
    /// Device-memory footprint per GPU.
    pub hbm_per_gpu: Bytes,
    /// Host DRAM footprint for the whole job.
    pub dram_footprint: Bytes,
}

impl StepReport {
    /// Samples per second of wall-clock at steady state.
    pub fn throughput_samples_per_sec(&self) -> f64 {
        (self.per_gpu_batch * self.n_gpus) as f64 / self.step_time.as_secs()
    }
}

/// Everything one engine invocation needs: the job and the GPU ordinals.
///
/// This is the engine's single entry-point descriptor — and the unit the
/// executor's memo cache keys on (a [`RunSpec`] plus the platform identify
/// a simulation point).
#[derive(Debug, Clone)]
pub struct RunSpec {
    job: TrainingJob,
    gpus: Vec<u32>,
}

impl RunSpec {
    /// Run `job` on the explicit GPU ordinals `gpus`.
    pub fn new(job: TrainingJob, gpus: impl Into<Vec<u32>>) -> Self {
        RunSpec {
            job,
            gpus: gpus.into(),
        }
    }

    /// Run `job` on the first `n` GPUs of the system.
    pub fn on_first(job: TrainingJob, n: u32) -> Self {
        RunSpec::new(job, (0..n).collect::<Vec<u32>>())
    }

    /// The job to simulate.
    pub fn job(&self) -> &TrainingJob {
        &self.job
    }

    /// The GPU ordinals the job runs on.
    pub fn gpus(&self) -> &[u32] {
        &self.gpus
    }
}

/// What one [`Simulator::execute`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Steady-state accounting.
    pub report: StepReport,
}

/// The simulation engine for one platform.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    system: &'a SystemSpec,
    warmup_iters: u64,
    measure_iters: u64,
}

/// Batch-level pricing and host-pipeline shape shared by the DES loop and
/// the analytic fast path — everything `run_inner` used to derive before
/// its first iteration.
struct Prepared {
    n: u64,
    batch: u64,
    k: usize,
    depth: u64,
    compute_time: Seconds,
    launch_overhead: Seconds,
    opt_time: Seconds,
    ar_full: Seconds,
    exposed_comm: Seconds,
    comm_class: Option<P2pClass>,
    wire_per_gpu: Bytes,
    hbm_per_gpu: Bytes,
    h2d_bytes: Bytes,
    prep_service: Seconds,
    h2d_services: Vec<Seconds>,
    /// Bottleneck-edge index per GPU; GPUs whose host paths share an
    /// uplink share an entry (and therefore a FIFO resource).
    link_of: Vec<usize>,
    n_links: usize,
}

/// The host pipeline as the DES walks it: the shared loader, one FIFO per
/// bottleneck uplink, and the end time of every iteration run so far.
struct Pipeline {
    loader: FifoResource,
    links: Vec<FifoResource>,
    done: Vec<Seconds>,
}

impl Pipeline {
    /// When the last iteration ended (zero before the first).
    fn step_done(&self) -> Seconds {
        self.done.last().copied().unwrap_or(Seconds::ZERO)
    }

    /// The prefetch slot of iteration `iter`: its batch may be prepped
    /// once batch `iter - depth` has fully completed.
    fn slot(&self, p: &Prepared, iter: u64) -> Seconds {
        if iter >= p.depth {
            self.done[(iter - p.depth) as usize]
        } else {
            Seconds::ZERO
        }
    }

    /// Run the next iteration through the DES; returns the time its GPUs
    /// stalled waiting for data, summed over the GPUs.
    fn iterate(&mut self, p: &Prepared) -> Seconds {
        let slot_free = self.slot(p, self.done.len() as u64);
        let step_done = self.step_done();
        let mut iter_compute_done = Seconds::ZERO;
        let mut iter_stall = Seconds::ZERO;
        for g in 0..p.k {
            let prep_done = self.loader.serve(slot_free, p.prep_service);
            let data_ready = self.links[p.link_of[g]].serve(prep_done, p.h2d_services[g]);
            let start = data_ready.max(step_done);
            iter_stall += start - step_done;
            iter_compute_done = iter_compute_done.max(start + p.compute_time);
        }
        self.done
            .push(iter_compute_done + p.exposed_comm + p.opt_time);
        iter_stall
    }
}

impl<'a> Simulator<'a> {
    /// Create an engine bound to a platform with the default simulation
    /// window (8 warmup + 32 measured iterations).
    pub fn new(system: &'a SystemSpec) -> Self {
        Simulator {
            system,
            warmup_iters: WARMUP_ITERS,
            measure_iters: MEASURE_ITERS,
        }
    }

    /// Override the simulation window. Steady-state results are invariant
    /// to the measurement length (tested), so this mainly trades fidelity
    /// of the warmup transient against runtime.
    ///
    /// # Panics
    ///
    /// Panics unless both counts are at least 1.
    pub fn with_window(mut self, warmup_iters: u64, measure_iters: u64) -> Self {
        assert!(
            warmup_iters >= 1 && measure_iters >= 1,
            "window must be non-empty"
        );
        self.warmup_iters = warmup_iters;
        self.measure_iters = measure_iters;
        self
    }

    /// The platform this engine simulates.
    pub fn system(&self) -> &SystemSpec {
        self.system
    }

    /// The simulation window as `(warmup, measured)` iteration counts —
    /// part of a simulation point's identity for memoization purposes.
    pub fn window(&self) -> (u64, u64) {
        (self.warmup_iters, self.measure_iters)
    }

    /// Execute the simulation described by `spec` and report the steady
    /// state.
    ///
    /// # Errors
    ///
    /// * [`SimError::BadGpuSet`] — empty set, duplicate or unknown ordinals;
    /// * [`SimError::OutOfMemory`] — replica + overhead exceeds HBM;
    /// * [`SimError::Topology`] — no route between required endpoints.
    pub fn execute(&self, spec: &RunSpec) -> Result<RunOutcome, SimError> {
        let report = self.run_inner(&spec.job, &spec.gpus)?;
        Ok(RunOutcome { report })
    }

    /// Attempt the analytic fast path for `job` on the GPU ordinals `gpus`.
    ///
    /// When, after replaying the warmup fill exactly, the host loader and
    /// every H2D uplink provably stay ahead of the GPUs for the whole
    /// measured region (with a `1e-9` relative safety margin that dwarfs
    /// any rounding the serve chains can accumulate), the DES loop would
    /// take the `start = step_done` branch on every measured iteration and
    /// the step recurrence collapses to three additions per step. The
    /// returned outcome is then **bit-identical** to what
    /// [`Simulator::execute`] returns for a [`RunSpec`] of the same job and
    /// ordinals, and the typed errors are the same — which
    /// `tests/fastpath_diff.rs` pins differentially. The inputs are
    /// borrowed: no job clone and no GPU-set allocation.
    ///
    /// Returns `Ok(None)` when eligibility cannot be proven; the caller
    /// falls back to the full DES.
    ///
    /// # Errors
    ///
    /// As [`Simulator::execute`].
    pub fn execute_fast_on(
        &self,
        job: &TrainingJob,
        gpus: &[u32],
    ) -> Result<Option<RunOutcome>, SimError> {
        let p = self.prepare(job, gpus)?;
        let Some((step_time, data_stall)) = self.analytic_steady_state(&p) else {
            return Ok(None);
        };
        let report = self.finish(job, &p, step_time, data_stall)?;
        Ok(Some(RunOutcome { report }))
    }

    /// Admission check only: validate the GPU set and run the device
    /// memory gate, without pricing anything. Returns the admitted
    /// per-GPU HBM footprint.
    ///
    /// This is the cheap front half of the full pricing pipeline —
    /// [`Simulator::execute`] performs exactly these checks first, in the
    /// same order, so a query layer that rejects on `preflight` errors
    /// produces byte-identical verdicts to one that priced the run.
    ///
    /// # Errors
    ///
    /// [`SimError::BadGpuSet`] for an empty set, an ordinal outside the
    /// system, or a duplicate; [`SimError::OutOfMemory`] when the replica
    /// does not fit in device memory.
    pub fn preflight(&self, job: &TrainingJob, gpus: &[u32]) -> Result<Bytes, SimError> {
        let topo = self.system.topology();
        if gpus.is_empty() {
            return Err(SimError::BadGpuSet("empty GPU set".into()));
        }
        if topo.gpu_count() <= 64 {
            // Allocation-free duplicate check for realistic chassis sizes
            // (this runs once per priced sweep cell).
            let mut seen = 0u64;
            for &g in gpus {
                if (g as usize) >= topo.gpu_count() {
                    return Err(SimError::BadGpuSet(format!(
                        "GPU {g} not present (system has {})",
                        topo.gpu_count()
                    )));
                }
                let bit = 1u64 << g;
                if seen & bit != 0 {
                    return Err(SimError::BadGpuSet(format!("GPU {g} listed twice")));
                }
                seen |= bit;
            }
        } else {
            let mut seen = std::collections::HashSet::new();
            for &g in gpus {
                if (g as usize) >= topo.gpu_count() {
                    return Err(SimError::BadGpuSet(format!(
                        "GPU {g} not present (system has {})",
                        topo.gpu_count()
                    )));
                }
                if !seen.insert(g) {
                    return Err(SimError::BadGpuSet(format!("GPU {g} listed twice")));
                }
            }
        }
        let n = gpus.len() as u64;
        let batch = job.effective_per_gpu_batch(n);
        let gpu_spec = self.effective_gpu_spec(job)?;

        // Gated *before* pricing: the footprint is O(1) while pricing
        // walks the graph, and wall-crossing batch sweeps reject most
        // cells here. Pricing is infallible apart from the non-finite
        // gate, so no error precedence changes for finite graphs. The
        // sum saturates: a footprint past u64 is out of memory, never a
        // wrapped small one.
        let replica = job
            .model()
            .replica_footprint(batch, job.precision(), job.optimizer());
        let hbm_per_gpu = replica.saturating_add(job.hbm_overhead()).saturating_add(
            job.pipeline()
                .h2d_bytes_per_batch(batch)
                .saturating_mul(job.prefetch_depth()),
        );
        if hbm_per_gpu > gpu_spec.hbm_capacity() {
            return Err(SimError::OutOfMemory {
                required: hbm_per_gpu,
                available: gpu_spec.hbm_capacity(),
            });
        }
        Ok(hbm_per_gpu)
    }

    /// The device spec the job actually runs on: the whole GPU, or — when
    /// the job carries a partition — one interference-adjusted MIG-style
    /// slice of it. Partition-free jobs take the exact pre-partition path,
    /// so their priced numbers stay bit-identical.
    fn effective_gpu_spec(&self, job: &TrainingJob) -> Result<GpuSpec, SimError> {
        let parent = self.system.gpu_model().spec();
        match job.partition() {
            None => Ok(parent),
            Some(p) => p.sliced_spec(&parent).map_err(SimError::Partition),
        }
    }

    /// Validate the GPU set and price every batch-level quantity — device
    /// phases, memory, communication, and the host-pipeline services —
    /// exactly as the monolithic `run_inner` used to, stopping just short
    /// of the iteration loop.
    fn prepare(&self, job: &TrainingJob, gpus: &[u32]) -> Result<Prepared, SimError> {
        let hbm_per_gpu = self.preflight(job, gpus)?;
        let topo = self.system.topology();
        let n = gpus.len() as u64;
        let batch = job.effective_per_gpu_batch(n);
        let gpu_spec = self.effective_gpu_spec(job)?;

        // --- price the device phases ------------------------------------
        let timer = KernelTimer::new(gpu_spec.clone(), job.efficiency());
        let pass = job.model().pass_cost(batch, job.precision());
        if let Some(why) = pass.finite_violation() {
            return Err(SimError::NonFinite {
                context: format!(
                    "{why} pricing {} on {} ({n} GPUs, {:?}, batch {batch})",
                    job.name(),
                    self.system.id().name(),
                    job.precision(),
                ),
            });
        }
        // Fixed launch/dispatch overhead is part of the device phase but
        // batch-independent — the small-batch underutilization mechanism.
        let launch_overhead = job.gpu_step_overhead();
        let compute_time = timer.step_time(&pass) + launch_overhead;
        let params = job.model().params();
        let opt_cost = IterationCost {
            simt_flops: job.optimizer().step_flops(params),
            tensor_flops: mlperf_hw::Flops::ZERO,
            mem_bytes: job.optimizer().step_bytes(params),
            gradient_bytes: Bytes::ZERO,
        };
        let opt_time = timer.step_time(&opt_cost);

        // --- communication phase ------------------------------------------
        // Gradient accumulation amortizes the exchange over `period` steps.
        let period = job.allreduce_period() as f64;
        let (ar_full, comm_class, wire_per_gpu) = if n > 1 {
            let plan = plan_allreduce(topo, gpus, job.allreduce(), pass.gradient_bytes)?;
            // A 1/k slice holds a 1/k lane share of the interconnect, so
            // the collective stretches by the slice count (wire bytes are
            // unchanged; the slowdown is exactly 1.0 partition-free).
            let comm_slowdown = job.partition().map_or(1.0, |p| p.comm_slowdown());
            (
                plan.time.scale(comm_slowdown / period),
                Some(plan.worst_class),
                plan.wire_bytes_per_gpu.scale(1.0 / period),
            )
        } else {
            (Seconds::ZERO, None, Bytes::ZERO)
        };
        // Bucketed overlap hides reduction behind backward, but the final
        // bucket (and NCCL's SM interference) always leaves a floor of the
        // collective exposed. On paths without GPUDirect P2P the staged
        // host copies serialize poorly with compute, degrading overlap.
        const MIN_EXPOSED_FRACTION: f64 = 0.25;
        const STAGED_OVERLAP_QUALITY: f64 = 0.0;
        let overlap = match comm_class {
            Some(c) if !c.supports_p2p() => job.comm_overlap() * STAGED_OVERLAP_QUALITY,
            _ => job.comm_overlap(),
        };
        let hideable = compute_time.scale(BWD_FRACTION * overlap);
        let exposed_comm = if ar_full.as_secs() > hideable.as_secs() {
            ar_full - hideable
        } else {
            ar_full.scale(MIN_EXPOSED_FRACTION)
        };

        // --- host pipeline resources --------------------------------------
        let cpu = self.system.cpu_model().spec();
        let sockets = self.system.cpu_count() as f64;
        // One chassis-wide loader; multi-socket hosts preprocess faster.
        let prep_service = job
            .pipeline()
            .host_time_per_batch(&cpu, batch)
            .scale(1.0 / sockets);

        // H2D link: each GPU charges its host path's bottleneck edge.
        // Edges are interned into a dense index so the iteration loop can
        // address its FIFO resources as a plain `Vec`.
        let h2d_bytes = job.pipeline().h2d_bytes_per_batch(batch);
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut link_of = Vec::with_capacity(gpus.len());
        let mut h2d_services = Vec::with_capacity(gpus.len());
        for &g in gpus {
            let path = topo.gpu_host_path(g)?;
            // Identify the bottleneck edge (slowest link on the path).
            let (idx, link) = path
                .links
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.effective_bandwidth()
                        .as_bytes_per_sec()
                        .partial_cmp(&b.1.effective_bandwidth().as_bytes_per_sec())
                        .expect("bandwidths are finite")
                })
                .expect("host path has at least one link");
            let key = (
                path.nodes[idx].min(path.nodes[idx + 1]),
                path.nodes[idx].max(path.nodes[idx + 1]),
            );
            let slot = edges.iter().position(|e| *e == key).unwrap_or_else(|| {
                edges.push(key);
                edges.len() - 1
            });
            link_of.push(slot);
            h2d_services.push(h2d_bytes / link.effective_bandwidth());
        }

        Ok(Prepared {
            n,
            batch,
            k: gpus.len(),
            depth: job.prefetch_depth(),
            compute_time,
            launch_overhead,
            opt_time,
            ar_full,
            exposed_comm,
            comm_class,
            wire_per_gpu,
            hbm_per_gpu,
            h2d_bytes,
            prep_service,
            h2d_services,
            n_links: edges.len(),
            link_of,
        })
    }

    fn run_inner(&self, job: &TrainingJob, gpus: &[u32]) -> Result<StepReport, SimError> {
        let p = self.prepare(job, gpus)?;

        // --- iterate the pipeline -----------------------------------------
        let mut pipe = self.warmup(&p);
        let warmup_end = pipe.step_done();
        let mut measured_stall = Seconds::ZERO;
        for _ in 0..self.measure_iters {
            measured_stall += pipe.iterate(&p).scale(1.0 / p.k as f64);
        }

        let measured_span = pipe.step_done() - warmup_end;
        let step_time = measured_span.scale(1.0 / self.measure_iters as f64);
        let data_stall = measured_stall.scale(1.0 / self.measure_iters as f64);

        self.finish(job, &p, step_time, data_stall)
    }

    /// Run the warmup iterations through the DES: the fill transient both
    /// the DES loop and the fast path start their measured region from.
    fn warmup(&self, p: &Prepared) -> Pipeline {
        let mut pipe = Pipeline {
            loader: FifoResource::new(),
            links: vec![FifoResource::new(); p.n_links],
            done: Vec::with_capacity((self.warmup_iters + self.measure_iters) as usize),
        };
        for _ in 0..self.warmup_iters {
            pipe.iterate(p);
        }
        pipe
    }

    /// Replay the warmup fill exactly, then try to prove the measured
    /// region is stall-free. Returns the `(step_time, data_stall)` pair
    /// the DES loop would produce — bit-for-bit — or `None` when
    /// eligibility cannot be established.
    fn analytic_steady_state(&self, p: &Prepared) -> Option<(Seconds, Seconds)> {
        // Relative safety slop on every upper bound — five orders of
        // magnitude above the rounding a serve chain can accumulate, so a
        // cell that passes in exact arithmetic with any real margin still
        // passes, and a cell the bound rejects merely falls back to DES.
        const SLOP: f64 = 1.0 + 1e-9;

        let warmup_iters = self.warmup_iters;
        let total_iters = warmup_iters + self.measure_iters;
        let mut pipe = self.warmup(p);
        let warmup_end = pipe.step_done();

        // The pipeline must enter the measured region caught up: every
        // host resource free no later than the prefetch slot it serves
        // next, so the first measured iteration's serves start at the slot.
        let base_slot = pipe.slot(p, warmup_iters);
        if pipe.loader.free_at() > base_slot || pipe.links.iter().any(|l| l.free_at() > base_slot) {
            return None;
        }

        // `w_bound` over-estimates the host work one iteration can stack
        // on top of its prefetch slot: the full loader chain plus the
        // busiest uplink's share, inflated by SLOP to absorb rounding.
        let mut per_link = vec![0.0f64; p.n_links];
        for g in 0..p.k {
            per_link[p.link_of[g]] += p.h2d_services[g].as_secs();
        }
        let busiest = per_link.iter().fold(0.0f64, |a, &b| a.max(b));
        let w_bound = (p.k as f64 * p.prep_service.as_secs() + busiest) * SLOP;
        if !w_bound.is_finite() {
            return None;
        }

        // Closed-form measured region: while `slot·SLOP + w_bound` stays
        // below the previous step's completion, every `data_ready` lands
        // before `step_done`, the `max` keeps the incumbent bit-for-bit,
        // and the step recurrence collapses to three additions. The same
        // bound checked against the *next* slot proves the resources come
        // back around caught up, closing the induction.
        // NaN-robust bound check: an incomparable (NaN) bound must
        // *decline* the fast path, never assert regularity.
        let holds = |bound: f64, limit: f64| {
            matches!(
                bound.partial_cmp(&limit),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            )
        };
        for iter in warmup_iters..total_iters {
            let ub = pipe.slot(p, iter).as_secs() * SLOP + w_bound;
            let step_done = pipe.step_done();
            if !holds(ub, step_done.as_secs()) {
                return None;
            }
            pipe.done
                .push(step_done + p.compute_time + p.exposed_comm + p.opt_time);
            if iter + 1 < total_iters && !holds(ub, pipe.slot(p, iter + 1).as_secs()) {
                return None;
            }
        }

        let measured_span = pipe.step_done() - warmup_end;
        let step_time = measured_span.scale(1.0 / self.measure_iters as f64);
        // Zero accumulated stall scaled down is still (+0.0) zero —
        // bitwise what the DES loop's `measured_stall` path yields.
        let data_stall = Seconds::ZERO.scale(1.0 / self.measure_iters as f64);
        Some((step_time, data_stall))
    }

    /// Derived accounting, the numeric-integrity gate, and the final
    /// [`StepReport`] — shared verbatim by the DES loop and the fast path.
    fn finish(
        &self,
        job: &TrainingJob,
        p: &Prepared,
        step_time: Seconds,
        data_stall: Seconds,
    ) -> Result<StepReport, SimError> {
        // --- derived accounting --------------------------------------------
        // Busy time, which Table V reports as GPU %: the priced kernels,
        // the optimizer and the exposed all-reduce count in full, and the
        // fixed launch/dispatch window counts a quarter busy, since SMs
        // idle between its short kernels for the rest of it.
        const OVERHEAD_BUSY_FRACTION: f64 = 0.25;
        let busy_per_gpu = (p.compute_time - p.launch_overhead)
            + p.launch_overhead.scale(OVERHEAD_BUSY_FRACTION)
            + p.opt_time
            + p.exposed_comm;
        let gpu_busy_fraction = (busy_per_gpu.as_secs() / step_time.as_secs()).min(1.0);

        // Polling threads spin only when there is a collective to progress.
        let poll = if p.n > 1 {
            job.host_poll_cores() * p.n as f64 * step_time.as_secs() * 2.4
        } else {
            0.0
        };
        let cpu_core_secs_per_step = job.host_fixed_core_secs()
            + job.pipeline().host_core_secs_per_batch(p.batch) * p.n as f64
            + job.host_step_core_secs() * p.n as f64
            + poll;

        let dram_footprint = job.dram_base()
            + job
                .pipeline()
                .staging_footprint(p.batch, p.depth)
                .scale(p.n as f64);

        // --- numeric-integrity gate ---------------------------------------
        // Every priced phase must come out finite and non-negative, and the
        // step itself strictly positive; anything else is a model-boundary
        // bug surfaced as a typed error naming the offending point.
        let phases = [
            ("step time", step_time),
            ("compute time", p.compute_time),
            ("optimizer time", p.opt_time),
            ("all-reduce time", p.ar_full),
            ("exposed communication", p.exposed_comm),
            ("data stall", data_stall),
        ];
        let bad_phase = phases
            .iter()
            .find(|(_, s)| !s.as_secs().is_finite() || s.as_secs() < 0.0)
            .map(|(what, s)| format!("{what} = {}s", s.as_secs()))
            .or_else(|| (step_time.as_secs() <= 0.0).then(|| "non-positive step time".to_string()));
        if let Some(what) = bad_phase {
            return Err(SimError::NonFinite {
                context: format!(
                    "{what} simulating {} on {} ({} GPUs, {:?}, batch {})",
                    job.name(),
                    self.system.id().name(),
                    p.n,
                    job.precision(),
                    p.batch,
                ),
            });
        }

        Ok(StepReport {
            n_gpus: p.n,
            per_gpu_batch: p.batch,
            step_time,
            compute_time: p.compute_time,
            allreduce_time: p.ar_full,
            exposed_comm: p.exposed_comm,
            data_stall,
            gpu_busy_fraction,
            cpu_core_secs_per_step,
            h2d_bytes_per_step: p.h2d_bytes * p.n,
            wire_bytes_per_step: p.wire_per_gpu * p.n,
            comm_class: p.comm_class,
            hbm_per_gpu: p.hbm_per_gpu,
            dram_footprint,
        })
    }
}

// The executor shares reports and specs across scoped worker threads, so
// these types must stay `Send + Sync` (and cheap to clone — `StepReport`
// is all scalars).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StepReport>();
    assert_send_sync::<RunSpec>();
    assert_send_sync::<RunOutcome>();
    assert_send_sync::<SimError>();
    assert_send_sync::<Simulator<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{ConvergenceModel, TrainingJob};
    use mlperf_data::{DatasetId, InputPipeline};
    use mlperf_hw::systems::SystemId;
    use mlperf_models::zoo::resnet::resnet50;

    fn resnet_job() -> TrainingJob {
        let pipeline = InputPipeline::new(DatasetId::ImageNet, Bytes::new(224 * 224 * 3 * 2));
        TrainingJob::builder(
            "resnet50",
            resnet50(),
            pipeline,
            96,
            ConvergenceModel::new(63.0, 768, 0.0),
        )
        .build()
    }

    /// Shorthand for the single-report path the old `run` offered.
    fn step(sim: &Simulator<'_>, job: &TrainingJob, gpus: &[u32]) -> Result<StepReport, SimError> {
        sim.execute(&RunSpec::new(job.clone(), gpus))
            .map(|outcome| outcome.report)
    }

    fn step_on_first(sim: &Simulator<'_>, job: &TrainingJob, n: u32) -> StepReport {
        sim.execute(&RunSpec::on_first(job.clone(), n))
            .expect("run fits")
            .report
    }

    #[test]
    fn single_gpu_run_reports_sane_numbers() {
        let system = SystemId::C4140K.spec();
        let sim = Simulator::new(&system);
        let r = step(&sim, &resnet_job(), &[0]).unwrap();
        assert_eq!(r.n_gpus, 1);
        assert!(r.step_time.as_secs() > 0.0);
        assert_eq!(r.allreduce_time, Seconds::ZERO);
        assert_eq!(r.comm_class, None);
        assert!(r.gpu_busy_fraction > 0.3 && r.gpu_busy_fraction <= 1.0);
        assert!(r.throughput_samples_per_sec() > 0.0);
    }

    #[test]
    fn multi_gpu_steps_slower_but_more_throughput() {
        let system = SystemId::C4140K.spec();
        let sim = Simulator::new(&system);
        let r1 = step_on_first(&sim, &resnet_job(), 1);
        let r4 = step_on_first(&sim, &resnet_job(), 4);
        assert!(r4.step_time.as_secs() >= r1.step_time.as_secs());
        // Scaling is sub-linear (all-reduce + host loader saturation) but
        // ResNet-50 should still land well past 2.5x on NVLink.
        assert!(r4.throughput_samples_per_sec() > 2.5 * r1.throughput_samples_per_sec());
        assert_eq!(r4.comm_class, Some(P2pClass::NvLinkDirect));
        assert!(r4.wire_bytes_per_step > Bytes::ZERO);
    }

    #[test]
    fn nvlink_system_beats_upi_system_on_step_time() {
        let job = resnet_job();
        let k = SystemId::C4140K.spec();
        let t640 = SystemId::T640.spec();
        let rk = step_on_first(&Simulator::new(&k), &job, 4);
        let rt = step_on_first(&Simulator::new(&t640), &job, 4);
        assert!(
            rk.step_time.as_secs() < rt.step_time.as_secs(),
            "NVLink {} vs UPI {}",
            rk.step_time,
            rt.step_time
        );
    }

    #[test]
    fn empty_and_bogus_gpu_sets_error() {
        let system = SystemId::C4140K.spec();
        let sim = Simulator::new(&system);
        assert!(matches!(
            step(&sim, &resnet_job(), &[]),
            Err(SimError::BadGpuSet(_))
        ));
        assert!(matches!(
            step(&sim, &resnet_job(), &[9]),
            Err(SimError::BadGpuSet(_))
        ));
        assert!(matches!(
            step(&sim, &resnet_job(), &[0, 0]),
            Err(SimError::BadGpuSet(_))
        ));
    }

    #[test]
    fn oversized_batch_oomse() {
        let system = SystemId::C4140K.spec(); // 16 GB HBM
        let sim = Simulator::new(&system);
        let pipeline = InputPipeline::new(DatasetId::ImageNet, Bytes::new(224 * 224 * 3 * 2));
        let job = TrainingJob::builder(
            "resnet50-huge",
            resnet50(),
            pipeline,
            4096,
            ConvergenceModel::new(63.0, 768, 0.0),
        )
        .build();
        assert!(matches!(
            step(&sim, &job, &[0]),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn cpu_work_scales_with_gpu_count() {
        let system = SystemId::C4140K.spec();
        let sim = Simulator::new(&system);
        let job = resnet_job();
        let r1 = step_on_first(&sim, &job, 1);
        let r4 = step_on_first(&sim, &job, 4);
        assert!((r4.cpu_core_secs_per_step / r1.cpu_core_secs_per_step - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fp32_step_is_slower_than_amp() {
        use mlperf_models::PrecisionPolicy;
        let system = SystemId::Dss8440.spec();
        let sim = Simulator::new(&system);
        let amp = resnet_job();
        let fp32 = amp.clone().with_precision(PrecisionPolicy::Fp32);
        // Use a smaller batch so FP32 activations fit in 16 GB.
        let r_amp = step_on_first(&sim, &amp, 1);
        let r_fp32 = step_on_first(&sim, &fp32, 1);
        assert!(r_fp32.step_time.as_secs() > 1.4 * r_amp.step_time.as_secs());
    }

    #[test]
    fn steady_state_is_window_invariant() {
        // The measured step time must not depend on how long we measure:
        // warmup absorbs the pipeline-fill transient.
        let system = SystemId::C4140K.spec();
        let job = resnet_job();
        let short = step_on_first(&Simulator::new(&system).with_window(4, 8), &job, 4);
        let long = step_on_first(&Simulator::new(&system).with_window(16, 128), &job, 4);
        let rel =
            (short.step_time.as_secs() - long.step_time.as_secs()).abs() / long.step_time.as_secs();
        assert!(rel < 1e-6, "step time drifted {rel} with the window");
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn empty_window_rejected() {
        let system = SystemId::C4140K.spec();
        let _ = Simulator::new(&system).with_window(0, 8);
    }

    #[test]
    fn dram_footprint_grows_with_gpus() {
        let system = SystemId::C4140K.spec();
        let sim = Simulator::new(&system);
        let job = resnet_job();
        let r1 = step_on_first(&sim, &job, 1);
        let r4 = step_on_first(&sim, &job, 4);
        assert!(r4.dram_footprint > r1.dram_footprint);
    }

    #[test]
    fn partitioned_slice_steps_slower_and_oom_gates_on_sliced_hbm() {
        use mlperf_hw::partition::{PartitionProfile, PartitionSpec};
        let system = SystemId::C4140K.spec();
        let sim = Simulator::new(&system);
        let whole = resnet_job();
        let sliced = whole
            .clone()
            .with_partition(Some(PartitionSpec::solo(PartitionProfile::Quarter)));
        let r_whole = step(&sim, &whole, &[0]).unwrap();
        let small_sliced = whole
            .with_per_gpu_batch(16)
            .with_partition(Some(PartitionSpec::solo(PartitionProfile::Quarter)));
        let r_sliced = step(&sim, &small_sliced, &[0]).unwrap();
        // A quarter slice at a batch that fits must price strictly slower
        // per sample than the whole device at its tuned batch.
        let whole_rate = r_whole.throughput_samples_per_sec();
        let slice_rate = r_sliced.throughput_samples_per_sec();
        assert!(
            slice_rate < whole_rate,
            "slice {slice_rate} vs whole {whole_rate}"
        );
        // The tuned batch (96) fits 16 GB but not a 4 GB quarter slice:
        // the OOM wall moves with the sliced capacity.
        assert!(matches!(
            step(&sim, &sliced, &[0]),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn colocated_tenants_slow_the_step_monotonically() {
        use mlperf_hw::partition::{PartitionProfile, PartitionSpec};
        let system = SystemId::C4140K.spec();
        let sim = Simulator::new(&system);
        let base = resnet_job().with_per_gpu_batch(8);
        let mut last = 0.0;
        for tenants in 1..=4 {
            let spec = PartitionSpec::new(PartitionProfile::Quarter, tenants).unwrap();
            let r = step(&sim, &base.clone().with_partition(Some(spec)), &[0]).unwrap();
            assert!(
                r.step_time.as_secs() > last,
                "tenants={tenants}: {} not slower than {last}",
                r.step_time.as_secs()
            );
            last = r.step_time.as_secs();
        }
    }

    #[test]
    fn pascal_partition_is_a_typed_error() {
        use mlperf_hw::partition::{PartitionProfile, PartitionSpec};
        let system = SystemId::ReferenceP100.spec();
        let sim = Simulator::new(&system);
        let job = resnet_job()
            .with_per_gpu_batch(8)
            .with_partition(Some(PartitionSpec::solo(PartitionProfile::Half)));
        assert!(matches!(
            step(&sim, &job, &[0]),
            Err(SimError::Partition(
                mlperf_hw::partition::PartitionError::UnsupportedDevice { .. }
            ))
        ));
        // Preflight refuses identically (the serve layer's cheap gate).
        assert!(matches!(
            sim.preflight(&job, &[0]),
            Err(SimError::Partition(_))
        ));
    }

    #[test]
    fn partitioned_fast_path_matches_des_bitwise() {
        use mlperf_hw::partition::{PartitionProfile, PartitionSpec};
        let system = SystemId::C4140K.spec();
        let sim = Simulator::new(&system);
        for profile in PartitionProfile::ALL {
            for tenants in [1, 2] {
                let spec = PartitionSpec::new(profile, tenants).unwrap();
                let job = resnet_job()
                    .with_per_gpu_batch(4)
                    .with_partition(Some(spec));
                let run = RunSpec::on_first(job, 2);
                let des = sim.execute(&run).unwrap();
                if let Some(fast) = sim.execute_fast_on(run.job(), run.gpus()).unwrap() {
                    assert_eq!(fast.report, des.report, "{profile:?} x{tenants}");
                }
            }
        }
    }
}
