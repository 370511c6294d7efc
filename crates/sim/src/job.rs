//! Training-job descriptions: everything the engine needs to run one
//! benchmark on one platform.
//!
//! A [`TrainingJob`] bundles the model graph, input pipeline, batch policy,
//! optimizer, precision, convergence model, and the calibrated efficiency /
//! overlap knobs. The benchmark registry in the suite crate constructs one
//! per benchmark; the engine consumes them.

use crate::allreduce::AllReduceAlgorithm;
use crate::kernel::Efficiency;
use mlperf_data::InputPipeline;
use mlperf_hw::partition::PartitionSpec;
use mlperf_hw::units::{Bytes, Seconds};
use mlperf_models::{ModelGraph, Optimizer, PrecisionPolicy};
use std::fmt;

/// How many epochs a benchmark needs to hit its quality target, as a
/// function of the global batch size.
///
/// MLPerf's metric is time-to-quality; larger global batches converge in
/// more epochs (generalization gap), which is one of the two mechanisms
/// behind sub-linear scaling (the other being communication).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceModel {
    /// Epochs to target at the reference global batch.
    pub base_epochs: f64,
    /// The global batch the submission was tuned at.
    pub reference_global_batch: u64,
    /// Fractional extra epochs per doubling of the global batch beyond the
    /// reference (0.0 = perfectly batch-insensitive).
    pub epoch_penalty_per_doubling: f64,
}

impl ConvergenceModel {
    /// Construct, validating positivity.
    ///
    /// # Panics
    ///
    /// Panics if `base_epochs` or `reference_global_batch` is nonpositive
    /// or the penalty is negative.
    pub fn new(
        base_epochs: f64,
        reference_global_batch: u64,
        epoch_penalty_per_doubling: f64,
    ) -> Self {
        assert!(
            base_epochs > 0.0 && base_epochs.is_finite(),
            "epochs must be positive"
        );
        assert!(
            reference_global_batch > 0,
            "reference batch must be positive"
        );
        assert!(
            epoch_penalty_per_doubling >= 0.0 && epoch_penalty_per_doubling.is_finite(),
            "penalty must be non-negative"
        );
        ConvergenceModel {
            base_epochs,
            reference_global_batch,
            epoch_penalty_per_doubling,
        }
    }

    /// Epochs needed at the given global batch.
    pub fn epochs_at(&self, global_batch: u64) -> f64 {
        assert!(global_batch > 0, "global batch must be positive");
        let doublings = (global_batch as f64 / self.reference_global_batch as f64)
            .log2()
            .max(0.0);
        self.base_epochs * (1.0 + self.epoch_penalty_per_doubling * doublings)
    }

    /// Run-to-run coefficient of variation of epochs-to-target.
    ///
    /// MLPerf reports medians over several runs precisely because
    /// epochs-to-target is stochastic in the seed, and the paper observes
    /// the spread is widest for the benchmarks whose convergence is most
    /// sensitive to batch/hyperparameter choices. We model that coupling:
    /// a floor of 2% seed noise, plus a share proportional to the batch
    /// penalty (NCF and SSD spread more than ResNet-50).
    pub fn run_cv(&self) -> f64 {
        0.02 + 0.10 * self.epoch_penalty_per_doubling
    }
}

/// A complete, runnable training-job description.
#[derive(Debug, Clone)]
pub struct TrainingJob {
    name: String,
    model: ModelGraph,
    pipeline: InputPipeline,
    per_gpu_batch: u64,
    max_global_batch: Option<u64>,
    optimizer: Optimizer,
    precision: PrecisionPolicy,
    convergence: ConvergenceModel,
    efficiency: Efficiency,
    allreduce: AllReduceAlgorithm,
    comm_overlap: f64,
    host_step_core_secs: f64,
    dram_base: Bytes,
    hbm_overhead: Bytes,
    prefetch_depth: u64,
    gpu_step_overhead: Seconds,
    allreduce_period: u64,
    host_fixed_core_secs: f64,
    host_poll_cores: f64,
    partition: Option<PartitionSpec>,
}

/// Builder for [`TrainingJob`] ([C-BUILDER]): the required pieces go into
/// [`TrainingJob::builder`], the knobs have sensible defaults.
#[derive(Debug, Clone)]
pub struct TrainingJobBuilder {
    job: TrainingJob,
}

impl TrainingJob {
    /// Start building a job from its required parts.
    pub fn builder(
        name: impl Into<String>,
        model: ModelGraph,
        pipeline: InputPipeline,
        per_gpu_batch: u64,
        convergence: ConvergenceModel,
    ) -> TrainingJobBuilder {
        assert!(per_gpu_batch > 0, "per-GPU batch must be positive");
        TrainingJobBuilder {
            job: TrainingJob {
                name: name.into(),
                model,
                pipeline,
                per_gpu_batch,
                max_global_batch: None,
                optimizer: Optimizer::SgdMomentum,
                precision: PrecisionPolicy::Amp,
                convergence,
                efficiency: Efficiency::default(),
                allreduce: AllReduceAlgorithm::Ring,
                comm_overlap: 0.5,
                host_step_core_secs: 0.004,
                dram_base: Bytes::from_gib(4),
                hbm_overhead: Bytes::from_gib(1),
                prefetch_depth: 2,
                gpu_step_overhead: Seconds::new(0.002),
                allreduce_period: 1,
                host_fixed_core_secs: 0.0,
                host_poll_cores: 0.0,
                partition: None,
            },
        }
    }

    /// The benchmark name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator graph being trained.
    pub fn model(&self) -> &ModelGraph {
        &self.model
    }

    /// The input pipeline feeding the job.
    pub fn pipeline(&self) -> &InputPipeline {
        &self.pipeline
    }

    /// Requested per-GPU batch size (before the global cap).
    pub fn per_gpu_batch(&self) -> u64 {
        self.per_gpu_batch
    }

    /// Optional cap on the global batch (NCF's small-dataset limit, §IV-D).
    pub fn max_global_batch(&self) -> Option<u64> {
        self.max_global_batch
    }

    /// The effective per-GPU batch when running on `n` GPUs: the requested
    /// batch, shrunk if the global cap binds.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn effective_per_gpu_batch(&self, n: u64) -> u64 {
        assert!(n > 0, "need at least one GPU");
        let requested = self.per_gpu_batch;
        match self.max_global_batch {
            Some(cap) => (cap / n).clamp(1, requested),
            None => requested,
        }
    }

    /// The global batch on `n` GPUs.
    pub fn global_batch(&self, n: u64) -> u64 {
        self.effective_per_gpu_batch(n) * n
    }

    /// The optimizer used.
    pub fn optimizer(&self) -> Optimizer {
        self.optimizer
    }

    /// The numeric policy used.
    pub fn precision(&self) -> PrecisionPolicy {
        self.precision
    }

    /// This job at a different precision (for Fig. 3's AMP-vs-FP32
    /// comparison).
    #[must_use]
    pub fn with_precision(mut self, precision: PrecisionPolicy) -> TrainingJob {
        self.precision = precision;
        self
    }

    /// This job at a different per-GPU batch size (e.g. the smaller
    /// batches FP32 reference implementations fit in memory).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn with_per_gpu_batch(mut self, batch: u64) -> TrainingJob {
        self.set_per_gpu_batch(batch);
        self
    }

    /// Change the per-GPU batch size in place: what a sweep lane does per
    /// cell, where every other field of its job stays put.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn set_per_gpu_batch(&mut self, batch: u64) {
        assert!(batch > 0, "per-GPU batch must be positive");
        self.per_gpu_batch = batch;
    }

    /// The MIG-style device slice this job runs on, if any. `None` means
    /// the whole GPU — the pre-partition suite's (byte-identical) default.
    pub fn partition(&self) -> Option<PartitionSpec> {
        self.partition
    }

    /// This job placed on a device partition (or back on the whole GPU
    /// with `None`). The engine slices every GPU the job runs on and
    /// applies the co-location interference model.
    #[must_use]
    pub fn with_partition(mut self, partition: Option<PartitionSpec>) -> TrainingJob {
        self.partition = partition;
        self
    }

    /// This job at different sustained efficiencies (e.g. the
    /// unoptimized reference implementation instead of the submission).
    #[must_use]
    pub fn with_efficiency(mut self, efficiency: Efficiency) -> TrainingJob {
        self.efficiency = efficiency;
        self
    }

    /// This job using a different all-reduce algorithm (ablation).
    #[must_use]
    pub fn with_allreduce(mut self, alg: AllReduceAlgorithm) -> TrainingJob {
        self.allreduce = alg;
        self
    }

    /// This job with communication/compute overlap disabled (ablation).
    #[must_use]
    pub fn without_overlap(self) -> TrainingJob {
        self.with_comm_overlap(0.0)
    }

    /// This job at a different overlap fraction (sensitivity studies).
    ///
    /// # Panics
    ///
    /// Panics if `overlap` is outside `[0, 1]`.
    #[must_use]
    pub fn with_comm_overlap(mut self, overlap: f64) -> TrainingJob {
        assert!((0.0..=1.0).contains(&overlap), "overlap must be in [0,1]");
        self.comm_overlap = overlap;
        self
    }

    /// The convergence model.
    pub fn convergence(&self) -> ConvergenceModel {
        self.convergence
    }

    /// Sustained-efficiency calibration.
    pub fn efficiency(&self) -> Efficiency {
        self.efficiency
    }

    /// The collective algorithm for gradient exchange.
    pub fn allreduce(&self) -> AllReduceAlgorithm {
        self.allreduce
    }

    /// Fraction of the all-reduce hidden behind the backward pass
    /// (bucketed/overlapped gradient reduction).
    pub fn comm_overlap(&self) -> f64 {
        self.comm_overlap
    }

    /// Host CPU work per iteration per GPU *besides* preprocessing: kernel
    /// launches, Python/framework overhead, CUDA driver time
    /// (reference-core-seconds).
    pub fn host_step_core_secs(&self) -> f64 {
        self.host_step_core_secs
    }

    /// Host DRAM consumed regardless of GPU count: the framework, the
    /// resident dataset cache, pinned staging arenas.
    pub fn dram_base(&self) -> Bytes {
        self.dram_base
    }

    /// Per-GPU HBM overhead besides the training replica: CUDA context,
    /// cuDNN workspaces, framework allocator slack.
    pub fn hbm_overhead(&self) -> Bytes {
        self.hbm_overhead
    }

    /// Input-pipeline prefetch depth (in-flight batches per GPU).
    pub fn prefetch_depth(&self) -> u64 {
        self.prefetch_depth
    }

    /// Fixed per-iteration device-side overhead: kernel launch gaps,
    /// synchronization, Python dispatch. Batch-size independent — the
    /// mechanism behind small-batch GPU underutilization (NCF, §V-B).
    pub fn gpu_step_overhead(&self) -> Seconds {
        self.gpu_step_overhead
    }

    /// Gradient-accumulation period: optimizer steps (and gradient
    /// exchanges) happen once per this many forward/backward iterations.
    /// The v0.5 translation submissions accumulate micro-batches to reach
    /// their large token batches.
    pub fn allreduce_period(&self) -> u64 {
        self.allreduce_period
    }

    /// GPU-count-*independent* host CPU work per step: the trainer
    /// process's own loop (session bookkeeping, summaries). Makes CPU
    /// utilization grow sub-linearly with GPUs, as TensorFlow's does in
    /// Table V (reference-core-seconds).
    pub fn host_fixed_core_secs(&self) -> f64 {
        self.host_fixed_core_secs
    }

    /// Cores busy-polling per GPU during multi-GPU steps (NCCL progress
    /// threads). Makes CPU utilization grow *super*-linearly for
    /// communication-dominated jobs, as NCF's does in Table V.
    pub fn host_poll_cores(&self) -> f64 {
        self.host_poll_cores
    }
}

impl fmt::Display for TrainingJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (batch {}/GPU, {}, {})",
            self.name, self.per_gpu_batch, self.precision, self.optimizer
        )
    }
}

impl TrainingJobBuilder {
    /// Cap the global batch (small-dataset benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn max_global_batch(mut self, cap: u64) -> Self {
        assert!(cap > 0, "global batch cap must be positive");
        self.job.max_global_batch = Some(cap);
        self
    }

    /// Set the optimizer (default SGD+momentum).
    pub fn optimizer(mut self, optimizer: Optimizer) -> Self {
        self.job.optimizer = optimizer;
        self
    }

    /// Set the numeric policy (default AMP, as the submitted codes use).
    pub fn precision(mut self, precision: PrecisionPolicy) -> Self {
        self.job.precision = precision;
        self
    }

    /// Set the sustained-efficiency calibration (default [`Efficiency::tuned`]).
    pub fn efficiency(mut self, efficiency: Efficiency) -> Self {
        self.job.efficiency = efficiency;
        self
    }

    /// Set the all-reduce algorithm (default ring).
    pub fn allreduce(mut self, alg: AllReduceAlgorithm) -> Self {
        self.job.allreduce = alg;
        self
    }

    /// Set the comm/compute overlap fraction in `[0, 1]` (default 0.5).
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    pub fn comm_overlap(mut self, overlap: f64) -> Self {
        assert!((0.0..=1.0).contains(&overlap), "overlap must be in [0,1]");
        self.job.comm_overlap = overlap;
        self
    }

    /// Set the per-iteration host overhead (default 4 reference-core-ms).
    ///
    /// # Panics
    ///
    /// Panics if negative or not finite.
    pub fn host_step_core_secs(mut self, secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "host step cost must be finite, non-negative"
        );
        self.job.host_step_core_secs = secs;
        self
    }

    /// Set the GPU-count-independent host DRAM footprint (default 4 GiB).
    pub fn dram_base(mut self, bytes: Bytes) -> Self {
        self.job.dram_base = bytes;
        self
    }

    /// Set the per-GPU HBM overhead (default 1 GiB).
    pub fn hbm_overhead(mut self, bytes: Bytes) -> Self {
        self.job.hbm_overhead = bytes;
        self
    }

    /// Set the prefetch depth (default 2).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn prefetch_depth(mut self, depth: u64) -> Self {
        assert!(depth > 0, "prefetch depth must be positive");
        self.job.prefetch_depth = depth;
        self
    }

    /// Set the fixed per-iteration device overhead (default 2 ms).
    pub fn gpu_step_overhead(mut self, overhead: Seconds) -> Self {
        self.job.gpu_step_overhead = overhead;
        self
    }

    /// Set the gradient-accumulation period (default 1 = every iteration).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn allreduce_period(mut self, period: u64) -> Self {
        assert!(period > 0, "accumulation period must be positive");
        self.job.allreduce_period = period;
        self
    }

    /// Set the fixed per-step host work (default 0).
    ///
    /// # Panics
    ///
    /// Panics if negative or not finite.
    pub fn host_fixed_core_secs(mut self, secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "fixed host cost must be finite, non-negative"
        );
        self.job.host_fixed_core_secs = secs;
        self
    }

    /// Set the per-GPU polling-core count (default 0).
    ///
    /// # Panics
    ///
    /// Panics if negative or not finite.
    pub fn host_poll_cores(mut self, cores: f64) -> Self {
        assert!(
            cores.is_finite() && cores >= 0.0,
            "poll cores must be finite, non-negative"
        );
        self.job.host_poll_cores = cores;
        self
    }

    /// Finish building.
    pub fn build(self) -> TrainingJob {
        self.job
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_data::DatasetId;
    use mlperf_hw::units::Bytes;
    use mlperf_models::zoo::ncf::ncf;

    fn job(per_gpu: u64, cap: Option<u64>) -> TrainingJob {
        let pipeline = InputPipeline::new(DatasetId::MovieLens20M, Bytes::new(16));
        let conv = ConvergenceModel::new(10.0, 1024, 0.0);
        let mut b = TrainingJob::builder("test", ncf(), pipeline, per_gpu, conv);
        if let Some(c) = cap {
            b = b.max_global_batch(c);
        }
        b.build()
    }

    #[test]
    fn uncapped_batch_scales_globally() {
        let j = job(256, None);
        assert_eq!(j.effective_per_gpu_batch(8), 256);
        assert_eq!(j.global_batch(8), 2048);
    }

    #[test]
    fn cap_shrinks_per_gpu_batch() {
        let j = job(1024, Some(2048));
        assert_eq!(j.effective_per_gpu_batch(1), 1024);
        assert_eq!(j.effective_per_gpu_batch(2), 1024);
        assert_eq!(j.effective_per_gpu_batch(4), 512);
        assert_eq!(j.effective_per_gpu_batch(8), 256);
        // Global batch saturates at the cap.
        assert_eq!(j.global_batch(8), 2048);
    }

    #[test]
    fn cap_never_zeroes_the_batch() {
        let j = job(64, Some(4));
        assert_eq!(j.effective_per_gpu_batch(8), 1);
    }

    #[test]
    fn convergence_penalty_grows_with_batch() {
        let c = ConvergenceModel::new(60.0, 256, 0.1);
        assert!((c.epochs_at(256) - 60.0).abs() < 1e-9);
        assert!((c.epochs_at(512) - 66.0).abs() < 1e-9);
        // Below reference: no bonus.
        assert!((c.epochs_at(128) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn run_cv_floors_at_seed_noise_and_grows_with_batch_sensitivity() {
        let insensitive = ConvergenceModel::new(60.0, 256, 0.0);
        assert!((insensitive.run_cv() - 0.02).abs() < 1e-12);
        let sensitive = ConvergenceModel::new(60.0, 256, 0.3);
        assert!(sensitive.run_cv() > insensitive.run_cv());
        assert!((sensitive.run_cv() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn precision_swap_copies() {
        let j = job(64, None);
        assert_eq!(j.precision(), PrecisionPolicy::Amp);
        let fp32 = j.clone().with_precision(PrecisionPolicy::Fp32);
        assert_eq!(fp32.precision(), PrecisionPolicy::Fp32);
        assert_eq!(fp32.name(), j.name());
    }

    #[test]
    fn overlap_ablation() {
        let j = job(64, None);
        assert!(j.comm_overlap() > 0.0);
        assert_eq!(j.without_overlap().comm_overlap(), 0.0);
    }

    #[test]
    #[should_panic(expected = "overlap must be in")]
    fn bad_overlap_rejected() {
        let pipeline = InputPipeline::new(DatasetId::MovieLens20M, Bytes::new(16));
        let conv = ConvergenceModel::new(10.0, 1024, 0.0);
        let _ = TrainingJob::builder("x", ncf(), pipeline, 1, conv).comm_overlap(1.5);
    }
}
