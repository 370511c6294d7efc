//! The input-pipeline model: host staging → preprocessing → H2D copy.
//!
//! Every iteration, the host must (1) fetch the batch's records from the
//! staged dataset in DRAM, (2) preprocess them on CPU worker threads, and
//! (3) ship the device-ready tensors over PCIe. The simulator overlaps this
//! pipeline with GPU compute double-buffered, so an iteration stalls on the
//! host only when the pipeline is slower than the device step — exactly the
//! "CPU must have adequate performance to keep all GPUs busy" effect of
//! §V-A.

use crate::dataset::DatasetId;
use mlperf_hw::units::{Bytes, Seconds};
use mlperf_hw::CpuSpec;
use std::fmt;

/// Fraction of a socket's cores the framework's data-loader workers may
/// occupy (frameworks default to a handful of worker processes; the trainer
/// process and OS need the rest).
const LOADER_CORE_FRACTION: f64 = 0.85;

/// An input pipeline feeding one training job.
#[derive(Debug, Clone, PartialEq)]
pub struct InputPipeline {
    dataset: DatasetId,
    device_bytes_per_sample: Bytes,
    host_cost_multiplier: f64,
}

impl InputPipeline {
    /// Build a pipeline for a dataset shipping `device_bytes_per_sample`
    /// to the GPU per sample (the post-preprocess tensor size).
    pub fn new(dataset: DatasetId, device_bytes_per_sample: Bytes) -> Self {
        InputPipeline {
            dataset,
            device_bytes_per_sample,
            host_cost_multiplier: 1.0,
        }
    }

    /// Scale the dataset's base host cost (e.g. heavier augmentation in a
    /// particular submission, or DrQA's featurization on top of SQuAD).
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is negative or not finite.
    pub fn with_host_cost_multiplier(mut self, multiplier: f64) -> Self {
        assert!(
            multiplier.is_finite() && multiplier >= 0.0,
            "host cost multiplier must be finite and non-negative"
        );
        self.host_cost_multiplier = multiplier;
        self
    }

    /// The dataset this pipeline reads.
    pub fn dataset(&self) -> DatasetId {
        self.dataset
    }

    /// Device-ready bytes shipped per sample.
    pub fn device_bytes_per_sample(&self) -> Bytes {
        self.device_bytes_per_sample
    }

    /// Host preprocessing cost per sample in reference-core-seconds.
    pub fn host_cost_core_secs(&self) -> f64 {
        self.dataset.spec().host_cost_core_secs() * self.host_cost_multiplier
    }

    /// Wall-clock host time to preprocess one batch on a socket, assuming
    /// the loader workers use a fixed fraction (85 %) of its capacity.
    pub fn host_time_per_batch(&self, cpu: &CpuSpec, batch: u64) -> Seconds {
        let capacity = cpu.preprocess_capacity() * LOADER_CORE_FRACTION;
        Seconds::new(self.host_cost_core_secs() * batch as f64 / capacity)
    }

    /// Core-seconds of host work per batch (for CPU-utilization accounting:
    /// this much busy time lands on the socket regardless of parallelism).
    pub fn host_core_secs_per_batch(&self, batch: u64) -> f64 {
        self.host_cost_core_secs() * batch as f64
    }

    /// Bytes copied host-to-device for one batch (saturating: it feeds
    /// the engine's memory gate, where a batch past u64 must read as out
    /// of memory).
    pub fn h2d_bytes_per_batch(&self, batch: u64) -> Bytes {
        self.device_bytes_per_sample.saturating_mul(batch)
    }

    /// Host DRAM staging footprint for this pipeline: the working set of
    /// shuffled/prefetched records plus decode buffers, bounded by the
    /// dataset itself. `pipeline_depth` is the number of in-flight batches.
    pub fn staging_footprint(&self, batch: u64, pipeline_depth: u64) -> Bytes {
        let raw = self.dataset.spec().bytes_per_sample() * batch * pipeline_depth;
        let decoded = self.device_bytes_per_sample * batch * pipeline_depth;
        (raw + decoded).min(self.dataset.spec().on_disk())
    }
}

impl fmt::Display for InputPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pipeline ({}/sample to device)",
            self.dataset, self.device_bytes_per_sample
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_hw::CpuModel;

    fn imagenet_pipeline() -> InputPipeline {
        // 224x224x3 FP32 tensor per sample.
        InputPipeline::new(DatasetId::ImageNet, Bytes::new(224 * 224 * 3 * 4))
    }

    #[test]
    fn host_time_scales_with_batch() {
        let p = imagenet_pipeline();
        let cpu = CpuModel::XeonGold6148.spec();
        let t64 = p.host_time_per_batch(&cpu, 64);
        let t128 = p.host_time_per_batch(&cpu, 128);
        assert!((t128.as_secs() / t64.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn faster_socket_preprocesses_faster() {
        let p = imagenet_pipeline();
        let big = CpuModel::XeonGold6148.spec(); // 20c @ 2.4 = 48
        let small = CpuModel::XeonGold6142.spec(); // 16c @ 2.6 = 41.6
        assert!(
            p.host_time_per_batch(&big, 256).as_secs()
                < p.host_time_per_batch(&small, 256).as_secs()
        );
    }

    #[test]
    fn h2d_volume_is_exact() {
        let p = imagenet_pipeline();
        assert_eq!(
            p.h2d_bytes_per_batch(32),
            Bytes::new(32 * 224 * 224 * 3 * 4)
        );
    }

    #[test]
    fn cost_multiplier_applies() {
        let base = imagenet_pipeline();
        let heavy = imagenet_pipeline().with_host_cost_multiplier(3.0);
        assert!((heavy.host_cost_core_secs() / base.host_cost_core_secs() - 3.0).abs() < 1e-12);
        assert_eq!(
            heavy.host_core_secs_per_batch(10),
            30.0 * base.host_cost_core_secs()
        );
    }

    #[test]
    fn staging_footprint_bounded_by_dataset() {
        let tiny = InputPipeline::new(DatasetId::Cifar10, Bytes::new(32 * 32 * 3 * 4));
        // Absurd prefetch depth cannot stage more than the dataset.
        let fp = tiny.staging_footprint(50_000, 1000);
        assert!(fp <= DatasetId::Cifar10.spec().on_disk());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_multiplier_rejected() {
        let _ = imagenet_pipeline().with_host_cost_multiplier(-1.0);
    }
}
