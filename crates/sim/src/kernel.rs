//! Roofline-limited kernel timing.
//!
//! One training step's device time is priced with the roofline model the
//! paper uses in Fig. 2: compute time (SIMT FLOPs at the FP32 sustained rate
//! plus Tensor-Core FLOPs at the TC sustained rate) races against memory
//! time (HBM traffic at sustained bandwidth); the step takes the larger,
//! with partial overlap between the two captured by the efficiency factors.

use mlperf_hw::gpu::{GpuSpec, Precision};
use mlperf_hw::units::Seconds;
use mlperf_models::IterationCost;

/// Sustained-efficiency knobs for one workload on one GPU.
///
/// These are the simulator's calibration surface: real kernels reach only a
/// fraction of the empirical ceilings (kernel-launch gaps, tail effects,
/// non-ideal tiling). Values are fractions of the *empirical* (ERT) ceiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Efficiency {
    /// Fraction of the FP32 ceiling SIMT kernels sustain.
    pub simt: f64,
    /// Fraction of the Tensor-Core ceiling TC kernels sustain.
    pub tensor: f64,
    /// Fraction of the HBM ceiling the access streams sustain.
    pub memory: f64,
}

impl Efficiency {
    /// Construct, validating each factor lies in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if any factor is outside `(0, 1]`.
    pub fn new(simt: f64, tensor: f64, memory: f64) -> Self {
        for (name, v) in [("simt", simt), ("tensor", tensor), ("memory", memory)] {
            assert!(
                v > 0.0 && v <= 1.0 && v.is_finite(),
                "{name} efficiency must be in (0, 1], got {v}"
            );
        }
        Efficiency {
            simt,
            tensor,
            memory,
        }
    }

    /// A well-tuned dense workload (cuDNN-style kernels).
    pub fn tuned() -> Self {
        Efficiency::new(0.70, 0.55, 0.75)
    }

    /// A workload with irregular kernels (detection heads, RNN step chains).
    pub fn irregular() -> Self {
        Efficiency::new(0.45, 0.35, 0.60)
    }
}

impl Default for Efficiency {
    fn default() -> Self {
        Efficiency::tuned()
    }
}

/// Times iteration costs on a specific GPU at given sustained efficiencies.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTimer {
    gpu: GpuSpec,
    eff: Efficiency,
}

impl KernelTimer {
    /// Build a timer for one GPU model.
    pub fn new(gpu: GpuSpec, eff: Efficiency) -> Self {
        KernelTimer { gpu, eff }
    }

    /// The GPU being timed against.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The efficiency knobs in force.
    pub fn efficiency(&self) -> Efficiency {
        self.eff
    }

    /// Pure compute time of an iteration (both pipelines, no memory limit).
    pub fn compute_time(&self, cost: &IterationCost) -> Seconds {
        let simt_rate = self
            .gpu
            .empirical_flop_rate(Precision::Single)
            .scale(self.eff.simt);
        let tc_rate = self
            .gpu
            .empirical_flop_rate(Precision::TensorCore)
            .scale(self.eff.tensor);
        cost.simt_flops / simt_rate + cost.tensor_flops / tc_rate
    }

    /// Pure memory time of an iteration (all HBM traffic, no compute limit).
    pub fn memory_time(&self, cost: &IterationCost) -> Seconds {
        let bw = self.gpu.empirical_hbm_bandwidth().scale(self.eff.memory);
        cost.mem_bytes / bw
    }

    /// Roofline step time: the slower of compute and memory, plus a fraction
    /// of the faster one that real kernel sequences fail to hide.
    pub fn step_time(&self, cost: &IterationCost) -> Seconds {
        /// Fraction of the minor axis that leaks past overlap: kernel
        /// boundaries serialize compute-heavy and memory-heavy phases.
        const EXPOSED_MINOR_FRACTION: f64 = 0.25;
        let c = self.compute_time(cost);
        let m = self.memory_time(cost);
        let (major, minor) = if c >= m { (c, m) } else { (m, c) };
        major + minor.scale(EXPOSED_MINOR_FRACTION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_hw::gpu::GpuModel;
    use mlperf_hw::units::{Bytes, Flops};

    fn cost(simt_gf: f64, tc_gf: f64, mem_mib: u64) -> IterationCost {
        IterationCost {
            simt_flops: Flops::from_gflops(simt_gf),
            tensor_flops: Flops::from_gflops(tc_gf),
            mem_bytes: Bytes::from_mib(mem_mib),
            gradient_bytes: Bytes::ZERO,
        }
    }

    fn v100_timer() -> KernelTimer {
        KernelTimer::new(
            GpuModel::TeslaV100Sxm2_16.spec(),
            Efficiency::new(1.0, 1.0, 1.0),
        )
    }

    #[test]
    fn compute_bound_workload_tracks_flops() {
        let t = v100_timer();
        // Huge FLOPs, tiny memory.
        let c = cost(14_600.0, 0.0, 1);
        let step = t.step_time(&c);
        // 14.6 TFLOP at ~14.6 TFLOP/s empirical FP32 ≈ 1 s.
        assert!((step.as_secs() - 1.0).abs() < 0.05, "step = {step}");
    }

    #[test]
    fn memory_bound_workload_tracks_bytes() {
        let t = v100_timer();
        // Empirical HBM bandwidth is 828 GB/s; 828 MiB ≈ 1.05 ms.
        let c = cost(1.0, 0.0, 828);
        let step_ms = t.step_time(&c).as_secs() * 1e3;
        assert!((step_ms - 1.05).abs() < 0.1, "step = {step_ms} ms");
    }

    #[test]
    fn tensor_cores_accelerate_eligible_flops() {
        let t = v100_timer();
        let simt_only = cost(10_000.0, 0.0, 1);
        let tc_only = cost(0.0, 10_000.0, 1);
        assert!(t.step_time(&tc_only).as_secs() < t.step_time(&simt_only).as_secs() / 4.0);
    }

    #[test]
    fn efficiency_scales_time_inversely() {
        let gpu = GpuModel::TeslaV100Sxm2_16.spec();
        let fast = KernelTimer::new(gpu.clone(), Efficiency::new(1.0, 1.0, 1.0));
        let slow = KernelTimer::new(gpu, Efficiency::new(0.5, 0.5, 0.5));
        let c = cost(5_000.0, 5_000.0, 100);
        let ratio = slow.step_time(&c).as_secs() / fast.step_time(&c).as_secs();
        assert!((ratio - 2.0).abs() < 1e-6);
    }

    #[test]
    fn p100_is_slower_than_v100_and_lacks_tc_speedup() {
        let eff = Efficiency::tuned();
        let v100 = KernelTimer::new(GpuModel::TeslaV100Sxm2_16.spec(), eff);
        let p100 = KernelTimer::new(GpuModel::TeslaP100Pcie16.spec(), eff);
        let c = cost(2_000.0, 8_000.0, 200);
        assert!(p100.step_time(&c).as_secs() > 3.0 * v100.step_time(&c).as_secs());
    }

    #[test]
    #[should_panic(expected = "efficiency must be in")]
    fn zero_efficiency_rejected() {
        let _ = Efficiency::new(0.0, 0.5, 0.5);
    }

    #[test]
    fn presets_are_ordered() {
        let t = Efficiency::tuned();
        let i = Efficiency::irregular();
        assert!(t.simt > i.simt && t.tensor > i.tensor && t.memory > i.memory);
    }
}
