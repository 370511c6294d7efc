//! `nvprof` analogue: the FLOP and memory-transaction totals of a training
//! step.
//!
//! The paper profiles each benchmark's region of interest with `nvprof`,
//! collecting floating-point operation counts and memory read/write
//! transactions, then derives the roofline coordinates of Fig. 2. This
//! module produces the same per-step totals from the analytical graphs,
//! with the derived FLOP throughput and arithmetic intensity.

use mlperf_hw::units::{Bytes, Flops, Seconds};
use mlperf_hw::FlopRate;
use mlperf_models::{ModelGraph, PrecisionPolicy};

/// The profile of one training step of one model: FLOPs executed and
/// device-memory bytes moved, summed over every kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    flops: Flops,
    bytes: Bytes,
}

impl KernelProfile {
    /// Profile one training step of `model` at the given batch and policy
    /// (forward + backward; the optimizer shows up as elementwise kernels
    /// in real traces but is priced separately by the engine).
    pub fn of_step(model: &ModelGraph, batch: u64, policy: PrecisionPolicy) -> Self {
        let mut flops = Flops::ZERO;
        let mut bytes = Bytes::ZERO;
        for op in model.ops() {
            flops += op.fwd_flops(batch) + op.bwd_flops(batch);
            let act = (op.fwd_act_elems(batch) + op.bwd_act_elems(batch)) as f64
                * op.fused_traffic_factor();
            let elems = act + (2 * op.params()) as f64;
            // nvprof counts transactions, which include tiling re-reads;
            // each kernel's count is whole bytes.
            bytes += Bytes::new(
                (elems
                    * op.profiled_traffic_factor()
                    * policy.activation_bytes(op.tensor_core_eligible()) as f64)
                    .round() as u64,
            );
        }
        KernelProfile { flops, bytes }
    }

    /// Total FLOPs per step.
    pub fn total_flops(&self) -> Flops {
        self.flops
    }

    /// Total device-memory traffic per step.
    pub fn total_bytes(&self) -> Bytes {
        self.bytes
    }

    /// Arithmetic intensity of the step (FLOP / byte) — the x-coordinate of
    /// Fig. 2.
    ///
    /// # Panics
    ///
    /// Panics if the profile moved zero bytes.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.total_flops() / self.total_bytes()
    }

    /// Sustained FLOP rate given the measured step duration — the
    /// y-coordinate of Fig. 2.
    pub fn throughput(&self, step_time: Seconds) -> FlopRate {
        self.total_flops() / step_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_models::zoo::resnet::resnet18_cifar;

    fn profile() -> KernelProfile {
        KernelProfile::of_step(&resnet18_cifar(), 128, PrecisionPolicy::Fp32)
    }

    #[test]
    fn totals_are_record_sums() {
        // Each operator's kernels contribute their forward + backward work.
        let g = resnet18_cifar();
        let p = profile();
        let f: u64 = g
            .ops()
            .iter()
            .map(|op| (op.fwd_flops(128) + op.bwd_flops(128)).as_u64())
            .sum();
        assert_eq!(p.total_flops().as_u64(), f);
        assert!(p.total_bytes().as_u64() > 0);
    }

    #[test]
    fn intensity_and_throughput_are_consistent() {
        let p = profile();
        let step = Seconds::new(0.05);
        let ai = p.arithmetic_intensity();
        let tp = p.throughput(step);
        let bw_implied = tp.as_flops_per_sec() / ai;
        let bw_direct = p.total_bytes().as_f64() / step.as_secs();
        assert!((bw_implied - bw_direct).abs() / bw_direct < 1e-9);
    }

    #[test]
    fn amp_shrinks_bytes_not_flops() {
        let g = resnet18_cifar();
        let fp32 = KernelProfile::of_step(&g, 128, PrecisionPolicy::Fp32);
        let amp = KernelProfile::of_step(&g, 128, PrecisionPolicy::Amp);
        assert_eq!(fp32.total_flops(), amp.total_flops());
        assert!(amp.total_bytes() < fp32.total_bytes());
        assert!(amp.arithmetic_intensity() > fp32.arithmetic_intensity());
    }
}
