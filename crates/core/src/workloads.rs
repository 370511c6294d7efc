//! Unified workload telemetry: one [`WorkloadRun`] per (workload, GPU
//! count), whether the workload is an end-to-end training job (MLPerf,
//! DAWNBench) or a DeepBench kernel loop.
//!
//! Table V, Fig. 1 (PCA) and Fig. 2 (roofline) all consume the same
//! measured quantities — utilizations, footprints, bus traffic, FLOP and
//! byte throughput, epochs — so they are collected once here.

use crate::benchmark::{BenchmarkId, Suite};
use mlperf_analysis::roofline::RooflinePoint;
use mlperf_hw::systems::SystemSpec;
use mlperf_hw::topology::P2pClass;
use mlperf_hw::units::{Bytes, Seconds};
use mlperf_models::zoo::deepbench;
use mlperf_models::PrecisionPolicy;
use mlperf_sim::allreduce::{allreduce_time, ring_wire_bytes_per_gpu, AllReduceAlgorithm};
use mlperf_sim::{Efficiency, KernelTimer, SimError};
use mlperf_telemetry::{KernelProfile, ResourceUsage, WorkloadCharacteristics};

/// The DeepBench workloads of Table II (bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeepBenchId {
    /// `gemm_bench`: dense matrix-multiply kernels.
    GemmCu,
    /// `conv_bench`: convolution kernels.
    ConvCu,
    /// `rnn_bench`: the six recurrent configurations.
    RnnCu,
    /// `nccl_single_all_reduce`: the communication benchmark.
    RedCu,
}

impl DeepBenchId {
    /// All four DeepBench workloads.
    pub const ALL: [DeepBenchId; 4] = [
        DeepBenchId::GemmCu,
        DeepBenchId::ConvCu,
        DeepBenchId::RnnCu,
        DeepBenchId::RedCu,
    ];

    /// The paper's abbreviation.
    pub fn abbreviation(self) -> &'static str {
        match self {
            DeepBenchId::GemmCu => "Deep_GEMM_Cu",
            DeepBenchId::ConvCu => "Deep_Conv_Cu",
            DeepBenchId::RnnCu => "Deep_RNN_Cu",
            DeepBenchId::RedCu => "Deep_Red_Cu",
        }
    }
}

/// One measured run: a workload at a GPU count on a system.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Paper abbreviation.
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// GPUs used.
    pub n_gpus: u64,
    /// The Table V row.
    pub usage: ResourceUsage,
    /// Steady-state step (or kernel-loop sweep) time, seconds.
    pub step_secs: f64,
    /// FLOPs executed per step.
    pub flops_per_step: f64,
    /// HBM bytes moved per step.
    pub hbm_bytes_per_step: f64,
    /// Epochs to quality target (0 for kernel benchmarks: no target).
    pub epochs: f64,
}

impl WorkloadRun {
    /// The 8-feature PCA vector of §IV-A.
    pub fn characteristics(&self) -> WorkloadCharacteristics {
        WorkloadCharacteristics::from_raw(
            self.name.clone(),
            self.suite.to_string(),
            [
                self.usage.pcie_mbps + self.usage.nvlink_mbps,
                self.usage.gpu_util_pct,
                self.usage.cpu_util_pct,
                self.usage.dram_mb,
                self.usage.hbm_mb,
                self.flops_per_step / self.step_secs / 1e9,
                self.hbm_bytes_per_step / self.step_secs / 1e9,
                self.epochs,
            ],
        )
    }

    /// The Fig. 2 roofline coordinates, when the workload moves any bytes.
    pub fn roofline_point(&self) -> Option<RooflinePoint> {
        if self.hbm_bytes_per_step <= 0.0 || self.flops_per_step <= 0.0 {
            return None;
        }
        Some(RooflinePoint::new(
            self.name.clone(),
            self.suite.to_string(),
            self.flops_per_step / self.hbm_bytes_per_step,
            mlperf_hw::FlopRate::new(self.flops_per_step / self.step_secs),
        ))
    }
}

/// A workload from any suite, unified behind one entry point,
/// [`Ctx::workload`](crate::runner::Ctx::workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadSpec {
    /// An end-to-end trainable benchmark (MLPerf or DAWNBench).
    Trainable(BenchmarkId),
    /// A DeepBench kernel loop.
    DeepBench(DeepBenchId),
}

/// Characterize an already-trained benchmark run. The executor's memo
/// cache supplies the `outcome`, so Table V, Figure 1 and Figure 5 can
/// share one simulation of each point.
pub(crate) fn trainable_from_outcome(
    id: BenchmarkId,
    system: &SystemSpec,
    outcome: &mlperf_sim::TrainingOutcome,
) -> WorkloadRun {
    let job = id.job();
    let n = outcome.step.n_gpus;
    let usage = ResourceUsage::from_step(system, &outcome.step);
    let profile = KernelProfile::of_step(job.model(), outcome.step.per_gpu_batch, job.precision());
    WorkloadRun {
        name: id.abbreviation().to_string(),
        suite: id.suite(),
        n_gpus: n,
        usage,
        step_secs: outcome.step.step_time.as_secs(),
        flops_per_step: profile.total_flops().as_f64() * n as f64,
        hbm_bytes_per_step: profile.total_bytes().as_f64() * n as f64,
        epochs: outcome.epochs,
    }
}

/// Host CPU work per DeepBench kernel launch (reference-core-seconds) —
/// the tiny `dstat` CPU signal the kernel loops leave.
const DEEPBENCH_HOST_CORE_SECS_PER_LAUNCH: f64 = 0.002;
/// Sustained efficiency of the hand-tuned DeepBench kernels.
fn deepbench_efficiency() -> Efficiency {
    Efficiency::new(0.80, 0.70, 0.85)
}

/// Run a DeepBench kernel loop on the first `n` GPUs of a system.
///
/// # Errors
///
/// [`SimError::BadGpuSet`] when `n` is zero, exceeds the system, or names
/// more than one GPU for a single-GPU kernel loop.
pub(crate) fn deepbench(
    id: DeepBenchId,
    system: &SystemSpec,
    n: u32,
) -> Result<WorkloadRun, SimError> {
    if n < 1 {
        return Err(SimError::BadGpuSet("need at least one GPU".into()));
    }
    if (n as usize) > system.topology().gpu_count() {
        return Err(SimError::BadGpuSet(format!(
            "system has only {} GPUs",
            system.topology().gpu_count()
        )));
    }
    let gpu = system.gpu_model().spec();
    let timer = KernelTimer::new(gpu.clone(), deepbench_efficiency());

    let (step_secs, flops, hbm_bytes, launches, wire_bytes, hbm_mb, dram_mb) = match id {
        DeepBenchId::GemmCu | DeepBenchId::ConvCu | DeepBenchId::RnnCu => {
            if n != 1 {
                return Err(SimError::BadGpuSet(format!(
                    "{} is a single-GPU kernel loop",
                    id.abbreviation()
                )));
            }
            let kernels = match id {
                DeepBenchId::GemmCu => deepbench::gemm_kernels(),
                DeepBenchId::ConvCu => deepbench::conv_kernels(),
                DeepBenchId::RnnCu => deepbench::rnn_kernels(),
                DeepBenchId::RedCu => unreachable!("handled below"),
            };
            let mut time = Seconds::ZERO;
            let mut flops = 0.0;
            let mut bytes = 0.0;
            let mut working_set: u64 = 0;
            for k in &kernels {
                // DeepBench times forward + backward of each kernel in FP32.
                let cost = k.as_graph().pass_cost(k.batch, PrecisionPolicy::Fp32);
                time += timer.step_time(&cost);
                flops += cost.total_flops().as_f64();
                // Report profiler-visible transactions (tiling re-reads
                // included), matching the trainable workloads' profiles.
                bytes += cost.mem_bytes.as_f64() * k.op.profiled_traffic_factor();
                working_set = working_set.max(cost.mem_bytes.as_u64() / 8);
            }
            let hbm_mb = (working_set as f64 / 1e6 + 600.0).min(3_000.0);
            (
                time.as_secs(),
                flops,
                bytes,
                kernels.len() as f64 * 2.0,
                Bytes::ZERO,
                hbm_mb,
                hbm_mb * 0.4 + 300.0,
            )
        }
        DeepBenchId::RedCu => {
            let sizes = deepbench::allreduce_sizes();
            // Between timed iterations the harness re-syncs and verifies;
            // NCCL kernels stay resident (GPU counts busy) while the links
            // idle — which is why the published NVLink rates sit far below
            // link saturation.
            let iteration_gap = Seconds::new(0.010);
            let mut time = Seconds::ZERO;
            let mut wire = Bytes::ZERO;
            let mut volume = 0.0;
            if n == 1 {
                // Degenerate single-GPU pass: device-local reduction only.
                for &s in &sizes {
                    volume += s.as_f64() * 2.0;
                    time += s / gpu.empirical_hbm_bandwidth().scale(0.7) + iteration_gap;
                }
            } else {
                let gpus: Vec<u32> = (0..n).collect();
                let mut peer = system
                    .topology()
                    .worst_peer_path(&gpus)
                    .expect("connected topology")
                    .clone();
                // A saturating collective loop on an NVLink mesh lets NCCL
                // schedule (n-1) concurrent rings over disjoint links — the
                // super-linear NVLink counter growth Table V shows for
                // Deep_Red_Cu.
                if peer.class == P2pClass::NvLinkDirect && n > 2 {
                    peer.bandwidth = peer.bandwidth.scale((n - 1) as f64);
                }
                for &s in &sizes {
                    time += allreduce_time(AllReduceAlgorithm::Ring, s, n as u64, &peer)
                        + iteration_gap;
                    wire += ring_wire_bytes_per_gpu(s, n as u64);
                    volume += s.as_f64() * 2.0;
                }
            }
            let hbm_mb = sizes.last().map(|s| s.as_f64() / 1e6).unwrap_or(0.0) + 380.0;
            (
                time.as_secs(),
                // nvprof attributes no FP operations to NCCL kernels —
                // §IV-A: "the communication kernel Deep_Red_Cu even has
                // zero floating point operations".
                0.0,
                volume,
                sizes.len() as f64,
                wire,
                hbm_mb,
                280.0 * n as f64,
            )
        }
    };

    // dmon-style counters for the loop.
    let cpu_cores = system.cpu_model().spec().cores() as f64 * system.cpu_count() as f64;
    let cpu_util_pct = match id {
        // NCCL keeps one polling progress thread busy per GPU.
        DeepBenchId::RedCu => 0.4 * n as f64,
        _ => {
            let host_core_secs = launches * DEEPBENCH_HOST_CORE_SECS_PER_LAUNCH;
            (host_core_secs / system.cpu_model().spec().base_freq_ghz() / (step_secs * cpu_cores))
                .min(1.0)
                * 100.0
        }
    };
    // Tight kernel loops keep SMs nearly saturated; NCCL loops slightly less.
    let busy = match id {
        DeepBenchId::RedCu => 0.92,
        _ => 0.99,
    };
    let comm_class = if n > 1 {
        system
            .topology()
            .worst_peer_path(&(0..n).collect::<Vec<_>>())
            .ok()
            .map(|p| p.class)
    } else {
        None
    };
    let wire_mbps = wire_bytes.as_f64() * 8.0 / 1e6 / step_secs * n as f64;
    let (pcie_extra, nvlink_mbps) = match comm_class {
        Some(P2pClass::NvLinkDirect) => (0.0, wire_mbps),
        Some(_) => (wire_mbps, 0.0),
        None => (0.0, 0.0),
    };
    let usage = ResourceUsage {
        n_gpus: n as u64,
        cpu_util_pct,
        gpu_util_pct: busy * 100.0 * n as f64,
        dram_mb,
        hbm_mb: hbm_mb * n as f64,
        // Kernel loops stage inputs once; PCIe carries only launch traffic.
        pcie_mbps: 13.0 + pcie_extra,
        nvlink_mbps,
    };
    Ok(WorkloadRun {
        name: id.abbreviation().to_string(),
        suite: Suite::DeepBench,
        n_gpus: n as u64,
        usage,
        step_secs,
        flops_per_step: flops,
        hbm_bytes_per_step: hbm_bytes,
        epochs: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Ctx;
    use mlperf_hw::systems::SystemId;

    fn on_c4140k(spec: WorkloadSpec, gpus: u32) -> Result<WorkloadRun, SimError> {
        Ctx::new().workload(spec, SystemId::C4140K, gpus)
    }

    #[test]
    fn trainable_run_produces_consistent_telemetry() {
        let run = on_c4140k(WorkloadSpec::Trainable(BenchmarkId::MlpfSsdPy), 1).unwrap();
        assert_eq!(run.n_gpus, 1);
        assert!(run.step_secs > 0.0);
        assert!(run.flops_per_step > 0.0);
        assert!(run.epochs > 0.0);
        let c = run.characteristics();
        assert_eq!(c.suite, "MLPerf");
        let p = run.roofline_point().expect("training moves bytes");
        assert!(p.intensity > 0.0);
    }

    #[test]
    fn deepbench_compute_loops_have_high_gpu_low_cpu() {
        for id in [DeepBenchId::GemmCu, DeepBenchId::ConvCu, DeepBenchId::RnnCu] {
            let r = on_c4140k(WorkloadSpec::DeepBench(id), 1).unwrap();
            assert!(r.usage.gpu_util_pct > 90.0, "{id:?}");
            assert!(r.usage.cpu_util_pct < 10.0, "{id:?}");
            assert_eq!(r.usage.nvlink_mbps, 0.0);
            assert_eq!(r.epochs, 0.0);
        }
    }

    #[test]
    fn red_cu_lights_up_nvlink_with_scale() {
        let red = |n| on_c4140k(WorkloadSpec::DeepBench(DeepBenchId::RedCu), n).unwrap();
        let r1 = red(1);
        let r2 = red(2);
        let r4 = red(4);
        assert_eq!(r1.usage.nvlink_mbps, 0.0);
        assert!(r2.usage.nvlink_mbps > 0.0);
        // Table V: Red_Cu NVLink grows super-linearly with GPU count.
        assert!(r4.usage.nvlink_mbps > 2.0 * r2.usage.nvlink_mbps);
    }

    #[test]
    fn red_cu_dwarfs_training_nvlink_rates() {
        // §V-D: Deep_Red_Cu uses the highest NVLink bandwidth of all.
        let red = on_c4140k(WorkloadSpec::DeepBench(DeepBenchId::RedCu), 4).unwrap();
        let train = on_c4140k(WorkloadSpec::Trainable(BenchmarkId::MlpfRes50Mx), 4).unwrap();
        assert!(red.usage.nvlink_mbps > train.usage.nvlink_mbps);
    }

    #[test]
    fn unified_run_rejects_deepbench_misuse_as_bad_gpu_set() {
        for (spec, n, needle) in [
            (
                WorkloadSpec::DeepBench(DeepBenchId::GemmCu),
                2,
                "single-GPU kernel loop",
            ),
            (
                WorkloadSpec::DeepBench(DeepBenchId::RedCu),
                0,
                "at least one GPU",
            ),
            (
                WorkloadSpec::DeepBench(DeepBenchId::RedCu),
                99,
                "system has only",
            ),
        ] {
            match on_c4140k(spec, n) {
                Err(SimError::BadGpuSet(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("expected BadGpuSet, got {other:?}"),
            }
        }
    }

    #[test]
    fn roofline_point_absent_without_traffic() {
        let run = WorkloadRun {
            name: "x".into(),
            suite: Suite::DeepBench,
            n_gpus: 1,
            usage: ResourceUsage {
                n_gpus: 1,
                cpu_util_pct: 0.0,
                gpu_util_pct: 0.0,
                dram_mb: 0.0,
                hbm_mb: 0.0,
                pcie_mbps: 0.0,
                nvlink_mbps: 0.0,
            },
            step_secs: 1.0,
            flops_per_step: 0.0,
            hbm_bytes_per_step: 0.0,
            epochs: 0.0,
        };
        assert!(run.roofline_point().is_none());
    }
}
