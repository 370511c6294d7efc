//! Topology explorer: how the GPU interconnect shapes training time.
//!
//! Classifies every GPU pair on each Table III platform, prices a gradient
//! all-reduce over each, then builds a *custom* topology (a hypothetical
//! x8-lane server) to show the library composing beyond the paper's
//! systems.
//!
//! ```text
//! cargo run --release --example topology_explorer
//! ```

use mlperf_hw::cpu::CpuModel;
use mlperf_hw::gpu::GpuModel;
use mlperf_hw::interconnect::Link;
use mlperf_hw::systems::SystemId;
use mlperf_hw::topology::Topology;
use mlperf_hw::units::Bytes;
use mlperf_sim::allreduce::{allreduce_time, plan_allreduce, AllReduceAlgorithm};
use mlperf_suite::BenchmarkId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Gradient payload of the Transformer job (the most comm-hungry).
    let job = BenchmarkId::MlpfXfmrPy.job();
    let grads = Bytes::new(job.model().params() * 2); // FP16 gradients
    println!("payload: {grads} of Transformer gradients\n");

    for id in SystemId::FOUR_GPU_PLATFORMS {
        let spec = id.spec();
        let topo = spec.topology();
        let pair = topo.gpu_peer_path(0, 3)?;
        let plan = plan_allreduce(topo, &[0, 1, 2, 3], AllReduceAlgorithm::Ring, grads)?;
        println!(
            "{:10} GPU0-GPU3 via {:18} ({:.1} GB/s); 4-GPU ring all-reduce: {:.1} ms",
            id.name(),
            pair.class.to_string(),
            pair.bandwidth.as_gb_per_sec(),
            plan.time.as_secs() * 1e3,
        );
    }

    // Beyond the paper: a budget server with x8 slots.
    println!("\nhypothetical budget box: 4x V100 on PCIe 3.0 x8 (one socket)");
    let mut t = Topology::new("budget-x8");
    let cpu = t.add_cpu(CpuModel::XeonGold6148);
    let gpus: Vec<_> = (0..4)
        .map(|_| t.add_gpu(GpuModel::TeslaV100Pcie16))
        .collect();
    for &g in &gpus {
        t.connect(cpu, g, Link::PCIE3_X8);
    }
    let worst = t.worst_peer_path(&[0, 1, 2, 3])?;
    let flat = allreduce_time(AllReduceAlgorithm::Ring, grads, 4, worst);
    println!(
        "  worst path {} at {:.1} GB/s; ring all-reduce {:.1} ms",
        worst.class,
        worst.bandwidth.as_gb_per_sec(),
        flat.as_secs() * 1e3
    );
    for alg in [
        AllReduceAlgorithm::Ring,
        AllReduceAlgorithm::Tree,
        AllReduceAlgorithm::Naive,
    ] {
        let time = allreduce_time(alg, grads, 4, worst);
        println!("  {alg:>5} algorithm: {:.1} ms", time.as_secs() * 1e3);
    }
    Ok(())
}
