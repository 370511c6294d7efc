//! Quickstart: simulate one MLPerf training run and read its telemetry.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mlperf_hw::systems::SystemId;
use mlperf_sim::{train_on_first, Simulator};
use mlperf_suite::BenchmarkId;
use mlperf_telemetry::{KernelProfile, ResourceUsage};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Pick a platform from Table III and a benchmark from Table II.
    let system = SystemId::C4140K.spec();
    let benchmark = BenchmarkId::MlpfRes50Mx;
    let job = benchmark.job();

    println!("platform : {system}");
    println!("benchmark: {benchmark} ({})", benchmark.quality_target());
    println!("model    : {}", job.model());
    println!();

    // Train to the quality target on 1, 2, and 4 GPUs.
    let sim = Simulator::new(&system);
    for n in [1u32, 2, 4] {
        let outcome = train_on_first(&sim, &job, n)?;
        let usage = ResourceUsage::from_step(&system, &outcome.step);
        println!("{n} GPU(s): {outcome}");
        println!("         {usage}");
    }
    println!();

    // What nvprof would say about one training step.
    let profile = KernelProfile::of_step(job.model(), job.per_gpu_batch(), job.precision());
    println!(
        "kernel profile: {} / step, {} / step (AI {:.2})",
        profile.total_flops(),
        profile.total_bytes(),
        profile.arithmetic_intensity()
    );
    Ok(())
}
