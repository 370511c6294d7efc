//! Precision study: AMP vs FP32 end to end.
//!
//! Reruns the Fig. 3 comparison for a chosen benchmark and places both runs
//! on the V100 roofline.
//!
//! ```text
//! cargo run --release --example precision_study -- MLPf_SSD_Py
//! ```

use mlperf_analysis::roofline::RooflineModel;
use mlperf_hw::gpu::Precision;
use mlperf_hw::systems::SystemId;
use mlperf_models::PrecisionPolicy;
use mlperf_sim::{train_on_first, Simulator};
use mlperf_suite::BenchmarkId;
use mlperf_telemetry::KernelProfile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wanted = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "MLPf_SSD_Py".into());
    let benchmark = BenchmarkId::ALL
        .into_iter()
        .find(|b| b.abbreviation() == wanted)
        .ok_or_else(|| format!("unknown benchmark {wanted}; try MLPf_SSD_Py"))?;

    let system = SystemId::Dss8440.spec();
    let sim = Simulator::new(&system);
    let roofline = RooflineModel::for_gpu(&system.gpu_model().spec());
    println!("{roofline}\n");

    let amp = benchmark.job();
    // FP32 activations are twice as large: halve the batch so it fits.
    let fp32 = amp
        .clone()
        .with_precision(PrecisionPolicy::Fp32)
        .with_per_gpu_batch((amp.per_gpu_batch() / 2).max(1));

    let mut throughputs = Vec::new();
    for (label, job) in [("AMP ", &amp), ("FP32", &fp32)] {
        let outcome = train_on_first(&sim, job, 8)?;
        let profile =
            KernelProfile::of_step(job.model(), outcome.step.per_gpu_batch, job.precision());
        let ai = profile.arithmetic_intensity();
        let tp = profile.throughput(outcome.step.step_time);
        println!(
            "{label}: {outcome}\n      AI {ai:.1} FLOP/B, {tp} \
             ({:.0}% of the matching roof)",
            tp.as_flops_per_sec()
                / roofline
                    .attainable(
                        ai,
                        match job.precision() {
                            PrecisionPolicy::Amp => Precision::TensorCore,
                            PrecisionPolicy::Fp32 => Precision::Single,
                        }
                    )
                    .as_flops_per_sec()
                * 100.0
        );
        throughputs.push(outcome.step.throughput_samples_per_sec());
    }
    println!(
        "\nmixed-precision speedup: {:.2}x",
        throughputs[0] / throughputs[1]
    );
    Ok(())
}
