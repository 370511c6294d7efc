//! Figure 3: mixed-precision (Tensor Core) speedups.
//!
//! §IV-C trains every MLPerf benchmark on the DSS 8440 with 8 GPUs twice —
//! single precision and AMP — and reports speedups from 1.5× (Mask R-CNN)
//! to 3.3× (ResNet-50/TF). FP32 activations are twice as large, so the FP32
//! leg halves the per-GPU batch until the replica fits, exactly as a real
//! run would have to; speedup is measured in training throughput.

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{csv_header, CsvFile, Ctx, Decl, TrainPoint};
use mlperf_hw::systems::SystemId;
use mlperf_models::PrecisionPolicy;
use mlperf_sim::{SimError, StepReport};

/// GPUs used for the comparison (the paper uses all 8 of the DSS 8440).
const GPUS: u32 = 8;

/// One benchmark's AMP-vs-FP32 measurement.
#[derive(Debug, Clone)]
pub struct AmpSpeedup {
    /// Benchmark measured.
    pub id: BenchmarkId,
    /// Samples/second under AMP.
    pub amp_throughput: f64,
    /// Samples/second under FP32 (at the largest batch that fits).
    pub fp32_throughput: f64,
    /// Per-GPU batch the FP32 leg ran at.
    pub fp32_batch: u64,
}

impl AmpSpeedup {
    /// The Fig. 3 speedup factor.
    pub fn speedup(&self) -> f64 {
        self.amp_throughput / self.fp32_throughput
    }
}

/// The full Figure 3 result.
#[derive(Debug, Clone)]
pub struct Figure3 {
    /// Per-benchmark speedups, in MLPerf registry order.
    pub speedups: Vec<AmpSpeedup>,
}

/// Run a training point, halving the per-GPU batch on OOM until it fits
/// (batch 1 OOM is a genuine failure). Keys use effective values, so the
/// first AMP attempt at the default batch shares Table IV's cache entry.
fn run_shrinking(
    ctx: &Ctx,
    base: &TrainPoint,
    mut batch: u64,
) -> Result<(StepReport, u64), SimError> {
    loop {
        match ctx.step(&base.clone().with_per_gpu_batch(batch)) {
            Ok(report) => return Ok((report, batch)),
            Err(SimError::OutOfMemory { .. }) if batch > 1 => batch /= 2,
            Err(e) => return Err(e),
        }
    }
}

/// Run the Figure 3 experiment through a shared executor context.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_ctx(ctx: &Ctx) -> Result<Figure3, SimError> {
    let mut speedups = Vec::new();
    for id in BenchmarkId::MLPERF {
        let batch = ctx.base_job(id, false).per_gpu_batch();
        let amp = TrainPoint::new(id, SystemId::Dss8440, GPUS);
        let fp32 = amp.clone().with_precision(PrecisionPolicy::Fp32);
        let (amp_report, _) = run_shrinking(ctx, &amp, batch)?;
        let (fp32_report, fp32_batch) = run_shrinking(ctx, &fp32, batch)?;
        speedups.push(AmpSpeedup {
            id,
            amp_throughput: amp_report.throughput_samples_per_sec(),
            fp32_throughput: fp32_report.throughput_samples_per_sec(),
            fp32_batch,
        });
    }
    Ok(Figure3 { speedups })
}

/// Render the speedup bars as a table.
pub fn render(f: &Figure3) -> String {
    let mut t = Table::new(
        "Figure 3: Mixed-precision speedup over FP32 (DSS 8440, 8 GPUs)",
        [
            "Benchmark",
            "AMP samples/s",
            "FP32 samples/s",
            "FP32 batch",
            "Speedup",
        ],
    );
    for s in &f.speedups {
        t.add_row([
            s.id.abbreviation().to_string(),
            format!("{:.1}", s.amp_throughput),
            format!("{:.1}", s.fp32_throughput),
            s.fp32_batch.to_string(),
            format!("{:.2}x", s.speedup()),
        ]);
    }
    t.to_string()
}

/// One row per benchmark: both throughputs and the AMP speedup.
fn amp_rows(f: &Figure3, csv: &mut Table) {
    for s in &f.speedups {
        csv.add_row([
            s.id.abbreviation().to_string(),
            format!("{:.1}", s.amp_throughput),
            format!("{:.1}", s.fp32_throughput),
            format!("{:.4}", s.speedup()),
        ]);
    }
}

/// Figure 3 as the executor schedules it.
pub static EXP: Decl<Figure3> = Decl {
    id: "figure3",
    title: "Figure 3: mixed-precision speedups",
    deps: &[],
    spec: None,
    run: run_ctx,
    render,
    csv: &[CsvFile {
        file: "figure3_amp.csv",
        header: || csv_header("benchmark,amp_samples_s,fp32_samples_s,speedup"),
        rows: amp_rows,
    }],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_speeds_up() {
        let f = run_ctx(&Ctx::new()).unwrap();
        assert_eq!(f.speedups.len(), 7);
        for s in &f.speedups {
            assert!(s.speedup() > 1.0, "{}: {:.2}", s.id, s.speedup());
        }
    }

    #[test]
    fn speedups_span_the_paper_range() {
        // Paper: 1.5x (MRCNN) to 3.3x (Res50_TF). Our range lands at
        // [1.4x, 3.9x] with MRCNN/NCF/GNMT at the low end — see
        // EXPERIMENTS.md for the per-benchmark comparison.
        let f = run_ctx(&Ctx::new()).unwrap();
        let by_id = |id: BenchmarkId| {
            f.speedups
                .iter()
                .find(|s| s.id == id)
                .expect("present")
                .speedup()
        };
        let min = f
            .speedups
            .iter()
            .map(AmpSpeedup::speedup)
            .fold(f64::INFINITY, f64::min);
        let max = f
            .speedups
            .iter()
            .map(AmpSpeedup::speedup)
            .fold(0.0f64, f64::max);
        assert!((1.2..2.2).contains(&min), "suite minimum {min:.2}");
        assert!((2.9..4.2).contains(&max), "suite maximum {max:.2}");
        // The heavy-weight detector sits at the low end of the suite...
        let mrcnn = by_id(BenchmarkId::MlpfMrcnnPy);
        assert!(mrcnn < 2.5, "MRCNN speedup {mrcnn:.2}");
        // ...and image classification at the high end.
        let res50 = by_id(BenchmarkId::MlpfRes50Tf);
        assert!((2.7..4.0).contains(&res50), "Res50_TF speedup {res50:.2}");
    }

    #[test]
    fn render_lists_speedups() {
        let f = run_ctx(&Ctx::new()).unwrap();
        let s = render(&f);
        assert!(s.contains("Speedup"));
        assert!(s.contains("MLPf_NCF_Py"));
    }
}
