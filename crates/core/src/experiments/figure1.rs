//! Figure 1: PCA of the workload space.
//!
//! §IV-A standardizes eight measured characteristics per workload — PCIe
//! utilization, GPU utilization, CPU utilization, DDR footprint, HBM2
//! footprint, FLOP throughput, memory throughput, epochs — and plots all
//! thirteen workloads in the PC1-PC2 and PC3-PC4 planes. Key published
//! findings, each checked here:
//!
//! * MLPerf and (DAWNBench ∪ DeepBench) form separated clusters on PC1;
//! * PC1 is dominated by GPU memory footprint;
//! * PC1–PC4 cover ~88 % of the variance;
//! * no two MLPerf benchmarks sit close together (intra-suite diversity).

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{Ctx, Decl};
use crate::workloads::{DeepBenchId, WorkloadRun, WorkloadSpec};
use mlperf_analysis::pca::Pca;
use mlperf_hw::systems::SystemId;
use mlperf_sim::SimError;
use mlperf_telemetry::{WorkloadCharacteristics, FEATURE_NAMES};

/// The PCA input matrix, the fitted PCA and every workload's projection.
#[derive(Debug, Clone)]
pub struct Figure1 {
    /// Each workload's eight characteristics, in projection order.
    pub features: Vec<WorkloadCharacteristics>,
    /// The fitted model.
    pub pca: Pca,
    /// `(name, suite, PC1..PC4 projection)` per workload.
    pub projections: Vec<(String, String, Vec<f64>)>,
}

impl Figure1 {
    /// Cumulative variance of PC1..PC4.
    pub fn variance_pc1_to_pc4(&self) -> f64 {
        self.pca.cumulative_variance(4.min(self.pca.n_features()))
    }

    /// The dominant metric (feature name) of a component.
    pub fn dominant_metric(&self, pc: usize) -> &'static str {
        FEATURE_NAMES[self.pca.dominant_feature(pc)]
    }

    /// Mean PC1 coordinate of one suite's workloads.
    pub fn suite_mean_pc1(&self, suite: &str) -> f64 {
        let coords: Vec<f64> = self
            .projections
            .iter()
            .filter(|(_, s, _)| s == suite)
            .map(|(_, _, p)| p[0])
            .collect();
        assert!(!coords.is_empty(), "no workloads in suite {suite}");
        coords.iter().sum::<f64>() / coords.len() as f64
    }
}

/// Collect the 13 workloads' characteristics on the C4140 (K), each at its
/// study configuration (quad-GPU for the scalable MLPerf suite and the
/// all-reduce benchmark, single-GPU for the DAWNBench submissions and the
/// DeepBench kernel loops — the same shapes Table V measures), through a
/// shared executor context, so the quad-GPU points are computed once
/// across Figure 1 and Table V.
fn collect_runs_ctx(ctx: &Ctx) -> Result<Vec<WorkloadRun>, SimError> {
    let system = SystemId::C4140K;
    let mut runs = Vec::new();
    for id in BenchmarkId::MLPERF {
        runs.push(ctx.workload(WorkloadSpec::Trainable(id), system, 4)?);
    }
    runs.push(ctx.workload(WorkloadSpec::Trainable(BenchmarkId::DawnRes18Py), system, 1)?);
    runs.push(ctx.workload(WorkloadSpec::Trainable(BenchmarkId::DawnDrqaPy), system, 1)?);
    for id in [DeepBenchId::GemmCu, DeepBenchId::ConvCu, DeepBenchId::RnnCu] {
        runs.push(ctx.workload(WorkloadSpec::DeepBench(id), system, 1)?);
    }
    runs.push(ctx.workload(WorkloadSpec::DeepBench(DeepBenchId::RedCu), system, 4)?);
    Ok(runs)
}

/// Run the Figure 1 experiment through a shared executor context.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_ctx(ctx: &Ctx) -> Result<Figure1, SimError> {
    let features: Vec<WorkloadCharacteristics> = collect_runs_ctx(ctx)?
        .iter()
        .map(WorkloadRun::characteristics)
        .collect();
    let rows: Vec<Vec<f64>> = features.iter().map(|c| c.features.to_vec()).collect();
    let pca = Pca::fit(&rows);
    let projections = features
        .iter()
        .zip(&rows)
        .map(|(c, row)| {
            (
                c.name.clone(),
                c.suite.clone(),
                pca.project(row, 4.min(pca.n_features())),
            )
        })
        .collect();
    Ok(Figure1 {
        features,
        pca,
        projections,
    })
}

/// Render the projections and variance summary.
pub fn render(f: &Figure1) -> String {
    let mut t = Table::new(
        "Figure 1: Workload-space PCA projections",
        ["Workload", "Suite", "PC1", "PC2", "PC3", "PC4"],
    );
    for (name, suite, p) in &f.projections {
        t.add_row([
            name.clone(),
            suite.clone(),
            format!("{:+.2}", p[0]),
            format!("{:+.2}", p[1]),
            format!("{:+.2}", p[2]),
            format!("{:+.2}", p[3]),
        ]);
    }
    let ratios = f.pca.explained_variance_ratio();
    format!(
        "{t}PC1-PC4 cumulative variance: {:.0}% (paper: 88%)\n\
         Dominant metrics: PC1={}, PC2={}, PC3={}, PC4={}\n\
         Variance by component: {}\n",
        f.variance_pc1_to_pc4() * 100.0,
        f.dominant_metric(0),
        f.dominant_metric(1),
        f.dominant_metric(2),
        f.dominant_metric(3),
        ratios
            .iter()
            .take(4)
            .enumerate()
            .map(|(i, r)| format!("PC{}={:.0}%", i + 1, r * 100.0))
            .collect::<Vec<_>>()
            .join(" "),
    )
}

/// Figure 1 as the executor schedules it.
pub static EXP: Decl<Figure1> = Decl {
    id: "figure1",
    title: "Figure 1: PCA of the workload space",
    deps: &[],
    spec: None,
    run: run_ctx,
    render,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_workloads_projected() {
        let f = run_ctx(&Ctx::new()).unwrap();
        assert_eq!(f.projections.len(), 13);
    }

    #[test]
    fn pc1_to_pc4_cover_most_variance() {
        // Paper: 88%.
        let f = run_ctx(&Ctx::new()).unwrap();
        let v = f.variance_pc1_to_pc4();
        assert!(v > 0.75, "PC1-4 cover only {:.0}%", v * 100.0);
    }

    #[test]
    fn mlperf_separates_from_deepbench_on_pc1() {
        // Fig. 1a: "two isolated clusters sitting in two sides".
        let f = run_ctx(&Ctx::new()).unwrap();
        let mlperf = f.suite_mean_pc1("MLPerf");
        let deepbench = f.suite_mean_pc1("DeepBench");
        assert!(
            (mlperf - deepbench).abs() > 1.0,
            "PC1 means: MLPerf {mlperf:.2} vs DeepBench {deepbench:.2}"
        );
        // At least 5 of 7 MLPerf workloads sit on their cluster's side of
        // the midpoint (Fig. 1a shows clusters "with outliers labeled" —
        // NCF's small footprints put it near the kernel suites).
        let mid = (mlperf + deepbench) / 2.0;
        let sign = (mlperf - mid).signum();
        let on_side = f
            .projections
            .iter()
            .filter(|(_, s, p)| s == "MLPerf" && (p[0] - mid).signum() == sign)
            .count();
        assert!(
            on_side >= 5,
            "only {on_side} / 7 MLPerf points on cluster side"
        );
    }

    #[test]
    fn pc1_is_dominated_by_a_memory_footprint() {
        // Paper: "PC1 is dominated by GPU memory footprint".
        let f = run_ctx(&Ctx::new()).unwrap();
        let dom = f.dominant_metric(0);
        assert!(
            dom.contains("footprint"),
            "PC1 dominated by {dom}, expected a footprint metric"
        );
    }

    #[test]
    fn no_two_mlperf_benchmarks_coincide() {
        // §IV-A: "there are no two MLPerf benchmarks that are very close".
        let f = run_ctx(&Ctx::new()).unwrap();
        let mlperf: Vec<&Vec<f64>> = f
            .projections
            .iter()
            .filter(|(_, s, _)| s == "MLPerf")
            .map(|(_, _, p)| p)
            .collect();
        for (i, a) in mlperf.iter().enumerate() {
            for b in &mlperf[i + 1..] {
                let d2: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
                assert!(d2.sqrt() > 0.2, "two MLPerf points nearly coincide");
            }
        }
    }

    #[test]
    fn render_reports_variance_and_dominants() {
        let f = run_ctx(&Ctx::new()).unwrap();
        let s = render(&f);
        assert!(s.contains("cumulative variance"));
        assert!(s.contains("Dominant metrics"));
    }
}
