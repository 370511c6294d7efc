//! Table I: the paper's key insights, re-verified against the simulator.
//!
//! Each row of the published summary table is turned into a concrete check
//! over the reproduced experiments; `run_ctx` evaluates all of them and
//! reports which hold in this reproduction.

use crate::experiments::{figure1, figure2, figure3, figure4, figure5, table4};
use crate::report::Table;
use crate::runner::{Ctx, Decl};
use mlperf_analysis::roofline::Boundedness;
use mlperf_analysis::scaling::{classify, ScalingClass};
use mlperf_hw::gpu::Precision;
use mlperf_sim::SimError;

/// One verified insight.
#[derive(Debug, Clone)]
pub struct Insight {
    /// The paper's claim (condensed).
    pub claim: &'static str,
    /// Where the paper locates it.
    pub location: &'static str,
    /// Whether the reproduction confirms it.
    pub holds: bool,
    /// The measured evidence.
    pub evidence: String,
}

/// The verified insight set.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// All insights, in Table I order.
    pub insights: Vec<Insight>,
}

/// Evaluate the Table I claims over a shared executor context. Each
/// underlying artifact is taken from the context's store when the
/// executor already produced it, and recomputed (against the shared memo
/// cache, so cheaply) otherwise.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_ctx(ctx: &Ctx) -> Result<Table1, SimError> {
    let f1 = ctx.dep_or("figure1", figure1::run_ctx)?;
    let f2 = ctx.dep_or("figure2", figure2::run_ctx)?;
    let f3 = ctx.dep_or("figure3", figure3::run_ctx)?;
    let f4 = ctx.dep_or("figure4", figure4::run_ctx)?;
    let f5 = ctx.dep_or("figure5", figure5::run_ctx)?;
    let t4 = ctx.dep_or("table4", table4::run_ctx)?;

    let mut insights = Vec::new();

    // 1. Disjoint envelope: MLPerf separates from DeepBench on PC1.
    let mlperf_pc1 = f1.suite_mean_pc1("MLPerf");
    let deep_pc1 = f1.suite_mean_pc1("DeepBench");
    insights.push(Insight {
        claim: "MLPerf has a disjoint envelope from DAWNBench and DeepBench",
        location: "Figure 1a",
        holds: (mlperf_pc1 - deep_pc1).abs() > 1.0,
        evidence: format!("PC1 means: MLPerf {mlperf_pc1:+.2}, DeepBench {deep_pc1:+.2}"),
    });

    // 2. Suites occupy different roofline regions.
    let ai_mlperf = f2.suite_median_intensity("MLPerf");
    let ai_deep = f2.suite_median_intensity("DeepBench");
    let tp_mlperf = f2.suite_median_throughput("MLPerf");
    let tp_deep = f2.suite_median_throughput("DeepBench");
    insights.push(Insight {
        claim: "Suites sit in different roofline regions (Deep lowest)",
        location: "Figure 2",
        holds: ai_mlperf > ai_deep && tp_mlperf > tp_deep,
        evidence: format!(
            "median AI MLPerf {ai_mlperf:.0} vs Deep {ai_deep:.0}; \
             median TFLOP/s {:.1} vs {:.1}",
            tp_mlperf / 1e3,
            tp_deep / 1e3,
        ),
    });

    // 3. ML workloads hug the slanted (memory) roof.
    let memory_bound = f2
        .points
        .iter()
        .filter(|p| f2.roofline.classify(p, Precision::TensorCore) == Boundedness::MemoryBound)
        .count();
    insights.push(Insight {
        claim: "ML workloads are memory-bound (near the slanted roof)",
        location: "Figure 2",
        holds: memory_bound + 1 >= f2.points.len(),
        evidence: format!(
            "{memory_bound} / {} points left of the FP16 ridge",
            f2.points.len()
        ),
    });

    // 4. Mixed precision earns significant speedups.
    let min_speedup = f3
        .speedups
        .iter()
        .map(|s| s.speedup())
        .fold(f64::INFINITY, f64::min);
    let max_speedup = f3
        .speedups
        .iter()
        .map(|s| s.speedup())
        .fold(0.0f64, f64::max);
    insights.push(Insight {
        claim: "Mixed precision with Tensor Cores earns 1.5x-3.3x speedups",
        location: "Figure 3",
        holds: min_speedup > 1.2 && max_speedup > 2.5,
        evidence: format!("speedups span {min_speedup:.2}x to {max_speedup:.2}x"),
    });

    // 5. Benchmarks scale differently; smart scheduling saves hours.
    let classes: Vec<ScalingClass> = t4.rows.iter().map(classify).collect();
    let diverse = classes.contains(&ScalingClass::Good) && classes.contains(&ScalingClass::Poor);
    let savings4 = f4
        .studies
        .iter()
        .find(|s| s.gpu_count == 4)
        .expect("4-GPU study present")
        .savings_hours();
    insights.push(Insight {
        claim: "Scaling diversity lets optimal scheduling save hours (4 GPUs)",
        location: "Table IV / Figure 4",
        holds: diverse && savings4 > 1.0,
        evidence: format!("scaling classes {classes:?}; 4-GPU saving {savings4:.1} h"),
    });

    // 6. Bus utilization grows super-linearly with GPU count (checked via
    //    the NVLink counters of Table V's Red_Cu rows in their own test;
    //    here: the NVLink systems win Figure 5 for every benchmark).
    let nvlink_wins = f5.rows.iter().all(|row| {
        let nv = row
            .on(mlperf_hw::SystemId::C4140K)
            .min(row.on(mlperf_hw::SystemId::C4140M));
        nv <= row.on(mlperf_hw::SystemId::T640) * 1.001
            && nv <= row.on(mlperf_hw::SystemId::R940Xa) * 1.001
    });
    insights.push(Insight {
        claim: "NVLink < PCIe switch < CPU-attached PCIe in training time",
        location: "Figure 5 / Table III",
        holds: nvlink_wins,
        evidence: format!(
            "NVLink best on {} / {} benchmarks",
            f5.rows
                .iter()
                .filter(|row| {
                    let nv = row
                        .on(mlperf_hw::SystemId::C4140K)
                        .min(row.on(mlperf_hw::SystemId::C4140M));
                    nv <= row.on(mlperf_hw::SystemId::T640) * 1.001
                })
                .count(),
            f5.rows.len()
        ),
    });

    Ok(Table1 { insights })
}

/// Render the verified-insight table.
pub fn render(t: &Table1) -> String {
    let mut table = Table::new(
        "Table I: Key insights, re-verified on the simulator",
        ["Insight", "Location", "Holds", "Evidence"],
    );
    for i in &t.insights {
        table.add_row([
            i.claim.to_string(),
            i.location.to_string(),
            if i.holds {
                "yes".into()
            } else {
                "NO".to_string()
            },
            i.evidence.clone(),
        ]);
    }
    table.to_string()
}

/// Table I as the executor schedules it.
pub static EXP: Decl<Table1> = Decl {
    id: "table1",
    title: "Table I: key insights, re-verified",
    deps: &[
        "figure1", "figure2", "figure3", "figure4", "figure5", "table4",
    ],
    spec: None,
    run: run_ctx,
    render,
    csv: &[],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_insights_hold() {
        let t = run_ctx(&Ctx::new()).unwrap();
        assert_eq!(t.insights.len(), 6);
        for i in &t.insights {
            assert!(i.holds, "insight failed: {} ({})", i.claim, i.evidence);
        }
    }

    #[test]
    fn render_marks_confirmations() {
        let t = run_ctx(&Ctx::new()).unwrap();
        let s = render(&t);
        assert!(s.contains("yes"));
        assert!(s.contains("Figure 5"));
    }
}
