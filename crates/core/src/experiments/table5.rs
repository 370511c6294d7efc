//! Table V: system resource-usage statistics on the C4140 (K).
//!
//! The published table samples CPU/GPU utilization, DRAM/HBM footprints,
//! and PCIe/NVLink traffic for every workload at 1, 2, and 4 GPUs (where
//! the workload scales). Row labels per suite follow the reconstruction
//! documented in DESIGN.md: MLPerf rows are Res50_TF, Res50_MX, SSD, MRCNN,
//! XFMR, GNMT, NCF; DAWNBench rows are Res18 and DrQA (single-GPU);
//! DeepBench rows are GEMM, Conv, RNN (single-GPU) and Red (1/2/4).

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{Ctx, Decl};
use crate::workloads::{DeepBenchId, WorkloadRun, WorkloadSpec};
use mlperf_hw::systems::SystemId;
use mlperf_sim::SimError;

/// The complete Table V measurement set.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// All runs, in table row order.
    pub runs: Vec<WorkloadRun>,
}

/// GPU counts measured for each multi-GPU workload.
const GPU_COUNTS: [u32; 3] = [1, 2, 4];

/// Run the Table V experiment through a shared executor context.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_ctx(ctx: &Ctx) -> Result<Table5, SimError> {
    let system = SystemId::C4140K;
    let mut runs = Vec::new();

    for id in BenchmarkId::MLPERF {
        for n in GPU_COUNTS {
            runs.push(ctx.workload(WorkloadSpec::Trainable(id), system, n)?);
        }
    }
    // DAWNBench entries are single-GPU submissions.
    runs.push(ctx.workload(WorkloadSpec::Trainable(BenchmarkId::DawnRes18Py), system, 1)?);
    runs.push(ctx.workload(WorkloadSpec::Trainable(BenchmarkId::DawnDrqaPy), system, 1)?);

    for id in [DeepBenchId::GemmCu, DeepBenchId::ConvCu, DeepBenchId::RnnCu] {
        runs.push(ctx.workload(WorkloadSpec::DeepBench(id), system, 1)?);
    }
    for n in GPU_COUNTS {
        runs.push(ctx.workload(WorkloadSpec::DeepBench(DeepBenchId::RedCu), system, n)?);
    }
    Ok(Table5 { runs })
}

/// Render the table in the paper's column layout.
pub fn render(t: &Table5) -> String {
    let mut table = Table::new(
        "Table V: System resource usage statistics on C4140 (K) [simulated]",
        [
            "Workload",
            "#GPU",
            "CPU %",
            "GPU %",
            "DRAM MB",
            "HBM MB",
            "PCIe Mbps",
            "NVLink Mbps",
        ],
    );
    for run in &t.runs {
        table.add_row([
            run.name.clone(),
            run.n_gpus.to_string(),
            format!("{:.2}", run.usage.cpu_util_pct),
            format!("{:.2}", run.usage.gpu_util_pct),
            format!("{:.0}", run.usage.dram_mb),
            format!("{:.0}", run.usage.hbm_mb),
            format!("{:.0}", run.usage.pcie_mbps),
            format!("{:.0}", run.usage.nvlink_mbps),
        ]);
    }
    table.to_string()
}

/// Table V as the executor schedules it.
pub static EXP: Decl<Table5> = Decl {
    id: "table5",
    title: "Table V: system resource usage on the C4140 (K)",
    deps: &[],
    spec: None,
    run: run_ctx,
    render,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(t: &'a Table5, name: &str, n: u64) -> &'a WorkloadRun {
        t.runs
            .iter()
            .find(|r| r.name == name && r.n_gpus == n)
            .unwrap_or_else(|| panic!("{name} @ {n} missing"))
    }

    #[test]
    fn row_count_matches_published_layout() {
        let t = run_ctx(&Ctx::new()).unwrap();
        // 7 MLPerf x 3 + 2 DAWNBench + 3 DeepBench compute + 3 Red.
        assert_eq!(t.runs.len(), 7 * 3 + 2 + 3 + 3);
    }

    #[test]
    fn cpu_util_roughly_doubles_with_gpus() {
        // §V-A: "as we double the number of GPUs ... CPU utilization
        // roughly doubles", for every MLPerf submission.
        let t = run_ctx(&Ctx::new()).unwrap();
        for id in BenchmarkId::MLPERF {
            let name = id.abbreviation();
            let u1 = find(&t, name, 1).usage.cpu_util_pct;
            let u2 = find(&t, name, 2).usage.cpu_util_pct;
            let u4 = find(&t, name, 4).usage.cpu_util_pct;
            // The paper's own ratios range ~1.5x (Res50_TF) to ~3.2x
            // (NCF, whose NCCL polling threads make it super-linear).
            assert!(u2 / u1 > 1.3 && u2 / u1 < 4.2, "{name}: {u1} -> {u2}");
            assert!(u4 / u2 > 1.3 && u4 / u2 < 4.2, "{name}: {u2} -> {u4}");
        }
    }

    #[test]
    fn cpu_util_ordering_matches_section_v_a() {
        let t = run_ctx(&Ctx::new()).unwrap();
        let u = |n: &str| find(&t, n, 1).usage.cpu_util_pct;
        // Res50_TF highest, then Res50_MX; NCF lowest among MLPerf.
        assert!(u("MLPf_Res50_TF") > u("MLPf_Res50_MX"));
        assert!(u("MLPf_Res50_MX") > u("MLPf_NCF_Py"));
        for id in BenchmarkId::MLPERF {
            if id != BenchmarkId::MlpfNcfPy {
                assert!(u(id.abbreviation()) >= u("MLPf_NCF_Py"), "{id} below NCF");
            }
        }
        // DrQA has the highest CPU usage of every workload in the table.
        let drqa = find(&t, "Dawn_DrQA_Py", 1).usage.cpu_util_pct;
        for r in &t.runs {
            if r.name != "Dawn_DrQA_Py" {
                assert!(drqa > r.usage.cpu_util_pct, "{} >= DrQA", r.name);
            }
        }
    }

    #[test]
    fn drqa_has_lowest_gpu_utilization() {
        // §V-A: DrQA shows ~20% GPU utilization, least of all workloads.
        let t = run_ctx(&Ctx::new()).unwrap();
        let drqa = find(&t, "Dawn_DrQA_Py", 1);
        assert!(
            drqa.usage.gpu_util_pct < 45.0,
            "{}",
            drqa.usage.gpu_util_pct
        );
        for r in &t.runs {
            if r.n_gpus == 1 && r.name != "Dawn_DrQA_Py" {
                assert!(
                    r.usage.gpu_util_pct > drqa.usage.gpu_util_pct,
                    "{} below DrQA",
                    r.name
                );
            }
        }
    }

    #[test]
    fn footprints_grow_with_gpu_count() {
        // §V-C: system memory footprint roughly doubles with GPU count;
        // HBM footprint is the sum over GPUs.
        let t = run_ctx(&Ctx::new()).unwrap();
        for id in BenchmarkId::MLPERF {
            let name = id.abbreviation();
            let f1 = find(&t, name, 1).usage;
            let f4 = find(&t, name, 4).usage;
            assert!(f4.dram_mb > f1.dram_mb, "{name} DRAM");
            assert!(f4.hbm_mb > 3.0 * f1.hbm_mb, "{name} HBM");
        }
    }

    #[test]
    fn nvlink_appears_only_at_multi_gpu() {
        let t = run_ctx(&Ctx::new()).unwrap();
        for r in &t.runs {
            if r.n_gpus == 1 {
                assert_eq!(r.usage.nvlink_mbps, 0.0, "{}", r.name);
            }
        }
        for id in BenchmarkId::MLPERF {
            let r4 = find(&t, id.abbreviation(), 4);
            assert!(r4.usage.nvlink_mbps > 0.0, "{}", r4.name);
        }
    }

    #[test]
    fn red_cu_has_the_highest_nvlink_rate() {
        // §V-D: Deep_Red_Cu uses the highest NVLink bandwidth.
        let t = run_ctx(&Ctx::new()).unwrap();
        let red = find(&t, "Deep_Red_Cu", 4).usage.nvlink_mbps;
        for r in &t.runs {
            if r.name != "Deep_Red_Cu" {
                assert!(red > r.usage.nvlink_mbps, "{} >= Red_Cu", r.name);
            }
        }
    }

    #[test]
    fn ncf_per_gpu_utilization_drops_at_four_gpus() {
        // §V-B: NCF shows decreasing individual GPU usage at 4 GPUs.
        let t = run_ctx(&Ctx::new()).unwrap();
        let per_gpu = |n: u64| find(&t, "MLPf_NCF_Py", n).usage.gpu_util_pct / n as f64;
        assert!(per_gpu(4) < per_gpu(2));
    }

    #[test]
    fn render_contains_all_rows() {
        let t = run_ctx(&Ctx::new()).unwrap();
        let s = render(&t);
        assert!(s.contains("Deep_Red_Cu"));
        assert!(s.contains("Dawn_DrQA_Py"));
        assert!(s.contains("MLPf_GNMT_Py"));
    }
}
