//! Table IV: training time and scaling efficiency.
//!
//! For the six Table IV benchmarks, measure training time on the single-P100
//! reference machine and on 1/2/4/8 V100s of the DSS 8440, then derive the
//! P-to-V and 1-to-N speedups. Paper values are embedded for the
//! side-by-side comparison EXPERIMENTS.md records.

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{csv_header, CsvFile, Ctx, Decl, TrainPoint};
use mlperf_analysis::scaling::{amdahl_serial_fraction, ScalingRow};
use mlperf_hw::systems::SystemId;
use mlperf_sim::SimError;

/// The paper's published Table IV numbers for comparison:
/// (benchmark, P100 min, 1xV100 min, 1→2, 1→4, 1→8 speedups).
pub const PAPER_TABLE_IV: [(BenchmarkId, f64, f64, f64, f64, f64); 6] = [
    (BenchmarkId::MlpfRes50Tf, 8831.3, 1016.9, 1.92, 3.84, 7.04),
    (BenchmarkId::MlpfRes50Mx, 8831.1, 957.0, 1.92, 3.76, 5.92),
    (BenchmarkId::MlpfSsdPy, 827.7, 206.1, 1.94, 3.72, 7.28),
    (BenchmarkId::MlpfMrcnnPy, 4999.5, 1840.4, 1.76, 2.64, 5.60),
    (BenchmarkId::MlpfXfmrPy, 1869.8, 636.0, 1.42, 2.92, 5.60),
    (BenchmarkId::MlpfNcfPy, 46.7, 2.2, 1.88, 2.16, 2.32),
];

/// The simulated Table IV: one [`ScalingRow`] per benchmark, plus the
/// GNMT prediction the paper omitted.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Measured rows, in Table IV order.
    pub rows: Vec<ScalingRow>,
    /// Extension: the GNMT row Table IV omits, predicted by the simulator.
    pub gnmt: ScalingRow,
}

/// Run the Table IV experiment through a shared executor context.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_ctx(ctx: &Ctx) -> Result<Table4, SimError> {
    let mut rows = Vec::new();
    for id in BenchmarkId::TABLE_IV {
        rows.push(scaling_row(ctx, id)?);
    }
    // The paper measured GNMT elsewhere (Table V, Fig. 5) but published no
    // scaling row for it; fill the gap with the calibrated model.
    let gnmt = scaling_row(ctx, BenchmarkId::MlpfGnmtPy)?;
    Ok(Table4 { rows, gnmt })
}

fn scaling_row(ctx: &Ctx, id: BenchmarkId) -> Result<ScalingRow, SimError> {
    // The P100 anchor is the FP32 reference implementation (§III-B:
    // "MLPerf's reference machine which has an NVIDIA Tesla P100").
    let p100_min = ctx
        .outcome(&TrainPoint::reference(id, SystemId::ReferenceP100, 1))?
        .total_time
        .as_minutes();
    let mut v100 = Vec::new();
    for n in [1u32, 2, 4, 8] {
        let t = ctx
            .outcome(&TrainPoint::new(id, SystemId::Dss8440, n))?
            .total_time
            .as_minutes();
        v100.push((n as u64, t));
    }
    Ok(ScalingRow::new(id.abbreviation(), p100_min, v100))
}

/// Render the simulated table with the paper's numbers interleaved.
pub fn render(t: &Table4) -> String {
    let mut table = Table::new(
        "Table IV: Scaling efficiency (simulated vs paper; Amdahl column is an extension)",
        [
            "Benchmark",
            "source",
            "1xP100 (min)",
            "1xV100 (min)",
            "P-to-V",
            "1-to-2",
            "1-to-4",
            "1-to-8",
            "Amdahl s",
        ],
    );
    for (row, paper) in t.rows.iter().zip(PAPER_TABLE_IV) {
        table.add_row([
            row.name().to_string(),
            "sim".into(),
            format!("{:.1}", row.p100_minutes()),
            format!("{:.1}", row.v100_minutes(1).expect("anchor present")),
            format!("{:.2}x", row.p_to_v_speedup()),
            format!("{:.2}x", row.speedup(2).expect("2-GPU run present")),
            format!("{:.2}x", row.speedup(4).expect("4-GPU run present")),
            format!("{:.2}x", row.speedup(8).expect("8-GPU run present")),
            format!("{:.3}", amdahl_serial_fraction(row)),
        ]);
        let (_, p100, v100, s2, s4, s8) = paper;
        table.add_row([
            String::new(),
            "paper".into(),
            format!("{p100:.1}"),
            format!("{v100:.1}"),
            format!("{:.2}x", p100 / v100),
            format!("{s2:.2}x"),
            format!("{s4:.2}x"),
            format!("{s8:.2}x"),
            String::new(),
        ]);
    }
    let gnmt = &t.gnmt;
    table.add_row([
        gnmt.name().to_string(),
        "sim (prediction; row absent from the paper)".into(),
        format!("{:.1}", gnmt.p100_minutes()),
        format!("{:.1}", gnmt.v100_minutes(1).expect("anchor measured")),
        format!("{:.2}x", gnmt.p_to_v_speedup()),
        format!("{:.2}x", gnmt.speedup(2).expect("measured")),
        format!("{:.2}x", gnmt.speedup(4).expect("measured")),
        format!("{:.2}x", gnmt.speedup(8).expect("measured")),
        format!("{:.3}", amdahl_serial_fraction(gnmt)),
    ]);
    table.to_string()
}

/// One row per measured benchmark.
fn scaling_rows(t: &Table4, csv: &mut Table) {
    for row in &t.rows {
        csv.add_row([
            row.name().to_string(),
            format!("{:.2}", row.p100_minutes()),
            format!("{:.2}", row.v100_minutes(1).expect("anchor measured")),
            format!("{:.4}", row.speedup(2).expect("measured")),
            format!("{:.4}", row.speedup(4).expect("measured")),
            format!("{:.4}", row.speedup(8).expect("measured")),
        ]);
    }
}

/// Table IV as the executor schedules it.
pub static EXP: Decl<Table4> = Decl {
    id: "table4",
    title: "Table IV: training time and scaling efficiency",
    deps: &[],
    spec: None,
    run: run_ctx,
    render,
    csv: &[CsvFile {
        file: "table4_scaling.csv",
        header: || csv_header("benchmark,p100_min,v100_1_min,speedup_2,speedup_4,speedup_8"),
        rows: scaling_rows,
    }],
};

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_analysis::scaling::{classify, ScalingClass};

    #[test]
    fn table_runs_for_all_six_benchmarks() {
        let t = run_ctx(&Ctx::new()).unwrap();
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows {
            assert!(row.p100_minutes() > 0.0);
            assert!(
                row.p_to_v_speedup() > 1.0,
                "{}: V100 must beat P100",
                row.name()
            );
        }
    }

    #[test]
    fn scaling_shape_matches_paper() {
        let t = run_ctx(&Ctx::new()).unwrap();
        let by_name = |n: &str| {
            t.rows
                .iter()
                .find(|r| r.name() == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        // Image classification and SSD scale well; NCF saturates (§IV-D).
        assert_eq!(classify(by_name("MLPf_Res50_TF")), ScalingClass::Good);
        assert_eq!(classify(by_name("MLPf_SSD_Py")), ScalingClass::Good);
        assert_eq!(classify(by_name("MLPf_NCF_Py")), ScalingClass::Poor);
        // NCF's 8-GPU speedup stays below 3x.
        assert!(by_name("MLPf_NCF_Py").speedup(8).unwrap() < 3.0);
    }

    #[test]
    fn render_interleaves_paper_rows() {
        let t = run_ctx(&Ctx::new()).unwrap();
        let s = render(&t);
        assert!(s.contains("sim"));
        assert!(s.contains("paper"));
        assert!(s.contains("MLPf_NCF_Py"));
    }
}
