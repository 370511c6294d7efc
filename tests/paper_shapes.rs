//! The headline paper-shape assertions, end to end: who wins, by roughly
//! what factor, and where the crossovers fall. EXPERIMENTS.md records the
//! cell-by-cell numbers; these tests pin the shapes that must not regress.

use mlperf_analysis::scaling::{classify, ScalingClass};
use mlperf_suite::experiments::{figure3, figure5, table4};
use mlperf_suite::{BenchmarkId, Ctx};

/// Table IV anchors: simulated single-GPU training times stay within 10 %
/// of the published measurements they were calibrated to.
#[test]
fn table_iv_anchors_hold() {
    let t = table4::run_ctx(&Ctx::new()).expect("table runs");
    for ((id, p100, v100, ..), row) in table4::PAPER_TABLE_IV.iter().zip(&t.rows) {
        assert_eq!(id.abbreviation(), row.name());
        let sim_v100 = row.v100_minutes(1).expect("anchor measured");
        assert!(
            (sim_v100 - v100).abs() / v100 < 0.10,
            "{id}: V100 {sim_v100:.0} vs paper {v100:.0} min"
        );
        let sim_p100 = row.p100_minutes();
        assert!(
            (sim_p100 - p100).abs() / p100 < 0.12,
            "{id}: P100 {sim_p100:.0} vs paper {p100:.0} min"
        );
    }
}

/// Table IV speedup columns: every simulated factor within 25 % relative of
/// the paper's (the derived quantities, not the calibrated ones).
#[test]
fn table_iv_scaling_factors_track_paper() {
    let t = table4::run_ctx(&Ctx::new()).expect("table runs");
    for ((id, _, _, s2, s4, s8), row) in table4::PAPER_TABLE_IV.iter().zip(&t.rows) {
        for (n, paper) in [(2u64, s2), (4, s4), (8, s8)] {
            // Known deviation: the paper's XFMR 1-to-2 factor (1.42x) is
            // anomalous — its own 1-to-4/1-to-8 columns imply near-constant
            // per-doubling efficiency that no single mechanism reproduces.
            // See EXPERIMENTS.md.
            let tolerance = if *id == BenchmarkId::MlpfXfmrPy && n == 2 {
                0.35
            } else {
                0.25
            };
            let sim = row.speedup(n).expect("measured");
            assert!(
                (sim - paper).abs() / paper < tolerance,
                "{id} 1-to-{n}: sim {sim:.2} vs paper {paper:.2}"
            );
        }
    }
}

/// The scaling-class narrative: image classification and SSD scale well,
/// detection/translation are medium, NCF saturates.
#[test]
fn scaling_classes_match_narrative() {
    let t = table4::run_ctx(&Ctx::new()).expect("table runs");
    let class = |name: &str| {
        classify(
            t.rows
                .iter()
                .find(|r| r.name() == name)
                .unwrap_or_else(|| panic!("{name} missing")),
        )
    };
    assert_eq!(class("MLPf_Res50_TF"), ScalingClass::Good);
    assert_eq!(class("MLPf_SSD_Py"), ScalingClass::Good);
    assert_eq!(class("MLPf_MRCNN_Py"), ScalingClass::Medium);
    assert_eq!(class("MLPf_XFMR_Py"), ScalingClass::Medium);
    assert_eq!(class("MLPf_NCF_Py"), ScalingClass::Poor);
}

/// P-to-V ordering: the generational speedup is smallest for the
/// heavy-weight detector and largest for NCF, with image classification in
/// the 8-10x band (Table IV).
#[test]
fn p_to_v_ordering_holds() {
    let t = table4::run_ctx(&Ctx::new()).expect("table runs");
    let p2v = |name: &str| {
        t.rows
            .iter()
            .find(|r| r.name() == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .p_to_v_speedup()
    };
    let mrcnn = p2v("MLPf_MRCNN_Py");
    let res50 = p2v("MLPf_Res50_TF");
    let ncf = p2v("MLPf_NCF_Py");
    assert!(
        mrcnn < res50 && res50 < ncf,
        "{mrcnn:.1} < {res50:.1} < {ncf:.1}"
    );
    assert!((8.0..11.0).contains(&res50));
    assert!(ncf > 15.0);
}

/// Figure 3 shape: AMP helps everything; image classification gains ~3x;
/// the heavy-weight detector sits at the bottom of the suite.
#[test]
fn amp_speedup_shape_holds() {
    let f = figure3::run_ctx(&Ctx::new()).expect("figure runs");
    let by_id = |id: BenchmarkId| {
        f.speedups
            .iter()
            .find(|s| s.id == id)
            .expect("present")
            .speedup()
    };
    for s in &f.speedups {
        assert!(s.speedup() > 1.2, "{}", s.id);
    }
    assert!(by_id(BenchmarkId::MlpfRes50Tf) > by_id(BenchmarkId::MlpfMrcnnPy));
    assert!(by_id(BenchmarkId::MlpfRes50Tf) > by_id(BenchmarkId::MlpfGnmtPy));
}

/// Figure 5 shape: interconnect hierarchy holds per benchmark, and the
/// NVLink benefit is much larger for translation than image classification.
#[test]
fn topology_hierarchy_holds() {
    let f = figure5::run_ctx(&Ctx::new()).expect("figure runs");
    use mlperf_hw::SystemId;
    for row in &f.rows {
        let nvlink = row.on(SystemId::C4140K).min(row.on(SystemId::C4140M));
        let switch = row.on(SystemId::C4140B);
        let worst = row.on(SystemId::T640).max(row.on(SystemId::R940Xa));
        assert!(nvlink <= switch * 1.001, "{}", row.id);
        assert!(switch <= worst * 1.001, "{}", row.id);
    }
    let imp = |id: BenchmarkId| {
        f.rows
            .iter()
            .find(|r| r.id == id)
            .expect("present")
            .nvlink_improvement()
    };
    assert!(imp(BenchmarkId::MlpfXfmrPy) > 0.30);
    assert!(imp(BenchmarkId::MlpfXfmrPy) > imp(BenchmarkId::MlpfRes50Tf) + 0.10);
}
