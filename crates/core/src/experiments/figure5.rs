//! Figure 5: training time across five 4-GPU interconnect topologies.
//!
//! §V-E trains every MLPerf benchmark on the five 4-GPU platforms of Table
//! III. Expected ordering: the NVLink systems (C4140 M/K) fastest, the
//! PCIe-switch C4140 (B) next (parity on image classification), and the
//! CPU-attached T640 / R940 XA slowest; NVLink-vs-worst improvements range
//! from ~11 % (ResNet) to ~42 % (Transformer).

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{CsvFile, Ctx, Decl, TrainPoint};
use mlperf_hw::systems::SystemId;
use mlperf_sim::SimError;

/// One benchmark's times across the five platforms (minutes), in
/// [`SystemId::FOUR_GPU_PLATFORMS`] order.
#[derive(Debug, Clone)]
pub struct TopologyRow {
    /// The benchmark.
    pub id: BenchmarkId,
    /// Training minutes per platform.
    pub minutes: Vec<(SystemId, f64)>,
}

impl TopologyRow {
    /// Training minutes on one platform.
    pub fn on(&self, system: SystemId) -> f64 {
        self.minutes
            .iter()
            .find(|(s, _)| *s == system)
            .map(|(_, m)| *m)
            .expect("all five platforms measured")
    }

    /// Best-NVLink vs worst-platform improvement, as a fraction.
    pub fn nvlink_improvement(&self) -> f64 {
        let nvlink = self.on(SystemId::C4140M).min(self.on(SystemId::C4140K));
        let worst = self.minutes.iter().map(|(_, m)| *m).fold(0.0f64, f64::max);
        1.0 - nvlink / worst
    }
}

/// The full Figure 5 result.
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// One row per MLPerf benchmark.
    pub rows: Vec<TopologyRow>,
}

/// Run the Figure 5 experiment through a shared executor context.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_ctx(ctx: &Ctx) -> Result<Figure5, SimError> {
    let mut rows = Vec::new();
    for id in BenchmarkId::MLPERF {
        let mut minutes = Vec::new();
        for system_id in SystemId::FOUR_GPU_PLATFORMS {
            let outcome = ctx.outcome(&TrainPoint::new(id, system_id, 4))?;
            minutes.push((system_id, outcome.total_time.as_minutes()));
        }
        rows.push(TopologyRow { id, minutes });
    }
    Ok(Figure5 { rows })
}

/// Render the grouped bars as a table.
pub fn render(f: &Figure5) -> String {
    let mut headers = vec!["Benchmark".to_string()];
    headers.extend(
        SystemId::FOUR_GPU_PLATFORMS
            .iter()
            .map(|s| s.name().to_string()),
    );
    headers.push("NVLink gain".to_string());
    let mut t = Table::new(
        "Figure 5: Training time on 4-GPU systems, minutes (NCF in seconds)",
        headers,
    );
    for row in &f.rows {
        let mut cells = vec![row.id.abbreviation().to_string()];
        for system_id in SystemId::FOUR_GPU_PLATFORMS {
            let m = row.on(system_id);
            if row.id == BenchmarkId::MlpfNcfPy {
                cells.push(format!("{:.1} s", m * 60.0));
            } else {
                cells.push(format!("{m:.1}"));
            }
        }
        cells.push(format!("{:.0}%", row.nvlink_improvement() * 100.0));
        t.add_row(cells);
    }
    t.to_string()
}

/// The minutes matrix's header: one column per platform, its name with
/// underscores for spaces.
fn topology_header() -> Table {
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(
        SystemId::FOUR_GPU_PLATFORMS
            .iter()
            .map(|s| s.name().replace(' ', "_")),
    );
    Table::new("", headers)
}

fn topology_rows(f: &Figure5, csv: &mut Table) {
    for row in &f.rows {
        let mut cells = vec![row.id.abbreviation().to_string()];
        for sys in SystemId::FOUR_GPU_PLATFORMS {
            cells.push(format!("{:.2}", row.on(sys)));
        }
        csv.add_row(cells);
    }
}

/// Figure 5 as the executor schedules it.
pub static EXP: Decl<Figure5> = Decl {
    id: "figure5",
    title: "Figure 5: training time across interconnect topologies",
    deps: &[],
    spec: None,
    run: run_ctx,
    render,
    csv: &[CsvFile {
        file: "figure5_topology.csv",
        header: topology_header,
        rows: topology_rows,
    }],
};

#[cfg(test)]
mod tests {
    use super::*;

    fn by_id(f: &Figure5, id: BenchmarkId) -> &TopologyRow {
        f.rows.iter().find(|r| r.id == id).expect("row present")
    }

    #[test]
    fn nvlink_systems_are_fastest_for_every_benchmark() {
        let f = run_ctx(&Ctx::new()).unwrap();
        for row in &f.rows {
            let nvlink_best = row.on(SystemId::C4140M).min(row.on(SystemId::C4140K));
            for slower in [SystemId::T640, SystemId::R940Xa] {
                assert!(
                    nvlink_best <= row.on(slower) * 1.001,
                    "{}: NVLink {} vs {} {}",
                    row.id,
                    nvlink_best,
                    slower,
                    row.on(slower)
                );
            }
        }
    }

    #[test]
    fn switch_platform_beats_cpu_attached_platforms() {
        let f = run_ctx(&Ctx::new()).unwrap();
        for row in &f.rows {
            let b = row.on(SystemId::C4140B);
            let worst_cpu = row.on(SystemId::T640).max(row.on(SystemId::R940Xa));
            assert!(
                b <= worst_cpu * 1.001,
                "{}: B {} vs worst {}",
                row.id,
                b,
                worst_cpu
            );
        }
    }

    #[test]
    fn image_classification_shows_platform_parity() {
        // §V-E: C4140 (B) shows "performance parity to the NVLink platform
        // for the Image Classification benchmarks". The residual K-vs-B
        // gap is the SXM2-vs-PCIe clock difference, not topology, so we
        // compare B against the *PCIe-GPU* platforms: for image
        // classification B ties T640 (within 1%) while for translation it
        // beats it clearly.
        let f = run_ctx(&Ctx::new()).unwrap();
        for id in [BenchmarkId::MlpfRes50Tf, BenchmarkId::MlpfRes50Mx] {
            let row = by_id(&f, id);
            let switch = row.on(SystemId::C4140B);
            let t640 = row.on(SystemId::T640);
            let nvlink = row.on(SystemId::C4140K);
            assert!(
                switch < t640,
                "{id}: switch should beat the CPU-attached T640"
            );
            // B sits within ~12% of the SXM2 NVLink machine — the residual
            // is clocks, i.e. topology parity.
            assert!(
                switch / nvlink < 1.12,
                "{id}: switch {switch:.0} vs NVLink {nvlink:.0}"
            );
        }
        let xfmr = by_id(&f, BenchmarkId::MlpfXfmrPy);
        assert!(
            xfmr.on(SystemId::T640) > 1.2 * xfmr.on(SystemId::C4140B),
            "XFMR should pay heavily for the non-P2P topology"
        );
    }

    #[test]
    fn translation_benefits_most_from_nvlink() {
        // Paper: 42% (XFMR) and 30% (MRCNN) vs 11% (image classification).
        let f = run_ctx(&Ctx::new()).unwrap();
        let xfmr = by_id(&f, BenchmarkId::MlpfXfmrPy).nvlink_improvement();
        let res50 = by_id(&f, BenchmarkId::MlpfRes50Tf).nvlink_improvement();
        assert!(xfmr > 0.20, "XFMR improvement {xfmr}");
        assert!(res50 < 0.20, "Res50 improvement {res50}");
        assert!(xfmr > 2.0 * res50, "XFMR {xfmr} vs Res50 {res50}");
    }

    #[test]
    fn render_mentions_all_platforms() {
        let f = run_ctx(&Ctx::new()).unwrap();
        let s = render(&f);
        for id in SystemId::FOUR_GPU_PLATFORMS {
            assert!(s.contains(id.name()), "{id}");
        }
    }
}
