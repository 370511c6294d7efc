//! Extension: suite throughput under k-way device partitioning.
//!
//! MIG-style fractional slices let one V100-class device serve several
//! tenants at once; the question the study answers is what that costs.
//! Every MLPerf benchmark is priced on one GPU of the C4140 (K), whole
//! and at the packed 2-/4-/7-way slice layouts (every co-tenant busy —
//! the worst-case memory-bandwidth and L2 contention point), through the
//! [`partition_scaling`] grid. Device
//! throughput at k-way is k × the per-slice rate; the efficiency column
//! is that aggregate against the whole device. The slices pay the
//! interference model's multiplicative slowdown, so device-bound
//! workloads aggregate below 100% even though the SM and HBM shares add
//! up exactly. Host-bound workloads (NCF, whose input pipeline — not the
//! GPU — sets its step time) can aggregate *above* 100%: every tenant
//! brings its own host feed, so slicing converts idle device time into
//! useful co-tenant work. That asymmetry is the study's finding.

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{Ctx, Decl, ExperimentError};
use crate::sweep::{self, partition_scaling, CellKind};

/// Display labels of the partition axis, aligned with the grid's
/// expansion order (whole device first, then packed 2/4/7-way).
pub const LAYOUTS: [&str; 4] = ["full", "1of2x2", "1of4x4", "1of7x7"];

/// Slices per device of each layout, aligned with [`LAYOUTS`].
pub const SLICES: [u32; 4] = [1, 2, 4, 7];

/// One benchmark's per-slice throughput across the layouts.
#[derive(Debug, Clone)]
pub struct PartitionRow {
    /// The benchmark.
    pub workload: BenchmarkId,
    /// Per-slice samples/sec at each layout (aligned with [`LAYOUTS`]),
    /// or the cell's stable error token (`oom`, ...).
    pub per_slice: Vec<Result<f64, String>>,
}

impl PartitionRow {
    /// Aggregate per-device samples/sec at layout `i` (k × per-slice).
    pub fn per_device(&self, i: usize) -> Option<f64> {
        self.per_slice[i]
            .as_ref()
            .ok()
            .map(|s| s * f64::from(SLICES[i]))
    }

    /// Aggregate efficiency of layout `i` against the whole device.
    pub fn efficiency(&self, i: usize) -> Option<f64> {
        let full = self.per_slice[0].as_ref().ok()?;
        Some(self.per_device(i)? / full)
    }
}

/// The study result: one row per MLPerf benchmark.
#[derive(Debug, Clone)]
pub struct PartitionStudy {
    /// Rows in [`BenchmarkId::MLPERF`] order.
    pub rows: Vec<PartitionRow>,
}

/// Run the partition study through a shared executor context. The cells
/// are exactly the [`partition_scaling`] grid's, so a `repro sweep
/// partition_scaling` run and this experiment share their memoized
/// simulation points.
///
/// # Errors
///
/// Never fails as a whole: a cell that cannot price (an OOM'd slice)
/// degrades to its error token in the row.
pub fn run_ctx(ctx: &Ctx) -> Result<PartitionStudy, ExperimentError> {
    let grid = partition_scaling();
    let per_workload = LAYOUTS.len();
    assert_eq!(grid.len(), BenchmarkId::MLPERF.len() * per_workload);
    let mut rows = Vec::new();
    for (w, &workload) in BenchmarkId::MLPERF.iter().enumerate() {
        let mut per_slice = Vec::with_capacity(per_workload);
        for i in 0..per_workload {
            let cell = grid.cell_at(w * per_workload + i);
            debug_assert_eq!(cell.workload, Some(workload));
            let outcome = sweep::price_cell(ctx, &cell)
                .map(|v| v.get(CellKind::Training, "throughput_sps"))
                .map_err(|e| e.kind);
            per_slice.push(outcome);
        }
        rows.push(PartitionRow {
            workload,
            per_slice,
        });
    }
    Ok(PartitionStudy { rows })
}

/// Render the study table.
pub fn render(s: &PartitionStudy) -> String {
    let mut t = Table::new(
        "Partition study: per-device throughput under packed k-way slicing (C4140 K, 1 GPU)",
        [
            "Workload",
            "Full (sps)",
            "2-way (sps)",
            "2-way eff",
            "4-way (sps)",
            "4-way eff",
            "7-way (sps)",
            "7-way eff",
        ],
    );
    for row in &s.rows {
        let mut cells = vec![row.workload.abbreviation().to_string()];
        cells.push(match &row.per_slice[0] {
            Ok(v) => format!("{v:.1}"),
            Err(kind) => kind.clone(),
        });
        for i in 1..LAYOUTS.len() {
            match row.per_device(i) {
                Some(v) => {
                    cells.push(format!("{v:.1}"));
                    cells.push(
                        row.efficiency(i)
                            .map_or_else(|| "-".to_string(), |e| format!("{:.0}%", e * 100.0)),
                    );
                }
                None => {
                    let kind = row.per_slice[i].as_ref().err().cloned();
                    cells.push(kind.unwrap_or_else(|| "-".to_string()));
                    cells.push("-".to_string());
                }
            }
        }
        t.add_row(cells);
    }
    let mut out = t.to_string();
    out.push('\n');
    out
}

/// The partition study as the executor schedules it. Its rows are
/// exactly the partition-scaling grid's cells, so a grid edit invalidates
/// this section's cache.
pub static EXP: Decl<PartitionStudy, ExperimentError> = Decl {
    id: "partition_study",
    title: "Extension: suite throughput under k-way device partitioning",
    deps: &[],
    spec: Some(|| partition_scaling().canonical_bytes()),
    run: run_ctx,
    render,
    csv: &[],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_has_a_full_device_rate() {
        let s = run_ctx(&Ctx::new()).unwrap();
        assert_eq!(s.rows.len(), BenchmarkId::MLPERF.len());
        for row in &s.rows {
            assert!(
                row.per_slice[0].is_ok(),
                "{} failed whole-device",
                row.workload.abbreviation()
            );
        }
    }

    #[test]
    fn efficiency_splits_on_the_binding_resource() {
        // Device-bound workloads pay the interference tax: k slices each
        // run slower than 1/k of the device, so the aggregate lands
        // strictly under 100%. Host-bound NCF inverts: every tenant
        // brings its own input pipeline, so the aggregate beats the whole
        // device (the known MIG result for input-bound jobs) — but never
        // by more than the slice count.
        let s = run_ctx(&Ctx::new()).unwrap();
        for row in &s.rows {
            let device_bound = row.workload != BenchmarkId::MlpfNcfPy;
            for i in 1..LAYOUTS.len() {
                if let Some(eff) = row.efficiency(i) {
                    assert!(
                        eff <= f64::from(SLICES[i]) + 1e-9,
                        "{} at {} has impossible efficiency {eff}",
                        row.workload.abbreviation(),
                        LAYOUTS[i]
                    );
                    if device_bound {
                        assert!(
                            eff < 1.0 + 1e-9,
                            "{} at {} has efficiency {eff}",
                            row.workload.abbreviation(),
                            LAYOUTS[i]
                        );
                    }
                }
            }
        }
        let ncf = s
            .rows
            .iter()
            .find(|r| r.workload == BenchmarkId::MlpfNcfPy)
            .expect("NCF is in the suite");
        assert!(
            ncf.efficiency(1).is_some_and(|e| e > 1.0),
            "host-bound NCF should aggregate above the whole device"
        );
    }

    #[test]
    fn render_names_every_layout() {
        let s = run_ctx(&Ctx::new()).unwrap();
        let text = render(&s);
        for label in ["Full", "2-way", "4-way", "7-way"] {
            assert!(text.contains(label), "missing {label}");
        }
    }
}
