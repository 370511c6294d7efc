//! Extension: storage staging feasibility (§V-C's disk tier).
//!
//! For every MLPerf benchmark, derive the epoch wall-clock from the
//! simulator (C4140 K, 4 GPUs), subtract the framework's DRAM needs from
//! the chassis capacity to get the page-cache budget, and ask which
//! storage devices keep the run fed under sequential-shard and
//! random-record reading.

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{Ctx, Decl, TrainPoint};
use mlperf_data::storage::{ReadPattern, StagingPlan, StorageDevice};
use mlperf_hw::systems::SystemId;
use mlperf_hw::units::Seconds;
use mlperf_sim::SimError;

/// One benchmark's staging verdicts.
#[derive(Debug, Clone)]
pub struct StorageRow {
    /// The benchmark.
    pub id: BenchmarkId,
    /// Simulated epoch wall-clock.
    pub epoch: Seconds,
    /// Plans per (device, pattern) in [`CONFIGS`] order.
    pub plans: Vec<StagingPlan>,
}

/// The (device, pattern) grid assessed.
pub const CONFIGS: [(StorageDevice, ReadPattern); 4] = [
    (StorageDevice::Hdd, ReadPattern::SequentialShards),
    (StorageDevice::Hdd, ReadPattern::RandomRecords),
    (StorageDevice::SataSsd, ReadPattern::RandomRecords),
    (StorageDevice::NvmeSsd, ReadPattern::RandomRecords),
];

/// Run the study on the C4140 (K) at 4 GPUs, through a shared executor
/// context (these points are the same ones Table V and Figure 1 price).
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_ctx(ctx: &Ctx) -> Result<Vec<StorageRow>, SimError> {
    let system = SystemId::C4140K.spec();
    let mut rows = Vec::new();
    for id in BenchmarkId::MLPERF {
        let outcome = ctx.outcome(&TrainPoint::new(id, SystemId::C4140K, 4))?;
        let epoch = outcome.step.step_time.scale(outcome.steps_per_epoch as f64);
        // Page cache gets what the run itself does not pin.
        let cache = system
            .dram_capacity()
            .saturating_sub(outcome.step.dram_footprint);
        let plans = CONFIGS
            .iter()
            .map(|&(device, pattern)| StagingPlan::new(id.dataset(), cache, device, pattern, epoch))
            .collect();
        rows.push(StorageRow { id, epoch, plans });
    }
    Ok(rows)
}

/// Render the verdict grid.
pub fn render(rows: &[StorageRow]) -> String {
    let mut t = Table::new(
        "Storage staging study (C4140 K, 4 GPUs): does the device keep up?",
        [
            "Benchmark",
            "Epoch",
            "HDD seq",
            "HDD rand",
            "SATA rand",
            "NVMe rand",
        ],
    );
    for r in rows {
        let mut cells = vec![r.id.abbreviation().to_string(), format!("{}", r.epoch)];
        for p in &r.plans {
            cells.push(if p.keeps_up() {
                "ok".to_string()
            } else {
                format!("{:.0}x slow", p.slowdown())
            });
        }
        t.add_row(cells);
    }
    t.to_string()
}

/// The storage study as the executor schedules it.
pub static EXP: Decl<Vec<StorageRow>> = Decl {
    id: "storage_study",
    title: "Extension: storage staging feasibility",
    deps: &[],
    spec: None,
    run: run_ctx,
    render: |rows| render(rows),
};

#[cfg(test)]
mod tests {
    use super::*;

    fn by_id(rows: &[StorageRow], id: BenchmarkId) -> &StorageRow {
        rows.iter().find(|r| r.id == id).expect("row present")
    }

    #[test]
    fn imagenet_demands_more_than_an_hdd_at_random() {
        let rows = run_ctx(&Ctx::new()).unwrap();
        let res50 = by_id(&rows, BenchmarkId::MlpfRes50Mx);
        // HDD random-record reads cannot feed a 4-GPU ResNet-50 epoch.
        assert!(!res50.plans[1].keeps_up(), "{}", res50.plans[1]);
        // NVMe does.
        assert!(res50.plans[3].keeps_up(), "{}", res50.plans[3]);
    }

    #[test]
    fn small_datasets_never_touch_the_disk() {
        let rows = run_ctx(&Ctx::new()).unwrap();
        for id in [BenchmarkId::MlpfNcfPy, BenchmarkId::MlpfXfmrPy] {
            let row = by_id(&rows, id);
            for p in &row.plans {
                assert!(p.keeps_up(), "{id}: {p}");
                assert_eq!(p.disk_bytes_per_epoch.as_u64(), 0, "{id} fits in DRAM");
            }
        }
    }

    #[test]
    fn render_prints_verdicts() {
        let rows = run_ctx(&Ctx::new()).unwrap();
        let s = render(&rows);
        assert!(s.contains("ok"));
        assert!(s.contains("slow"));
    }
}
