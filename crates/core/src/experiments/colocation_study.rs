//! Extension: training + inference co-location on partitioned devices.
//!
//! Two questions, one device model. First, *interference*: a training
//! tenant and a latency-sensitive inference proxy (batch-1 forward/
//! backward step, the engine's smallest schedulable unit) each hold a
//! quarter slice of a C4140 (K) V100 while the number of busy co-tenants
//! grows from 1 to 4 — the per-step latency of both degrades along the
//! interference model's memory-bandwidth and L2 contention curve.
//! Second, *placement*: the seven MLPerf jobs, priced at their packed
//! half-slice rates, run through the event-driven cluster on a
//! 2-GPU × 2-slice partition layout together with a stream of short
//! inference bursts, under all five scheduling policies — widths count
//! *slots* (slices), so the policies place fractional devices without
//! any new machinery.

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{Ctx, Decl, ExperimentError};
use crate::sweep::{self, partition_scaling, CellKind, CellSpec};
use mlperf_hw::{PartitionProfile, PartitionSpec};
use mlperf_sim::cluster::{
    Cluster, ClusterJobSpec, ClusterTrace, PartitionLayout, Policy, Submission,
};

/// Training tenant's benchmark (the suite's canonical vision workload).
const TRAIN_WORKLOAD: BenchmarkId = BenchmarkId::MlpfRes50Mx;
/// Training tenant's per-GPU batch (small enough to fit a quarter slice).
const TRAIN_BATCH: u64 = 16;
/// The inference proxy's batch (single-sample step latency).
const INFER_BATCH: u64 = 1;
/// Cluster layout of the placement scenario: 2 GPUs × 2 half slices.
const LAYOUT_GPUS: u64 = 2;
const LAYOUT_SLICES: u64 = 2;
/// The inference-burst stream: short width-1 jobs arriving periodically.
const INFER_BURSTS: u64 = 6;
const INFER_BURST_MIN: f64 = 5.0;
const INFER_GAP_MIN: f64 = 15.0;

/// Step latency of the training and inference tenants at one co-tenant
/// count on the quarter-slice layout.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Busy tenants sharing the device (1 = solo).
    pub tenants: u32,
    /// Training tenant's step time, ms (or the cell's error token).
    pub train_step_ms: Result<f64, String>,
    /// Inference proxy's step time, ms (or the cell's error token).
    pub infer_step_ms: Result<f64, String>,
}

/// One policy's trace on the partitioned cluster scenario.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Policy display name.
    pub policy: &'static str,
    /// The execution trace.
    pub trace: ClusterTrace,
}

/// The study result.
#[derive(Debug, Clone)]
pub struct ColocationStudy {
    /// Interference rows at 1..=4 busy tenants.
    pub interference: Vec<TenantRow>,
    /// Five policies on the partitioned training + inference mix.
    pub policies: Vec<PolicyRow>,
    /// Workloads whose half-slice cell could not price (excluded from
    /// the placement mix), by abbreviation.
    pub skipped: Vec<&'static str>,
}

/// The quarter-slice cell of one tenant at one co-tenant count.
fn tenant_cell(batch: u64, tenants: u32) -> CellSpec {
    let mut cell = CellSpec {
        batch: Some(batch),
        ..partition_scaling().cell_at(0)
    };
    cell.workload = Some(TRAIN_WORKLOAD);
    cell.partition =
        Some(PartitionSpec::new(PartitionProfile::Quarter, tenants).expect("valid quarter layout"));
    cell
}

fn step_ms(ctx: &Ctx, cell: &CellSpec) -> Result<f64, String> {
    sweep::price_cell(ctx, cell)
        .map(|v| v.get(CellKind::Training, "step_ms"))
        .map_err(|e| e.kind)
}

/// The placement mix: every MLPerf job at its packed half-slice rate
/// (widths are *slots*; multi-slot times scale linearly — the contention
/// cost is already priced into the per-slice rate), or its abbreviation
/// in the skip list when the half slice cannot hold it.
fn job_specs(ctx: &Ctx) -> (Vec<ClusterJobSpec>, Vec<&'static str>) {
    let grid = partition_scaling();
    let layouts = super::partition_study::LAYOUTS.len();
    let mut specs = Vec::new();
    let mut skipped = Vec::new();
    for (w, &workload) in BenchmarkId::MLPERF.iter().enumerate() {
        // Index 1 of each workload's block is the packed half slice.
        let cell = grid.cell_at(w * layouts + 1);
        debug_assert_eq!(
            cell.partition.map(|p| p.to_string()).as_deref(),
            Some("1of2x2")
        );
        match sweep::price_cell(ctx, &cell) {
            Ok(v) => {
                let m1 = v.get(CellKind::Training, "total_minutes");
                let widths: Vec<(u64, f64)> =
                    [1u64, 2, 4].iter().map(|&s| (s, m1 / s as f64)).collect();
                specs.push(ClusterJobSpec::new(workload.abbreviation(), widths));
            }
            Err(_) => skipped.push(workload.abbreviation()),
        }
    }
    (specs, skipped)
}

fn submissions(specs: &[ClusterJobSpec]) -> Vec<Submission> {
    let mut subs: Vec<Submission> = specs.iter().cloned().map(Submission::at_start).collect();
    for i in 0..INFER_BURSTS {
        let job = ClusterJobSpec::new(format!("infer-burst-{i}"), [(1u64, INFER_BURST_MIN)]);
        subs.push(Submission::after_minutes(job, i as f64 * INFER_GAP_MIN));
    }
    subs
}

/// Run the co-location study through a shared executor context.
///
/// # Errors
///
/// Never fails as a whole: unpriceable cells degrade to their error
/// token (interference rows) or the skip list (placement mix).
pub fn run_ctx(ctx: &Ctx) -> Result<ColocationStudy, ExperimentError> {
    let interference = (1..=4u32)
        .map(|t| TenantRow {
            tenants: t,
            train_step_ms: step_ms(ctx, &tenant_cell(TRAIN_BATCH, t)),
            infer_step_ms: step_ms(ctx, &tenant_cell(INFER_BATCH, t)),
        })
        .collect();
    let (specs, skipped) = job_specs(ctx);
    let layout = PartitionLayout::new(LAYOUT_GPUS, LAYOUT_SLICES);
    let policies = Policy::ALL
        .into_iter()
        .map(|p| PolicyRow {
            policy: p.name(),
            trace: Cluster::partitioned(layout).run(submissions(&specs), p),
        })
        .collect();
    Ok(ColocationStudy {
        interference,
        policies,
        skipped,
    })
}

fn ms_cell(v: &Result<f64, String>) -> String {
    match v {
        Ok(ms) => format!("{ms:.2}"),
        Err(kind) => kind.clone(),
    }
}

/// Render both tables.
pub fn render(s: &ColocationStudy) -> String {
    let mut t = Table::new(
        "Co-location interference: quarter slices of a C4140 (K) V100",
        [
            "Busy tenants",
            "Train step (ms, b=16)",
            "Infer step (ms, b=1)",
        ],
    );
    for row in &s.interference {
        t.add_row([
            row.tenants.to_string(),
            ms_cell(&row.train_step_ms),
            ms_cell(&row.infer_step_ms),
        ]);
    }
    let mut out = t.to_string();
    out.push('\n');
    let slots = PartitionLayout::new(LAYOUT_GPUS, LAYOUT_SLICES).slots();
    let mut p = Table::new(
        format!(
            "Co-location placement: training + {INFER_BURSTS} inference bursts on {LAYOUT_GPUS} GPUs x {LAYOUT_SLICES} slices ({slots} slots)"
        ),
        [
            "Policy",
            "Makespan (min)",
            "Mean wait (min)",
            "Slot utilization",
        ],
    );
    for r in &s.policies {
        p.add_row([
            r.policy.to_string(),
            format!("{:.0}", r.trace.makespan.as_minutes()),
            format!("{:.0}", r.trace.mean_wait().as_minutes()),
            format!("{:.0}%", r.trace.utilization() * 100.0),
        ]);
    }
    out.push_str(&p.to_string());
    if !s.skipped.is_empty() {
        out.push_str(&format!(
            "excluded (half slice cannot hold them): {}\n",
            s.skipped.join(", ")
        ));
    }
    out.push('\n');
    out
}

/// The co-location study as the executor schedules it. Depends on the
/// partition study so the shared half-slice points are warm in the memo
/// cache by the time this experiment prices them. The placement mix
/// prices the partition-scaling grid's half slices and the interference
/// table prices the tenant cells; both identities are in its spec, so an
/// edit to either invalidates this section's cache.
pub static EXP: Decl<ColocationStudy, ExperimentError> = Decl {
    id: "colocation_study",
    title: "Extension: training + inference co-location on partitioned devices",
    deps: &["partition_study"],
    spec: Some(|| {
        let mut s = partition_scaling().canonical_bytes();
        for t in 1..=4u32 {
            s.push(b';');
            s.extend_from_slice(&tenant_cell(TRAIN_BATCH, t).canonical_bytes());
            s.push(b';');
            s.extend_from_slice(&tenant_cell(INFER_BATCH, t).canonical_bytes());
        }
        s
    }),
    run: run_ctx,
    render,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interference_degrades_latency_monotonically() {
        let s = run_ctx(&Ctx::new()).unwrap();
        assert_eq!(s.interference.len(), 4);
        let steps: Vec<f64> = s
            .interference
            .iter()
            .map(|r| *r.train_step_ms.as_ref().expect("b=16 fits a quarter slice"))
            .collect();
        for w in steps.windows(2) {
            assert!(w[1] > w[0], "co-tenancy must slow the step: {steps:?}");
        }
        let infer: Vec<f64> = s
            .interference
            .iter()
            .map(|r| *r.infer_step_ms.as_ref().expect("b=1 fits a quarter slice"))
            .collect();
        for w in infer.windows(2) {
            assert!(w[1] > w[0], "co-tenancy must slow inference: {infer:?}");
        }
    }

    #[test]
    fn every_policy_schedules_the_whole_mix() {
        let s = run_ctx(&Ctx::new()).unwrap();
        assert_eq!(s.policies.len(), 5, "all five policies run");
        let expected = (BenchmarkId::MLPERF.len() - s.skipped.len()) + INFER_BURSTS as usize;
        for r in &s.policies {
            assert_eq!(
                r.trace.completions.len(),
                expected,
                "{} dropped jobs",
                r.policy
            );
            assert!(r.trace.utilization() > 0.0 && r.trace.utilization() <= 1.0);
        }
    }

    #[test]
    fn render_covers_both_tables() {
        let s = run_ctx(&Ctx::new()).unwrap();
        let text = render(&s);
        assert!(text.contains("Co-location interference"));
        assert!(text.contains("Co-location placement"));
        assert!(text.contains("shortest-job-first"));
    }
}
