//! Extension: run-to-run variance decomposition.
//!
//! MLPerf scores the *median over several runs* because epochs-to-target
//! is stochastic in the seed — yet seed noise is only one of the levers a
//! submitter controls. This study decomposes the variance of end-to-end
//! training minutes into three factors, per benchmark, on 4 GPUs of the
//! DSS 8440:
//!
//! * **seed** — [`VARIANCE_RUNS`] deterministic replications of the
//!   convergence draw (the [`Replication`] layer's seeded lognormal
//!   around the calibration point);
//! * **batch** — halving and doubling the per-GPU batch around the tuned
//!   point (cells past the OOM wall are skipped);
//! * **precision** — fp32 vs mixed precision.
//!
//! Every number is a pure function of the fixed replication seed and the
//! calibrated models, so the rendered section carries a conformance
//! fingerprint like any other.

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{Ctx, Decl};
use crate::sweep::{self, CellKind, CellSpec, Replication, ReplicationScratch, RunStats};
use mlperf_analysis::stats::variance;
use mlperf_hw::systems::SystemId;
use mlperf_models::PrecisionPolicy;
use mlperf_sim::SimError;

/// Seeded replications behind the seed factor (fixed: part of the
/// section's byte contract, independent of `MLPERF_RUNS`).
pub const VARIANCE_RUNS: u32 = 16;

/// The system every cell of the study runs on.
const SYSTEM: SystemId = SystemId::Dss8440;

/// GPUs per cell.
const GPUS: u32 = 4;

/// The benchmarks decomposed: the batch-sensitive extremes (NCF, SSD)
/// bracket the batch-robust ones (ResNet-50, Transformer).
const WORKLOADS: [BenchmarkId; 4] = [
    BenchmarkId::MlpfRes50Mx,
    BenchmarkId::MlpfSsdPy,
    BenchmarkId::MlpfXfmrPy,
    BenchmarkId::MlpfNcfPy,
];

/// One benchmark's decomposition.
#[derive(Debug, Clone)]
pub struct VarianceRow {
    /// The benchmark.
    pub id: BenchmarkId,
    /// Distribution summary of the seeded epochs-to-target replications.
    pub stats: RunStats,
    /// Variance of end-to-end minutes across the seeded runs.
    pub seed_var: f64,
    /// Variance of end-to-end minutes across the batch halving/doubling.
    pub batch_var: f64,
    /// Variance of end-to-end minutes across fp32 vs mixed precision.
    pub precision_var: f64,
}

impl VarianceRow {
    /// `(seed, batch, precision)` shares of the total variance, percent.
    /// All zeros when every factor is degenerate.
    pub fn shares(&self) -> (f64, f64, f64) {
        let total = self.seed_var + self.batch_var + self.precision_var;
        if total <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.seed_var / total * 100.0,
            self.batch_var / total * 100.0,
            self.precision_var / total * 100.0,
        )
    }
}

/// The study result.
#[derive(Debug, Clone)]
pub struct VarianceDecomposition {
    /// One row per benchmark, in [`WORKLOADS`] order.
    pub rows: Vec<VarianceRow>,
}

/// The study's base cell for one benchmark (batch/precision at the tuned
/// defaults, replication pinned off so the point pricing is independent
/// of `MLPERF_RUNS`).
fn cell(id: BenchmarkId) -> CellSpec {
    CellSpec {
        kind: CellKind::Training,
        workload: Some(id),
        system: Some(SYSTEM),
        gpus: Some(GPUS),
        batch: None,
        precision: None,
        mtbf_hours: None,
        interval: None,
        runs: Some(1),
        partition: None,
    }
}

/// End-to-end minutes of one cell, or its typed error.
fn minutes(ctx: &Ctx, spec: &CellSpec) -> Result<f64, sweep::CellError> {
    sweep::price_cell(ctx, spec).map(|v| v.get(CellKind::Training, "total_minutes"))
}

/// Run the decomposition through a shared executor context.
///
/// # Errors
///
/// Propagates [`SimError`]s from the base points (a benchmark whose tuned
/// configuration cannot be priced at all); batch cells past the OOM wall
/// are part of the design and skipped, not errors.
pub fn run_ctx(ctx: &Ctx) -> Result<VarianceDecomposition, SimError> {
    let rep = Replication {
        seed: sweep::REPLICATION_SEED,
        runs: VARIANCE_RUNS,
    };
    let mut scratch = ReplicationScratch::new();
    let mut rows = Vec::with_capacity(WORKLOADS.len());
    for id in WORKLOADS {
        let base_cell = cell(id);
        let point = sweep::price_cell(ctx, &base_cell).map_err(|e| e.to_sim())?;
        let minutes_pt = point.get(CellKind::Training, "total_minutes");
        let epochs_pt = point.get(CellKind::Training, "epochs");

        // Seed factor: the replication layer's epochs draws, scaled to
        // minutes (time is linear in epochs at a fixed step time). The
        // cell id is the runs-stripped canonical spelling — the same
        // streams a MLPERF_RUNS=16 sweep of this cell would draw.
        let job = ctx.base_job(id, false);
        let global_batch = job.per_gpu_batch() * u64::from(GPUS);
        let convergence = job.convergence();
        let cell_id = base_cell.replication_id();
        let stats = rep
            .epochs_stats(&cell_id, &convergence, global_batch, &mut scratch)
            .map_err(|e| SimError::NonFinite {
                context: format!("variance replication: {e}"),
            })?;
        let seed_minutes: Vec<f64> = scratch
            .samples
            .iter()
            .map(|e| minutes_pt * e / epochs_pt)
            .collect();
        let seed_var = variance(&seed_minutes);

        // Batch factor: halve and double the tuned per-GPU batch. A cell
        // past the OOM wall is skipped — the wall is the finding, not a
        // failure; a single surviving point is zero variance.
        let tuned = job.per_gpu_batch();
        let mut batch_minutes = Vec::new();
        let mut tried = Vec::new();
        for b in [(tuned / 2).max(1), tuned, tuned * 2] {
            if tried.contains(&b) {
                continue;
            }
            tried.push(b);
            let mut spec = base_cell.clone();
            spec.batch = Some(b);
            if let Ok(m) = minutes(ctx, &spec) {
                batch_minutes.push(m);
            }
        }
        let batch_var = if batch_minutes.len() >= 2 {
            variance(&batch_minutes)
        } else {
            0.0
        };

        // Precision factor: the fp32 <-> amp swap. The tuned batch is
        // sized for the default precision, so fp32 can land past the OOM
        // wall — skipped like the batch factor's wall cells.
        let mut precision_minutes = Vec::new();
        for p in [PrecisionPolicy::Fp32, PrecisionPolicy::Amp] {
            let mut spec = base_cell.clone();
            spec.precision = Some(p);
            if let Ok(m) = minutes(ctx, &spec) {
                precision_minutes.push(m);
            }
        }
        let precision_var = if precision_minutes.len() >= 2 {
            variance(&precision_minutes)
        } else {
            0.0
        };

        rows.push(VarianceRow {
            id,
            stats,
            seed_var,
            batch_var,
            precision_var,
        });
    }
    Ok(VarianceDecomposition { rows })
}

/// Render the decomposition as the report section.
pub fn render(v: &VarianceDecomposition) -> String {
    let mut t = Table::new(
        format!(
            "Run-to-run variance decomposition (DSS 8440, {GPUS} GPUs, {VARIANCE_RUNS} seeded runs)"
        ),
        [
            "Benchmark",
            "Epochs med",
            "p5",
            "p95",
            "CI95 lo",
            "CI95 hi",
            "Seed %",
            "Batch %",
            "Prec %",
        ],
    );
    for row in &v.rows {
        let (seed, batch, precision) = row.shares();
        t.add_row([
            row.id.to_string(),
            format!("{:.2}", row.stats.median),
            format!("{:.2}", row.stats.p5),
            format!("{:.2}", row.stats.p95),
            format!("{:.2}", row.stats.ci_lo),
            format!("{:.2}", row.stats.ci_hi),
            format!("{seed:.1}"),
            format!("{batch:.1}"),
            format!("{precision:.1}"),
        ]);
    }
    format!(
        "{t}shares of end-to-end-minutes variance across seeded convergence \
         replications, per-GPU batch halving/doubling, and fp32 vs amp\n"
    )
}

/// The decomposition as the executor schedules it.
pub static EXP: Decl<VarianceDecomposition> = Decl {
    id: "variance_decomposition",
    title: "Extension: run-to-run variance decomposition (seed vs batch vs precision)",
    deps: &[],
    spec: Some(|| {
        let mut s = format!(
            "seed={:016x};runs={VARIANCE_RUNS};",
            sweep::REPLICATION_SEED
        )
        .into_bytes();
        for id in WORKLOADS {
            s.extend_from_slice(&cell(id).canonical_bytes());
            s.push(b';');
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
    fn decomposition_replays_bitwise_and_covers_every_workload() {
        let a = run_ctx(&Ctx::new()).unwrap();
        let b = run_ctx(&Ctx::new()).unwrap();
        assert_eq!(a.rows.len(), WORKLOADS.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.stats, y.stats, "{}", x.id);
            assert_eq!(
                (
                    x.seed_var.to_bits(),
                    x.batch_var.to_bits(),
                    x.precision_var.to_bits()
                ),
                (
                    y.seed_var.to_bits(),
                    y.batch_var.to_bits(),
                    y.precision_var.to_bits()
                ),
                "{}",
                x.id
            );
        }
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn shares_sum_to_one_hundred_and_factors_are_nonnegative() {
        let v = run_ctx(&Ctx::new()).unwrap();
        for row in &v.rows {
            assert!(row.seed_var >= 0.0 && row.batch_var >= 0.0 && row.precision_var >= 0.0);
            assert!(row.stats.p5 <= row.stats.median && row.stats.median <= row.stats.p95);
            let (s, b, p) = row.shares();
            assert!(
                (s + b + p - 100.0).abs() < 1e-6,
                "{}: shares {s}+{b}+{p}",
                row.id
            );
        }
    }

    #[test]
    fn output_is_independent_of_the_context_run_count() {
        // The study pins its own replication count; MLPERF_RUNS must not
        // leak into the section bytes (the conformance fingerprint runs
        // in a default environment).
        let a = render(&run_ctx(&Ctx::new()).unwrap());
        let b = render(&run_ctx(&Ctx::new().with_runs(8)).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn precision_always_moves_the_clock() {
        let v = run_ctx(&Ctx::new()).unwrap();
        assert!(
            v.rows.iter().any(|r| r.precision_var > 0.0),
            "fp32 vs amp must matter somewhere"
        );
    }
}
