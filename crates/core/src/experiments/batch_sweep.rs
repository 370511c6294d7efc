//! Extension: batch-size sensitivity sweep.
//!
//! §IV-D attributes NCF's scaling ceiling to "the small dataset \[that\]
//! limits the maximum batch size which as a result restricts the
//! scalability". This ablation makes the batch-size axis explicit: sweep a
//! benchmark's per-GPU batch over powers of two and report step time,
//! throughput, device-memory footprint, and the epochs the convergence
//! model charges — up to the OOM wall.

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{Ctx, Decl};
use crate::sweep;
use mlperf_sim::SimError;

/// One batch point of the sweep.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// Per-GPU batch size.
    pub batch: u64,
    /// Steady-state step milliseconds.
    pub step_ms: f64,
    /// Samples per second.
    pub throughput: f64,
    /// Device memory per GPU, GiB.
    pub hbm_gib: f64,
    /// Epochs-to-target at this global batch.
    pub epochs: f64,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct BatchSweep {
    /// Benchmark swept.
    pub id: BenchmarkId,
    /// Feasible points, ascending batch.
    pub points: Vec<BatchPoint>,
    /// The first power-of-two batch that no longer fits, if reached.
    pub oom_at: Option<u64>,
}

/// Sweep `id` on a single GPU of the C4140 (K) from batch 16 upward,
/// through a shared executor context. The grid is the declarative
/// [`sweep::batch_wall`] sweep; the rendered table still stops at the
/// first OOM batch, exactly as the hand-rolled loop did.
///
/// # Errors
///
/// Propagates non-OOM [`SimError`]s from the engine.
pub fn run_ctx(ctx: &Ctx, id: BenchmarkId) -> Result<BatchSweep, SimError> {
    use sweep::CellKind::Training;
    let spec = sweep::batch_wall(id);
    let swept = sweep::run_serial(ctx, &spec, None);
    let mut points = Vec::new();
    let mut oom_at = None;
    for cell in &swept.cells {
        let batch = cell.spec.batch.expect("batch axis set on every cell");
        match &cell.outcome {
            Ok(v) => points.push(BatchPoint {
                batch,
                step_ms: v.get(Training, "step_ms"),
                throughput: v.get(Training, "throughput_sps"),
                hbm_gib: v.get(Training, "hbm_gib"),
                epochs: v.get(Training, "epochs"),
            }),
            Err(e) if e.is_oom() => {
                oom_at = Some(batch);
                break;
            }
            Err(e) => return Err(e.to_sim()),
        }
    }
    Ok(BatchSweep { id, points, oom_at })
}

/// Render the sweep as a table.
pub fn render(s: &BatchSweep) -> String {
    let mut t = Table::new(
        format!("Batch-size sweep: {} on one V100-SXM2 (C4140 K)", s.id),
        ["Batch", "Step (ms)", "Samples/s", "HBM (GiB)", "Epochs"],
    );
    for p in &s.points {
        t.add_row([
            p.batch.to_string(),
            format!("{:.1}", p.step_ms),
            format!("{:.0}", p.throughput),
            format!("{:.2}", p.hbm_gib),
            format!("{:.1}", p.epochs),
        ]);
    }
    let tail = match s.oom_at {
        Some(b) => format!("batch {b} exceeds the 16 GB HBM2 (OOM)\n"),
        None => "sweep ended within memory\n".to_string(),
    };
    format!("{t}{tail}")
}

/// The batch sweep as the executor schedules it (the report sweeps
/// ResNet-50/MXNet, the benchmark §IV-D's batch-size argument centres on).
pub static EXP: Decl<BatchSweep> = Decl {
    id: "batch_sweep",
    title: "Extension: batch-size sweep (ResNet-50/MXNet)",
    deps: &[],
    spec: Some(|| sweep::batch_wall(BenchmarkId::MlpfRes50Mx).canonical_bytes()),
    run: |ctx| run_ctx(ctx, BenchmarkId::MlpfRes50Mx),
    render,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_sweep_hits_the_memory_wall() {
        let s = run_ctx(&Ctx::new(), BenchmarkId::MlpfRes50Mx).unwrap();
        assert!(s.points.len() >= 3);
        assert!(s.oom_at.is_some(), "ResNet-50 must eventually OOM on 16 GB");
        // Footprint grows monotonically with batch.
        assert!(s.points.windows(2).all(|w| w[1].hbm_gib > w[0].hbm_gib));
        // Throughput improves (weakly) with batch: fixed overhead amortizes.
        assert!(s
            .points
            .windows(2)
            .all(|w| w[1].throughput >= w[0].throughput * 0.98));
    }

    #[test]
    fn epochs_charge_grows_past_reference_batch() {
        let s = run_ctx(&Ctx::new(), BenchmarkId::MlpfRes50Mx).unwrap();
        let last = s.points.last().expect("non-empty");
        let first = s.points.first().expect("non-empty");
        assert!(last.epochs >= first.epochs);
    }

    #[test]
    fn render_reports_the_wall() {
        let s = run_ctx(&Ctx::new(), BenchmarkId::MlpfRes50Mx).unwrap();
        assert!(render(&s).contains("OOM"));
    }
}
