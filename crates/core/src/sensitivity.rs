//! Sensitivity analysis: how robust are the derived conclusions to the
//! calibration constants?
//!
//! The calibration policy (DESIGN.md) fits single-GPU anchors and lets the
//! simulator derive everything else. This module perturbs each calibrated
//! knob by ±20 % and measures how a headline *derived* quantity — the
//! 8-GPU speedup on the DSS 8440 — responds, reporting the elasticity
//! `Δoutput% / Δknob%`. Small elasticities mean the paper-shape conclusions
//! do not hinge on the fitted values.

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{Ctx, Decl, TrainPoint};
use mlperf_hw::SystemId;
use mlperf_sim::{Efficiency, SimError, TrainingJob};
use std::fmt;

/// The calibrated knobs perturbed by the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Knob {
    /// Sustained Tensor-Core efficiency (the main anchor-fitting knob).
    TensorEfficiency,
    /// Sustained memory-bandwidth efficiency.
    MemoryEfficiency,
    /// Comm/compute overlap fraction.
    CommOverlap,
}

impl Knob {
    /// All perturbed knobs.
    pub const ALL: [Knob; 3] = [
        Knob::TensorEfficiency,
        Knob::MemoryEfficiency,
        Knob::CommOverlap,
    ];

    /// Apply a multiplicative factor to this knob on a job copy.
    fn scaled(self, job: &TrainingJob, factor: f64) -> TrainingJob {
        let job = job.clone();
        match self {
            Knob::TensorEfficiency => {
                let e = job.efficiency();
                job.with_efficiency(Efficiency::new(
                    e.simt,
                    (e.tensor * factor).min(1.0),
                    e.memory,
                ))
            }
            Knob::MemoryEfficiency => {
                let e = job.efficiency();
                job.with_efficiency(Efficiency::new(
                    e.simt,
                    e.tensor,
                    (e.memory * factor).min(1.0),
                ))
            }
            Knob::CommOverlap => {
                let overlap = (job.comm_overlap() * factor).clamp(0.0, 1.0);
                job.with_comm_overlap(overlap)
            }
        }
    }
}

impl fmt::Display for Knob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Knob::TensorEfficiency => "tensor efficiency",
            Knob::MemoryEfficiency => "memory efficiency",
            Knob::CommOverlap => "comm overlap",
        };
        f.write_str(s)
    }
}

/// One (benchmark, knob) elasticity measurement.
#[derive(Debug, Clone)]
pub struct SensitivityCell {
    /// Benchmark measured.
    pub id: BenchmarkId,
    /// Knob perturbed.
    pub knob: Knob,
    /// The baseline 8-GPU speedup.
    pub baseline: f64,
    /// Speedup with the knob at 0.8x.
    pub low: f64,
    /// Speedup with the knob at 1.2x.
    pub high: f64,
}

impl SensitivityCell {
    /// Elasticity: percent output change per percent knob change, averaged
    /// over the two perturbation directions.
    pub fn elasticity(&self) -> f64 {
        let d_low = (self.low - self.baseline) / self.baseline / -0.2;
        let d_high = (self.high - self.baseline) / self.baseline / 0.2;
        (d_low + d_high) / 2.0
    }
}

/// The full sensitivity study.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// All measured cells.
    pub cells: Vec<SensitivityCell>,
}

/// The derived quantity for an unmodified job: 1-to-8 speedup on the DSS
/// 8440. Uses the memoized training points (they are Table IV's).
fn baseline_speedup8(ctx: &Ctx, id: BenchmarkId) -> Result<f64, SimError> {
    let t1 = ctx
        .outcome(&TrainPoint::new(id, SystemId::Dss8440, 1))?
        .total_time
        .as_secs();
    let t8 = ctx
        .outcome(&TrainPoint::new(id, SystemId::Dss8440, 8))?
        .total_time
        .as_secs();
    Ok(t1 / t8)
}

/// The derived quantity for a knob-perturbed job. Perturbed efficiencies
/// have no stable cache identity, so these runs bypass the memo cache.
fn perturbed_speedup8(ctx: &Ctx, job: &TrainingJob) -> Result<f64, SimError> {
    let t1 = ctx
        .train_uncached(SystemId::Dss8440, job, 1)?
        .total_time
        .as_secs();
    let t8 = ctx
        .train_uncached(SystemId::Dss8440, job, 8)?
        .total_time
        .as_secs();
    Ok(t1 / t8)
}

/// Run the study over a representative benchmark subset, through a
/// shared executor context.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_ctx(ctx: &Ctx) -> Result<Sensitivity, SimError> {
    let subset = [
        BenchmarkId::MlpfRes50Mx,
        BenchmarkId::MlpfXfmrPy,
        BenchmarkId::MlpfNcfPy,
    ];
    let mut cells = Vec::new();
    for id in subset {
        let job = ctx.base_job(id, false);
        let baseline = baseline_speedup8(ctx, id)?;
        for knob in Knob::ALL {
            let low = perturbed_speedup8(ctx, &knob.scaled(job, 0.8))?;
            let high = perturbed_speedup8(ctx, &knob.scaled(job, 1.2))?;
            cells.push(SensitivityCell {
                id,
                knob,
                baseline,
                low,
                high,
            });
        }
    }
    Ok(Sensitivity { cells })
}

/// Render the elasticity table.
pub fn render(s: &Sensitivity) -> String {
    let mut t = Table::new(
        "Sensitivity of the derived 1-to-8 speedup to ±20% knob perturbations",
        [
            "Benchmark",
            "Knob",
            "Speedup @0.8x",
            "baseline",
            "@1.2x",
            "Elasticity",
        ],
    );
    for c in &s.cells {
        t.add_row([
            c.id.abbreviation().to_string(),
            c.knob.to_string(),
            format!("{:.2}x", c.low),
            format!("{:.2}x", c.baseline),
            format!("{:.2}x", c.high),
            format!("{:+.2}", c.elasticity()),
        ]);
    }
    t.to_string()
}

/// The sensitivity study as the executor schedules it.
pub static EXP: Decl<Sensitivity> = Decl {
    id: "sensitivity",
    title: "Extension: calibration-knob sensitivity",
    deps: &[],
    spec: None,
    run: run_ctx,
    render,
    csv: &[],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_speedups_are_knob_insensitive() {
        // The core robustness claim: ±20% on any fitted knob moves the
        // derived 8-GPU speedup by well under 20% (|elasticity| < 1).
        let s = run_ctx(&Ctx::new()).unwrap();
        assert_eq!(s.cells.len(), 9);
        for c in &s.cells {
            assert!(
                c.elasticity().abs() < 1.0,
                "{} / {}: elasticity {:.2}",
                c.id,
                c.knob,
                c.elasticity()
            );
        }
    }

    #[test]
    fn faster_compute_means_worse_scaling() {
        // Raising tensor efficiency shortens compute, making communication
        // relatively larger: the speedup must not improve.
        let s = run_ctx(&Ctx::new()).unwrap();
        for c in s.cells.iter().filter(|c| c.knob == Knob::TensorEfficiency) {
            assert!(
                c.high <= c.baseline + 0.05,
                "{}: speedup rose with faster compute ({:.2} -> {:.2})",
                c.id,
                c.baseline,
                c.high
            );
        }
    }

    #[test]
    fn render_shows_elasticities() {
        let s = run_ctx(&Ctx::new()).unwrap();
        let text = render(&s);
        assert!(text.contains("Elasticity"));
        assert!(text.contains("comm overlap"));
    }
}
