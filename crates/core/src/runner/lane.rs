//! The pricing lane: the one body that takes a training point to the
//! engine.
//!
//! A sweep prices its cells in runs that differ only in the batch (the
//! million grid's last axis), so a [`Lane`] keeps one [`TrainingJob`]
//! across the points it prices. It clones the interned template only when
//! the point's (benchmark, reference, precision, partition) changes, and
//! otherwise sets just the batch. It counts uncached requests and
//! fast-path attempts and hits itself and adds them to its [`Ctx`]'s
//! counters once, when it drops. Each `run_streamed` chunk and each
//! `run_serial` call prices through one lane; [`Ctx::step`],
//! [`Ctx::outcome`], [`Ctx::step_and_outcome`] and [`Ctx::preflight`] run
//! through a one-point lane.

use super::{charge, Ctx, TrainPoint};
use crate::benchmark::BenchmarkId;
use mlperf_hw::{Bytes, PartitionSpec};
use mlperf_models::PrecisionPolicy;
use mlperf_sim::engine::{RunSpec, SimError, Simulator, StepReport};
use mlperf_sim::training::{outcome_from_step, TrainingOutcome};
use mlperf_sim::TrainingJob;
use std::sync::atomic::Ordering;

/// What a lane's job was cloned for: every field of a point except the
/// system, the GPU count and the batch, which the engine reads per call.
type JobKey = (
    BenchmarkId,
    bool,
    Option<PrecisionPolicy>,
    Option<PartitionSpec>,
);

/// A lane's one job, the identity it was cloned for, and its template's
/// batch (what a point with no batch override prices at).
struct LaneJob {
    key: JobKey,
    template_batch: u64,
    job: TrainingJob,
}

/// The point's job: the interned template with the point's precision and
/// partition applied, cloned only when the point's [`JobKey`] differs from
/// the held job's, then set to the point's batch. Field for field what
/// `template.clone().with_precision(..).with_per_gpu_batch(..)
/// .with_partition(..)` builds.
fn job_for<'j>(slot: &'j mut Option<LaneJob>, ctx: &Ctx, point: &TrainPoint) -> &'j TrainingJob {
    let key = (
        point.benchmark,
        point.reference,
        point.precision,
        point.partition,
    );
    if slot.as_ref().is_some_and(|held| held.key != key) {
        *slot = None;
    }
    let held = slot.get_or_insert_with(|| {
        let template = ctx.base_job(point.benchmark, point.reference);
        let mut job = template.clone();
        if let Some(p) = point.precision {
            job = job.with_precision(p);
        }
        if point.partition.is_some() {
            job = job.with_partition(point.partition);
        }
        LaneJob {
            key,
            template_batch: template.per_gpu_batch(),
            job,
        }
    });
    held.job
        .set_per_gpu_batch(point.per_gpu_batch.unwrap_or(held.template_batch));
    &held.job
}

/// A run of training points priced through one job and one set of
/// counters (see the module docs). Not shared between threads: each
/// worker builds its own per chunk.
pub(crate) struct Lane<'a> {
    ctx: &'a Ctx,
    job: Option<LaneJob>,
    /// Requests that bypassed the memo, not yet added to the context's.
    uncached: u64,
    /// Fast-path attempts, not yet added to the context's.
    fast_attempts: u64,
    /// Fast-path hits, not yet added to the context's.
    fast_hits: u64,
}

impl<'a> Lane<'a> {
    /// An empty lane over `ctx`: its first point clones a template.
    pub(crate) fn new(ctx: &'a Ctx) -> Lane<'a> {
        Lane {
            ctx,
            job: None,
            uncached: 0,
            fast_attempts: 0,
            fast_hits: 0,
        }
    }

    /// The context the lane prices through.
    pub(crate) fn ctx(&self) -> &'a Ctx {
        self.ctx
    }

    /// As [`Ctx::preflight`].
    pub(crate) fn preflight(&mut self, point: &TrainPoint) -> Result<Bytes, SimError> {
        let system = self.ctx.system(point.system);
        let job = job_for(&mut self.job, self.ctx, point);
        Simulator::new(system).preflight(job, Ctx::ordinals(system, point.gpus))
    }

    /// As [`Ctx::step`].
    pub(crate) fn step(&mut self, point: &TrainPoint) -> Result<StepReport, SimError> {
        self.step_for(point).1
    }

    /// As [`Ctx::outcome`].
    pub(crate) fn outcome(&mut self, point: &TrainPoint) -> Result<TrainingOutcome, SimError> {
        let (job, step) = self.step_for(point);
        Ok(outcome_from_step(job, step?))
    }

    /// As [`Ctx::step_and_outcome`].
    pub(crate) fn step_and_outcome(
        &mut self,
        point: &TrainPoint,
    ) -> Result<(StepReport, TrainingOutcome), SimError> {
        let (job, step) = self.step_for(point);
        let step = step?;
        let outcome = outcome_from_step(job, step.clone());
        Ok((step, outcome))
    }

    /// The point's step report, memoized when the context memoizes, and
    /// the job it priced.
    fn step_for(&mut self, point: &TrainPoint) -> (&TrainingJob, Result<StepReport, SimError>) {
        let ctx = self.ctx;
        charge(1);
        let system = ctx.system(point.system);
        let job = job_for(&mut self.job, ctx, point);
        let mut simulate = || {
            let sim = Simulator::new(system);
            let gpus = Ctx::ordinals(system, point.gpus);
            // Gate before the screen: the admission check is the one both
            // engines run first, in the same order, so a rejected cell
            // returns the error pricing would and never touches the shared
            // screen map or a fast-path counter.
            sim.preflight(job, gpus)?;
            // The fast path runs *inside* the memo closure, so hit/miss
            // counters and memoization behavior are identical either way;
            // its result is bit-identical to `execute` by contract
            // (differentially pinned), so so are the cached bytes.
            if ctx.fastpath && ctx.fast_screen(point, job, system) {
                match sim.execute_fast_on(job, gpus) {
                    Ok(Some(outcome)) => {
                        self.fast_attempts += 1;
                        self.fast_hits += 1;
                        return Ok(outcome.report);
                    }
                    // A decline counts as an attempt that missed; an error
                    // counts as neither — both engines reject the cell in
                    // shared validation before either loop runs, so error
                    // cells say nothing about fast-path coverage.
                    Ok(None) => self.fast_attempts += 1,
                    Err(e) => return Err(e),
                }
            }
            sim.execute(&RunSpec::new(job.clone(), gpus))
                .map(|outcome| outcome.report)
        };
        let step = if ctx.memoize {
            let window = Simulator::new(system).window();
            ctx.steps.get_or_compute(point.key(job, window), simulate)
        } else {
            self.uncached += 1;
            simulate()
        };
        (job, step)
    }
}

impl Drop for Lane<'_> {
    /// Add what the lane counted to its context: one add per counter per
    /// lane, where per point every worker would write the same lines.
    fn drop(&mut self) {
        let ctx = self.ctx;
        for (total, n) in [
            (&ctx.uncached, self.uncached),
            (&ctx.fast_attempts, self.fast_attempts),
            (&ctx.fast_hits, self.fast_hits),
        ] {
            if n > 0 {
                total.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_hw::systems::SystemId;
    use mlperf_hw::PartitionProfile;

    /// A point sequence that switches benchmark, reference, precision,
    /// partition and batch, prices a template batch right after an
    /// override, puts out-of-memory and bad-GPU-set points between viable
    /// ones, and comes back to points it priced before.
    fn points() -> Vec<TrainPoint> {
        use BenchmarkId::{MlpfNcfPy, MlpfRes50Mx, MlpfRes50Tf, MlpfXfmrPy};
        use SystemId::{Dss8440, ReferenceP100, C4140K};
        let half = Some(mlperf_hw::PartitionSpec::packed(PartitionProfile::Half));
        vec![
            TrainPoint::new(MlpfRes50Tf, Dss8440, 1).with_per_gpu_batch(64),
            TrainPoint::new(MlpfRes50Tf, Dss8440, 1),
            TrainPoint::new(MlpfRes50Tf, Dss8440, 1).with_per_gpu_batch(1 << 20),
            TrainPoint::new(MlpfRes50Tf, Dss8440, 4).with_per_gpu_batch(96),
            TrainPoint::new(MlpfRes50Tf, Dss8440, 4)
                .with_per_gpu_batch(32)
                .with_precision(PrecisionPolicy::Fp32),
            TrainPoint::new(MlpfRes50Tf, Dss8440, 9).with_per_gpu_batch(32),
            TrainPoint::new(MlpfRes50Tf, Dss8440, 4).with_precision(PrecisionPolicy::Fp32),
            TrainPoint::new(MlpfRes50Tf, Dss8440, 0),
            TrainPoint::new(MlpfRes50Tf, Dss8440, 2).with_precision(PrecisionPolicy::Amp),
            TrainPoint::reference(MlpfRes50Tf, ReferenceP100, 1),
            TrainPoint::reference(MlpfRes50Tf, ReferenceP100, 1).with_per_gpu_batch(16),
            TrainPoint::new(MlpfNcfPy, C4140K, 2).with_per_gpu_batch(4096),
            TrainPoint::new(MlpfNcfPy, C4140K, 4),
            TrainPoint::new(MlpfRes50Mx, C4140K, 1)
                .with_per_gpu_batch(32)
                .with_partition(half),
            TrainPoint::new(MlpfRes50Mx, C4140K, 1)
                .with_per_gpu_batch(4096)
                .with_partition(half),
            TrainPoint::new(MlpfRes50Mx, C4140K, 1).with_partition(half),
            TrainPoint::new(MlpfRes50Mx, C4140K, 1).with_per_gpu_batch(32),
            TrainPoint::new(MlpfXfmrPy, Dss8440, 8).with_per_gpu_batch(1024),
            TrainPoint::new(MlpfXfmrPy, Dss8440, 8),
            TrainPoint::new(MlpfRes50Tf, Dss8440, 1).with_per_gpu_batch(64),
            TrainPoint::new(MlpfRes50Tf, Dss8440, 1),
        ]
    }

    /// `{:?}` spells every float by its shortest round-trip digits, so two
    /// results with equal spellings are bit-identical.
    fn bits<T: std::fmt::Debug>(value: &T) -> String {
        format!("{value:?}")
    }

    /// One lane run through [`points`] answers every query exactly as a
    /// fresh context does for that point alone, and as the engine does on
    /// a job rebuilt from the zoo; memo-free, it adds to its context the
    /// counts the fresh contexts made between them.
    #[test]
    fn a_lane_prices_every_point_as_a_fresh_context_does() {
        for memoize in [false, true] {
            let ctx = if memoize {
                Ctx::new()
            } else {
                Ctx::without_memo()
            };
            let mut lane = Lane::new(&ctx);
            let (mut fast, mut kinds) = ((0, 0), [0; 3]);
            for (i, point) in points().iter().enumerate() {
                let fresh = Ctx::without_memo();
                let want = bits(&fresh.step_and_outcome(point));
                let (attempts, hits) = fresh.fast_stats();
                fast = (fast.0 + attempts, fast.1 + hits);
                assert_eq!(bits(&lane.step_and_outcome(point)), want, "point {i}");
                let step = lane.step(point);
                assert_eq!(bits(&step), bits(&Ctx::new().step(point)), "point {i}");
                let outcome = bits(&lane.outcome(point));
                assert_eq!(outcome, bits(&Ctx::new().outcome(point)), "point {i}");
                let admitted = bits(&lane.preflight(point));
                assert_eq!(admitted, bits(&Ctx::new().preflight(point)), "point {i}");

                let bench = point.benchmark;
                let mut job = if point.reference {
                    bench.reference_job()
                } else {
                    bench.job()
                };
                if let Some(p) = point.precision {
                    job = job.with_precision(p);
                }
                if let Some(b) = point.per_gpu_batch {
                    job = job.with_per_gpu_batch(b);
                }
                let job = job.with_partition(point.partition);
                let spec = point.system.spec();
                let des = Simulator::new(&spec)
                    .execute(&RunSpec::new(job, (0..point.gpus).collect::<Vec<u32>>()))
                    .map(|outcome| outcome.report);
                assert_eq!(bits(&step), bits(&des), "point {i}");
                kinds[match des {
                    Ok(_) => 0,
                    Err(SimError::OutOfMemory { .. }) => 1,
                    Err(_) => 2,
                }] += 1;
            }
            drop(lane);
            assert!(
                kinds.iter().all(|&k| k >= 2),
                "(viable, OOM, other error) points: {kinds:?}"
            );
            if !memoize {
                // Three priced queries per point, each counted as the
                // fresh context counted its one.
                let queries = 3 * points().len() as u64;
                assert_eq!(ctx.cache_stats().uncached, queries);
                assert_eq!(ctx.fast_stats(), (3 * fast.0, 3 * fast.1));
            }
        }
    }
}
