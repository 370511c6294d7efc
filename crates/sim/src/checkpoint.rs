//! Checkpoint/restart cost model.
//!
//! MLPerf Training measures healthy runs, but at cluster scale the
//! expected time-to-train is governed by how often state is saved and how
//! much work a failure rolls back. This module prices a checkpoint of one
//! [`TrainingJob`] through the `mlperf-data` storage model (FP32 master
//! weights + optimizer state, written sequentially) and provides the
//! Young/Daly analysis the `fault_study` experiment sweeps:
//!
//! * [`failure_free_overhead`] — pure checkpoint tax, monotone in
//!   checkpoint *frequency*;
//! * [`expected_runtime`] — Daly's complete model for the expected
//!   wall-clock of `work` under exponential failures with MTBF `M`,
//!   checkpoint write cost `C`, restart cost `R`, and interval `τ`:
//!   `M·e^{R/M}·(e^{(τ+C)/M} − 1)·(W/τ)` — exact for memoryless failures
//!   and quasi-convex in `τ`;
//! * [`daly_interval`] — the near-optimal interval
//!   `√(2CM)·[1 + ⅓·√(C/2M) + (C/2M)/9] − C` (Daly 2006), clamped to `M`
//!   when `C ≥ 2M`.

use crate::engine::{SimError, StepReport};
use crate::job::TrainingJob;
use mlperf_data::storage::StorageDevice;
use mlperf_hw::units::{Bytes, Seconds};

/// How a run checkpoints: where state goes, how often, and what a restart
/// costs beyond re-reading the state.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSpec {
    /// Target wall-clock between checkpoints (quantized to step
    /// boundaries by the replay).
    pub interval: Seconds,
    /// Device the checkpoint is written to and restored from.
    pub device: StorageDevice,
    /// Fixed relaunch latency on restart (process spawn, NCCL re-init,
    /// pipeline warmup) — paid before the state read starts.
    pub relaunch: Seconds,
}

impl CheckpointSpec {
    /// A spec with the default 30 s relaunch latency.
    pub fn new(interval: Seconds, device: StorageDevice) -> Self {
        assert!(
            interval.as_secs() > 0.0,
            "checkpoint interval must be positive"
        );
        CheckpointSpec {
            interval,
            device,
            relaunch: Seconds::new(30.0),
        }
    }

    /// Bytes one checkpoint of `job` holds: FP32 master weights plus the
    /// optimizer's resident state (both kept in FP32 even under AMP).
    pub fn bytes(&self, job: &TrainingJob) -> Bytes {
        let params = job.model().params();
        Bytes::new(params * 4) + job.optimizer().state_bytes(params)
    }

    /// Wall-clock cost `C` of one checkpoint write (sequential dump to the
    /// device; training pauses — the synchronous-checkpoint model).
    pub fn write_cost(&self, job: &TrainingJob) -> Seconds {
        self.bytes(job) / self.device.sequential_write()
    }

    /// Wall-clock cost `R` of one restart: relaunch latency plus reading
    /// the checkpoint back at the device's sequential read rate.
    pub fn restart_cost(&self, job: &TrainingJob) -> Seconds {
        self.relaunch + self.bytes(job) / self.device.sequential_read()
    }

    /// The checkpoint cadence in optimizer steps, given the steady-state
    /// step time — at least 1.
    pub fn interval_steps(&self, step: &StepReport) -> u64 {
        ((self.interval.as_secs() / step.step_time.as_secs()).round() as u64).max(1)
    }
}

/// The checkpoint tax with no failures at all: one write of cost `c` per
/// interval `tau` over `work` seconds of useful compute. Strictly
/// increasing in checkpoint frequency (`1/tau`).
///
/// # Panics
///
/// Panics unless `tau` is positive.
pub fn failure_free_overhead(work: Seconds, tau: Seconds, c: Seconds) -> Seconds {
    assert!(tau.as_secs() > 0.0, "interval must be positive");
    c.scale(work.as_secs() / tau.as_secs())
}

/// Daly's complete model: expected wall-clock to finish `work` seconds of
/// useful compute, checkpointing every `tau` at cost `c`, restarting at
/// cost `r`, under exponential failures with mean time between failures
/// `mtbf`. Exact for memoryless failures; quasi-convex in `tau`.
///
/// # Errors
///
/// [`SimError::NonFinite`] when an extreme `tau` or `mtbf` overflows the
/// exponentials or cancels the failure term to zero: the result is then
/// not finite, or below `work`, which the model never is.
///
/// # Panics
///
/// Panics unless `tau` and `mtbf` are positive.
pub fn expected_runtime(
    work: Seconds,
    tau: Seconds,
    c: Seconds,
    r: Seconds,
    mtbf: Seconds,
) -> Result<Seconds, SimError> {
    assert!(tau.as_secs() > 0.0, "interval must be positive");
    assert!(mtbf.as_secs() > 0.0, "MTBF must be positive");
    let m = mtbf.as_secs();
    let segments = work.as_secs() / tau.as_secs();
    let per_segment = m * (r.as_secs() / m).exp() * (((tau + c).as_secs() / m).exp() - 1.0);
    let expected = per_segment * segments;
    if !(expected.is_finite() && expected >= work.as_secs()) {
        return Err(SimError::NonFinite {
            context: format!(
                "expected runtime {expected:e} s for {:e} s of work (interval {:e} s, MTBF {m:e} s)",
                work.as_secs(),
                tau.as_secs(),
            ),
        });
    }
    Ok(Seconds::new(expected))
}

/// Daly's higher-order optimal checkpoint interval for write cost `c` and
/// MTBF `mtbf`: `√(2cM)·[1 + ⅓√(c/2M) + (c/2M)/9] − c`, clamped to `M`
/// when `c ≥ 2M` (checkpointing costs more than the expected failure-free
/// window — write once per MTBF).
///
/// # Errors
///
/// [`SimError::NonFinite`] when an extreme `mtbf` overflows `2cM`.
///
/// # Panics
///
/// Panics unless both costs are positive.
pub fn daly_interval(c: Seconds, mtbf: Seconds) -> Result<Seconds, SimError> {
    assert!(c.as_secs() > 0.0, "write cost must be positive");
    assert!(mtbf.as_secs() > 0.0, "MTBF must be positive");
    let (c, m) = (c.as_secs(), mtbf.as_secs());
    if c >= 2.0 * m {
        return Ok(Seconds::new(m));
    }
    let x = c / (2.0 * m);
    let tau = (2.0 * c * m).sqrt() * (1.0 + x.sqrt() / 3.0 + x / 9.0) - c;
    if !tau.is_finite() {
        return Err(SimError::NonFinite {
            context: format!("Daly interval for write cost {c:e} s and MTBF {m:e} s"),
        });
    }
    Ok(Seconds::new(tau))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RunSpec, Simulator};
    use crate::job::ConvergenceModel;
    use mlperf_data::{DatasetId, InputPipeline};
    use mlperf_hw::systems::SystemId;
    use mlperf_models::zoo::resnet::resnet50;

    fn resnet_job() -> TrainingJob {
        let pipeline = InputPipeline::new(DatasetId::ImageNet, Bytes::new(224 * 224 * 3 * 2));
        TrainingJob::builder(
            "resnet50",
            resnet50(),
            pipeline,
            96,
            ConvergenceModel::new(63.0, 768, 0.0),
        )
        .build()
    }

    #[test]
    fn checkpoint_bytes_cover_weights_and_state() {
        let job = resnet_job();
        let spec = CheckpointSpec::new(Seconds::from_minutes(10.0), StorageDevice::NvmeSsd);
        let params = job.model().params();
        // SGD+momentum: 4 B master + 4 B momentum per parameter.
        assert_eq!(spec.bytes(&job), Bytes::new(params * 8));
        assert!(spec.write_cost(&job).as_secs() > 0.0);
        // Restart pays relaunch + read; read is faster than write here.
        assert!(spec.restart_cost(&job) > spec.relaunch);
    }

    #[test]
    fn slower_devices_write_longer() {
        let job = resnet_job();
        let cost = |d| {
            CheckpointSpec::new(Seconds::from_minutes(10.0), d)
                .write_cost(&job)
                .as_secs()
        };
        assert!(cost(StorageDevice::Hdd) > cost(StorageDevice::SataSsd));
        assert!(cost(StorageDevice::SataSsd) > cost(StorageDevice::NvmeSsd));
    }

    #[test]
    fn interval_steps_quantizes_and_floors_at_one() {
        let system = SystemId::Dss8440.spec();
        let report = Simulator::new(&system)
            .execute(&RunSpec::on_first(resnet_job(), 4))
            .unwrap()
            .report;
        let spec = CheckpointSpec::new(Seconds::from_minutes(5.0), StorageDevice::NvmeSsd);
        let steps = spec.interval_steps(&report);
        assert!(steps >= 1);
        let quantized = report.step_time.scale(steps as f64);
        let rel = (quantized.as_secs() - 300.0).abs() / 300.0;
        assert!(rel < 0.01, "quantized interval off by {rel}");
        // An interval below one step still checkpoints every step, not 0.
        let tiny = CheckpointSpec::new(Seconds::new(1e-6), StorageDevice::NvmeSsd);
        assert_eq!(tiny.interval_steps(&report), 1);
    }

    #[test]
    fn daly_interval_matches_young_to_first_order() {
        // For c << M the higher-order terms vanish: tau ~ sqrt(2cM).
        let c = Seconds::new(10.0);
        let m = Seconds::from_hours(24.0);
        let tau = daly_interval(c, m).unwrap();
        let young = (2.0 * c.as_secs() * m.as_secs()).sqrt();
        let rel = (tau.as_secs() - young).abs() / young;
        assert!(rel < 0.02, "daly {} vs young {young}", tau.as_secs());
    }

    #[test]
    fn daly_interval_clamps_when_checkpoints_dominate() {
        let tau = daly_interval(Seconds::new(100.0), Seconds::new(30.0)).unwrap();
        assert_eq!(tau, Seconds::new(30.0));
    }

    #[test]
    fn expected_runtime_exceeds_failure_free_work() {
        let work = Seconds::from_hours(10.0);
        let t = expected_runtime(
            work,
            Seconds::from_minutes(30.0),
            Seconds::new(20.0),
            Seconds::new(60.0),
            Seconds::from_hours(8.0),
        )
        .unwrap();
        assert!(t > work);
        // ...but not absurdly: a healthy-ish cluster loses < 40%.
        assert!(t.as_secs() < 1.4 * work.as_secs(), "{}", t.as_secs());
    }

    #[test]
    fn daly_interval_beats_extreme_intervals() {
        let work = Seconds::from_hours(10.0);
        let (c, r, m) = (
            Seconds::new(20.0),
            Seconds::new(60.0),
            Seconds::from_hours(4.0),
        );
        let at = |tau| expected_runtime(work, tau, c, r, m).unwrap().as_secs();
        let opt = at(daly_interval(c, m).unwrap());
        assert!(opt < at(Seconds::from_minutes(1.0)), "too-frequent wins?");
        assert!(opt < at(Seconds::from_hours(8.0)), "too-rare wins?");
    }
}
