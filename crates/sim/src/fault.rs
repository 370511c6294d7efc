//! Deterministic fault injection and replay.
//!
//! A [`FaultPlan`] is a seeded schedule of failures — GPU death, link
//! flaps, thermal-throttle stragglers, host stalls — drawn through the
//! testkit's [`FaultScript`] so the whole scenario replays byte-identically
//! from its seed. [`replay`] walks the plan against a steady-state
//! [`StepReport`]: training advances step by step, checkpoints are written
//! on the cadence of a [`CheckpointSpec`], a fail-stop fault rolls the run
//! back to the last checkpoint (paying the restart cost), transient faults
//! retry with exponential backoff under a [`RetryPolicy`], and every second
//! of wall-clock is attributed to exactly one bucket of [`FaultStats`]:
//!
//! ```text
//! total = healthy + checkpoint + recomputed + stalled + restart
//! ```
//!
//! The determinism contract: equal `(plan seed, job, step report,
//! checkpoint spec, retry policy)` produce byte-identical [`FaultTrace`]s.
//! Faults are quantized to step boundaries (a throttle drawn mid-step
//! slows the *next* step) except stalls and failures, which interrupt the
//! in-flight step. Faults apply in (time, plan index) order, and a fault
//! landing on the exact instant a step ends applies before that step
//! commits, which is what pins the replay bytes down.

use crate::checkpoint::CheckpointSpec;
use crate::engine::StepReport;
use crate::job::TrainingJob;
use mlperf_hw::units::Seconds;
use mlperf_testkit::fault::FaultScript;
use std::fmt;

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop loss of one GPU: the run dies and restarts from the last
    /// checkpoint (a hot spare takes the ordinal's place, so the width is
    /// unchanged — width changes are the cluster layer's reaction).
    GpuFailure {
        /// The ordinal (within the run) that died.
        gpu: u32,
    },
    /// A transient interconnect outage: collectives fail and retry with
    /// backoff until the link returns. No-op on single-GPU runs.
    LinkFlap {
        /// How long the link stays down.
        duration: Seconds,
    },
    /// One GPU clocks down; the synchronous step waits for the straggler.
    ThermalThrottle {
        /// The straggling ordinal.
        gpu: u32,
        /// Clock fraction retained, in `(0, 1)` — 0.7 means 70% speed.
        factor: f64,
        /// How long the throttle lasts.
        duration: Seconds,
    },
    /// The host pauses feeding every GPU (page-cache collapse, daemon
    /// stall): the in-flight step stretches by the stall.
    HostStall {
        /// Length of the stall.
        duration: Seconds,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::GpuFailure { gpu } => write!(f, "gpu_failure gpu={gpu}"),
            FaultKind::LinkFlap { duration } => {
                write!(f, "link_flap duration={:.6}", duration.as_secs())
            }
            FaultKind::ThermalThrottle {
                gpu,
                factor,
                duration,
            } => write!(
                f,
                "thermal_throttle gpu={gpu} factor={factor:.6} duration={:.6}",
                duration.as_secs()
            ),
            FaultKind::HostStall { duration } => {
                write!(f, "host_stall duration={:.6}", duration.as_secs())
            }
        }
    }
}

/// One scheduled failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Absolute simulated time of the fault.
    pub at: Seconds,
    /// What fails.
    pub kind: FaultKind,
}

/// A seeded, replayable schedule of faults over a time horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    mtbf: Seconds,
    events: Vec<FaultEvent>,
    script_trace: Vec<u8>,
}

impl FaultPlan {
    /// Draw a plan for a run of up to `horizon` wall-clock on `n_gpus`
    /// GPUs with the given mean time between faults. Inter-arrivals are
    /// exponential; each arrival picks a kind (GPU failure, link flap,
    /// throttle, host stall) and its parameters through a seeded
    /// [`FaultScript`], so equal seeds yield byte-identical plans.
    ///
    /// # Panics
    ///
    /// Panics if `n_gpus` is zero or `horizon`/`mtbf` is nonpositive.
    pub fn generate(seed: u64, horizon: Seconds, mtbf: Seconds, n_gpus: u32) -> Self {
        assert!(n_gpus > 0, "need at least one GPU");
        assert!(horizon.as_secs() > 0.0, "horizon must be positive");
        assert!(mtbf.as_secs() > 0.0, "MTBF must be positive");
        let mut script = FaultScript::new(seed);
        let mut events = Vec::new();
        let mut t = 0.0;
        loop {
            t += script.draw_exponential("interarrival", mtbf.as_secs());
            if t >= horizon.as_secs() {
                break;
            }
            let kind = match script.draw_index("kind", 4) {
                0 => FaultKind::GpuFailure {
                    gpu: script.draw_index("victim", n_gpus as usize) as u32,
                },
                1 => FaultKind::LinkFlap {
                    // 1–30 s outage.
                    duration: Seconds::new(1.0 + 29.0 * script.draw_unit("flap_len")),
                },
                2 => FaultKind::ThermalThrottle {
                    gpu: script.draw_index("victim", n_gpus as usize) as u32,
                    // Retain 50–90% of clocks.
                    factor: 0.5 + 0.4 * script.draw_unit("throttle"),
                    // 1–10 min of degraded clocks.
                    duration: Seconds::new(60.0 + 540.0 * script.draw_unit("throttle_len")),
                },
                _ => FaultKind::HostStall {
                    // 5–60 s stall.
                    duration: Seconds::new(5.0 + 55.0 * script.draw_unit("stall_len")),
                },
            };
            events.push(FaultEvent {
                at: Seconds::new(t),
                kind,
            });
        }
        FaultPlan {
            seed,
            mtbf,
            events,
            script_trace: script.trace_bytes(),
        }
    }

    /// A plan with explicit events (tests, regression pins), kept in the
    /// order given; [`replay`] applies them in (time, index) order. The
    /// script trace records only the seed.
    pub fn from_events(seed: u64, mtbf: Seconds, events: Vec<FaultEvent>) -> Self {
        let script_trace = FaultScript::new(seed).trace_bytes();
        FaultPlan {
            seed,
            mtbf,
            events,
            script_trace,
        }
    }

    /// The seed the plan was drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The mean time between faults the plan was drawn at.
    pub fn mtbf(&self) -> Seconds {
        self.mtbf
    }

    /// The scheduled faults: in time order from [`FaultPlan::generate`],
    /// as given to [`FaultPlan::from_events`].
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The byte-exact draw log behind the plan (the seeded-replay
    /// contract: equal seeds ⇒ equal bytes).
    pub fn script_trace(&self) -> &[u8] {
        &self.script_trace
    }
}

/// Backoff schedule for transient-fault retries: attempt `i` waits
/// `base · factor^i`; a fault outlasting `max_retries` attempts escalates
/// to a fail-stop restart from the last checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First retry delay.
    pub base: Seconds,
    /// Multiplier per attempt (≥ 1).
    pub factor: f64,
    /// Attempts before escalating.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Seconds::new(1.0),
            factor: 2.0,
            max_retries: 6,
        }
    }
}

/// Everything [`replay`] needs besides the job and its step report.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Checkpoint cadence and costs.
    pub checkpoint: CheckpointSpec,
    /// Transient-fault retry/backoff policy.
    pub retry: RetryPolicy,
}

/// Fault/recovery accounting for one replayed run. The time buckets
/// partition the total wall-clock exactly (asserted by the replay).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStats {
    /// Fail-stop GPU losses.
    pub gpu_failures: u32,
    /// Transient link outages.
    pub link_flaps: u32,
    /// Thermal-throttle windows applied.
    pub throttle_events: u32,
    /// Host stalls applied.
    pub host_stalls: u32,
    /// Restarts from checkpoint (failures + escalated transients).
    pub restarts: u32,
    /// Transient retry attempts across all flaps.
    pub retries: u32,
    /// Checkpoints written.
    pub checkpoints_written: u32,
    /// Optimizer steps committed (equals the job's total steps).
    pub completed_steps: u64,
    /// Wall-clock of steps that counted toward completion.
    pub healthy_time: Seconds,
    /// Wall-clock spent writing checkpoints.
    pub checkpoint_time: Seconds,
    /// Wall-clock of steps rolled back and re-run (lost work).
    pub recomputed_time: Seconds,
    /// Wall-clock lost to stalls and retry backoff.
    pub stalled_time: Seconds,
    /// Wall-clock spent restarting (relaunch + checkpoint read).
    pub restart_time: Seconds,
    /// End-to-end wall-clock with faults.
    pub total_time: Seconds,
}

impl FaultStats {
    /// Everything the run paid beyond healthy compute.
    pub fn overhead(&self) -> Seconds {
        self.checkpoint_time + self.recomputed_time + self.stalled_time + self.restart_time
    }

    /// `total / healthy` — 1.0 means the faults were free.
    pub fn slowdown(&self) -> f64 {
        self.total_time.as_secs() / self.healthy_time.as_secs()
    }
}

/// The byte-exact replay log: the plan's draw trace followed by one line
/// per replay action, all at fixed precision — equal seeds produce equal
/// bytes at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTrace {
    lines: Vec<String>,
    script_trace: Vec<u8>,
}

impl FaultTrace {
    fn new(plan: &FaultPlan) -> Self {
        FaultTrace {
            lines: Vec::new(),
            script_trace: plan.script_trace().to_vec(),
        }
    }

    fn push(&mut self, at: Seconds, line: &str) {
        self.lines.push(format!("t={:.6} {line}", at.as_secs()));
    }

    /// The replay action lines (without the draw log).
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Render the full trace: the plan's draw log, then the replay log.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.script_trace.clone();
        for line in &self.lines {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        out
    }
}

/// An active degradation window (throttle or flap slowdown).
struct ActiveEffect {
    until: Seconds,
    step_multiplier: f64,
}

/// Replay `config.plan` against the steady-state `step` report of `job`,
/// running `total_steps` optimizer steps to completion. Returns the
/// accounting and the byte-exact trace.
///
/// # Panics
///
/// Panics if `total_steps` is zero or the internal time-accounting
/// identity breaks (a bug, not an input error).
pub fn replay(
    config: &FaultConfig,
    job: &TrainingJob,
    step: &StepReport,
    total_steps: u64,
) -> (FaultStats, FaultTrace) {
    assert!(total_steps > 0, "nothing to replay");
    let base_step = step.step_time;
    let compute_share = (step.compute_time.as_secs() / step.step_time.as_secs()).min(1.0);
    let interval_steps = config.checkpoint.interval_steps(step);
    let write_cost = config.checkpoint.write_cost(job);
    let restart_cost = config.checkpoint.restart_cost(job);

    // Faults in (time, plan index) order; the sort is stable.
    let mut faults: Vec<&FaultEvent> = config.plan.events().iter().collect();
    faults.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("fault times are finite"));
    let mut faults = faults.into_iter().peekable();

    let mut stats = FaultStats {
        gpu_failures: 0,
        link_flaps: 0,
        throttle_events: 0,
        host_stalls: 0,
        restarts: 0,
        retries: 0,
        checkpoints_written: 0,
        completed_steps: 0,
        healthy_time: Seconds::ZERO,
        checkpoint_time: Seconds::ZERO,
        recomputed_time: Seconds::ZERO,
        stalled_time: Seconds::ZERO,
        restart_time: Seconds::ZERO,
        total_time: Seconds::ZERO,
    };
    let mut trace = FaultTrace::new(&config.plan);
    trace.push(
        Seconds::ZERO,
        &format!(
            "replay steps={total_steps} step_time={:.6} ckpt_steps={interval_steps} \
             write_cost={:.6} restart_cost={:.6}",
            base_step.as_secs(),
            write_cost.as_secs(),
            restart_cost.as_secs()
        ),
    );

    let mut effects: Vec<ActiveEffect> = Vec::new();
    // Uncommitted step wall-clock since the last checkpoint; committed to
    // `healthy_time` at checkpoints/completion, to `recomputed_time` on
    // rollback.
    let mut pending_work = Seconds::ZERO;
    let mut committed_steps = 0u64;
    let mut last_checkpoint_step = 0u64;
    // The in-flight step: when it started, when it will finish, and how
    // much of that span is stall extension (already attributed to
    // `stalled_time`) rather than step work.
    let mut step_start = Seconds::ZERO;
    let mut inflight_stall = Seconds::ZERO;

    let step_duration = |effects: &[ActiveEffect], start: Seconds| {
        let mult: f64 = effects
            .iter()
            .filter(|e| e.until > start)
            .map(|e| e.step_multiplier)
            .product();
        base_step.scale(mult)
    };
    let mut step_end = step_start + step_duration(&effects, step_start);

    // Roll back to the last checkpoint at fault time `at`: the in-flight
    // partial step and all uncommitted steps become recomputed work, any
    // stall attributed to the doomed step is un-attributed (its wall-clock
    // is swept into the recompute bucket), the restart cost is paid, and
    // the run resumes from the checkpoint.
    let restart = |at: Seconds,
                   stats: &mut FaultStats,
                   trace: &mut FaultTrace,
                   pending_work: &mut Seconds,
                   committed_steps: &mut u64,
                   step_start: &mut Seconds,
                   inflight_stall: &mut Seconds,
                   last_checkpoint_step: u64| {
        let partial = if at > *step_start {
            at - *step_start
        } else {
            Seconds::ZERO
        };
        stats.stalled_time = stats.stalled_time - *inflight_stall;
        *inflight_stall = Seconds::ZERO;
        stats.recomputed_time += *pending_work + partial;
        stats.restart_time += restart_cost;
        stats.restarts += 1;
        trace.push(
            at,
            &format!(
                "restart from_step={last_checkpoint_step} lost_steps={} lost_time={:.6}",
                *committed_steps - last_checkpoint_step,
                (*pending_work + partial).as_secs()
            ),
        );
        *pending_work = Seconds::ZERO;
        *committed_steps = last_checkpoint_step;
        // Resume once the partial step's wall-clock and the restart are
        // accounted: at (covers the partial) + restart cost.
        *step_start = at.max(*step_start) + restart_cost;
    };

    loop {
        // A fault at the instant the in-flight step ends applies first.
        if let Some(fault) = faults.next_if(|f| f.at <= step_end) {
            let at = fault.at;
            trace.push(at, &format!("fault {}", fault.kind));
            match fault.kind {
                FaultKind::GpuFailure { .. } => {
                    stats.gpu_failures += 1;
                    restart(
                        at,
                        &mut stats,
                        &mut trace,
                        &mut pending_work,
                        &mut committed_steps,
                        &mut step_start,
                        &mut inflight_stall,
                        last_checkpoint_step,
                    );
                    // The replacement GPU starts cool: degradation windows do
                    // not survive a restart.
                    effects.clear();
                    step_end = step_start + step_duration(&effects, step_start);
                }
                FaultKind::LinkFlap { duration } => {
                    stats.link_flaps += 1;
                    if step.n_gpus <= 1 {
                        trace.push(at, "flap ignored single_gpu");
                        continue;
                    }
                    // Retry with exponential backoff until the link is back or
                    // the policy gives up.
                    let mut waited = 0.0;
                    let mut attempts = 0u32;
                    while waited < duration.as_secs() && attempts < config.retry.max_retries {
                        waited +=
                            config.retry.base.as_secs() * config.retry.factor.powi(attempts as i32);
                        attempts += 1;
                    }
                    stats.retries += attempts;
                    if waited < duration.as_secs() {
                        trace.push(at, &format!("flap escalated attempts={attempts}"));
                        restart(
                            at,
                            &mut stats,
                            &mut trace,
                            &mut pending_work,
                            &mut committed_steps,
                            &mut step_start,
                            &mut inflight_stall,
                            last_checkpoint_step,
                        );
                        step_end = step_start + step_duration(&effects, step_start);
                    } else {
                        let delay = Seconds::new(waited);
                        stats.stalled_time += delay;
                        inflight_stall += delay;
                        trace.push(
                            at,
                            &format!("flap retried attempts={attempts} delay={waited:.6}"),
                        );
                        step_end += delay;
                    }
                }
                FaultKind::ThermalThrottle {
                    factor, duration, ..
                } => {
                    stats.throttle_events += 1;
                    // The straggler stretches only the compute phase of the
                    // synchronous step; comm/opt are unchanged.
                    let mult = 1.0 + compute_share * (1.0 / factor - 1.0);
                    effects.push(ActiveEffect {
                        until: at + duration,
                        step_multiplier: mult,
                    });
                    trace.push(at, &format!("throttle mult={mult:.6}"));
                }
                FaultKind::HostStall { duration } => {
                    stats.host_stalls += 1;
                    stats.stalled_time += duration;
                    inflight_stall += duration;
                    step_end += duration;
                }
            }
            continue;
        }
        // The in-flight step completes.
        pending_work += (step_end - step_start) - inflight_stall;
        inflight_stall = Seconds::ZERO;
        committed_steps += 1;
        stats.completed_steps = committed_steps;
        let mut next_start = step_end;
        if committed_steps >= total_steps {
            stats.healthy_time += pending_work;
            stats.total_time = step_end;
            break;
        }
        if committed_steps - last_checkpoint_step >= interval_steps {
            stats.checkpoints_written += 1;
            stats.checkpoint_time += write_cost;
            stats.healthy_time += pending_work;
            pending_work = Seconds::ZERO;
            last_checkpoint_step = committed_steps;
            trace.push(step_end, &format!("checkpoint step={committed_steps}"));
            next_start += write_cost;
        }
        step_start = next_start;
        step_end = step_start + step_duration(&effects, step_start);
    }

    assert!(
        stats.completed_steps == total_steps,
        "replay ended early: {} of {total_steps} steps",
        stats.completed_steps
    );
    let accounted = stats.healthy_time
        + stats.checkpoint_time
        + stats.recomputed_time
        + stats.stalled_time
        + stats.restart_time;
    let drift = (accounted.as_secs() - stats.total_time.as_secs()).abs();
    assert!(
        drift <= 1e-6 * stats.total_time.as_secs().max(1.0),
        "time buckets do not partition the run: {} vs {}",
        accounted.as_secs(),
        stats.total_time.as_secs()
    );
    trace.push(
        stats.total_time,
        &format!(
            "done total={:.6} healthy={:.6} ckpt={:.6} recomputed={:.6} stalled={:.6} \
             restart={:.6} restarts={} retries={} checkpoints={}",
            stats.total_time.as_secs(),
            stats.healthy_time.as_secs(),
            stats.checkpoint_time.as_secs(),
            stats.recomputed_time.as_secs(),
            stats.stalled_time.as_secs(),
            stats.restart_time.as_secs(),
            stats.restarts,
            stats.retries,
            stats.checkpoints_written
        ),
    );
    (stats, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RunSpec, Simulator};
    use crate::job::ConvergenceModel;
    use mlperf_data::storage::StorageDevice;
    use mlperf_data::{DatasetId, InputPipeline};
    use mlperf_hw::systems::SystemId;
    use mlperf_hw::units::Bytes;
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

    fn report(n: u32) -> StepReport {
        let system = SystemId::Dss8440.spec();
        Simulator::new(&system)
            .execute(&RunSpec::on_first(resnet_job(), n))
            .unwrap()
            .report
    }

    fn config(plan: FaultPlan) -> FaultConfig {
        FaultConfig {
            plan,
            checkpoint: CheckpointSpec::new(Seconds::from_minutes(2.0), StorageDevice::NvmeSsd),
            retry: RetryPolicy::default(),
        }
    }

    #[test]
    fn plan_generation_is_seed_deterministic() {
        let horizon = Seconds::from_hours(4.0);
        let mtbf = Seconds::from_minutes(20.0);
        let a = FaultPlan::generate(11, horizon, mtbf, 8);
        let b = FaultPlan::generate(11, horizon, mtbf, 8);
        assert_eq!(a, b);
        assert_eq!(a.script_trace(), b.script_trace());
        let c = FaultPlan::generate(12, horizon, mtbf, 8);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn plan_respects_horizon_and_mtbf() {
        let horizon = Seconds::from_hours(10.0);
        let mtbf = Seconds::from_minutes(30.0);
        let plan = FaultPlan::generate(3, horizon, mtbf, 4);
        assert!(!plan.events().is_empty());
        for e in plan.events() {
            assert!(e.at.as_secs() < horizon.as_secs());
        }
        // ~20 expected arrivals; allow a wide band.
        let n = plan.events().len();
        assert!((8..=40).contains(&n), "{n} arrivals");
    }

    #[test]
    fn fault_free_replay_is_pure_checkpoint_tax() {
        let step = report(4);
        let mut cfg = config(FaultPlan::from_events(
            0,
            Seconds::from_hours(1.0),
            Vec::new(),
        ));
        // Checkpoint every ~500 steps so a 2 000-step run writes a few.
        cfg.checkpoint.interval = step.step_time.scale(500.0);
        let total_steps = 2_000;
        let (stats, _) = replay(&cfg, &resnet_job(), &step, total_steps);
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.recomputed_time, Seconds::ZERO);
        assert_eq!(stats.stalled_time, Seconds::ZERO);
        let ideal = step.step_time.scale(total_steps as f64);
        assert!((stats.healthy_time.as_secs() - ideal.as_secs()).abs() < 1e-6);
        assert!(stats.checkpoints_written > 0);
        assert!(
            (stats.total_time.as_secs() - ideal.as_secs() - stats.checkpoint_time.as_secs()).abs()
                < 1e-6
        );
    }

    #[test]
    fn gpu_death_restarts_from_last_checkpoint() {
        let step = report(4);
        let interval = Seconds::from_minutes(2.0);
        let per_ckpt = CheckpointSpec::new(interval, StorageDevice::NvmeSsd).interval_steps(&step);
        // Kill a GPU mid-way through the second checkpoint window.
        let kill_at = step.step_time.scale(1.5 * per_ckpt as f64);
        let cfg = config(FaultPlan::from_events(
            1,
            Seconds::from_hours(1.0),
            vec![FaultEvent {
                at: kill_at,
                kind: FaultKind::GpuFailure { gpu: 2 },
            }],
        ));
        let total_steps = 3 * per_ckpt;
        let (stats, trace) = replay(&cfg, &resnet_job(), &step, total_steps);
        assert_eq!(stats.gpu_failures, 1);
        assert_eq!(stats.restarts, 1);
        // Roughly half a window of work (plus the partial step) rolled back.
        let half_window = step.step_time.scale(0.5 * per_ckpt as f64);
        let lost = stats.recomputed_time.as_secs();
        assert!(
            lost >= half_window.as_secs() * 0.9 && lost <= half_window.as_secs() * 1.3,
            "lost {lost} vs window {}",
            half_window.as_secs()
        );
        let text = String::from_utf8(trace.to_bytes()).unwrap();
        assert!(text.contains("gpu_failure gpu=2"));
        assert!(text.contains(&format!("restart from_step={per_ckpt}")));
    }

    #[test]
    fn link_flap_on_one_gpu_is_a_noop() {
        let step = report(1);
        let cfg = config(FaultPlan::from_events(
            2,
            Seconds::from_hours(1.0),
            vec![FaultEvent {
                at: step.step_time.scale(5.5),
                kind: FaultKind::LinkFlap {
                    duration: Seconds::new(10.0),
                },
            }],
        ));
        let (stats, _) = replay(&cfg, &resnet_job(), &step, 100);
        assert_eq!(stats.link_flaps, 1);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.stalled_time, Seconds::ZERO);
    }

    #[test]
    fn link_flap_retries_cover_the_outage() {
        let step = report(4);
        let outage = Seconds::new(10.0);
        let cfg = config(FaultPlan::from_events(
            2,
            Seconds::from_hours(1.0),
            vec![FaultEvent {
                at: step.step_time.scale(5.5),
                kind: FaultKind::LinkFlap { duration: outage },
            }],
        ));
        let (stats, _) = replay(&cfg, &resnet_job(), &step, 100);
        assert_eq!(stats.link_flaps, 1);
        assert!(stats.retries >= 1);
        assert_eq!(stats.restarts, 0);
        // Backoff waits at least as long as the outage (1+2+4+8 covers 10).
        assert!(stats.stalled_time >= outage);
    }

    #[test]
    fn flap_outlasting_backoff_escalates_to_restart() {
        let step = report(4);
        let retry = RetryPolicy {
            base: Seconds::new(0.5),
            factor: 1.0,
            max_retries: 3,
        };
        let mut cfg = config(FaultPlan::from_events(
            2,
            Seconds::from_hours(1.0),
            vec![FaultEvent {
                at: step.step_time.scale(5.5),
                kind: FaultKind::LinkFlap {
                    duration: Seconds::new(60.0),
                },
            }],
        ));
        cfg.retry = retry;
        let (stats, trace) = replay(&cfg, &resnet_job(), &step, 100);
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.retries, 3);
        let text = String::from_utf8(trace.to_bytes()).unwrap();
        assert!(text.contains("flap escalated attempts=3"));
    }

    #[test]
    fn throttle_slows_future_steps_only() {
        let step = report(4);
        let cfg = config(FaultPlan::from_events(
            4,
            Seconds::from_hours(1.0),
            vec![FaultEvent {
                at: step.step_time.scale(10.5),
                kind: FaultKind::ThermalThrottle {
                    gpu: 0,
                    factor: 0.5,
                    duration: step.step_time.scale(20.0),
                },
            }],
        ));
        let total_steps = 50;
        let (stats, _) = replay(&cfg, &resnet_job(), &step, total_steps);
        let ideal = step.step_time.scale(total_steps as f64);
        assert!(
            stats.healthy_time > ideal,
            "straggler did not stretch steps"
        );
        assert_eq!(stats.restarts, 0);
        // Bounded: even halving clocks at most doubles the affected window.
        assert!(stats.healthy_time.as_secs() < 1.5 * ideal.as_secs());
    }

    #[test]
    fn host_stall_stretches_the_run_by_its_duration() {
        let step = report(4);
        let stall = Seconds::new(30.0);
        let cfg = config(FaultPlan::from_events(
            5,
            Seconds::from_hours(1.0),
            vec![FaultEvent {
                at: step.step_time.scale(3.5),
                kind: FaultKind::HostStall { duration: stall },
            }],
        ));
        let baseline = {
            let clean = config(FaultPlan::from_events(
                5,
                Seconds::from_hours(1.0),
                Vec::new(),
            ));
            replay(&clean, &resnet_job(), &step, 200).0.total_time
        };
        let (stats, _) = replay(&cfg, &resnet_job(), &step, 200);
        assert_eq!(stats.host_stalls, 1);
        let delta = stats.total_time.as_secs() - baseline.as_secs();
        assert!((delta - stall.as_secs()).abs() < 1e-6, "delta {delta}");
    }

    #[test]
    fn replay_is_byte_deterministic() {
        let step = report(8);
        let plan =
            FaultPlan::generate(77, Seconds::from_hours(2.0), Seconds::from_minutes(10.0), 8);
        let cfg = config(plan);
        let (s1, t1) = replay(&cfg, &resnet_job(), &step, 20_000);
        let (s2, t2) = replay(&cfg, &resnet_job(), &step, 20_000);
        assert_eq!(s1, s2);
        assert_eq!(t1.to_bytes(), t2.to_bytes());
        assert!(s1.restarts + s1.retries + s1.throttle_events + s1.host_stalls > 0);
    }

    /// A 0.25 s step (exact in binary, so step ends land exactly on
    /// multiples of it) with a checkpoint every 10 steps.
    fn quarter_second_config(events: Vec<FaultEvent>) -> (StepReport, FaultConfig) {
        let mut step = report(4);
        step.step_time = Seconds::new(0.25);
        step.compute_time = Seconds::new(0.125);
        let mut cfg = config(FaultPlan::from_events(9, Seconds::from_hours(1.0), events));
        cfg.checkpoint.interval = Seconds::new(2.5);
        assert_eq!(cfg.checkpoint.interval_steps(&step), 10);
        (step, cfg)
    }

    #[test]
    fn failure_at_a_step_end_lands_before_the_step_commits() {
        // Step 10 ends, and would write checkpoint 10, at exactly 2.5 s;
        // the failure at the same instant goes first, so the step is lost
        // with the nine before it and the run restarts from step 0.
        let (step, cfg) = quarter_second_config(vec![FaultEvent {
            at: Seconds::new(2.5),
            kind: FaultKind::GpuFailure { gpu: 1 },
        }]);
        let (stats, trace) = replay(&cfg, &resnet_job(), &step, 40);
        assert_eq!(
            trace.lines()[1..3],
            [
                "t=2.500000 fault gpu_failure gpu=1",
                "t=2.500000 restart from_step=0 lost_steps=9 lost_time=2.500000",
            ]
        );
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.recomputed_time, Seconds::new(2.5));
        assert_eq!(stats.completed_steps, 40);
    }

    #[test]
    fn unsorted_plans_replay_like_their_time_sorted_copy() {
        let at = |steps: f64, kind| FaultEvent {
            at: Seconds::new(0.25 * steps),
            kind,
        };
        let throttle = FaultKind::ThermalThrottle {
            gpu: 0,
            factor: 0.5,
            duration: Seconds::new(3.0),
        };
        let stall = FaultKind::HostStall {
            duration: Seconds::new(0.75),
        };
        let flap = FaultKind::LinkFlap {
            duration: Seconds::new(1.5),
        };
        let unsorted = vec![
            at(30.0, FaultKind::GpuFailure { gpu: 3 }),
            at(4.0, throttle),
            at(20.0, stall),
            at(4.0, stall),
            at(10.0, FaultKind::GpuFailure { gpu: 0 }),
            at(45.0, flap),
            at(12.0, throttle),
            at(25.0, flap),
        ];
        let mut sorted = unsorted.clone();
        // Stable: the two faults at 1.0 s keep their listed order.
        sorted.sort_by(|a, b| a.at.partial_cmp(&b.at).unwrap());
        assert_ne!(sorted, unsorted);
        let (step, shuffled) = quarter_second_config(unsorted);
        let (_, in_order) = quarter_second_config(sorted);
        let (s1, t1) = replay(&shuffled, &resnet_job(), &step, 120);
        let (s2, t2) = replay(&in_order, &resnet_job(), &step, 120);
        assert_eq!(s1, s2);
        assert_eq!(t1.to_bytes(), t2.to_bytes());
        assert_eq!(s1.restarts, 2);
        assert_eq!(s1.throttle_events + s1.host_stalls + s1.link_flaps, 6);
        // Faults at one instant apply in plan order.
        let tied: Vec<&String> = t1
            .lines()
            .iter()
            .filter(|l| l.starts_with("t=1.000000 fault"))
            .collect();
        assert_eq!(
            tied,
            [
                "t=1.000000 fault thermal_throttle gpu=0 factor=0.500000 duration=3.000000",
                "t=1.000000 fault host_stall duration=0.750000",
            ]
        );
    }
}
