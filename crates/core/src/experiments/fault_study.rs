//! Extension: fault injection, checkpoint/restart, and expected
//! time-to-train.
//!
//! MLPerf scores healthy runs, but the paper's closing cluster discussion
//! (§IV-D) is really about operating training at scale — where GPUs die,
//! links flap, and the metric that matters is the *expected* time-to-train
//! under a checkpoint policy. This study prices that end to end on the
//! simulated substrate:
//!
//! 1. an analytic MTBF × checkpoint-interval sweep of Daly's expected
//!    runtime for the Transformer's measured time-to-train, with the
//!    Young/Daly-optimal interval beside the naive fixed choices;
//! 2. a seeded DES fault replay ([`mlperf_sim::fault`]) at one fixed
//!    point — same seed, byte-identical trace at any `MLPERF_JOBS`
//!    (the rendered fingerprint is what the CI diff pins);
//! 3. the elastic cluster: all five scheduling policies re-placing the
//!    MLPerf mix after a mid-run node failure.

use crate::benchmark::BenchmarkId;
use crate::experiments::figure4;
use crate::report::Table;
use crate::runner::{csv_header, CsvFile, Ctx, Decl, TrainPoint};
use mlperf_data::storage::StorageDevice;
use mlperf_hw::systems::SystemId;
use mlperf_hw::units::Seconds;
use mlperf_sim::checkpoint::daly_interval;
use mlperf_sim::cluster::{Cluster, ClusterJobSpec, ClusterTrace, NodeFailure, Policy, Submission};
use mlperf_sim::fault::{replay, FaultConfig, FaultPlan, FaultStats, RetryPolicy};
use mlperf_sim::{CheckpointSpec, SimError};
use mlperf_testkit::hash::fnv1a64;

/// The fault-study workload: the Transformer has the suite's heaviest
/// checkpoint (Adam keeps two FP32 moments per parameter), so the
/// interval trade-off is visible.
const BENCH: BenchmarkId = BenchmarkId::MlpfXfmrPy;
/// Platform and width of the base run.
const SYSTEM: SystemId = SystemId::Dss8440;
const GPUS: u32 = 4;
/// Checkpoints go to the shared filer tier, not local NVMe.
const DEVICE: StorageDevice = StorageDevice::SataSsd;
/// The fixed seed of the DES replay point (the CI replay-smoke contract).
const SEED: u64 = 0xF00D;
/// MTBF column of the analytic sweep, hours (the `sweep::fault_ttt` grid;
/// kept here as the test oracle for the rendered rows).
#[cfg(test)]
const MTBF_HOURS: [f64; 3] = [1.0, 4.0, 24.0];
/// Naive fixed checkpoint intervals, minutes (likewise `sweep::fault_ttt`).
#[cfg(test)]
const INTERVAL_MIN: [f64; 4] = [1.0, 10.0, 60.0, 240.0];
/// MTBF of the replayed sample path, hours.
const REPLAY_MTBF_HOURS: f64 = 1.0;
/// When the elastic study's node dies, and how many GPUs it takes.
const NODE_LOSS_MIN: f64 = 60.0;
const NODE_LOSS_GPUS: u64 = 2;

/// One point of the analytic sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepRow {
    /// Mean time between failures, hours.
    pub mtbf_hours: f64,
    /// Checkpoint interval, minutes.
    pub interval_min: f64,
    /// Daly's expected time-to-train, hours.
    pub expected_hours: f64,
    /// Expected overhead over the failure-free run, percent.
    pub overhead_pct: f64,
    /// Whether this row's interval is the Daly-optimal one.
    pub daly: bool,
}

/// The fixed-seed DES replay summary.
#[derive(Debug, Clone)]
pub struct ReplaySummary {
    /// The plan seed.
    pub seed: u64,
    /// MTBF the plan was drawn at, hours.
    pub mtbf_hours: f64,
    /// Checkpoint interval used (Daly-optimal), seconds.
    pub interval_secs: f64,
    /// Faults the plan scheduled.
    pub planned_faults: usize,
    /// The replay accounting.
    pub stats: FaultStats,
    /// FNV-1a fingerprint of the full trace bytes (draw log + replay
    /// log) — rendered, so a report diff catches any replay divergence.
    pub fingerprint: u64,
    /// Trace line count (draw log + replay actions).
    pub trace_lines: usize,
}

/// One policy's elastic-cluster result.
#[derive(Debug, Clone)]
pub struct ElasticRow {
    /// Policy display name.
    pub policy: &'static str,
    /// The execution trace under the node failure.
    pub trace: ClusterTrace,
}

/// Everything the fault study produced.
#[derive(Debug, Clone)]
pub struct FaultStudy {
    /// Failure-free time-to-train of the base run, hours.
    pub work_hours: f64,
    /// One checkpoint write, seconds.
    pub write_cost_secs: f64,
    /// One restart (relaunch + state read), seconds.
    pub restart_cost_secs: f64,
    /// The analytic MTBF × interval sweep.
    pub sweep: Vec<SweepRow>,
    /// The fixed-seed DES replay.
    pub replay: ReplaySummary,
    /// The five policies under the node failure.
    pub elastic: Vec<ElasticRow>,
}

fn checkpoint_spec(interval: Seconds) -> CheckpointSpec {
    CheckpointSpec::new(interval, DEVICE)
}

/// Run the fault study through a shared executor context (the base run
/// and the elastic job times are Figure 4 / Table IV points, so they
/// memoize across the report).
///
/// # Errors
///
/// Propagates [`SimError`] from the base-run measurement.
pub fn run_ctx(ctx: &Ctx) -> Result<FaultStudy, SimError> {
    let point = TrainPoint::new(BENCH, SYSTEM, GPUS);
    let outcome = ctx.outcome(&point)?;
    let step = ctx.step(&point)?;
    let job = ctx.base_job(BENCH, false);
    let work = outcome.total_time;
    let total_steps = outcome.total_steps();

    let probe = checkpoint_spec(Seconds::from_minutes(10.0));
    let write_cost = probe.write_cost(job);
    let restart_cost = probe.restart_cost(job);

    // 1. Analytic sweep: fixed intervals vs the Daly-optimal one, as the
    // declarative `sweep::fault_ttt` grid (MTBF outermost, interval
    // inner — the exact order the hand-rolled loop produced).
    let spec = crate::sweep::fault_ttt();
    let swept = crate::sweep::run_serial(ctx, &spec, None);
    let mut sweep = Vec::new();
    for cell in &swept.cells {
        use crate::sweep::{CellKind, IntervalChoice};
        let v = cell
            .outcome
            .as_ref()
            .map_err(crate::sweep::CellError::to_sim)?;
        sweep.push(SweepRow {
            mtbf_hours: cell.spec.mtbf_hours.expect("mtbf axis set"),
            interval_min: v.get(CellKind::ExpectedTtt, "interval_min"),
            expected_hours: v.get(CellKind::ExpectedTtt, "expected_hours"),
            overhead_pct: v.get(CellKind::ExpectedTtt, "overhead_pct"),
            daly: cell.spec.interval == Some(IntervalChoice::Daly),
        });
    }

    // 2. One seeded sample path through the DES replay.
    let mtbf = Seconds::from_hours(REPLAY_MTBF_HOURS);
    let interval = daly_interval(write_cost, mtbf)?;
    let cfg = FaultConfig {
        plan: FaultPlan::generate(SEED, work.scale(3.0), mtbf, GPUS),
        checkpoint: checkpoint_spec(interval),
        retry: RetryPolicy::default(),
    };
    let planned_faults = cfg.plan.events().len();
    let (stats, trace) = replay(&cfg, job, &step, total_steps);
    let bytes = trace.to_bytes();
    let replay_summary = ReplaySummary {
        seed: SEED,
        mtbf_hours: REPLAY_MTBF_HOURS,
        interval_secs: interval.as_secs(),
        planned_faults,
        fingerprint: fnv1a64(&bytes),
        trace_lines: bytes.iter().filter(|&&b| b == b'\n').count(),
        stats,
    };

    // 3. The elastic cluster: the MLPerf mix loses half its pool mid-run.
    let specs: Vec<ClusterJobSpec> = figure4::measure_job_times_ctx(ctx)?
        .into_iter()
        .map(|j| {
            let times: Vec<(u64, f64)> = j
                .widths()
                .filter(|&w| w <= u64::from(GPUS))
                .map(|w| (w, j.time_at(w).expect("measured")))
                .collect();
            ClusterJobSpec::new(j.name(), times)
        })
        .collect();
    let failure = [NodeFailure::after_minutes(NODE_LOSS_MIN, NODE_LOSS_GPUS)];
    let elastic = Policy::ALL
        .into_iter()
        .map(|p| {
            let subs: Vec<Submission> = specs.iter().cloned().map(Submission::at_start).collect();
            let trace = Cluster::new(u64::from(GPUS)).run_with_faults(subs, p, &failure);
            ElasticRow {
                policy: p.name(),
                trace,
            }
        })
        .collect();

    Ok(FaultStudy {
        work_hours: work.as_hours(),
        write_cost_secs: write_cost.as_secs(),
        restart_cost_secs: restart_cost.as_secs(),
        sweep,
        replay: replay_summary,
        elastic,
    })
}

/// Render all three parts.
pub fn render(s: &FaultStudy) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Fault study: {} on {} x{GPUS}, checkpoints to {DEVICE}\n\
         failure-free time-to-train {:.2} h; one checkpoint write {:.1} s, \
         one restart {:.1} s\n\n",
        BENCH.abbreviation(),
        SYSTEM.name(),
        s.work_hours,
        s.write_cost_secs,
        s.restart_cost_secs,
    ));

    let mut t = Table::new(
        "Expected time-to-train vs MTBF and checkpoint interval (Daly)",
        ["MTBF (h)", "Interval", "E[TTT] (h)", "Overhead", "Policy"],
    );
    for r in &s.sweep {
        t.add_row([
            format!("{:.0}", r.mtbf_hours),
            format!("{:.1} min", r.interval_min),
            format!("{:.2}", r.expected_hours),
            format!("{:.2}%", r.overhead_pct),
            if r.daly { "daly-optimal" } else { "fixed" }.to_string(),
        ]);
    }
    out.push_str(&t.to_string());
    out.push('\n');

    let rp = &s.replay;
    let st = &rp.stats;
    out.push_str(&format!(
        "Seeded DES replay (seed {:#x}, MTBF {:.0} h, Daly interval {:.0} s):\n\
         {} faults planned; {} GPU failures, {} link flaps, {} throttles, \
         {} host stalls\n\
         {} restarts, {} retries, {} checkpoints written\n\
         healthy {:.2} h + checkpoint {:.3} h + recomputed {:.3} h + stalled \
         {:.3} h + restart {:.3} h = total {:.2} h (slowdown {:.3}x)\n\
         trace: {} lines, fingerprint {:#018x}\n\n",
        rp.seed,
        rp.mtbf_hours,
        rp.interval_secs,
        rp.planned_faults,
        st.gpu_failures,
        st.link_flaps,
        st.throttle_events,
        st.host_stalls,
        st.restarts,
        st.retries,
        st.checkpoints_written,
        st.healthy_time.as_hours(),
        st.checkpoint_time.as_hours(),
        st.recomputed_time.as_hours(),
        st.stalled_time.as_hours(),
        st.restart_time.as_hours(),
        st.total_time.as_hours(),
        st.slowdown(),
        rp.trace_lines,
        rp.fingerprint,
    ));

    let mut t = Table::new(
        format!(
            "Elastic rescheduling: {NODE_LOSS_GPUS} of {GPUS} GPUs die at \
             {NODE_LOSS_MIN:.0} min"
        ),
        [
            "Policy",
            "Makespan (min)",
            "Mean wait (min)",
            "Utilization",
            "Preempted",
            "Abandoned",
        ],
    );
    for r in &s.elastic {
        t.add_row([
            r.policy.to_string(),
            format!("{:.0}", r.trace.makespan.as_minutes()),
            format!("{:.0}", r.trace.mean_wait().as_minutes()),
            format!("{:.0}%", r.trace.utilization() * 100.0),
            r.trace.preemptions.to_string(),
            r.trace.abandoned.len().to_string(),
        ]);
    }
    out.push_str(&t.to_string());
    out
}

/// The analytic sweep, one row per (MTBF, interval) point.
fn sweep_rows(s: &FaultStudy, csv: &mut Table) {
    for r in &s.sweep {
        csv.add_row([
            format!("{:.1}", r.mtbf_hours),
            format!("{:.3}", r.interval_min),
            format!("{:.4}", r.expected_hours),
            format!("{:.4}", r.overhead_pct),
            if r.daly { "daly" } else { "fixed" }.to_string(),
        ]);
    }
}

/// The elastic-cluster outcomes, one row per policy.
fn elastic_rows(s: &FaultStudy, csv: &mut Table) {
    for r in &s.elastic {
        csv.add_row([
            r.policy.to_string(),
            format!("{:.2}", r.trace.makespan.as_minutes()),
            format!("{:.2}", r.trace.mean_wait().as_minutes()),
            format!("{:.4}", r.trace.utilization()),
            r.trace.preemptions.to_string(),
            r.trace.abandoned.len().to_string(),
        ]);
    }
}

/// The fault study as the executor schedules it. Depends on Figure 4 so
/// the shared DSS-8440 job-time points are warm in the memo cache. Its
/// spec is the analytic grid plus the elastic part's Figure 4 grid: a
/// change to either sweep invalidates this section's cache.
pub static EXP: Decl<FaultStudy> = Decl {
    id: "fault_study",
    title: "Extension: fault injection, checkpoint/restart, expected TTT",
    deps: &["figure4"],
    spec: Some(|| {
        let mut s = format!("seed={SEED:x};").into_bytes();
        s.extend_from_slice(&crate::sweep::fault_ttt().canonical_bytes());
        s.push(b'|');
        s.extend_from_slice(&crate::sweep::figure4_scaling().canonical_bytes());
        s
    }),
    run: run_ctx,
    render,
    csv: &[
        CsvFile {
            file: "fault_study_sweep.csv",
            header: || csv_header("mtbf_hours,interval_min,expected_hours,overhead_pct,policy"),
            rows: sweep_rows,
        },
        CsvFile {
            file: "fault_study_elastic.csv",
            header: || {
                csv_header("policy,makespan_min,mean_wait_min,utilization,preempted,abandoned")
            },
            rows: elastic_rows,
        },
    ],
};

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> FaultStudy {
        run_ctx(&Ctx::new()).unwrap()
    }

    #[test]
    fn daly_interval_beats_every_naive_interval() {
        let s = study();
        for &mtbf in &MTBF_HOURS {
            let group: Vec<&SweepRow> = s
                .sweep
                .iter()
                .filter(|r| (r.mtbf_hours - mtbf).abs() < 1e-9)
                .collect();
            let daly = group.iter().find(|r| r.daly).expect("daly row present");
            for fixed in group.iter().filter(|r| !r.daly) {
                assert!(
                    daly.expected_hours <= fixed.expected_hours + 1e-9,
                    "daly {} h loses to {} min fixed ({} h) at MTBF {mtbf} h",
                    daly.expected_hours,
                    fixed.interval_min,
                    fixed.expected_hours
                );
            }
        }
    }

    #[test]
    fn sweep_overheads_grow_as_mtbf_shrinks() {
        let s = study();
        // At any fixed interval, a flakier cluster pays more.
        for &interval in &INTERVAL_MIN {
            let at = |mtbf: f64| {
                s.sweep
                    .iter()
                    .find(|r| {
                        !r.daly
                            && (r.mtbf_hours - mtbf).abs() < 1e-9
                            && (r.interval_min - interval).abs() < 1e-9
                    })
                    .expect("grid point present")
                    .overhead_pct
            };
            assert!(at(1.0) > at(4.0));
            assert!(at(4.0) > at(24.0));
        }
    }

    #[test]
    fn replay_exercises_faults_and_is_reproducible() {
        let a = study();
        assert!(a.replay.planned_faults > 0, "seed drew no faults");
        let st = &a.replay.stats;
        assert!(
            st.gpu_failures + st.link_flaps + st.throttle_events + st.host_stalls > 0,
            "no fault landed inside the run"
        );
        assert!(st.checkpoints_written > 0);
        assert!(st.slowdown() >= 1.0);
        // Fresh context, same seed: byte-identical trace.
        let b = run_ctx(&Ctx::new()).unwrap();
        assert_eq!(a.replay.fingerprint, b.replay.fingerprint);
        assert_eq!(a.replay.stats, b.replay.stats);
    }

    #[test]
    fn every_policy_finishes_the_mix_despite_the_node_loss() {
        let s = study();
        assert_eq!(s.elastic.len(), 5);
        for r in &s.elastic {
            assert_eq!(r.trace.completions.len(), 7, "{}", r.policy);
            assert!(r.trace.abandoned.is_empty(), "{}", r.policy);
            // Nothing runs wider than the surviving pool afterwards.
            for c in &r.trace.completions {
                assert!(
                    c.start.as_minutes() < NODE_LOSS_MIN
                        || c.width <= u64::from(GPUS) - NODE_LOSS_GPUS,
                    "{} placed width {} after the loss",
                    r.policy,
                    c.width
                );
            }
        }
        // The mix runs past the failure, so someone gets preempted.
        let preemptions: u32 = s.elastic.iter().map(|r| r.trace.preemptions).sum();
        assert!(preemptions > 0, "node loss never interrupted anything");
    }

    #[test]
    fn render_covers_all_three_parts() {
        let s = study();
        let text = render(&s);
        assert!(text.contains("Fault study:"));
        assert!(text.contains("daly-optimal"));
        assert!(text.contains("Seeded DES replay"));
        assert!(text.contains("fingerprint"));
        assert!(text.contains("Elastic rescheduling"));
        assert!(text.contains("shortest-job-first"));
    }
}
