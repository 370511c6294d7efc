//! Extension: online cluster scheduling of the MLPerf mix.
//!
//! §IV-D's closing suggestion — "an effective algorithm to schedule various
//! machine learning training jobs submitted from researchers" — made
//! concrete: the seven MLPerf jobs (with their simulated per-width times)
//! run through the event-driven cluster of [`mlperf_sim::cluster`] under
//! several policies, both as an offline batch and as a staggered online
//! arrival stream.

use crate::experiments::figure4;
use crate::report::Table;
use crate::runner::{Ctx, Decl};
use mlperf_sim::cluster::{Cluster, ClusterJobSpec, ClusterTrace, Policy, Submission};
use mlperf_sim::SimError;

/// One policy's results on one scenario.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    /// Policy display name.
    pub policy: &'static str,
    /// The execution trace.
    pub trace: ClusterTrace,
}

/// The study: each policy on the offline batch and the online stream.
#[derive(Debug, Clone)]
pub struct ClusterStudy {
    /// All jobs present at t = 0.
    pub offline: Vec<PolicyResult>,
    /// Jobs arriving every 30 simulated minutes.
    pub online: Vec<PolicyResult>,
}

/// GPUs in the study cluster.
const GPUS: u64 = 4;
/// Minutes between online arrivals.
const ARRIVAL_GAP_MIN: f64 = 30.0;

fn job_specs(ctx: &Ctx) -> Result<Vec<ClusterJobSpec>, SimError> {
    Ok(figure4::measure_job_times_ctx(ctx)?
        .into_iter()
        .map(|j| {
            let times: Vec<(u64, f64)> = j
                .widths()
                .filter(|&w| w <= GPUS)
                .map(|w| (w, j.time_at(w).expect("measured")))
                .collect();
            ClusterJobSpec::new(j.name(), times)
        })
        .collect())
}

fn run_policies(make_subs: impl Fn() -> Vec<Submission>) -> Vec<PolicyResult> {
    // The study compares four policies; shortest-job-first runs only in
    // the fault and co-location studies.
    Policy::ALL
        .into_iter()
        .filter(|&p| p != Policy::ShortestJobFirst)
        .map(|p| PolicyResult {
            policy: p.name(),
            trace: Cluster::new(GPUS).run(make_subs(), p),
        })
        .collect()
}

/// Run the cluster-scheduling study through a shared executor context
/// (the job-time inputs are Figure 4's, so they memoize across the two).
///
/// # Errors
///
/// Propagates [`SimError`] from the job-time measurement.
pub fn run_ctx(ctx: &Ctx) -> Result<ClusterStudy, SimError> {
    let specs = job_specs(ctx)?;
    let offline = run_policies(|| specs.iter().cloned().map(Submission::at_start).collect());
    let online = run_policies(|| {
        specs
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, j)| Submission::after_minutes(j, i as f64 * ARRIVAL_GAP_MIN))
            .collect()
    });
    Ok(ClusterStudy { offline, online })
}

/// Render both scenarios.
pub fn render(s: &ClusterStudy) -> String {
    let mut out = String::new();
    for (label, results) in [
        ("offline batch", &s.offline),
        ("online (30-min arrivals)", &s.online),
    ] {
        let mut t = Table::new(
            format!("Cluster study, {label}: 7 MLPerf jobs on {GPUS} GPUs"),
            [
                "Policy",
                "Makespan (min)",
                "Mean wait (min)",
                "GPU utilization",
            ],
        );
        for r in results {
            t.add_row([
                r.policy.to_string(),
                format!("{:.0}", r.trace.makespan.as_minutes()),
                format!("{:.0}", r.trace.mean_wait().as_minutes()),
                format!("{:.0}%", r.trace.utilization() * 100.0),
            ]);
        }
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}

/// The cluster study as the executor schedules it. Depends on Figure 4 so
/// the shared DSS-8440 job-time points are warm in the memo cache by the
/// time this experiment prices them; the job times come from Figure 4's
/// scaling grid, so a grid edit invalidates this section's cache too.
pub static EXP: Decl<ClusterStudy> = Decl {
    id: "cluster_study",
    title: "Extension: online cluster scheduling of the MLPerf mix",
    deps: &["figure4"],
    spec: Some(|| crate::sweep::figure4_scaling().canonical_bytes()),
    run: run_ctx,
    render,
    csv: &[],
};

#[cfg(test)]
mod tests {
    use super::*;

    fn by_policy<'a>(rs: &'a [PolicyResult], name: &str) -> &'a ClusterTrace {
        &rs.iter()
            .find(|r| r.policy == name)
            .expect("policy ran")
            .trace
    }

    #[test]
    fn all_policies_complete_all_jobs() {
        let s = run_ctx(&Ctx::new()).unwrap();
        for r in s.offline.iter().chain(&s.online) {
            assert_eq!(r.trace.completions.len(), 7, "{}", r.policy);
            assert!(r.trace.utilization() > 0.0 && r.trace.utilization() <= 1.0);
        }
    }

    #[test]
    fn area_packing_trades_makespan_for_responsiveness() {
        // The study's finding on the real MLPerf mix: packing jobs at
        // their efficient widths slashes queueing delay (researchers get
        // results sooner) at a makespan cost — narrow placements leave
        // long single-GPU tails. Exact offline search (Figure 4) beats
        // every online policy on makespan.
        let s = run_ctx(&Ctx::new()).unwrap();
        let naive = by_policy(&s.offline, "naive-widest");
        let area = by_policy(&s.offline, "area-efficient");
        assert!(
            area.mean_wait().as_secs() < 0.5 * naive.mean_wait().as_secs(),
            "area wait {} vs naive wait {}",
            area.mean_wait(),
            naive.mean_wait()
        );
        let jobs = figure4::measure_job_times_ctx(&Ctx::new()).unwrap();
        let optimal = mlperf_analysis::scheduling::optimal_schedule(&jobs, GPUS);
        for r in &s.offline {
            assert!(
                r.trace.makespan.as_minutes() >= optimal.makespan - 1e-6,
                "{} beat the offline optimum",
                r.policy
            );
        }
    }

    #[test]
    fn online_waiting_is_worst_under_naive() {
        // Exclusive pool use makes later arrivals queue behind everything.
        let s = run_ctx(&Ctx::new()).unwrap();
        let naive = by_policy(&s.online, "naive-widest").mean_wait();
        let fcfs = by_policy(&s.online, "fcfs-widest-fit").mean_wait();
        assert!(
            fcfs.as_secs() <= naive.as_secs() + 1e-9,
            "fcfs {fcfs} vs naive {naive}"
        );
    }

    #[test]
    fn des_naive_matches_analytic_naive() {
        // Cross-validation: the event-driven cluster under the naive
        // policy reproduces the analytic naive schedule's makespan.
        let jobs = figure4::measure_job_times_ctx(&Ctx::new()).unwrap();
        let analytic = mlperf_analysis::scheduling::naive_schedule(&jobs, GPUS);
        let s = run_ctx(&Ctx::new()).unwrap();
        let des = by_policy(&s.offline, "naive-widest").makespan.as_minutes();
        assert!(
            (des - analytic.makespan).abs() < 1e-6,
            "DES {des} vs analytic {}",
            analytic.makespan
        );
    }

    #[test]
    fn render_covers_both_scenarios() {
        let s = run_ctx(&Ctx::new()).unwrap();
        let text = render(&s);
        assert!(text.contains("offline batch"));
        assert!(text.contains("online (30-min arrivals)"));
        assert!(text.contains("area-efficient"));
    }
}
