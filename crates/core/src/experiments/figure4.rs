//! Figure 4: naive vs. optimal scheduling of the 7 MLPerf workloads.
//!
//! §IV-D searches the schedule space for the seven MLPerf benchmarks on a
//! multi-GPU box: the naive baseline runs every job across all GPUs one by
//! one; the optimum co-schedules poorly-scaling jobs on fewer GPUs. The
//! paper reports savings of ≈4.1 h (2 GPUs), ≈3.0 h (4 GPUs), and ≈0.4 h
//! (8 GPUs).

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{Ctx, Decl};
use crate::sweep;
use mlperf_analysis::scheduling::{
    lpt_schedule, naive_schedule, optimal_schedule, JobTimes, Schedule,
};
use mlperf_sim::SimError;

/// The scheduling study at one GPU-pool size.
#[derive(Debug, Clone)]
pub struct SchedulingStudy {
    /// GPUs in the pool.
    pub gpu_count: u64,
    /// The paper's baseline: each job across all GPUs, sequentially.
    pub naive: Schedule,
    /// The LPT heuristic (extension beyond the paper).
    pub lpt: Schedule,
    /// The exact optimum from branch-and-bound.
    pub optimal: Schedule,
    /// Job names, indexed by the schedules' job ids.
    pub job_names: Vec<String>,
}

impl SchedulingStudy {
    /// Hours saved by the optimum over the naive baseline.
    pub fn savings_hours(&self) -> f64 {
        self.optimal.savings_vs(&self.naive) / 60.0
    }
}

/// The full Figure 4 result: studies at 2, 4, and 8 GPUs.
#[derive(Debug, Clone)]
pub struct Figure4 {
    /// Per-pool-size studies.
    pub studies: Vec<SchedulingStudy>,
}

/// Measure each MLPerf benchmark's training time at every GPU width on the
/// DSS 8440, producing the scheduler's input. The grid is the declarative
/// [`sweep::figure4_scaling`] sweep (workload outermost, GPU width inner),
/// and its 1/2/4/8-GPU DSS-8440 points are the same ones Table IV prices,
/// so in a shared context this costs nothing extra.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn measure_job_times_ctx(ctx: &Ctx) -> Result<Vec<JobTimes>, SimError> {
    let spec = sweep::figure4_scaling();
    let run = sweep::run_serial(ctx, &spec, None);
    let widths = [1u64, 2, 4, 8];
    let mut jobs = Vec::new();
    for (i, id) in BenchmarkId::MLPERF.iter().enumerate() {
        let mut times = Vec::new();
        for (j, &n) in widths.iter().enumerate() {
            let cell = &run.cells[i * widths.len() + j];
            let v = cell.outcome.as_ref().map_err(sweep::CellError::to_sim)?;
            times.push((n, v.get(sweep::CellKind::Training, "total_minutes")));
        }
        jobs.push(JobTimes::new(id.abbreviation(), times));
    }
    Ok(jobs)
}

/// Run the Figure 4 experiment through a shared executor context.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_ctx(ctx: &Ctx) -> Result<Figure4, SimError> {
    let jobs = measure_job_times_ctx(ctx)?;
    let job_names: Vec<String> = jobs.iter().map(|j| j.name().to_string()).collect();
    let mut studies = Vec::new();
    for g in [2u64, 4, 8] {
        studies.push(SchedulingStudy {
            gpu_count: g,
            naive: naive_schedule(&jobs, g),
            lpt: lpt_schedule(&jobs, g),
            optimal: optimal_schedule(&jobs, g),
            job_names: job_names.clone(),
        });
    }
    Ok(Figure4 { studies })
}

/// Render an ASCII Gantt chart of a schedule (the Fig. 4 timelines).
/// Each job gets the letter `A` + its index; a legend follows the rows.
pub fn render_gantt(study: &SchedulingStudy, schedule: &Schedule) -> String {
    let tag = |job: usize| (b'A' + (job as u8 % 26)) as char;
    let mut out = String::new();
    let scale = 60.0; // minutes per character column
    for (gpu, row) in schedule.gantt().iter().enumerate() {
        out.push_str(&format!("GPU{gpu}: "));
        let mut cursor = 0.0;
        for &(job, start, end) in row {
            let gap = ((start - cursor) / scale).round() as usize;
            out.push_str(&".".repeat(gap));
            let width = (((end - start) / scale).round() as usize).max(1);
            out.push_str(&tag(job).to_string().repeat(width));
            cursor = end;
        }
        out.push('\n');
    }
    out.push_str("legend: ");
    for (i, name) in study.job_names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}={}", tag(i), name.trim_start_matches("MLPf_")));
    }
    out.push('\n');
    out
}

/// Render the summary table plus the 4-GPU Gantt charts.
pub fn render(f: &Figure4) -> String {
    let mut t = Table::new(
        "Figure 4: Scheduling the 7 MLPerf workloads (makespans in minutes)",
        ["GPUs", "Naive", "LPT", "Optimal", "Saved vs naive"],
    );
    for s in &f.studies {
        t.add_row([
            s.gpu_count.to_string(),
            format!("{:.1}", s.naive.makespan),
            format!("{:.1}", s.lpt.makespan),
            format!("{:.1}", s.optimal.makespan),
            format!("{:.1} h", s.savings_hours()),
        ]);
    }
    let four = f
        .studies
        .iter()
        .find(|s| s.gpu_count == 4)
        .expect("4-GPU study present");
    format!(
        "{t}\n(a) naive scheduling, 4 GPUs:\n{}\n(b) optimal scheduling, 4 GPUs:\n{}",
        render_gantt(four, &four.naive),
        render_gantt(four, &four.optimal),
    )
}

/// Figure 4 as the executor schedules it.
pub static EXP: Decl<Figure4> = Decl {
    id: "figure4",
    title: "Figure 4: naive vs optimal multi-job scheduling",
    deps: &[],
    spec: Some(|| sweep::figure4_scaling().canonical_bytes()),
    run: run_ctx,
    render,
    csv: &[],
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The scheduler ablation: LPT ties naive on this job mix (every job
    /// prefers full width in isolation; at 8 GPUs LPT is 4 s shorter, a tie
    /// at the report's 0.1-minute precision), and only the exact search
    /// finds the co-scheduling wins.
    #[test]
    fn optimal_beats_naive_at_small_pools() {
        let f = run_ctx(&Ctx::new()).unwrap();
        let want = [(2, 2774.9, 2524.3), (4, 1524.4, 1387.0), (8, 873.3, 755.6)];
        assert_eq!(f.studies.len(), want.len());
        for (s, (gpus, naive, optimal)) in f.studies.iter().zip(want) {
            assert_eq!(s.gpu_count, gpus);
            for (policy, got, want) in [
                ("naive", s.naive.makespan, naive),
                ("LPT", s.lpt.makespan, naive),
                ("optimal", s.optimal.makespan, optimal),
            ] {
                assert!(
                    (got - want).abs() < 0.05,
                    "{policy} at {gpus} GPUs: {got:.2} min"
                );
            }
            assert!(s.optimal.makespan < s.lpt.makespan.min(s.naive.makespan));
        }
    }

    #[test]
    fn savings_shrink_as_the_pool_grows() {
        // Paper: ~4.1 h at 2 GPUs, ~3.0 h at 4, ~0.4 h at 8.
        let f = run_ctx(&Ctx::new()).unwrap();
        let by_g = |g: u64| {
            f.studies
                .iter()
                .find(|s| s.gpu_count == g)
                .expect("study present")
                .savings_hours()
        };
        assert!(by_g(2) > by_g(8), "2-GPU savings should exceed 8-GPU");
        assert!(by_g(4) > by_g(8));
        // Multi-hour savings at 2 and 4 GPUs, sub-hour-ish at 8.
        assert!(by_g(2) > 1.0, "2-GPU savings {} h", by_g(2));
        assert!(by_g(4) > 1.0, "4-GPU savings {} h", by_g(4));
        assert!(by_g(8) < 2.0, "8-GPU savings {} h", by_g(8));
    }

    #[test]
    fn poorly_scaling_jobs_get_narrow_placements() {
        // The optimum should not give NCF all four GPUs.
        let f = run_ctx(&Ctx::new()).unwrap();
        let four = f.studies.iter().find(|s| s.gpu_count == 4).unwrap();
        let ncf_idx = four
            .job_names
            .iter()
            .position(|n| n == "MLPf_NCF_Py")
            .expect("NCF present");
        let placement = four
            .optimal
            .placements
            .iter()
            .find(|p| p.job == ncf_idx)
            .expect("NCF scheduled");
        assert!(
            placement.gpus.len() < 4,
            "NCF got {} GPUs",
            placement.gpus.len()
        );
    }

    #[test]
    fn gantt_renders_every_gpu_row() {
        let f = run_ctx(&Ctx::new()).unwrap();
        let four = f.studies.iter().find(|s| s.gpu_count == 4).unwrap();
        let gantt = render_gantt(four, &four.optimal);
        assert_eq!(gantt.lines().count(), 5); // 4 GPU rows + legend
        assert!(gantt.contains("GPU0:"));
        assert!(gantt.contains("legend:"));
    }

    #[test]
    fn full_render_includes_both_charts() {
        let f = run_ctx(&Ctx::new()).unwrap();
        let s = render(&f);
        assert!(s.contains("(a) naive"));
        assert!(s.contains("(b) optimal"));
    }
}
