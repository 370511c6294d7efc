//! Scheduling advisor: given a GPU-pool size, find the best way to run the
//! seven MLPerf training jobs (the Fig. 4 study as a tool).
//!
//! ```text
//! cargo run --release --example scheduling_advisor -- 4
//! ```

use mlperf_analysis::scheduling::{lpt_schedule, naive_schedule, optimal_schedule};
use mlperf_suite::experiments::figure4;
use mlperf_suite::Ctx;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gpus: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(4);
    if !(1..=8).contains(&gpus) {
        return Err(format!("GPU pool must be 1..=8, got {gpus}").into());
    }

    println!("measuring the 7 MLPerf jobs at every width (simulated DSS 8440)...");
    let jobs = figure4::measure_job_times_ctx(&Ctx::new())?;
    for j in &jobs {
        let widths: Vec<String> = j
            .widths()
            .map(|w| format!("{w}: {:.0} min", j.time_at(w).expect("measured")))
            .collect();
        println!("  {:16} {}", j.name(), widths.join(", "));
    }

    let naive = naive_schedule(&jobs, gpus);
    let lpt = lpt_schedule(&jobs, gpus);
    let best = optimal_schedule(&jobs, gpus);
    println!();
    println!(
        "naive (each job across all {gpus} GPUs): {:.0} min",
        naive.makespan
    );
    println!(
        "LPT heuristic:                           {:.0} min",
        lpt.makespan
    );
    println!(
        "optimal (branch-and-bound):              {:.0} min",
        best.makespan
    );
    println!(
        "optimal saves {:.1} h over naive",
        best.savings_vs(&naive) / 60.0
    );
    println!();
    println!("optimal placements:");
    for p in &best.placements {
        println!(
            "  t={:>6.0} min  {:16} on GPUs {:?} for {:.0} min",
            p.start,
            jobs[p.job].name(),
            p.gpus,
            p.duration
        );
    }
    Ok(())
}
