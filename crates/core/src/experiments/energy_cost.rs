//! Extension: energy and dollar cost to train.
//!
//! DAWNBench's headline metrics are time-to-accuracy *and cost (in USD) of
//! training* (§II-B); the paper reproduces only the time axis. This
//! extension prices every Table IV training run in kilowatt-hours (from the
//! TDP models in [`mlperf_hw::power`]) and in dollars on a 2019-era cloud
//! instance matching each platform.

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::{Ctx, Decl, TrainPoint};
use mlperf_hw::power::{cpu_tdp_watts, draw_watts, gpu_tdp_watts};
use mlperf_hw::systems::{SystemId, SystemSpec};
use mlperf_sim::{SimError, TrainingOutcome};

/// 2019-era cloud hourly rate for a platform-equivalent instance, USD.
/// (8× V100 ≈ p3.16xlarge at ~$24.48/h; single P100 ≈ ~$1.46/h.)
pub fn hourly_rate_usd(system: SystemId, gpus: u32) -> f64 {
    let per_gpu_hour = match system {
        SystemId::ReferenceP100 => 1.46,
        SystemId::Dgx1V => 3.06,
        _ => 3.06, // V100-class on-demand
    };
    // Host share amortized into the GPU rate, as cloud pricing does.
    per_gpu_hour * gpus as f64
}

/// One benchmark's energy/cost row.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// The benchmark.
    pub id: BenchmarkId,
    /// GPUs used.
    pub gpus: u32,
    /// Training hours.
    pub hours: f64,
    /// Chassis energy, kWh.
    pub kwh: f64,
    /// Cloud cost, USD.
    pub usd: f64,
}

/// The full study on one platform.
#[derive(Debug, Clone)]
pub struct EnergyCost {
    /// The platform used.
    pub system: SystemId,
    /// Per-benchmark rows.
    pub rows: Vec<EnergyRow>,
}

/// Chassis power during a run: every used GPU at its busy fraction, CPUs
/// at the host utilization, idle GPUs at their floor.
fn chassis_watts(system: &SystemSpec, outcome: &TrainingOutcome) -> f64 {
    let gpu_tdp = gpu_tdp_watts(system.gpu_model());
    let used = outcome.step.n_gpus as f64;
    let total_gpus = system.gpu_count() as f64;
    let gpu_power = used * draw_watts(gpu_tdp, outcome.step.gpu_busy_fraction)
        + (total_gpus - used) * draw_watts(gpu_tdp, 0.0);
    let cores = system.cpu_model().spec().cores() as f64 * system.cpu_count() as f64;
    let cpu_util = (outcome.step.cpu_core_secs_per_step
        / system.cpu_model().spec().base_freq_ghz()
        / (outcome.step.step_time.as_secs() * cores))
        .min(1.0);
    let cpu_power =
        system.cpu_count() as f64 * draw_watts(cpu_tdp_watts(system.cpu_model()), cpu_util);
    gpu_power + cpu_power
}

/// Run the study on a specific platform and GPU count, through a shared
/// executor context (the report's DSS-8440 8-GPU points are the same ones
/// Table IV prices).
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_on_ctx(ctx: &Ctx, system_id: SystemId, gpus: u32) -> Result<EnergyCost, SimError> {
    let system = system_id.spec();
    let mut rows = Vec::new();
    for id in BenchmarkId::TABLE_IV {
        let outcome = ctx.outcome(&TrainPoint::new(id, system_id, gpus))?;
        let hours = outcome.total_time.as_hours();
        let watts = chassis_watts(&system, &outcome);
        rows.push(EnergyRow {
            id,
            gpus,
            hours,
            kwh: watts * hours / 1e3,
            usd: hourly_rate_usd(system_id, gpus) * hours,
        });
    }
    Ok(EnergyCost {
        system: system_id,
        rows,
    })
}

/// Render the study as a table.
pub fn render(e: &EnergyCost) -> String {
    let mut t = Table::new(
        format!(
            "Energy & cost to train ({} at {} GPUs) — DAWNBench's second metric",
            e.system,
            e.rows.first().map(|r| r.gpus).unwrap_or(0)
        ),
        ["Benchmark", "Hours", "Energy (kWh)", "Cloud cost (USD)"],
    );
    for r in &e.rows {
        t.add_row([
            r.id.abbreviation().to_string(),
            format!("{:.2}", r.hours),
            format!("{:.1}", r.kwh),
            format!("${:.0}", r.usd),
        ]);
    }
    t.to_string()
}

/// The energy/cost study as the executor schedules it: the Table IV
/// benchmarks at 8 GPUs on the DSS 8440.
pub static EXP: Decl<EnergyCost> = Decl {
    id: "energy_cost",
    title: "Extension: energy and dollar cost to train",
    deps: &[],
    spec: None,
    run: |ctx| run_on_ctx(ctx, SystemId::Dss8440, 8),
    render,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_with_training_time() {
        let e = run_on_ctx(&Ctx::new(), SystemId::Dss8440, 8).unwrap();
        assert_eq!(e.rows.len(), 6);
        for pair in e.rows.windows(1) {
            let r = &pair[0];
            assert!(r.kwh > 0.0 && r.usd > 0.0, "{}", r.id);
        }
        // NCF trains in minutes: it must be the cheapest by far.
        let ncf = e
            .rows
            .iter()
            .find(|r| r.id == BenchmarkId::MlpfNcfPy)
            .unwrap();
        for r in &e.rows {
            if r.id != BenchmarkId::MlpfNcfPy {
                assert!(r.usd > 10.0 * ncf.usd, "{} vs NCF", r.id);
            }
        }
    }

    #[test]
    fn energy_roughly_tracks_dollar_cost_ordering() {
        let e = run_on_ctx(&Ctx::new(), SystemId::Dss8440, 8).unwrap();
        let mut by_kwh: Vec<&EnergyRow> = e.rows.iter().collect();
        by_kwh.sort_by(|a, b| a.kwh.partial_cmp(&b.kwh).expect("finite"));
        let mut by_usd: Vec<&EnergyRow> = e.rows.iter().collect();
        by_usd.sort_by(|a, b| a.usd.partial_cmp(&b.usd).expect("finite"));
        let kwh_order: Vec<BenchmarkId> = by_kwh.iter().map(|r| r.id).collect();
        let usd_order: Vec<BenchmarkId> = by_usd.iter().map(|r| r.id).collect();
        assert_eq!(kwh_order, usd_order, "fixed platform: same ordering");
    }

    #[test]
    fn single_gpu_run_is_cheaper_per_hour_but_longer() {
        let eight = run_on_ctx(&Ctx::new(), SystemId::Dss8440, 8).unwrap();
        let one = run_on_ctx(&Ctx::new(), SystemId::Dss8440, 1).unwrap();
        let r8 = &eight.rows[0];
        let r1 = &one.rows[0];
        assert!(r1.hours > r8.hours, "1 GPU takes longer");
        // Sub-linear scaling makes the 8-GPU run cost *more* dollars.
        assert!(r8.usd > r1.usd * 0.9);
    }

    #[test]
    fn render_prints_dollars() {
        let e = run_on_ctx(&Ctx::new(), SystemId::Dss8440, 8).unwrap();
        assert!(render(&e).contains('$'));
    }
}
