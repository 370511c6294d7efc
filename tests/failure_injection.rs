//! Failure injection: degrade links, throttle devices, shrink memory —
//! the simulator must respond the way a real cluster would, and surface
//! errors rather than masking them.

use mlperf_data::{DatasetId, InputPipeline};
use mlperf_hw::cpu::CpuModel;
use mlperf_hw::gpu::GpuModel;
use mlperf_hw::interconnect::Link;
use mlperf_hw::systems::SystemId;
use mlperf_hw::topology::{P2pClass, Topology};
use mlperf_hw::units::Bytes;
use mlperf_sim::allreduce::{plan_allreduce, AllReduceAlgorithm};
use mlperf_sim::{ConvergenceModel, Efficiency, RunSpec, SimError, Simulator, TrainingJob};
use mlperf_suite::BenchmarkId;

/// A C4140 (K)-style box but with one NVLink brick per pair failed
/// (2 lanes → 1): the collective slows, nothing breaks.
#[test]
fn degraded_nvlink_mesh_slows_the_collective() {
    let grads = Bytes::from_mib(400);
    let build = |lanes: u32| {
        let mut t = Topology::new("degraded");
        let c0 = t.add_cpu(CpuModel::XeonGold6148);
        let sw = t.add_switch();
        t.connect(c0, sw, Link::PCIE3_X16);
        let gpus: Vec<_> = (0..4)
            .map(|_| t.add_gpu(GpuModel::TeslaV100Sxm2_16))
            .collect();
        for &g in &gpus {
            t.connect(sw, g, Link::PCIE3_X16);
        }
        for (i, &a) in gpus.iter().enumerate() {
            for &b in &gpus[i + 1..] {
                t.connect(a, b, Link::NvLink { lanes });
            }
        }
        t
    };
    let healthy = build(2);
    let degraded = build(1);
    let t_healthy =
        plan_allreduce(&healthy, &[0, 1, 2, 3], AllReduceAlgorithm::Ring, grads).unwrap();
    let t_degraded =
        plan_allreduce(&degraded, &[0, 1, 2, 3], AllReduceAlgorithm::Ring, grads).unwrap();
    assert_eq!(t_degraded.worst_class, P2pClass::NvLinkDirect);
    let ratio = t_degraded.time.as_secs() / t_healthy.time.as_secs();
    assert!(
        (ratio - 2.0).abs() < 0.05,
        "half the lanes, twice the time: {ratio}"
    );
}

/// Losing NVLink entirely (fabric failure) falls back to the PCIe path —
/// the training still completes, just slower.
#[test]
fn nvlink_fabric_failure_falls_back_to_pcie() {
    let job = BenchmarkId::MlpfXfmrPy.job();
    // Healthy: the stock C4140 (K).
    let healthy = SystemId::C4140K.spec();
    let t_healthy = Simulator::new(&healthy)
        .execute(&RunSpec::on_first(job.clone(), 4))
        .unwrap()
        .report
        .step_time;
    // Failed fabric: same box, no NVLink edges.
    let mut t = Topology::new("c4140k-no-nvlink");
    let c0 = t.add_cpu(CpuModel::XeonGold6148);
    let sw = t.add_switch();
    t.connect(c0, sw, Link::PCIE3_X16);
    for _ in 0..4 {
        let g = t.add_gpu(GpuModel::TeslaV100Sxm2_16);
        t.connect(sw, g, Link::PCIE3_X16);
    }
    let class = t.worst_peer_path(&[0, 1, 2, 3]).unwrap().class;
    assert_eq!(
        class,
        P2pClass::PcieSwitchP2p,
        "fallback path is the switch"
    );
    // (Training through a custom topology requires a SystemSpec; the
    // class change plus the collective pricing is the observable here.)
    let grads = Bytes::new(job.model().params() * 2);
    let healthy_plan = plan_allreduce(
        healthy.topology(),
        &[0, 1, 2, 3],
        AllReduceAlgorithm::Ring,
        grads,
    )
    .unwrap();
    let failed_plan = plan_allreduce(&t, &[0, 1, 2, 3], AllReduceAlgorithm::Ring, grads).unwrap();
    assert!(failed_plan.time.as_secs() > 2.0 * healthy_plan.time.as_secs());
    assert!(t_healthy.as_secs() > 0.0);
}

/// Thermal throttling: a GPU sustaining half its tuned efficiency takes
/// proportionally longer on compute-bound work.
#[test]
fn thermal_throttling_stretches_steps() {
    let system = SystemId::C4140K.spec();
    let sim = Simulator::new(&system);
    let base = BenchmarkId::MlpfRes50Mx.job();
    let eff = base.efficiency();
    let throttled = base.clone().with_efficiency(Efficiency::new(
        eff.simt * 0.5,
        eff.tensor * 0.5,
        eff.memory * 0.5,
    ));
    let t_base = sim
        .execute(&RunSpec::on_first(base, 1))
        .unwrap()
        .report
        .step_time;
    let t_hot = sim
        .execute(&RunSpec::on_first(throttled, 1))
        .unwrap()
        .report
        .step_time;
    let ratio = t_hot.as_secs() / t_base.as_secs();
    assert!((1.8..2.2).contains(&ratio), "throttled ratio {ratio}");
}

/// A half-capacity DIMM population halves what staging can cache; the
/// storage plan flips from fed to starved.
#[test]
fn dram_loss_starves_imagenet_staging() {
    use mlperf_data::storage::{ReadPattern, StagingPlan, StorageDevice};
    use mlperf_hw::units::Seconds;
    let epoch = Seconds::from_minutes(4.0);
    let healthy = StagingPlan::new(
        DatasetId::ImageNet,
        Bytes::from_gib(300),
        StorageDevice::SataSsd,
        ReadPattern::SequentialShards,
        epoch,
    );
    let degraded = StagingPlan::new(
        DatasetId::ImageNet,
        Bytes::from_gib(96),
        StorageDevice::SataSsd,
        ReadPattern::SequentialShards,
        epoch,
    );
    assert!(healthy.keeps_up(), "fully cached: {healthy}");
    assert!(!degraded.keeps_up(), "starved: {degraded}");
}

/// Mid-run fail-stop: a GPU dies at step k, the run resumes from the
/// last checkpoint, and the recomputed-work accounting in the stats
/// matches the `lost_time` the trace reports — the whole path through
/// `RunSpec::with_faults` and the engine, not just the replay function.
#[test]
fn regression_gpu_death_resumes_from_checkpoint_with_matching_accounting() {
    use mlperf_data::storage::StorageDevice;
    use mlperf_hw::units::Seconds;
    use mlperf_sim::fault::{FaultConfig, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
    use mlperf_sim::CheckpointSpec;

    let system = SystemId::Dss8440.spec();
    let sim = Simulator::new(&system);
    let job = BenchmarkId::MlpfRes50Mx.job();
    let step = sim
        .execute(&RunSpec::on_first(job.clone(), 4))
        .unwrap()
        .report;
    let checkpoint = CheckpointSpec::new(Seconds::from_minutes(2.0), StorageDevice::NvmeSsd);
    let per_ckpt = checkpoint.interval_steps(&step);
    // Die at step k = 2.5 checkpoint windows in: one full window committed
    // plus half a window of uncommitted work to roll back.
    let kill_at = step.step_time.scale(2.5 * per_ckpt as f64);
    let cfg = FaultConfig {
        plan: FaultPlan::from_events(
            9,
            Seconds::from_hours(1.0),
            vec![FaultEvent {
                at: kill_at,
                kind: FaultKind::GpuFailure { gpu: 1 },
            }],
        ),
        checkpoint,
        retry: RetryPolicy::default(),
    };
    let outcome = sim
        .execute(&RunSpec::on_first(job, 4).with_faults(cfg))
        .unwrap();
    let faults = outcome.faults.expect("fault replay attached");
    assert_eq!(faults.stats.gpu_failures, 1);
    assert_eq!(faults.stats.restarts, 1);
    assert!(faults.stats.recomputed_time.as_secs() > 0.0);
    // The trace and the stats must tell the same story, byte for byte.
    let text = String::from_utf8(faults.trace.to_bytes()).unwrap();
    assert!(text.contains(&format!("restart from_step={}", 2 * per_ckpt)));
    let traced_lost: f64 = text
        .lines()
        .filter_map(|l| l.split("lost_time=").nth(1))
        .map(|v| v.parse::<f64>().expect("fixed-precision float"))
        .sum();
    let drift = (traced_lost - faults.stats.recomputed_time.as_secs()).abs();
    assert!(drift < 1e-5, "trace says {traced_lost}, stats disagree");
    // Everything the run paid partitions the wall-clock.
    let s = &faults.stats;
    let accounted = s.healthy_time + s.checkpoint_time + s.recomputed_time
        + s.stalled_time
        + s.restart_time;
    assert!((accounted.as_secs() - s.total_time.as_secs()).abs() < 1e-3);
}

/// Straggler injection: the deeper one GPU throttles, the worse the
/// synchronous run's scaling efficiency — monotonically.
#[test]
fn regression_straggler_degrades_scaling_efficiency_monotonically() {
    use mlperf_data::storage::StorageDevice;
    use mlperf_hw::units::Seconds;
    use mlperf_sim::fault::{replay, FaultConfig, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
    use mlperf_sim::CheckpointSpec;

    let system = SystemId::Dss8440.spec();
    let sim = Simulator::new(&system);
    let job = BenchmarkId::MlpfRes50Mx.job();
    let step = sim
        .execute(&RunSpec::on_first(job.clone(), 4))
        .unwrap()
        .report;
    let total_steps = 5_000;
    let ideal = step.step_time.scale(total_steps as f64);
    let efficiency_at = |factor: f64| {
        let cfg = FaultConfig {
            plan: FaultPlan::from_events(
                7,
                Seconds::from_hours(1.0),
                vec![FaultEvent {
                    at: step.step_time.scale(100.5),
                    kind: FaultKind::ThermalThrottle {
                        gpu: 3,
                        factor,
                        duration: step.step_time.scale(3_000.0),
                    },
                }],
            ),
            checkpoint: CheckpointSpec::new(Seconds::from_hours(10.0), StorageDevice::NvmeSsd),
            retry: RetryPolicy::default(),
        };
        let (stats, _) = replay(&cfg, &job, &step, total_steps);
        ideal.as_secs() / stats.total_time.as_secs()
    };
    let effs: Vec<f64> = [1.0, 0.9, 0.7, 0.5].map(efficiency_at).to_vec();
    assert!((effs[0] - 1.0).abs() < 1e-6, "no straggler, no loss");
    for pair in effs.windows(2) {
        assert!(
            pair[1] < pair[0],
            "deeper throttle must cost more: {effs:?}"
        );
    }
}

/// Memory pressure: shrinking HBM headroom (a leaked allocation,
/// modelled as extra overhead) turns a fitting job into an OOM.
#[test]
fn leaked_device_memory_turns_into_oom() {
    let system = SystemId::C4140K.spec();
    let sim = Simulator::new(&system);
    let pipeline = InputPipeline::new(DatasetId::ImageNet, Bytes::new(224 * 224 * 3 * 2));
    let build = |overhead_gib: u64| {
        TrainingJob::builder(
            "resnet",
            mlperf_models::zoo::resnet::resnet50(),
            pipeline.clone(),
            192,
            ConvergenceModel::new(63.0, 768, 0.0),
        )
        .hbm_overhead(Bytes::from_gib(overhead_gib))
        .build()
    };
    assert!(sim.execute(&RunSpec::on_first(build(1), 1)).is_ok());
    assert!(matches!(
        sim.execute(&RunSpec::on_first(build(10), 1)),
        Err(SimError::OutOfMemory { .. })
    ));
}
