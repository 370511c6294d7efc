//! Differential battery: the analytic fast path vs the full DES engine.
//!
//! `Simulator::execute_fast_on` promises that whenever it returns a result
//! at all, that result is **bit-identical** to what `Simulator::execute`
//! returns for the same job and GPU ordinals — same step report, same
//! typed errors. This battery fuzzes ~500 (model, system, GPUs, batch,
//! precision, depth, pipeline) cells and holds the fast path to that
//! promise, plus targeted cases for the soundness direction: cells that
//! genuinely stall must be declined, never mispriced.

use mlperf_data::{DatasetId, InputPipeline};
use mlperf_hw::systems::SystemId;
use mlperf_hw::units::{Bytes, Seconds};
use mlperf_models::zoo::detection::ssd300;
use mlperf_models::zoo::ncf::ncf;
use mlperf_models::zoo::resnet::{resnet18_cifar, resnet50};
use mlperf_models::{ModelGraph, Optimizer, PrecisionPolicy};
use mlperf_sim::{ConvergenceModel, RunSpec, Simulator, TrainingJob};
use mlperf_testkit::rng::Rng;

const SYSTEMS: [SystemId; 6] = [
    SystemId::T640,
    SystemId::C4140B,
    SystemId::C4140K,
    SystemId::C4140M,
    SystemId::R940Xa,
    SystemId::Dss8440,
];

/// One fuzzed model pick: the graph plus a realistic input record.
fn model_pick(rng: &mut Rng) -> (ModelGraph, DatasetId, u64) {
    match rng.gen_range(0..4u32) {
        0 => (resnet18_cifar(), DatasetId::Cifar10, 32 * 32 * 3 * 2),
        1 => (resnet50(), DatasetId::ImageNet, 224 * 224 * 3 * 2),
        2 => (ssd300(), DatasetId::Coco, 300 * 300 * 3 * 2),
        _ => (ncf(), DatasetId::MovieLens20M, 2 * 8),
    }
}

fn fuzzed_job(rng: &mut Rng) -> TrainingJob {
    let (model, dataset, base_bytes) = model_pick(rng);
    // Occasionally blow the record size up so the host pipeline dominates
    // and the fast path has something real to decline.
    let bytes_scale = if rng.gen_range(0..8u32) == 0 {
        1 + rng.gen_range(0..512u32) as u64
    } else {
        1 + rng.gen_range(0..4u32) as u64
    };
    let batch = 1u64 << rng.gen_range(0..9u32);
    let precision = if rng.gen_range(0..2u32) == 0 {
        PrecisionPolicy::Amp
    } else {
        PrecisionPolicy::Fp32
    };
    let optimizer = if rng.gen_range(0..2u32) == 0 {
        Optimizer::SgdMomentum
    } else {
        Optimizer::Adam
    };
    TrainingJob::builder(
        "fuzzed",
        model,
        InputPipeline::new(dataset, Bytes::new(base_bytes * bytes_scale)),
        batch,
        ConvergenceModel::new(10.0, 512, 0.0),
    )
    .precision(precision)
    .optimizer(optimizer)
    .prefetch_depth(1 + rng.gen_range(0..4u32) as u64)
    .build()
}

/// The core contract over fuzzed cells: `Some` ⇒ bit-identical outcome
/// with zero data stall, `Err` ⇒ the identical error, `None` ⇒ no claim.
#[test]
fn fast_path_agrees_with_des_on_fuzzed_cells() {
    let specs: Vec<_> = SYSTEMS.iter().map(|s| s.spec()).collect();
    let mut rng = Rng::new(0xfa57_d1ff);
    let (mut hits, mut misses, mut errors) = (0u32, 0u32, 0u32);
    for trial in 0..500 {
        let system = &specs[rng.gen_range(0..SYSTEMS.len() as u32) as usize];
        let sim = Simulator::new(system);
        let max_gpus = system.topology().gpu_count() as u32;
        let n = 1 + rng.gen_range(0..max_gpus);
        let spec = RunSpec::on_first(fuzzed_job(&mut rng), n);
        let fast = sim.execute_fast_on(spec.job(), spec.gpus());
        let slow = sim.execute(&spec);
        match (fast, slow) {
            (Ok(Some(f)), Ok(s)) => {
                assert_eq!(f, s, "trial {trial}: fast outcome diverged from DES");
                assert_eq!(f.report.data_stall, Seconds::ZERO);
                hits += 1;
            }
            (Ok(None), _) => misses += 1,
            (Err(ef), Err(es)) => {
                assert_eq!(ef, es, "trial {trial}: error mismatch");
                errors += 1;
            }
            (f, s) => panic!("trial {trial}: fast {f:?} disagrees with DES {s:?}"),
        }
    }
    // The battery must exercise all three verdicts to mean anything.
    assert!(hits >= 100, "only {hits} fast-path hits in 500 trials");
    assert!(misses >= 1, "no cell ever fell back to DES");
    assert!(errors >= 1, "no cell ever errored (OOM cells expected)");
}

/// A host-bound cell (enormous records, shallow prefetch) genuinely
/// stalls; the fast path must decline it rather than misprice the stall.
#[test]
fn host_bound_cell_falls_back_to_des() {
    let system = SystemId::T640.spec();
    let sim = Simulator::new(&system);
    let job = TrainingJob::builder(
        "host-bound",
        resnet18_cifar(),
        InputPipeline::new(DatasetId::Cifar10, Bytes::new(32 * 32 * 3 * 2 * 4096)),
        256,
        ConvergenceModel::new(10.0, 512, 0.0),
    )
    .prefetch_depth(1)
    .build();
    let spec = RunSpec::on_first(job, 4);
    assert_eq!(sim.execute_fast_on(spec.job(), spec.gpus()).unwrap(), None);
    let slow = sim.execute(&spec).unwrap();
    assert!(
        slow.report.data_stall.as_secs() > 0.0,
        "cell was supposed to stall; the fast path declined a free lunch"
    );
}

/// Eligibility and agreement hold under non-default simulation windows.
#[test]
fn window_overrides_agree_too() {
    let system = SystemId::Dss8440.spec();
    let job = TrainingJob::builder(
        "windowed",
        resnet50(),
        InputPipeline::new(DatasetId::ImageNet, Bytes::new(224 * 224 * 3 * 2)),
        32,
        ConvergenceModel::new(5.0, 512, 0.0),
    )
    .build();
    for (w, m) in [(1, 1), (2, 5), (16, 128)] {
        let sim = Simulator::new(&system).with_window(w, m);
        let spec = RunSpec::on_first(job.clone(), 8);
        if let Some(fast) = sim.execute_fast_on(spec.job(), spec.gpus()).unwrap() {
            assert_eq!(fast, sim.execute(&spec).unwrap(), "window ({w},{m})");
        }
    }
}
