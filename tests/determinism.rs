//! The simulator is a pure function of its inputs: identical runs produce
//! identical reports, and experiment outputs are stable across invocations.

use mlperf_hw::systems::SystemId;
use mlperf_sim::{train_on_first, RunSpec, Simulator};
use mlperf_suite::experiments::{figure4, table4};
use mlperf_suite::{BenchmarkId, Ctx};

#[test]
fn identical_runs_produce_identical_reports() {
    let system = SystemId::Dss8440.spec();
    let sim = Simulator::new(&system);
    let job = BenchmarkId::MlpfGnmtPy.job();
    let spec = RunSpec::on_first(job, 4);
    let a = sim.execute(&spec).expect("run succeeds");
    let b = sim.execute(&spec).expect("run succeeds");
    assert_eq!(a.report, b.report);
}

#[test]
fn gpu_ordinal_choice_is_irrelevant_on_symmetric_topologies() {
    // On the fully-NVLink-meshed C4140 (K), any 2-GPU subset behaves alike.
    let system = SystemId::C4140K.spec();
    let sim = Simulator::new(&system);
    let job = BenchmarkId::MlpfSsdPy.job();
    let a = sim
        .execute(&RunSpec::new(job.clone(), [0, 1]))
        .expect("run succeeds");
    let b = sim
        .execute(&RunSpec::new(job, [2, 3]))
        .expect("run succeeds");
    assert!((a.report.step_time.as_secs() - b.report.step_time.as_secs()).abs() < 1e-12);
}

#[test]
fn table_iv_is_reproducible() {
    let a = table4::run_ctx(&Ctx::new()).expect("table runs");
    let b = table4::run_ctx(&Ctx::new()).expect("table runs");
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.name(), rb.name());
        assert_eq!(ra.p100_minutes(), rb.p100_minutes());
        for n in [1u64, 2, 4, 8] {
            assert_eq!(ra.v100_minutes(n), rb.v100_minutes(n), "{} @{n}", ra.name());
        }
    }
}

#[test]
fn optimal_schedule_is_stable() {
    let f1 = figure4::run_ctx(&Ctx::new()).expect("figure runs");
    let f2 = figure4::run_ctx(&Ctx::new()).expect("figure runs");
    assert_eq!(f1.studies.len(), f2.studies.len());
    for (a, b) in f1.studies.iter().zip(&f2.studies) {
        assert_eq!(a.optimal, b.optimal, "{} GPUs", a.gpu_count);
    }
}

#[test]
fn training_outcome_scales_linearly_with_epochs() {
    // Doubling epochs-to-target exactly doubles training time: the engine
    // composes linearly, so calibration of one is calibration of the other.
    use mlperf_data::{DatasetId, InputPipeline};
    use mlperf_hw::units::Bytes;
    use mlperf_models::zoo::resnet::resnet18_cifar;
    use mlperf_sim::{ConvergenceModel, TrainingJob};

    let system = SystemId::C4140K.spec();
    let sim = Simulator::new(&system);
    let build = |epochs: f64| {
        TrainingJob::builder(
            "cifar",
            resnet18_cifar(),
            InputPipeline::new(DatasetId::Cifar10, Bytes::new(32 * 32 * 3 * 2)),
            256,
            ConvergenceModel::new(epochs, 256, 0.0),
        )
        .build()
    };
    let t10 = train_on_first(&sim, &build(10.0), 1)
        .expect("run")
        .total_time;
    let t20 = train_on_first(&sim, &build(20.0), 1)
        .expect("run")
        .total_time;
    assert!((t20.as_secs() / t10.as_secs() - 2.0).abs() < 1e-9);
}
