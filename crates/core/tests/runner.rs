//! Integration tests for the experiment executor: schedule invariance,
//! memo-cache keying, and panic containment.
//!
//! The determinism contract under test is the one DESIGN.md's "Execution
//! model" section states: nothing a consumer can observe — report bytes,
//! CSV bytes, DAG results — may depend on the worker count or on the
//! interleaving the work-stealing pool happens to pick.

use mlperf_hw::SystemId;
use mlperf_models::PrecisionPolicy;
use mlperf_suite::runner::{self, Ctx, Pool, ResilienceConfig, TrainPoint};
use mlperf_suite::{csv_export, report_gen, BenchmarkId};
use mlperf_testkit::prop::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

mlperf_testkit::properties! {
    /// A random DAG of pure tasks returns the same result vector on one
    /// worker and on N workers: the schedule never leaks into the output.
    #[test]
    fn pool_results_match_serial_for_any_worker_count(
        workers in 2usize..=8,
        n in 1usize..40,
        seed in 0u64..1 << 48
    ) {
        // Forward edges only (j -> i for j < i), picked by a seeded hash,
        // so the DAG is acyclic by construction yet varied across cases.
        let edge = |i: usize, j: usize| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((i * 131 + j) as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (h >> 32) % 3 == 0
        };
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..i).filter(|&j| edge(i, j)).collect())
            .collect();
        let tasks = |offset: u64| -> Vec<_> {
            (0..n as u64)
                .map(move |i| move || i.wrapping_mul(i).wrapping_add(offset))
                .collect()
        };
        let serial = Pool::with_workers(1).run_dag(tasks(seed), &deps);
        let parallel = Pool::with_workers(workers).run_dag(tasks(seed), &deps);
        prop_assert_eq!(serial, parallel);
    }
}

#[test]
fn report_and_csv_bytes_are_identical_for_any_worker_count() {
    // The full-report path: one serial and one 4-worker build, from cold
    // caches, must agree byte for byte (same for the CSV exports).
    let (serial, _) = report_gen::build_with(&Pool::with_workers(1), &Ctx::new()).unwrap();
    let (parallel, _) = report_gen::build_with(&Pool::with_workers(4), &Ctx::new()).unwrap();
    assert_eq!(serial, parallel, "report bytes depend on the worker count");

    let strict_csv = |workers| {
        let (set, execution) = csv_export::build_all_cached(
            &Pool::with_workers(workers),
            &Ctx::new(),
            &ResilienceConfig::strict(),
            None,
        );
        assert!(
            execution.root_cause().is_none(),
            "export failed at {workers} workers"
        );
        set
    };
    let a = strict_csv(1);
    let b = strict_csv(4);
    assert_eq!(a.len(), b.len());
    for (ea, eb) in a.iter().zip(b.iter()) {
        assert_eq!(ea.file, eb.file);
        assert_eq!(
            ea.contents, eb.contents,
            "{} depends on the worker count",
            ea.file
        );
    }
}

/// What the memo buys on the full report, as a count instead of a timing:
/// with and without the memo, at 1 and 4 workers, every section renders
/// the same bytes, but the memo-free run prices 474 requests where the
/// memoized one prices 201 (155 step and 10 kernel misses, 36 uncached).
#[test]
fn memo_prices_fewer_requests_and_renders_the_same_sections() {
    // Every section after Table I, which reads the others' artifacts.
    let experiments = &runner::all_experiments()[1..];
    let mut reference = None;
    for workers in [1, 4] {
        for (label, ctx, priced) in [
            ("memoized", Ctx::new(), (155, 10, 36)),
            ("memo-free", Ctx::without_memo(), (0, 0, 474)),
        ] {
            let execution = runner::execute(&Pool::with_workers(workers), &ctx, experiments)
                .expect("the report builds");
            let sections: Vec<String> = execution.reports.into_iter().map(|r| r.rendered).collect();
            assert_eq!(sections.len(), experiments.len());
            assert!(
                &sections == reference.get_or_insert_with(|| sections.clone()),
                "{label} sections differ at {workers} workers"
            );
            let stats = ctx.cache_stats();
            assert_eq!(
                (stats.step_misses, stats.kernel_misses, stats.uncached),
                priced,
                "{label} at {workers} workers"
            );
        }
    }
}

#[test]
fn distinct_train_points_occupy_distinct_cache_entries() {
    // Every key component — benchmark, platform, GPU count, precision,
    // batch — must separate entries; repeats must hit.
    let ctx = Ctx::new();
    let base = TrainPoint::new(BenchmarkId::MlpfRes50Mx, SystemId::C4140K, 1);
    let variants = [
        base.clone(),
        TrainPoint::new(BenchmarkId::MlpfRes50Mx, SystemId::C4140K, 2),
        TrainPoint::new(BenchmarkId::MlpfRes50Mx, SystemId::T640, 1),
        TrainPoint::new(BenchmarkId::MlpfSsdPy, SystemId::C4140K, 1),
        base.clone().with_per_gpu_batch(16),
        base.clone().with_precision(PrecisionPolicy::Fp32),
    ];
    // Outcomes don't matter here (the FP32 variant legitimately OOMs at
    // the AMP batch — that is Figure 3's premise); errors occupy cache
    // entries exactly like values.
    for p in &variants {
        let _ = ctx.step(p);
    }
    let cold = ctx.cache_stats();
    assert_eq!(cold.step_misses, variants.len() as u64, "keys collided");
    assert_eq!(cold.step_hits, 0);

    for p in &variants {
        let _ = ctx.step(p);
    }
    let warm = ctx.cache_stats();
    assert_eq!(warm.step_misses, variants.len() as u64);
    assert_eq!(warm.step_hits, variants.len() as u64, "repeats missed");

    // Equal effective values alias even when reached differently: setting
    // the batch to the job's own default must be a hit, not a new entry.
    let default_batch = BenchmarkId::MlpfRes50Mx.job().per_gpu_batch();
    let _ = ctx.step(&base.clone().with_per_gpu_batch(default_batch));
    let aliased = ctx.cache_stats();
    assert_eq!(aliased.step_misses, variants.len() as u64);
    assert_eq!(aliased.step_hits, variants.len() as u64 + 1);
}

#[test]
fn worker_panic_propagates_and_pool_stays_usable() {
    let pool = Pool::with_workers(2);
    let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
        Box::new(|| 1),
        Box::new(|| panic!("injected failure")),
        Box::new(|| 3),
    ];
    let err = catch_unwind(AssertUnwindSafe(|| {
        pool.run_dag(tasks, &[vec![], vec![], vec![]])
    }))
    .expect_err("the task panic must reach the caller");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("injected failure"), "payload was {msg:?}");

    // The pool carries no state across runs: a poisoned mutex or a stale
    // abort flag from the panicking DAG must not wedge the next one.
    let tasks: Vec<_> = (0..16u32).map(|i| move || i + 1).collect();
    let ok = pool.run_dag(tasks, &vec![Vec::new(); 16]);
    assert_eq!(ok, (1..=16).collect::<Vec<_>>());
}

#[test]
fn errors_are_memoized_like_values() {
    // An OOM point fails identically from cold and warm cache, and the
    // repeat is answered without re-simulation.
    let ctx = Ctx::new();
    let point = TrainPoint::new(BenchmarkId::MlpfRes50Mx, SystemId::C4140K, 1)
        .with_per_gpu_batch(1 << 14);
    let cold = ctx.step(&point).expect_err("64k images cannot fit");
    let warm = ctx.step(&point).expect_err("cached failure");
    assert_eq!(cold.to_string(), warm.to_string());
    let stats = ctx.cache_stats();
    assert_eq!(stats.step_misses, 1);
    assert_eq!(stats.step_hits, 1);
}

/// `Ctx::preflight` cuts the GPU set after the first absent ordinal. The
/// engine rejects a set at that ordinal, so for every system and every
/// count up to three past the chassis, the answer equals the engine's
/// own preflight on the full `0..n` set — partitions and a batch whose
/// footprint saturates included.
#[test]
fn ctx_preflight_matches_engine_preflight_on_the_first_n_ordinals() {
    use mlperf_hw::{PartitionProfile, PartitionSpec};
    use mlperf_sim::Simulator;
    let ctx = Ctx::new();
    let partitions = [
        None,
        Some(PartitionSpec::solo(PartitionProfile::Half)),
        Some(PartitionSpec::packed(PartitionProfile::Quarter)),
    ];
    for system in SystemId::ALL.into_iter().chain([SystemId::Dgx1V]) {
        let spec = system.spec();
        let sim = Simulator::new(&spec);
        for n in 0..=spec.gpu_count() as u32 + 3 {
            let gpus: Vec<u32> = (0..n).collect();
            for benchmark in BenchmarkId::MLPERF {
                for batch in [1, 256, 4096, u64::MAX] {
                    for partition in partitions {
                        let point = TrainPoint::new(benchmark, system, n)
                            .with_per_gpu_batch(batch)
                            .with_partition(partition);
                        let job = ctx
                            .base_job(benchmark, false)
                            .clone()
                            .with_per_gpu_batch(batch)
                            .with_partition(partition);
                        assert_eq!(
                            ctx.preflight(&point),
                            sim.preflight(&job, &gpus),
                            "{benchmark:?} on {system:?}, {n} GPUs, batch {batch}, {partition:?}"
                        );
                    }
                }
            }
        }
    }
}
