//! Integration tests for the experiment executor: schedule invariance,
//! memo-cache keying, and panic containment.
//!
//! The determinism contract under test is the one DESIGN.md's "Execution
//! model" section states: nothing a consumer can observe — report bytes,
//! CSV bytes, DAG results — may depend on the worker count or on the
//! interleaving the work-stealing pool happens to pick.

use mlperf_hw::SystemId;
use mlperf_models::PrecisionPolicy;
use mlperf_suite::runner::{Ctx, Pool, ResilienceConfig, TrainPoint};
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
    let err = catch_unwind(AssertUnwindSafe(|| pool.run_all(tasks)))
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
    let ok = pool.run_all(tasks);
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
