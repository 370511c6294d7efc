//! Integration tests for the resilient executor: panic isolation, typed
//! errors, single attempts, cooperative step budgets, chaos injection,
//! and degraded-mode report/CSV placeholders.
//!
//! The contract under test is DESIGN.md's "Executor failure model": a
//! failing experiment runs once and never takes the run down with it,
//! its transitive dependents fail typed as `DependencyFailed`, every
//! unaffected experiment's bytes are identical to a fully-healthy run,
//! and a degraded report replays byte-for-byte.

use mlperf_hw::SystemId;
use mlperf_sim::SimError;
use mlperf_suite::runner::{
    self, Artifact, Ctx, Experiment, ExperimentError, Pool, ResilienceConfig, TrainPoint,
};
use mlperf_suite::{csv_export, report_gen, BenchmarkId};
use mlperf_testkit::chaos::{ChaosAction, ChaosPlan};
use mlperf_testkit::prop::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, Once};

/// Injected panics unwind through the executor's catch boundary by
/// design; keep the default hook from spraying their backtraces over the
/// test output while leaving every other panic (real assertion failures)
/// untouched.
fn quiet_chaos_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("chaos") {
                prev(info);
            }
        }));
    });
}

/// A minimal experiment: prices one real simulation point and renders a
/// fixed one-line section, so byte comparisons are meaningful but cheap.
struct PointExp {
    id: &'static str,
    deps: &'static [&'static str],
    system: SystemId,
    gpus: u32,
}

impl Experiment for PointExp {
    fn id(&self) -> &'static str {
        self.id
    }
    fn title(&self) -> &'static str {
        "synthetic point experiment"
    }
    fn deps(&self) -> &'static [&'static str] {
        self.deps
    }
    fn run(&self, ctx: &Ctx) -> Result<Artifact, ExperimentError> {
        let point = TrainPoint::new(BenchmarkId::MlpfRes50Mx, self.system, self.gpus);
        ctx.step(&point)?;
        Ok(Artifact::new(()))
    }
    fn render(&self, _artifact: &Artifact) -> String {
        format!("{}: ok\n", self.id)
    }
}

/// A five-node DAG with two independent chains, so sabotaging one chain
/// must leave the other's bytes untouched:
/// `alpha -> gamma -> delta` and `beta -> epsilon`.
const ALPHA: PointExp = PointExp {
    id: "syn-alpha",
    deps: &[],
    system: SystemId::C4140K,
    gpus: 1,
};
const BETA: PointExp = PointExp {
    id: "syn-beta",
    deps: &[],
    system: SystemId::T640,
    gpus: 1,
};
const GAMMA: PointExp = PointExp {
    id: "syn-gamma",
    deps: &["syn-alpha"],
    system: SystemId::C4140K,
    gpus: 2,
};
const DELTA: PointExp = PointExp {
    id: "syn-delta",
    deps: &["syn-gamma"],
    system: SystemId::C4140K,
    gpus: 4,
};
const EPSILON: PointExp = PointExp {
    id: "syn-epsilon",
    deps: &["syn-beta"],
    system: SystemId::T640,
    gpus: 2,
};

fn synthetic_dag() -> Vec<&'static dyn Experiment> {
    vec![&ALPHA, &BETA, &GAMMA, &DELTA, &EPSILON]
}

/// Everything reachable from `roots` by following dependency edges
/// forward (the experiments whose sections are allowed to degrade).
fn transitive_dependents(
    experiments: &[&dyn Experiment],
    roots: &HashSet<&str>,
) -> HashSet<&'static str> {
    let mut affected: HashSet<&'static str> = HashSet::new();
    loop {
        let mut changed = false;
        for e in experiments {
            if !affected.contains(e.id())
                && e.deps()
                    .iter()
                    .any(|d| roots.contains(d) || affected.contains(d))
            {
                affected.insert(e.id());
                changed = true;
            }
        }
        if !changed {
            return affected;
        }
    }
}

/// Wraps an experiment behind the testkit's seeded [`ChaosPlan`]: at the
/// run site the plan decides whether to proceed, panic, return a typed
/// error, or emit a non-finite result — and records what it did so the
/// property can compute the expected blast radius.
struct ChaosExp<'a> {
    inner: &'a dyn Experiment,
    plan: &'a Mutex<ChaosPlan>,
    acted: &'a Mutex<Vec<(&'static str, ChaosAction)>>,
}

impl Experiment for ChaosExp<'_> {
    fn id(&self) -> &'static str {
        self.inner.id()
    }
    fn title(&self) -> &'static str {
        self.inner.title()
    }
    fn deps(&self) -> &'static [&'static str] {
        self.inner.deps()
    }
    fn run(&self, ctx: &Ctx) -> Result<Artifact, ExperimentError> {
        let action = self.plan.lock().unwrap().decide(self.id());
        if action != ChaosAction::Proceed {
            self.acted.lock().unwrap().push((self.id(), action));
        }
        match action {
            ChaosAction::Proceed => self.inner.run(ctx),
            ChaosAction::Panic => {
                std::panic::panic_any(format!("chaos: scripted panic in '{}'", self.id()))
            }
            ChaosAction::Error => Err(ExperimentError::from(SimError::BadGpuSet(format!(
                "chaos: scripted error in '{}'",
                self.id()
            )))),
            ChaosAction::NonFinite => Err(ExperimentError::NonFiniteOutput {
                context: format!("chaos: scripted NaN in '{}'", self.id()),
            }),
        }
    }
    fn render(&self, artifact: &Artifact) -> String {
        self.inner.render(artifact)
    }
}

mlperf_testkit::properties! {
    /// For any seed, fault mix, and worker count: experiments outside the
    /// blast radius of the injected failures render byte-identically to a
    /// fully-healthy run, and everything inside it fails typed.
    #[test]
    fn healthy_subgraph_bytes_survive_injected_failures(
        seed in 0u64..1 << 48,
        workers in 1usize..=4
    ) {
        quiet_chaos_panics();
        let experiments = synthetic_dag();
        let cfg = ResilienceConfig::resilient();
        let baseline = runner::execute_resilient(
            &Pool::with_workers(workers),
            &Ctx::new(),
            &experiments,
            &cfg,
        );
        prop_assert!(!baseline.degraded(), "baseline run must be healthy");

        let plan = Mutex::new(ChaosPlan::new(seed).with_rates(0.25, 0.15, 0.10));
        let acted = Mutex::new(Vec::new());
        let wrapped: Vec<ChaosExp> = experiments
            .iter()
            .map(|&e| ChaosExp { inner: e, plan: &plan, acted: &acted })
            .collect();
        let wrapped_dyn: Vec<&dyn Experiment> =
            wrapped.iter().map(|w| w as &dyn Experiment).collect();
        let chaotic = runner::execute_resilient(
            &Pool::with_workers(workers),
            &Ctx::new(),
            &wrapped_dyn,
            &cfg,
        );

        let sabotaged: HashSet<&str> =
            acted.lock().unwrap().iter().map(|(id, _)| *id).collect();
        let affected = transitive_dependents(&experiments, &sabotaged);
        for (b, c) in baseline.reports.iter().zip(&chaotic.reports) {
            prop_assert_eq!(b.id, c.id);
            if sabotaged.contains(b.id) || affected.contains(b.id) {
                prop_assert!(
                    c.error.is_some(),
                    "{} is in the blast radius but carries no error", c.id
                );
            } else {
                prop_assert!(
                    c.error.is_none(),
                    "{} is outside the blast radius but failed: {:?}", c.id, c.error
                );
                prop_assert_eq!(
                    &b.rendered, &c.rendered,
                    "healthy-subgraph bytes changed under chaos: {}", b.id
                );
            }
        }
        // Sabotaged experiments and their dependents are disjoint (a
        // dependent of a failure never reaches its own run site), so the
        // failure count is exactly the blast radius.
        prop_assert_eq!(chaotic.failures.len(), sabotaged.len() + affected.len());
    }
}

#[test]
fn chaos_isolates_the_victim_and_preserves_sibling_bytes() {
    quiet_chaos_panics();
    let experiments = runner::all_experiments();
    let cfg = ResilienceConfig::resilient();
    let baseline =
        runner::execute_resilient(&Pool::with_workers(4), &Ctx::new(), &experiments, &cfg);
    assert!(!baseline.degraded(), "baseline full DAG must be healthy");

    let chaos_cfg = ResilienceConfig {
        chaos: Some("figure3".to_string()),
        ..ResilienceConfig::resilient()
    };
    let chaotic = runner::execute_resilient(
        &Pool::with_workers(4),
        &Ctx::new(),
        &experiments,
        &chaos_cfg,
    );
    assert!(chaotic.degraded());
    assert_eq!(
        chaotic.reports.len(),
        experiments.len(),
        "degraded mode must still produce one report per experiment"
    );

    let roots: HashSet<&str> = ["figure3"].into_iter().collect();
    let affected = transitive_dependents(&experiments, &roots);
    assert!(
        affected.contains("table1"),
        "table1 consumes figure3; the cascade test would be vacuous without it"
    );

    let victim = chaotic
        .failures
        .iter()
        .find(|f| f.id == "figure3")
        .expect("figure3 failure recorded in the appendix data");
    assert!(
        matches!(victim.error, ExperimentError::Panicked { .. }),
        "chaos panics must surface typed as Panicked: {}",
        victim.error
    );

    for (b, c) in baseline.reports.iter().zip(&chaotic.reports) {
        if c.id == "figure3" {
            assert!(matches!(c.error, Some(ExperimentError::Panicked { .. })));
            assert!(c.rendered.contains("[degraded]"));
        } else if affected.contains(c.id) {
            assert!(
                matches!(c.error, Some(ExperimentError::DependencyFailed { .. })),
                "{} depends on the victim and must fail as DependencyFailed: {:?}",
                c.id,
                c.error
            );
        } else {
            assert_eq!(
                b.rendered, c.rendered,
                "unaffected sibling bytes changed under chaos: {}",
                c.id
            );
        }
    }
}

/// Panics on its first run *before* pricing anything; a second run
/// prices one point and succeeds.
struct FlakyBeforePricing {
    attempts: AtomicU32,
}

impl Experiment for FlakyBeforePricing {
    fn id(&self) -> &'static str {
        "syn-flaky-before"
    }
    fn title(&self) -> &'static str {
        "flaky before pricing"
    }
    fn run(&self, ctx: &Ctx) -> Result<Artifact, ExperimentError> {
        if self.attempts.fetch_add(1, Ordering::SeqCst) == 0 {
            std::panic::panic_any("chaos: flaky before pricing".to_string());
        }
        ctx.step(&TrainPoint::new(
            BenchmarkId::MlpfRes50Mx,
            SystemId::C4140K,
            1,
        ))?;
        Ok(Artifact::new(()))
    }
    fn render(&self, _artifact: &Artifact) -> String {
        "flaky-before: ok\n".to_string()
    }
}

/// Prices one point successfully, then panics on its first run; a second
/// run re-asks that point (cache hit) and prices a second one.
struct FlakyMidPricing {
    attempts: AtomicU32,
}

impl Experiment for FlakyMidPricing {
    fn id(&self) -> &'static str {
        "syn-flaky-mid"
    }
    fn title(&self) -> &'static str {
        "flaky mid pricing"
    }
    fn run(&self, ctx: &Ctx) -> Result<Artifact, ExperimentError> {
        ctx.step(&TrainPoint::new(
            BenchmarkId::MlpfRes50Mx,
            SystemId::C4140K,
            1,
        ))?;
        if self.attempts.fetch_add(1, Ordering::SeqCst) == 0 {
            std::panic::panic_any("chaos: flaky mid pricing".to_string());
        }
        ctx.step(&TrainPoint::new(
            BenchmarkId::MlpfRes50Mx,
            SystemId::C4140K,
            2,
        ))?;
        Ok(Artifact::new(()))
    }
    fn render(&self, _artifact: &Artifact) -> String {
        "flaky-mid: ok\n".to_string()
    }
}

/// Prices a point that cannot fit in device memory: a deterministic
/// `SimError`, memoized as an error — never as a success.
struct OomExp;

impl Experiment for OomExp {
    fn id(&self) -> &'static str {
        "syn-oom"
    }
    fn title(&self) -> &'static str {
        "guaranteed out-of-memory point"
    }
    fn run(&self, ctx: &Ctx) -> Result<Artifact, ExperimentError> {
        let point = TrainPoint::new(BenchmarkId::MlpfRes50Mx, SystemId::C4140K, 1)
            .with_per_gpu_batch(1 << 14);
        ctx.step(&point)?;
        Ok(Artifact::new(()))
    }
    fn render(&self, _artifact: &Artifact) -> String {
        "oom: unreachable\n".to_string()
    }
}

#[test]
fn failed_attempts_never_pollute_the_memo_cache() {
    quiet_chaos_panics();
    let cfg = ResilienceConfig::resilient();
    for workers in [1usize, 4] {
        let pool = Pool::with_workers(workers);
        // A panic before any pricing caches nothing; a second run on the
        // same context populates the point exactly once.
        let ctx = Ctx::new();
        let flaky = FlakyBeforePricing {
            attempts: AtomicU32::new(0),
        };
        let experiments: [&dyn Experiment; 1] = [&flaky];
        let first = runner::execute_resilient(&pool, &ctx, &experiments, &cfg);
        assert!(first.degraded(), "workers={workers}");
        assert_eq!(ctx.cache_stats().requests(), 0, "workers={workers}");
        let second = runner::execute_resilient(&pool, &ctx, &experiments, &cfg);
        assert!(!second.degraded(), "workers={workers}");
        let stats = ctx.cache_stats();
        assert_eq!(
            stats.step_misses, 1,
            "the healthy run must populate the cache exactly once (workers={workers}): {stats:?}"
        );
        assert_eq!(stats.step_hits, 0, "workers={workers}");

        // A panic *after* a point completed keeps that point cached (it
        // is deterministic; a second run re-derives the same answer): the
        // second run hits it and prices only the new point.
        let ctx = Ctx::new();
        let flaky = FlakyMidPricing {
            attempts: AtomicU32::new(0),
        };
        let experiments: [&dyn Experiment; 1] = [&flaky];
        let first = runner::execute_resilient(&pool, &ctx, &experiments, &cfg);
        assert!(first.degraded(), "workers={workers}");
        assert_eq!(ctx.cache_stats().step_misses, 1, "workers={workers}");
        let second = runner::execute_resilient(&pool, &ctx, &experiments, &cfg);
        assert!(!second.degraded(), "workers={workers}");
        let stats = ctx.cache_stats();
        assert_eq!(stats.step_misses, 2, "workers={workers}: {stats:?}");
        assert_eq!(stats.step_hits, 1, "workers={workers}: {stats:?}");

        // A point that fails with a SimError is memoized as that error —
        // not as a success — and the failed experiment never stores an
        // artifact. A second run over the same ctx answers the error
        // from the cache instead of re-pricing.
        let ctx = Ctx::new();
        let experiments: [&dyn Experiment; 1] = [&OomExp];
        let first = runner::execute_resilient(&pool, &ctx, &experiments, &cfg);
        assert!(first.degraded(), "workers={workers}");
        assert!(
            matches!(
                first.failures[0].error,
                ExperimentError::Sim(SimError::OutOfMemory { .. })
            ),
            "workers={workers}: {}",
            first.failures[0].error
        );
        assert!(
            ctx.artifact::<()>("syn-oom").is_none(),
            "a failed experiment must not be cached as success (workers={workers})"
        );
        let second = runner::execute_resilient(&pool, &ctx, &experiments, &cfg);
        assert!(second.degraded(), "workers={workers}");
        let stats = ctx.cache_stats();
        assert_eq!(stats.step_misses, 1, "workers={workers}: {stats:?}");
        assert_eq!(stats.step_hits, 1, "workers={workers}: {stats:?}");
    }
}

/// Prices five distinct points; with a budget below five, the budget
/// guard trips mid-sweep.
struct SweepExp;

impl Experiment for SweepExp {
    fn id(&self) -> &'static str {
        "syn-sweep"
    }
    fn title(&self) -> &'static str {
        "five-point sweep"
    }
    fn run(&self, ctx: &Ctx) -> Result<Artifact, ExperimentError> {
        for gpus in 1..=5u32 {
            ctx.step(&TrainPoint::new(
                BenchmarkId::MlpfRes50Mx,
                SystemId::Dss8440,
                gpus,
            ))?;
        }
        Ok(Artifact::new(()))
    }
    fn render(&self, _artifact: &Artifact) -> String {
        "sweep: ok\n".to_string()
    }
}

#[test]
fn step_budget_trips_deterministically_and_is_typed() {
    quiet_chaos_panics();
    let experiments: [&dyn Experiment; 1] = [&SweepExp];
    let tight = ResilienceConfig {
        step_budget: Some(3),
        ..ResilienceConfig::resilient()
    };
    let run = |cfg: &ResilienceConfig| {
        runner::execute_resilient(&Pool::with_workers(2), &Ctx::new(), &experiments, cfg)
    };
    let (a, b) = (run(&tight), run(&tight));
    assert!(a.degraded());
    match &a.failures[0].error {
        ExperimentError::DeadlineExceeded { used, budget } => {
            assert_eq!(*budget, 3);
            assert_eq!(*used, 4, "the fourth request trips a budget of three");
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    assert_eq!(
        a.failures[0].error, b.failures[0].error,
        "the budget trip must be deterministic — it counts requests, not wall-clock"
    );

    let generous = ResilienceConfig {
        step_budget: Some(100),
        ..ResilienceConfig::resilient()
    };
    assert!(!run(&generous).degraded(), "a generous budget must pass");
}

#[test]
fn a_step_budget_never_outlives_its_attempt() {
    quiet_chaos_panics();
    // One worker: the calling thread runs every attempt itself.
    let pool = Pool::with_workers(1);
    let ctx = Ctx::new();
    let experiments: [&dyn Experiment; 1] = [&SweepExp];
    let tight = ResilienceConfig {
        step_budget: Some(3),
        ..ResilienceConfig::resilient()
    };
    let tripped = runner::execute_resilient(&pool, &ctx, &experiments, &tight);
    assert_eq!(
        tripped.failures[0].error,
        ExperimentError::DeadlineExceeded { used: 4, budget: 3 }
    );
    let chaos = ResilienceConfig {
        chaos: Some("syn-sweep".to_string()),
        ..tight.clone()
    };
    let panicked = runner::execute_resilient(&pool, &ctx, &experiments, &chaos);
    assert!(
        matches!(panicked.failures[0].error, ExperimentError::Panicked { .. }),
        "{}",
        panicked.failures[0].error
    );
    // Five requests on this thread, outside any attempt, against a budget
    // of three: the meter of neither attempt may still be armed.
    for ctx in [&ctx, &Ctx::new()] {
        let priced = std::panic::catch_unwind(|| {
            for gpus in 1..=5u32 {
                let point = TrainPoint::new(BenchmarkId::MlpfRes50Mx, SystemId::Dss8440, gpus);
                let _ = ctx.step(&point);
            }
        });
        assert!(priced.is_ok(), "a step budget outlived its attempt");
    }
}

/// Always panics, counting how often it is entered.
#[derive(Default)]
struct DoomedExp {
    calls: AtomicU32,
}

impl Experiment for DoomedExp {
    fn id(&self) -> &'static str {
        "syn-doomed"
    }
    fn title(&self) -> &'static str {
        "always panics"
    }
    fn run(&self, _ctx: &Ctx) -> Result<Artifact, ExperimentError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        std::panic::panic_any("chaos: doomed".to_string());
    }
    fn render(&self, _artifact: &Artifact) -> String {
        "doomed: unreachable\n".to_string()
    }
}

#[test]
fn a_failing_experiment_runs_exactly_once() {
    quiet_chaos_panics();
    for workers in [1usize, 4] {
        let doomed = DoomedExp::default();
        let experiments: [&dyn Experiment; 1] = [&doomed];
        let execution = runner::execute_resilient(
            &Pool::with_workers(workers),
            &Ctx::new(),
            &experiments,
            &ResilienceConfig::resilient(),
        );
        assert!(
            matches!(
                execution.failures[0].error,
                ExperimentError::Panicked { .. }
            ),
            "workers={workers}: {}",
            execution.failures[0].error
        );
        assert_eq!(
            doomed.calls.load(Ordering::SeqCst),
            1,
            "a deterministic failure recurs, so it must not be re-run (workers={workers})"
        );
    }
}

#[test]
fn strict_execute_surfaces_the_root_cause_not_the_cascade() {
    quiet_chaos_panics();
    let dependent = PointExp {
        id: "syn-dependent",
        deps: &["syn-doomed"],
        system: SystemId::C4140K,
        gpus: 1,
    };
    let doomed = DoomedExp::default();
    let experiments: [&dyn Experiment; 2] = [&doomed, &dependent];
    let err = runner::execute(&Pool::with_workers(2), &Ctx::new(), &experiments)
        .expect_err("a panicking experiment must fail a strict run");
    assert!(
        matches!(err, ExperimentError::Panicked { .. }),
        "strict mode must report the root cause, not the dependency cascade: {err}"
    );
}

#[test]
fn degraded_report_carries_the_failure_appendix_and_replays() {
    quiet_chaos_panics();
    let cfg = ResilienceConfig {
        chaos: Some("figure3".to_string()),
        ..ResilienceConfig::resilient()
    };
    let (md_a, execution) =
        report_gen::build_cached(&Pool::with_workers(2), &Ctx::new(), &cfg, None);
    assert!(execution.degraded());
    for needle in [
        "## Appendix: failures",
        "Failure appendix",
        "figure3",
        "[degraded]",
    ] {
        assert!(md_a.contains(needle), "degraded report missing: {needle}");
    }
    // The victim's placeholder never leaks into the healthy sections:
    // Figure 3's real heading is gone, every other section still renders.
    assert!(md_a.contains("Figure 2"));
    assert!(md_a.contains("Figure 4"));

    let (md_b, _) = report_gen::build_cached(&Pool::with_workers(4), &Ctx::new(), &cfg, None);
    assert_eq!(
        md_a, md_b,
        "degraded report (failure appendix included) must replay byte-identically"
    );
}

/// Each export owner in turn is the chaos victim: its files become
/// placeholders that keep the real header row, and every other file keeps
/// its healthy bytes.
#[test]
fn degraded_csv_export_isolates_the_victims_files() {
    quiet_chaos_panics();
    let (healthy, healthy_exec) = csv_export::build_all_cached(
        &Pool::with_workers(2),
        &Ctx::new(),
        &ResilienceConfig::strict(),
        None,
    );
    assert!(healthy_exec.root_cause().is_none(), "healthy export failed");
    let mut victims: Vec<&str> = csv_export::EXPORT_FILES.iter().map(|(_, id)| *id).collect();
    victims.sort_unstable();
    victims.dedup();
    assert_eq!(victims.len(), 7, "one turn per export owner");
    for victim in victims {
        let cfg = ResilienceConfig {
            chaos: Some(victim.to_string()),
            ..ResilienceConfig::resilient()
        };
        let (degraded, execution) =
            csv_export::build_all_cached(&Pool::with_workers(2), &Ctx::new(), &cfg, None);
        assert!(execution.degraded(), "{victim}");
        assert_eq!(
            healthy.len(),
            degraded.len(),
            "degraded export must still emit every file ({victim})"
        );
        let mut placeholders = 0;
        for (h, d) in healthy.iter().zip(degraded.iter()) {
            assert_eq!(h.file, d.file);
            if d.experiment == victim {
                placeholders += 1;
                assert!(
                    d.contents.contains(&format!("# degraded: {victim}")),
                    "placeholder must name the failed experiment: {}",
                    d.file
                );
                // The placeholder keeps the real header row, so downstream
                // parsers see a valid (empty) table.
                assert_eq!(
                    h.contents.lines().next(),
                    d.contents.lines().next(),
                    "placeholder header must match the real export: {}",
                    d.file
                );
            } else {
                assert_eq!(
                    h.contents, d.contents,
                    "unaffected CSV bytes changed with {victim} failed: {}",
                    d.file
                );
            }
        }
        assert!(placeholders > 0, "{victim} exports at least one file");
    }
}

#[test]
fn strict_csv_export_fails_before_writing_any_file() {
    quiet_chaos_panics();
    let cfg = ResilienceConfig {
        chaos: Some("figure3".to_string()),
        ..ResilienceConfig::strict()
    };
    let dir = std::env::temp_dir().join(format!("mlperf_strict_csv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let err = csv_export::write_all_cached(&dir, &cfg, None)
        .expect_err("a strict export with a failed experiment must fail");
    assert!(
        matches!(
            err,
            csv_export::ExportError::Run(ExperimentError::Panicked { .. })
        ),
        "strict export must surface the root cause: {err}"
    );
    assert!(!dir.exists(), "strict export wrote output before failing");
}
