//! The traced run's layer probes: each times calls into one layer's
//! public functions from outside, records a span around every call, and
//! turns the timings into the per-layer metrics. Module names are the
//! layers; `README.md` maps each metric to the end-to-end metric it
//! should move. Exact counts (memo, fast path, disk cache, OOM wall,
//! coalescing) are also checked at one worker against two.

use crate::trace::Tracer;
use crate::{serve, stats, sweep as sweep_wl, Bench, Metric, Phase, JOBS};
use mlperf_analysis::stats::{bootstrap_ci_median, BootstrapScratch};
use mlperf_hw::systems::SystemSpec;
use mlperf_sim::{RunSpec, Simulator, TrainingJob};
use mlperf_suite::csv_export::{self, EXPORT_FILES};
use mlperf_suite::runner::{self, Ctx, Pool, ResilienceConfig, TrainPoint};
use mlperf_suite::serve::protocol;
use mlperf_suite::sweep::{self, CellKind, CellSpec, SweepSpec};
use mlperf_suite::{report_gen, Config, DiskCache};
use mlperf_testkit::loadgen::LoadSpec;
use mlperf_testkit::rng::Rng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn fresh_ctx() -> Ctx {
    Ctx::from_config(&Config::default())
}

/// The million-cell grid's axes with every 61st batch size: 16,464 cells
/// with the full grid's mix of OOM and viable cells, small enough to
/// price several times per run.
fn probe_grid() -> SweepSpec {
    let full = sweep::million_cell();
    let mut spec = SweepSpec::new(
        "probe_grid",
        "million_cell with every 61st batch",
        CellKind::Training,
    );
    for axis in full.axes() {
        let values = if axis.name == "batch" {
            axis.values.iter().step_by(61).copied().collect()
        } else {
            axis.values.clone()
        };
        spec = spec.axis(axis.name, values);
    }
    spec
}

struct Probe<'a> {
    b: &'a Bench,
    t: &'a mut Tracer,
    phase: Phase,
    report: Vec<u8>,
}

impl Probe<'_> {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.phase.metrics.push(Metric::new(name, value, unit));
    }

    fn count(&mut self, name: &str, value: u64) {
        self.phase.counts.push((name.to_string(), value));
        self.metric(name, value as f64, "count");
    }

    /// One check: attempted, and failed with `message` unless `ok`.
    fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.phase.attempted += 1;
        if !ok {
            self.phase.fail(message());
        }
    }

    /// Time `f`, recorded as span `name` under `parent`.
    fn timed<T>(
        &mut self,
        name: impl Into<std::borrow::Cow<'static, str>>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.t.record(name, parent, start, end);
        (out, end - start)
    }
}

/// Run every probe and return the per-layer metrics.
pub fn probe(b: &Bench, t: &mut Tracer) -> Result<Phase, String> {
    let report = std::fs::read(b.root.join("REPORT.md")).map_err(|e| format!("REPORT.md: {e}"))?;
    let mut p = Probe {
        b,
        t,
        phase: Phase {
            ledger_key: format!("layers/seed={}", b.seed),
            ..Phase::default()
        },
        report,
    };
    experiments(&mut p);
    executor(&mut p)?;
    cached_paths(&mut p)?;
    sweep_layers(&mut p);
    replication(&mut p);
    serve_layers(&mut p)?;
    Ok(p.phase)
}

/// `experiments.<id>.run_ms` and `experiments.render_ms`: every
/// experiment's `run` and `render` in declaration order on one context.
fn experiments(p: &mut Probe) {
    const REPS: usize = 3;
    let exps = runner::all_experiments();
    let mut run_ms = vec![Vec::new(); exps.len()];
    let mut render_ms = Vec::new();
    for _ in 0..REPS {
        let ctx = fresh_ctx();
        let root = p.t.begin("experiments", None);
        let mut render = Duration::ZERO;
        for (i, e) in exps.iter().enumerate() {
            let (artifact, d) = p.timed(format!("experiments.{}.run", e.id()), Some(root), || {
                e.run(&ctx)
            });
            run_ms[i].push(ms(d));
            match artifact {
                Ok(a) => {
                    let (text, d) = p.timed("experiments.render", Some(root), || e.render(&a));
                    black_box(text);
                    render += d;
                    p.check(true, String::new);
                }
                Err(err) => p.check(false, || format!("experiment {}: {err}", e.id())),
            }
        }
        p.t.end(root);
        render_ms.push(ms(render));
    }
    for (e, samples) in exps.iter().zip(&run_ms) {
        p.metric(
            &format!("experiments.{}.run_ms", e.id()),
            stats::median(samples),
            "ms",
        );
    }
    p.metric("experiments.render_ms", stats::median(&render_ms), "ms");
}

/// `runner.executor.self_ms` (the executor's wall minus the experiments'
/// own time, on one worker) and the memo counters, which must not depend
/// on the worker count.
fn executor(p: &mut Probe) -> Result<(), String> {
    let mut self_ms = Vec::new();
    let mut memo = Vec::new();
    for workers in [1, 1, 1, JOBS] {
        let ctx = fresh_ctx();
        let (built, wall) = p.timed("report_gen.build_with", None, || {
            report_gen::build_with(&Pool::with_workers(workers), &ctx)
        });
        let (md, stats) = built.map_err(|e| format!("report_gen::build_with: {e}"))?;
        let report_ok = md.as_bytes() == p.report.as_slice();
        p.check(report_ok, || {
            "build_with bytes differ from REPORT.md".to_string()
        });
        if workers == 1 {
            let own: Duration = stats.per_experiment.iter().map(|(_, d)| *d).sum();
            self_ms.push(ms(wall.saturating_sub(own)));
        }
        let c = ctx.cache_stats();
        memo.push((c.step_hits, c.step_misses));
    }
    let same = memo.windows(2).all(|w| w[0] == w[1]);
    p.check(same, || {
        format!("memo counters depend on the worker count: {memo:?}")
    });
    p.count("runner.memo.step_hits", memo[0].0);
    p.count("runner.memo.step_misses", memo[0].1);
    p.metric("runner.executor.self_ms", stats::median(&self_ms), "ms");
    Ok(())
}

fn same_files(dir: &Path, root: &Path) -> bool {
    EXPORT_FILES.iter().all(|(file, _)| {
        let got = std::fs::read(dir.join(file));
        let want = std::fs::read(root.join("artifacts").join(file));
        matches!((got, want), (Ok(a), Ok(b)) if a == b)
    })
}

/// The in-process cached report and CSV paths, cold then warm on one
/// fresh cache (`report_gen.*`, `csv_export.*`), the disk-cache counters
/// over that cycle at one worker and at two, and the cache's own store
/// and load-and-verify cost (`cache.*`).
fn cached_paths(p: &mut Probe) -> Result<(), String> {
    let cfg = ResilienceConfig::from_config(&Config::default());
    let mut timings: [Vec<f64>; 4] = Default::default();
    let mut disk = Vec::new();
    let mut sections: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for (rep, workers) in [1, JOBS, JOBS, JOBS].into_iter().enumerate() {
        let dir = p.b.work.join(format!("layers-cache{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cache =
            DiskCache::open(&dir.join("cache")).map_err(|e| format!("{}: {e}", dir.display()))?;
        let pool = Pool::with_workers(workers);
        for (phase, temp) in ["cold", "warm"].into_iter().enumerate() {
            let ((md, exec), d) = p.timed(format!("report_gen.build_cached.{temp}"), None, || {
                report_gen::build_cached(&pool, &fresh_ctx(), &cfg, Some(&cache))
            });
            let ok = md.as_bytes() == p.report.as_slice() && !exec.degraded();
            p.check(ok, || {
                format!("{temp} build_cached bytes differ from REPORT.md")
            });
            if workers == JOBS {
                timings[phase].push(ms(d));
            }
            if rep == 1 && temp == "cold" {
                sections = runner::all_experiments()
                    .iter()
                    .zip(&exec.reports)
                    .map(|(e, r)| {
                        (
                            report_gen::section_spec(*e),
                            r.rendered.clone().into_bytes(),
                        )
                    })
                    .collect();
            }
            let out = dir.join(format!("csv-{temp}"));
            if workers == JOBS {
                // What `repro --csv` calls: pool and context from the
                // environment, files written.
                let (written, d) =
                    p.timed(format!("csv_export.write_all_cached.{temp}"), None, || {
                        csv_export::write_all_cached(&out, &cfg, Some(&cache))
                    });
                timings[2 + phase].push(ms(d));
                let ok = written.is_ok() && same_files(&out, &p.b.root);
                p.check(ok, || {
                    format!("{temp} write_all_cached files differ from artifacts/")
                });
            } else {
                let (set, _) =
                    csv_export::build_all_cached(&pool, &fresh_ctx(), &cfg, Some(&cache));
                black_box(set);
            }
        }
        let s = cache.stats();
        disk.push([s.hits, s.misses, s.stores, s.corrupt]);
    }
    let same = disk.windows(2).all(|w| w[0] == w[1]);
    p.check(same, || {
        format!("disk-cache counters depend on the worker count: {disk:?}")
    });
    for (name, samples) in [
        "report_gen.build_cached_cold_ms",
        "report_gen.build_cached_warm_ms",
        "csv_export.write_all_cached_cold_ms",
        "csv_export.write_all_cached_warm_ms",
    ]
    .into_iter()
    .zip(&timings)
    {
        p.metric(name, stats::median(samples), "ms");
    }
    for (name, v) in [
        "cache.hits",
        "cache.misses",
        "cache.stores",
        "cache.corrupt",
    ]
    .into_iter()
    .zip(disk[0])
    {
        p.count(name, v);
    }

    // Store and load-and-verify of every report section and CSV file.
    let exps = runner::all_experiments();
    for (file, owner) in EXPORT_FILES {
        let owner = exps
            .iter()
            .find(|e| e.id() == owner)
            .ok_or("unknown export owner")?;
        let payload =
            std::fs::read(p.b.root.join("artifacts").join(file)).map_err(|e| e.to_string())?;
        sections.push((csv_export::file_spec(file, *owner), payload));
    }
    let dir = p.b.work.join("layers-cache-io");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskCache::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (mut store_us, mut load_us) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        for (spec, payload) in &sections {
            let ((), d) = p.timed("cache.store", None, || cache.store(spec, payload));
            store_us.push(us(d));
        }
        for (spec, payload) in &sections {
            let (loaded, d) = p.timed("cache.load", None, || cache.load(spec));
            load_us.push(us(d));
            let ok = loaded.as_deref() == Some(payload.as_slice());
            p.check(ok, || {
                "cache load returned other bytes than stored".to_string()
            });
        }
    }
    p.metric("cache.store_us", stats::median(&store_us), "us");
    p.metric("cache.load_verify_us", stats::median(&load_us), "us");
    Ok(())
}

/// A training cell as the point `price_cell` prices.
fn point(spec: &CellSpec) -> Option<TrainPoint> {
    let mut point = TrainPoint::new(spec.workload?, spec.system?, spec.gpus?);
    if let Some(b) = spec.batch {
        point = point.with_per_gpu_batch(b);
    }
    if let Some(p) = spec.precision {
        point = point.with_precision(p);
    }
    Some(point)
}

fn job(ctx: &Ctx, spec: &CellSpec) -> Option<TrainingJob> {
    let mut job = (*ctx.base_job(spec.workload?, false)).clone();
    if let Some(p) = spec.precision {
        job = job.with_precision(p);
    }
    if let Some(b) = spec.batch {
        job = job.with_per_gpu_batch(b);
    }
    Some(job)
}

/// `sweep.*`, `engine.*`, `runner.fastpath.hit_ratio`,
/// `runner.step_and_outcome_us` and `runner.pool.speedup_2v1` on the
/// probe grid.
fn sweep_layers(p: &mut Probe) {
    let grid = probe_grid();
    let n = grid.len();

    // The streamed runner at one and at two workers, alternating; the
    // exact counts must not depend on the worker count.
    let (mut wall1, mut wall2) = (Vec::new(), Vec::new());
    let mut shapes = Vec::new();
    for _ in 0..3 {
        for workers in [1, JOBS] {
            let pass = sweep_wl::pass(&grid, workers);
            p.t.record(
                format!("sweep.run_streamed.{workers}w"),
                None,
                pass.start,
                pass.end,
            );
            let wall = (pass.end - pass.start).as_secs_f64();
            if workers == 1 {
                wall1.push(wall)
            } else {
                wall2.push(wall)
            }
            let (cells, errors) = pass
                .summary
                .as_ref()
                .map_or((0, 0), |s| (s.cells, s.errors));
            shapes.push((cells, errors, pass.fast, pass.sink.fingerprint()));
        }
    }
    let same = shapes.windows(2).all(|w| w[0] == w[1]);
    p.check(same && shapes[0].0 == n, || {
        format!("probe-grid passes disagree: {shapes:?}")
    });
    let (cells, errors, fast, fingerprint) = shapes[0];
    p.metric(
        "runner.pool.speedup_2v1",
        stats::median(&wall1) / stats::median(&wall2),
        "ratio",
    );
    p.metric(
        "runner.fastpath.hit_ratio",
        fast.1 as f64 / fast.0.max(1) as f64,
        "ratio",
    );
    p.metric(
        "sweep.oom_wall_ratio",
        errors as f64 / cells.max(1) as f64,
        "ratio",
    );
    p.phase.counts.extend([
        ("probe.cells".to_string(), cells as u64),
        ("probe.errors".to_string(), errors as u64),
        ("probe.fast_attempts".to_string(), fast.0),
        ("probe.fast_hits".to_string(), fast.1),
        ("probe.fingerprint".to_string(), fingerprint),
    ]);

    // Per-call costs: decode, price (split at the OOM wall), preflight.
    let (specs, d) = p.timed("sweep.cell_at", None, || {
        (0..n).map(|i| grid.cell_at(i)).collect::<Vec<_>>()
    });
    let cell_at_ns = d.as_secs_f64() * 1e9 / n as f64;
    let ctx = Ctx::without_memo();
    let (oom, viable): (Vec<&CellSpec>, Vec<&CellSpec>) = specs
        .iter()
        .partition(|s| sweep::price_cell(&ctx, s).is_err());
    let price = |p: &mut Probe, name: &'static str, cells: &[&CellSpec]| {
        let ctx = Ctx::without_memo();
        let ((), d) = p.timed(name, None, || {
            for s in cells {
                black_box(sweep::price_cell(&ctx, s).is_ok());
            }
        });
        d.as_secs_f64() * 1e9 / cells.len().max(1) as f64
    };
    let oom_ns = price(p, "sweep.price_cell.oom", &oom);
    let viable_ns = price(p, "sweep.price_cell.viable", &viable);
    let serial_ns = stats::median(&wall1) * 1e9;
    let render_ns = (serial_ns
        - n as f64 * cell_at_ns
        - oom.len() as f64 * oom_ns
        - viable.len() as f64 * viable_ns)
        / n as f64;
    p.metric("sweep.cell_at_ns", cell_at_ns, "ns");
    p.metric("sweep.price_cell_oom_ns", oom_ns, "ns");
    p.metric("sweep.price_cell_viable_ns", viable_ns, "ns");
    p.metric("sweep.render_ns_per_cell", render_ns, "ns");

    let points: Vec<TrainPoint> = viable.iter().take(2_000).filter_map(|s| point(s)).collect();
    let ctx = Ctx::without_memo();
    let ((), d) = p.timed("runner.step_and_outcome", None, || {
        for pt in &points {
            black_box(ctx.step_and_outcome(pt).is_ok());
        }
    });
    p.metric(
        "runner.step_and_outcome_us",
        us(d) / points.len().max(1) as f64,
        "us",
    );

    // The engine on the same cells the sweep prices.
    let ctx = fresh_ctx();
    let systems: Vec<(mlperf_hw::systems::SystemId, SystemSpec)> = [
        mlperf_hw::systems::SystemId::Dss8440,
        mlperf_hw::systems::SystemId::C4140K,
        mlperf_hw::systems::SystemId::T640,
    ]
    .into_iter()
    .map(|s| (s, s.spec()))
    .collect();
    let sim_for = |spec: &CellSpec| {
        systems
            .iter()
            .find(|(id, _)| Some(*id) == spec.system)
            .map(|(_, s)| Simulator::new(s))
    };
    let jobs: Vec<(Simulator, TrainingJob, Vec<u32>)> = specs
        .iter()
        .filter_map(|s| Some((sim_for(s)?, job(&ctx, s)?, (0..s.gpus?).collect())))
        .collect();
    let ((), d) = p.timed("engine.preflight", None, || {
        for (sim, job, gpus) in &jobs {
            black_box(sim.preflight(job, gpus).is_ok());
        }
    });
    p.metric(
        "engine.preflight_ns",
        d.as_secs_f64() * 1e9 / jobs.len().max(1) as f64,
        "ns",
    );
    let fast: Vec<&(Simulator, TrainingJob, Vec<u32>)> = jobs
        .iter()
        .filter(|(sim, job, gpus)| matches!(sim.execute_fast_on(job, gpus), Ok(Some(_))))
        .step_by(7)
        .take(150)
        .collect();
    let runs: Vec<RunSpec> = fast
        .iter()
        .map(|(_, job, gpus)| RunSpec::new(job.clone(), gpus.clone()))
        .collect();
    let (fast_out, d_fast) = p.timed("engine.execute_fast", None, || {
        fast.iter()
            .map(|(sim, job, gpus)| {
                sim.execute_fast_on(job, gpus)
                    .ok()
                    .flatten()
                    .map(|o| o.report)
            })
            .collect::<Vec<_>>()
    });
    let (des_out, d_des) = p.timed("engine.execute_des", None, || {
        fast.iter()
            .zip(&runs)
            .map(|((sim, _, _), run)| sim.execute(run).ok().map(|o| o.report))
            .collect::<Vec<_>>()
    });
    let agree = !fast_out.is_empty() && fast_out == des_out;
    p.check(agree, || {
        "fast path and DES disagree on the probe cells".to_string()
    });
    p.metric(
        "engine.execute_fast_us",
        us(d_fast) / fast.len().max(1) as f64,
        "us",
    );
    p.metric(
        "engine.execute_des_us",
        us(d_des) / fast.len().max(1) as f64,
        "us",
    );
}

/// `sweep.replication_us` (`price_cell` at `runs=32` minus `runs=1` on
/// the same cells) and `analysis.bootstrap_ci_us`.
fn replication(p: &mut Probe) {
    let grid = probe_grid();
    let ctx = Ctx::without_memo();
    let cells: Vec<CellSpec> = (0..grid.len())
        .step_by(11)
        .map(|i| grid.cell_at(i))
        .filter(|s| sweep::price_cell(&ctx, s).is_ok())
        .take(300)
        .collect();
    let replicated: Vec<CellSpec> = cells
        .iter()
        .map(|s| CellSpec {
            runs: Some(32),
            ..s.clone()
        })
        .collect();
    let time = |p: &mut Probe, name: &'static str, cells: &[CellSpec]| {
        let ((), d) = p.timed(name, None, || {
            for s in cells {
                black_box(sweep::price_cell(&ctx, s).is_ok());
            }
        });
        us(d) / cells.len().max(1) as f64
    };
    let (mut base, mut wide) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        base.push(time(p, "sweep.price_cell.runs1", &cells));
        wide.push(time(p, "sweep.price_cell.runs32", &replicated));
    }
    p.metric(
        "sweep.replication_us",
        stats::median(&wide) - stats::median(&base),
        "us",
    );

    let mut rng = Rng::stream(p.b.seed, 0xb007);
    let xs: Vec<f64> = (0..32).map(|_| 40.0 + rng.gen_f64()).collect();
    let mut scratch = BootstrapScratch::default();
    const CALLS: u32 = 500;
    let ((), d) = p.timed("analysis.bootstrap_ci_median", None, || {
        for i in 0..CALLS {
            black_box(bootstrap_ci_median(&xs, 200, 0.95, u64::from(i), &mut scratch).is_ok());
        }
    });
    p.metric("analysis.bootstrap_ci_us", us(d) / f64::from(CALLS), "us");
}

/// `serve.*`: parse and encode in-process on a small seeded mix, then a
/// live daemon for the ping round trip, the query latency and the
/// coalescing counters (at two workers and at one).
fn serve_layers(p: &mut Probe) -> Result<(), String> {
    let mix = LoadSpec {
        vocab: 2_500,
        queries: 5_000,
        hot: 64,
        hot_pct: 30,
    };
    let vocab = serve::vocabulary(p.b.seed, mix.vocab);
    let plans = mix.plans(p.b.seed, serve::CLIENTS);

    let (parsed, d) = p.timed("serve.parse_request", None, || {
        vocab
            .iter()
            .map(|l| protocol::parse_request(l))
            .collect::<Vec<_>>()
    });
    let parse_us = us(d) / vocab.len() as f64;
    let requests: Vec<protocol::Request> = parsed.into_iter().filter_map(Result::ok).collect();
    p.check(requests.len() == vocab.len(), || {
        "a generated request does not parse".to_string()
    });

    // Outcomes of the cell queries, then the frames the daemon encodes.
    let ctx = fresh_ctx();
    type Outcome = Result<Vec<f64>, (String, String)>;
    let outcomes: Vec<(&str, CellKind, Outcome)> = requests
        .iter()
        .filter_map(|r| match &r.query {
            protocol::QueryV1::Cell(spec) => Some((
                r.id.as_str(),
                spec.kind,
                sweep::price_cell(&ctx, spec)
                    .map(|v| v.values().to_vec())
                    .map_err(|e| (e.kind, e.message)),
            )),
            _ => None,
        })
        .collect();
    let ((), d) = p.timed("serve.encode", None, || {
        for (id, kind, outcome) in &outcomes {
            black_box(match outcome {
                Ok(values) => protocol::cell_ok_frame(id, *kind, values),
                Err((k, m)) => protocol::error_frame(id, k, m),
            });
        }
    });
    let encode_us = us(d) / outcomes.len().max(1) as f64;

    // What the daemon prices per query: a cell's first occurrence in the
    // interleaved plans is a coalescing miss and pays `price_cell`; a
    // repeat, a preflight rejection or a sweep pays nothing here. The
    // median of that is the pricing share of the median query.
    let ctx = fresh_ctx();
    let mut seen = std::collections::HashSet::new();
    let mut price_us = Vec::new();
    for n in 0..mix.queries {
        for plan in &plans {
            let r = &requests[plan[n]];
            let cost = match &r.query {
                protocol::QueryV1::Cell(spec)
                    if seen.insert(r.canonical_bytes())
                        && (spec.kind != CellKind::Training
                            || serve::preflight(&ctx, spec).is_ok()) =>
                {
                    let (_, d) = p.timed("serve.price_miss", None, || {
                        black_box(sweep::price_cell(&ctx, spec).is_ok())
                    });
                    us(d)
                }
                _ => 0.0,
            };
            price_us.push(cost);
        }
    }
    let price_p50_us = stats::median(&price_us);

    let expect = serve::references(&vocab, &plans)?;
    let lines = serve::wire(&vocab);

    // Transport floor: ping round trips on a live daemon.
    let (daemon, _) = serve::Daemon::start(p.b, JOBS)?;
    let ping = serve::wire(&[r#"{"v":1,"id":"p","kind":"ping"}"#.to_string()]);
    let pings = serve::client(
        &daemon.socket,
        &[0; 500],
        &ping,
        &[protocol::pong_frame("p").into_bytes()],
    );
    daemon.stop()?;
    p.check(pings.failed == 0, || format!("ping: {:?}", pings.problems));
    let rtt: Vec<f64> = pings.times.iter().map(|(s, e)| us(*e - *s)).collect();
    let ping_us = stats::median(&rtt);

    let mut rounds = Vec::new();
    for jobs in [JOBS, 1] {
        let r = serve::round(p.b, jobs, &plans, &lines, &expect)?;
        let root =
            p.t.record("serve.round", None, r.clients[0].start, r.clients[0].end);
        for c in &r.clients {
            for &(s, e) in &c.times {
                p.t.record("serve.query", Some(root), s, e);
            }
            p.check(c.failed == 0, || {
                format!("serve at {jobs} worker(s): {:?}", c.problems)
            });
        }
        rounds.push(r);
    }
    let key = |r: &serve::Round| {
        (
            r.summary,
            r.clients.iter().map(|c| c.fingerprint).collect::<Vec<_>>(),
        )
    };
    let (k2, k1) = (key(&rounds[0]), key(&rounds[1]));
    p.check(k2 == k1, || {
        format!("serve counters or transcripts depend on MLPERF_JOBS: {k2:?} vs {k1:?}")
    });
    let latency_us: Vec<f64> = rounds[0]
        .clients
        .iter()
        .flat_map(|c| c.times.iter().map(|(s, e)| us(*e - *s)))
        .collect();
    let p50 = stats::median(&latency_us);
    p.metric("serve.parse_us", parse_us, "us");
    p.metric("serve.encode_us", encode_us, "us");
    p.metric("serve.ping_rtt_us", ping_us, "us");
    p.count("serve.coalesce_hits", k2.0[2]);
    p.count("serve.coalesce_misses", k2.0[3]);
    p.metric(
        "serve.self_us",
        p50 - (parse_us + price_p50_us + encode_us + ping_us),
        "us",
    );
    Ok(())
}
