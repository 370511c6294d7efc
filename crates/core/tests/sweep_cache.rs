//! Property battery for the persistent content-addressed result cache.
//!
//! The cache's contract (DESIGN.md "Sweep & cache model") has three legs,
//! each tested here at 1 and 4 pool workers:
//!
//! (a) **warm = cold**: a second `build_cached` answers every section and
//!     export from disk — zero experiment recomputation — and the output
//!     bytes are identical to the cold run's;
//! (b) **keys collide only for canonically-equal specs**: fuzzed cell
//!     specs hash equal iff their canonical bytes are equal;
//! (c) **eviction is self-healing**: evicting a seeded-random entry (or
//!     the manifest itself) and re-running reproduces identical bytes.

use mlperf_suite::runner::{self, Ctx, Pool, ResilienceConfig};
use mlperf_suite::sweep::{self, DiskCache, StreamSummary, SweepSpec};
use mlperf_suite::{csv_export, report_gen, BenchmarkId};
use mlperf_testkit::rng::Rng;
use std::path::PathBuf;

/// A fixed cache epoch so test keys never depend on the build fingerprint.
const EPOCH: u64 = 0x5EED_CAFE;

/// Worker counts every property must hold at (the `MLPERF_JOBS` axis of
/// the determinism contract).
const WORKER_COUNTS: [usize; 2] = [1, 4];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlperf_sweep_cache_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> ResilienceConfig {
    ResilienceConfig::resilient()
}

/// A sweep's CSV as `repro sweep` streams it, with the run's summary.
fn streamed(
    pool: &Pool,
    ctx: &Ctx,
    spec: &SweepSpec,
    cache: Option<&DiskCache>,
) -> (String, StreamSummary) {
    let mut out = Vec::new();
    let summary =
        sweep::run_streamed(pool, ctx, spec, cache, &mut out, 16).expect("in-memory sink");
    (String::from_utf8(out).expect("CSV is UTF-8"), summary)
}

#[test]
fn warm_report_is_byte_identical_with_zero_recomputation() {
    for workers in WORKER_COUNTS {
        let dir = tmp(&format!("report_w{workers}"));
        let cache = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
        let pool = Pool::with_workers(workers);

        // One cache entry per scheduled section, plus the manifest (the
        // count tracks the experiment registry, never a literal here).
        let entries = runner::all_experiments().len() as u64 + 1;

        let (cold, cold_exec) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&cache));
        assert!(!cold_exec.degraded(), "cold run must be healthy");
        // Cold: one manifest probe missed, every section + manifest stored.
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.stores),
            (0, 1, entries),
            "cold counters"
        );

        let (warm, warm_exec) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&cache));
        assert_eq!(cold, warm, "warm report bytes differ at {workers} workers");
        // Warm: manifest + every section hit, nothing stored, and no
        // experiment ran (per-experiment wall list stays empty).
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.stores),
            (entries, 1, entries),
            "warm counters"
        );
        assert!(
            warm_exec.stats.per_experiment.is_empty(),
            "warm run recomputed an experiment"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn warm_csv_exports_are_byte_identical_with_zero_recomputation() {
    for workers in WORKER_COUNTS {
        let dir = tmp(&format!("csv_w{workers}"));
        let cache = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
        let pool = Pool::with_workers(workers);

        // One entry per export file (counted off the export registry).
        let files = csv_export::EXPORT_FILES.len() as u64;
        let (cold, cold_exec) =
            csv_export::build_all_cached(&pool, &Ctx::new(), &cfg(), Some(&cache));
        assert!(!cold_exec.degraded());
        assert_eq!(cold.len() as u64, files);

        let (warm, warm_exec) =
            csv_export::build_all_cached(&pool, &Ctx::new(), &cfg(), Some(&cache));
        for (a, b) in cold.iter().zip(warm.iter()) {
            assert_eq!(a.file, b.file);
            assert_eq!(a.contents, b.contents, "{} differs warm", a.file);
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.stores), (files, files), "csv cache counters");
        assert!(
            warm_exec.stats.per_experiment.is_empty(),
            "warm csv run recomputed an experiment"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Draw a random cell spec: each dimension independently absent or one of
/// a few representative values (floats get bit-level perturbations so the
/// canonical-bytes-as-bit-pattern rule is actually exercised).
fn arbitrary_cell(rng: &mut Rng) -> sweep::CellSpec {
    use mlperf_hw::systems::SystemId;
    use mlperf_hw::{PartitionProfile, PartitionSpec};
    use mlperf_models::PrecisionPolicy;
    let kind = if rng.gen_u64().is_multiple_of(2) {
        sweep::CellKind::Training
    } else {
        sweep::CellKind::ExpectedTtt
    };
    let pick = |rng: &mut Rng, n: u64| rng.gen_u64() % n;
    let mut cell = sweep::CellSpec {
        kind,
        workload: None,
        system: None,
        gpus: None,
        batch: None,
        precision: None,
        mtbf_hours: None,
        interval: None,
        runs: None,
        partition: None,
    };
    if pick(rng, 4) > 0 {
        cell.workload = Some(BenchmarkId::MLPERF[pick(rng, 7) as usize]);
    }
    if pick(rng, 4) > 0 {
        cell.system = Some([SystemId::Dss8440, SystemId::C4140K][pick(rng, 2) as usize]);
    }
    if pick(rng, 4) > 0 {
        cell.gpus = Some([1u32, 2, 4, 8][pick(rng, 4) as usize]);
    }
    if pick(rng, 3) == 0 {
        cell.batch = Some(16u64 << pick(rng, 8));
    }
    if pick(rng, 3) == 0 {
        cell.precision = Some([PrecisionPolicy::Fp32, PrecisionPolicy::Amp][pick(rng, 2) as usize]);
    }
    if pick(rng, 3) == 0 {
        let base = [1.0f64, 4.0, 24.0][pick(rng, 3) as usize];
        // Perturb the mantissa: specs must canonicalize by exact bits.
        let bits = base.to_bits() + pick(rng, 3);
        cell.mtbf_hours = Some(f64::from_bits(bits));
    }
    if pick(rng, 3) == 0 {
        cell.interval = Some(if pick(rng, 2) == 0 {
            sweep::IntervalChoice::Daly
        } else {
            sweep::IntervalChoice::FixedMin(f64::from_bits(
                [1.0f64, 10.0, 240.0][pick(rng, 3) as usize].to_bits() + pick(rng, 2),
            ))
        });
    }
    if pick(rng, 3) == 0 {
        cell.runs = Some([2u32, 8, 16, 512][pick(rng, 4) as usize]);
    }
    if pick(rng, 3) == 0 {
        let profile = PartitionProfile::ALL[pick(rng, 3) as usize];
        let tenants = 1 + pick(rng, u64::from(profile.slice_count())) as u32;
        cell.partition =
            Some(PartitionSpec::new(profile, tenants).expect("tenants within slice count"));
    }
    cell
}

#[test]
fn cache_keys_collide_only_for_canonically_equal_specs() {
    let dir = tmp("keys");
    let cache = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
    let mut rng = Rng::new(0xC0FFEE);
    let specs: Vec<sweep::CellSpec> = (0..200).map(|_| arbitrary_cell(&mut rng)).collect();
    for (i, a) in specs.iter().enumerate() {
        // A re-derived spec is canonically equal and must key identically.
        let clone = a.clone();
        assert_eq!(
            cache.key(&a.canonical_bytes()),
            cache.key(&clone.canonical_bytes())
        );
        for b in specs.iter().skip(i + 1) {
            let same_canon = a.canonical_bytes() == b.canonical_bytes();
            let same_key = cache.key(&a.canonical_bytes()) == cache.key(&b.canonical_bytes());
            assert_eq!(
                same_canon, same_key,
                "key collision disagreement between {a:?} and {b:?}"
            );
        }
    }
    // The epoch is part of the key: same spec, different epoch, new key.
    let other = DiskCache::open_with_epoch(&dir, EPOCH + 1).unwrap();
    assert_ne!(
        cache.key(&specs[0].canonical_bytes()),
        other.key(&specs[0].canonical_bytes())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evicting_a_random_section_reproduces_identical_report_bytes() {
    let mut rng = Rng::new(0xE71C7);
    for workers in WORKER_COUNTS {
        let dir = tmp(&format!("evict_w{workers}"));
        let cache = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
        let pool = Pool::with_workers(workers);
        let (cold, _) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&cache));

        let experiments = runner::all_experiments();
        let victim = experiments[(rng.gen_u64() % experiments.len() as u64) as usize];
        assert!(
            cache.evict(&report_gen::section_spec(victim)),
            "victim section '{}' was not in the cache",
            victim.id()
        );
        let (healed, exec) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&cache));
        assert_eq!(
            cold,
            healed,
            "evicting '{}' changed the rebuilt report bytes",
            victim.id()
        );
        // Exactly the victim re-ran.
        let reran: Vec<&str> = exec
            .stats
            .per_experiment
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(reran, [victim.id()], "partial rebuild ran the wrong set");

        // Evicting the manifest forces a full cold rebuild — same bytes.
        assert!(cache.evict(&report_gen::manifest_spec(&experiments)));
        let (rebuilt, _) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&cache));
        assert_eq!(cold, rebuilt, "manifest eviction changed report bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn evicting_a_random_csv_entry_reproduces_identical_bytes() {
    let mut rng = Rng::new(0xCC5);
    for workers in WORKER_COUNTS {
        let dir = tmp(&format!("csv_evict_w{workers}"));
        let cache = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
        let pool = Pool::with_workers(workers);
        let (cold, _) = csv_export::build_all_cached(&pool, &Ctx::new(), &cfg(), Some(&cache));

        // Pick a seeded-random export file and evict its entry.
        let files: Vec<&str> = cold.files().collect();
        let victim = files[(rng.gen_u64() % files.len() as u64) as usize];
        let owner_id = cold.get(victim).expect("present").experiment;
        let owner = *runner::all_experiments()
            .iter()
            .find(|e| e.id() == owner_id)
            .expect("owner registered");
        assert!(
            cache.evict(&csv_export::file_spec(victim, owner)),
            "victim file '{victim}' was not in the cache"
        );
        let (healed, _) = csv_export::build_all_cached(&pool, &Ctx::new(), &cfg(), Some(&cache));
        for (a, b) in cold.iter().zip(healed.iter()) {
            assert_eq!(
                a.contents, b.contents,
                "{} changed after evicting {victim}",
                a.file
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The analytic fast path must be invisible to the cache: a grid priced
/// with the fast path enabled produces byte-identical CSV — including
/// every degraded `status=error` row — to the same grid priced through
/// the full DES engine, and the two populate interchangeable cache
/// entries. A warm replay answers every cell from disk (fast-path cells
/// are never silently re-priced) whichever engine warms it.
#[test]
fn fast_path_cells_cache_identically_and_never_mask_errors() {
    let spec = sweep::batch_wall(BenchmarkId::MlpfRes50Mx);
    let pool = Pool::with_workers(4);

    // Cold-price the grid twice, once per engine, in separate caches.
    let fast_dir = tmp("fastpath_on");
    let fast_cache = DiskCache::open_with_epoch(&fast_dir, EPOCH).unwrap();
    let fast_ctx = Ctx::new().with_fastpath(true);
    let (fast, fast_run) = streamed(&pool, &fast_ctx, &spec, Some(&fast_cache));

    let slow_dir = tmp("fastpath_off");
    let slow_cache = DiskCache::open_with_epoch(&slow_dir, EPOCH).unwrap();
    let (slow, _) = streamed(
        &pool,
        &Ctx::new().with_fastpath(false),
        &spec,
        Some(&slow_cache),
    );

    // Identical bytes — the OOM wall degrades the same cells to the same
    // error rows regardless of engine (the fast path cannot turn an
    // error into a success or vice versa).
    assert_eq!(fast, slow);
    assert!(fast_run.errors > 0, "the batch wall must be hit");
    let (attempts, _) = fast_ctx.fast_stats();
    assert!(attempts > 0, "fast path was never consulted");

    // Cross-warm: the DES-priced cache answers a fast-path context (and
    // vice versa) from disk, with zero recomputation and the same bytes.
    for (cache, ctx) in [
        (&slow_cache, Ctx::new().with_fastpath(true)),
        (&fast_cache, Ctx::new().with_fastpath(false)),
    ] {
        let (warm, summary) = streamed(&pool, &ctx, &spec, Some(cache));
        assert_eq!(summary.disk_hits, summary.cells, "warm run recomputed");
        assert_eq!(warm, fast);
        let (attempts, _) = ctx.fast_stats();
        assert_eq!(attempts, 0, "a disk hit must never re-price a cell");
    }
    let _ = std::fs::remove_dir_all(&fast_dir);
    let _ = std::fs::remove_dir_all(&slow_dir);
}

#[test]
fn sweep_cells_cache_and_replay_through_the_engine() {
    for workers in WORKER_COUNTS {
        let dir = tmp(&format!("cells_w{workers}"));
        let cache = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
        let pool = Pool::with_workers(workers);
        for spec in sweep::registry() {
            let (cold, _) = streamed(&pool, &Ctx::new(), &spec, Some(&cache));
            let (warm, summary) = streamed(&pool, &Ctx::new(), &spec, Some(&cache));
            assert_eq!(cold, warm, "sweep '{}' warm bytes differ", spec.name);
            assert_eq!(
                summary.disk_hits, summary.cells,
                "sweep '{}' warm run recomputed cells",
                spec.name
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
