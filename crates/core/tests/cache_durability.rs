//! Corruption and crash battery for the persistent cache (DESIGN.md
//! "Durability model").
//!
//! The durability contract has two halves, each tested at 1 and 4 pool
//! workers:
//!
//! (a) **tampering is invisible in the output**: after a fuzzed battery
//!     of on-disk mutilations — truncation, bit flips, foreign bytes,
//!     wrong-key entry copies, orphan temp files — a warm run produces
//!     bytes identical to the cold run's, quarantines every tampered
//!     entry it touches, and heals the cache so the next run is fully
//!     warm again;
//! (b) **crashes mid-store are survivable**: under the seeded I/O-chaos
//!     plan (short writes, torn renames, ENOSPC, unreadable and
//!     bit-flipped reads) the run's output stays correct, degradation
//!     is counted deterministically, and a clean reopen sweeps the
//!     debris and converges back to a fully-warm cache.

use mlperf_suite::runner::{self, Ctx, Pool, ResilienceConfig};
use mlperf_suite::sweep::{self, DiskCache, StreamSummary, SweepSpec};
use mlperf_suite::{report_gen, BenchmarkId};
use mlperf_testkit::iochaos::IoChaosPlan;
use mlperf_testkit::rng::Rng;
use std::path::{Path, PathBuf};

/// A fixed cache epoch so test keys never depend on the build fingerprint.
const EPOCH: u64 = 0xD00D_5EED;

const WORKER_COUNTS: [usize; 2] = [1, 4];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlperf_durability_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> ResilienceConfig {
    ResilienceConfig::resilient()
}

/// A sweep's CSV as `repro sweep` streams it through `cache`, with the
/// run's summary.
fn streamed(pool: &Pool, spec: &SweepSpec, cache: &DiskCache) -> (String, StreamSummary) {
    let mut out = Vec::new();
    let summary = sweep::run_streamed(pool, &Ctx::new(), spec, Some(cache), &mut out, 16)
        .expect("in-memory sink");
    (String::from_utf8(out).expect("CSV is UTF-8"), summary)
}

/// Mutilate one entry file with a seeded-random scheme. `donor` is the
/// bytes of a *different* entry, used for the wrong-key-copy scheme.
/// Every scheme produces a file that cannot verify: truncation and
/// appends break the framed length, flips break the checksum (or a
/// header field), garbage breaks the magic, and a donor copy carries a
/// key that disagrees with the file it now sits under.
fn tamper(path: &Path, rng: &mut Rng, donor: &[u8]) -> &'static str {
    let bytes = std::fs::read(path).expect("entry readable before tampering");
    match rng.gen_u64() % 5 {
        0 => {
            let keep = (rng.gen_u64() as usize) % bytes.len();
            std::fs::write(path, &bytes[..keep]).unwrap();
            "truncate"
        }
        1 => {
            let mut b = bytes;
            let bit = (rng.gen_u64() as usize) % (b.len() * 8);
            b[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(path, b).unwrap();
            "bit-flip"
        }
        2 => {
            std::fs::write(path, b"this is not a cache frame").unwrap();
            "foreign-bytes"
        }
        3 => {
            let mut b = bytes;
            b.extend_from_slice(b"trailing garbage");
            std::fs::write(path, b).unwrap();
            "append"
        }
        _ => {
            std::fs::write(path, donor).unwrap();
            "wrong-key-copy"
        }
    }
}

/// The entry files currently in `dir`, sorted for determinism.
fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "art"))
        .collect();
    v.sort();
    v
}

/// Drop the (only-when-degraded) store-failure line so healthy and
/// degraded reports can be compared on their experiment content.
fn without_degradation_line(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.starts_with("persistent-cache degradation:"))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn fuzzed_tampering_never_changes_report_bytes() {
    let mut rng = Rng::new(0x7A3B);
    for workers in WORKER_COUNTS {
        let dir = tmp(&format!("tamper_report_w{workers}"));
        let pool = Pool::with_workers(workers);
        let cold_cache = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
        let (cold, cold_exec) =
            report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&cold_cache));
        assert!(!cold_exec.degraded(), "cold run must be healthy");

        // Mutilate every section entry (sparing the manifest so the warm
        // path walks the full section list and meets each tampered file).
        let manifest = dir.join(format!(
            "{EPOCH:016x}-{:016x}.art",
            cold_cache.key(&report_gen::manifest_spec(&runner::all_experiments()))
        ));
        let files = entry_files(&dir);
        // The spared manifest donates bytes for the wrong-key-copy
        // scheme, so the copy's embedded key always disagrees with the
        // file it lands under.
        let donor = std::fs::read(&manifest).unwrap();
        let mut tampered = 0u64;
        for f in files.iter().filter(|f| **f != manifest) {
            tamper(f, &mut rng, &donor);
            tampered += 1;
        }
        assert!(tampered >= 18, "expected every section entry on disk");

        // Plus crash debris and foreign junk the sweep must distinguish:
        // the orphan temp file goes, the junk stays.
        let orphan = dir.join(format!("{EPOCH:016x}-{:016x}.tmp.424242", 0xDEAD_u64));
        std::fs::write(&orphan, b"half a store").unwrap();
        let junk = dir.join("README.txt");
        std::fs::write(&junk, b"hands off").unwrap();

        let cache = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
        assert_eq!(cache.stats().orphans_swept, 1, "orphan tmp not swept");
        assert!(!orphan.exists(), "orphan tmp survived the sweep");
        assert!(junk.exists(), "sweep deleted a non-cache file");

        let (warm, _) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&cache));
        assert_eq!(
            cold, warm,
            "tampering changed report bytes at {workers} workers"
        );
        let s = cache.stats();
        assert_eq!(
            s.corrupt, tampered,
            "every tampered entry must be quarantined"
        );
        assert_eq!(
            s.store_failures, 0,
            "re-stores on healthy disk must succeed"
        );

        // The cache healed: the next run answers everything from disk.
        let healed = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
        let (again, exec) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&healed));
        assert_eq!(cold, again);
        assert!(
            exec.stats.per_experiment.is_empty(),
            "healed cache still recomputed an experiment"
        );
        assert_eq!(
            healed.stats().corrupt,
            0,
            "healed cache reported corruption"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fuzzed_tampering_never_changes_sweep_csv_bytes() {
    let mut rng = Rng::new(0x5EEDBEEF);
    let spec = sweep::batch_wall(BenchmarkId::MlpfRes50Mx);
    for workers in WORKER_COUNTS {
        let dir = tmp(&format!("tamper_sweep_w{workers}"));
        let pool = Pool::with_workers(workers);
        let cold_cache = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
        let (cold_csv, _) = streamed(&pool, &spec, &cold_cache);

        let files = entry_files(&dir);
        assert!(files.len() > 1, "sweep stored too few cells");
        // The first cell is spared and donates bytes for the
        // wrong-key-copy scheme (a self-copy would verify fine).
        let donor = std::fs::read(&files[0]).unwrap();
        let mut tampered = 0u64;
        for f in files.iter().skip(1) {
            // Tamper a seeded ~half of the cells; leave the rest warm.
            if rng.gen_u64().is_multiple_of(2) {
                tamper(f, &mut rng, &donor);
                tampered += 1;
            }
        }
        assert!(tampered > 0, "seeded battery tampered nothing");

        let cache = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
        let (warm, _) = streamed(&pool, &spec, &cache);
        assert_eq!(cold_csv, warm, "tampering changed sweep CSV");
        let s = cache.stats();
        assert_eq!(s.corrupt, tampered, "quarantine count != tampered count");
        assert_eq!(s.hits as usize + s.corrupt as usize, files.len());

        // Healed: fully warm replay.
        let healed = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
        let (again, summary) = streamed(&pool, &spec, &healed);
        assert_eq!(summary.disk_hits, summary.cells, "healed sweep recomputed");
        assert_eq!(cold_csv, again);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn io_chaos_store_faults_degrade_loudly_but_never_change_results() {
    // The no-cache run is the ground truth every chaos run must match.
    let pool = Pool::with_workers(4);
    let (reference, _) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), None);
    assert!(
        !reference.contains("persistent-cache degradation:"),
        "healthy reference must not report degradation"
    );

    let chaos_plan = || {
        IoChaosPlan::new(0xC4A5)
            .with_write_rates(0.25, 0.15)
            .with_torn_rename(0.15)
    };

    // Two cold chaos runs from identical initial conditions: same seed,
    // same serial store order, so the same stores fail and the two
    // degraded reports are byte-identical — degradation is reproducible,
    // not noise.
    let dir_a = tmp("chaos_a");
    let cache_a = DiskCache::open_with_epoch(&dir_a, EPOCH)
        .unwrap()
        .with_io_chaos(chaos_plan());
    let (report_a, _) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&cache_a));
    let sa = cache_a.stats();
    assert!(sa.store_failures > 0, "chaos rates fired no store fault");
    assert!(
        report_a.contains(&format!(
            "persistent-cache degradation: {} failed store(s)",
            sa.store_failures
        )),
        "degraded run must surface its store failures in the appendix"
    );
    assert_eq!(
        without_degradation_line(&report_a),
        without_degradation_line(&reference),
        "chaos changed experiment content, not just the degradation note"
    );

    let dir_b = tmp("chaos_b");
    let cache_b = DiskCache::open_with_epoch(&dir_b, EPOCH)
        .unwrap()
        .with_io_chaos(chaos_plan());
    let (report_b, _) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&cache_b));
    assert_eq!(
        report_a, report_b,
        "same seed, same degradation, same bytes"
    );
    assert_eq!(sa.store_failures, cache_b.stats().store_failures);

    // A clean reopen sweeps the torn-rename debris, quarantines any
    // short-write frame that landed torn at its final path, and heals:
    // the warm run matches the ground truth exactly (no degradation
    // line — this handle's stores succeed).
    let leftover_tmp = std::fs::read_dir(&dir_a)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .count();
    let clean = DiskCache::open_with_epoch(&dir_a, EPOCH).unwrap();
    assert_eq!(clean.stats().orphans_swept as usize, leftover_tmp);
    let (warm, _) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&clean));
    assert_eq!(
        warm, reference,
        "post-chaos warm bytes differ from ground truth"
    );
    assert_eq!(clean.stats().store_failures, 0);

    // Converged: a final clean run is fully warm.
    let settled = DiskCache::open_with_epoch(&dir_a, EPOCH).unwrap();
    let (final_report, exec) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&settled));
    assert_eq!(final_report, reference);
    assert!(
        exec.stats.per_experiment.is_empty(),
        "cache failed to converge"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn io_chaos_read_faults_fall_back_to_recomputation() {
    let pool = Pool::with_workers(4);
    let (reference, _) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), None);

    // Warm a healthy cache, then read it through a hostile seam:
    // unreadable files and in-flight bit flips.
    let dir = tmp("chaos_read");
    let warmer = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
    let _ = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&warmer));

    let hostile = DiskCache::open_with_epoch(&dir, EPOCH)
        .unwrap()
        .with_io_chaos(IoChaosPlan::new(0xBADC0DE).with_read_rates(0.25, 0.25));
    let (report, _) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&hostile));
    assert_eq!(report, reference, "read faults changed report bytes");
    let s = hostile.stats();
    assert!(s.misses > 0, "chaos read rates fired no fault");
    assert!(
        s.corrupt > 0,
        "bit-flip reads must be caught by verification"
    );
    assert_eq!(s.store_failures, 0, "read chaos must not fail stores");

    // Quarantined entries were re-stored healthy: a clean run is warm.
    let clean = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
    let (again, exec) = report_gen::build_cached(&pool, &Ctx::new(), &cfg(), Some(&clean));
    assert_eq!(again, reference);
    assert!(
        exec.stats.per_experiment.is_empty(),
        "cache did not re-heal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
