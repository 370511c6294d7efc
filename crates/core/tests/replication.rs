//! Differential battery for the replication layer (DESIGN.md "Variance
//! model").
//!
//! The contract under test:
//!
//! (a) **runs=1 is invisible** — a sweep priced at `MLPERF_RUNS=1` (or
//!     with the knob unset) produces byte-identical CSVs to the pre-knob
//!     code path: same header, same rows, no distribution columns;
//! (b) **replicated sweeps replay** — at `MLPERF_RUNS=8` the streamed
//!     bytes are identical across two replays and across 1 vs 4 pool
//!     workers;
//! (c) **base columns never move** — every replicated row is the runs=1
//!     row plus exactly the six distribution columns, and the summary is
//!     internally ordered (p5 ≤ median ≤ p95, CI brackets the median);
//! (d) **cache keys are run-count-aware** — a shared disk cache never
//!     serves a runs=1 entry to a runs=8 sweep or vice versa, and both
//!     warm up to byte-identical replays.

use mlperf_suite::runner::{Ctx, Pool};
use mlperf_suite::sweep::{self, DiskCache, RunStats};
use std::path::PathBuf;

/// A fixed cache epoch so test keys never depend on the build fingerprint.
const EPOCH: u64 = 0x5EED_BEEF;

/// The `MLPERF_JOBS` axis every replicated byte must be invariant to.
const WORKER_COUNTS: [usize; 2] = [1, 4];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlperf_replication_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn streamed(
    ctx: &Ctx,
    workers: usize,
    grid: &sweep::SweepSpec,
    cache: Option<&DiskCache>,
) -> String {
    let mut out = Vec::new();
    sweep::run_streamed(&Pool::with_workers(workers), ctx, grid, cache, &mut out, 8)
        .expect("streamed sweep");
    String::from_utf8(out).expect("utf8 csv")
}

#[test]
fn runs_one_is_byte_identical_to_the_unset_knob() {
    let grid = sweep::figure4_scaling();
    let unset = streamed(&Ctx::new(), 1, &grid, None);
    let one = streamed(&Ctx::new().with_runs(1), 1, &grid, None);
    assert_eq!(unset, one, "MLPERF_RUNS=1 must be the pre-knob bytes");
    let header = unset.lines().next().expect("header");
    for col in RunStats::COLUMNS {
        assert!(!header.contains(col), "runs=1 header leaked '{col}'");
    }
}

#[test]
fn replicated_sweep_replays_bitwise_across_replays_and_workers() {
    let grid = sweep::figure4_scaling();
    let ctx = Ctx::new().with_runs(8);
    let mut transcripts = Vec::new();
    for workers in WORKER_COUNTS {
        for _replay in 0..2 {
            transcripts.push(streamed(&ctx, workers, &grid, None));
        }
    }
    assert!(
        transcripts.windows(2).all(|w| w[0] == w[1]),
        "replicated sweep bytes differ across replays or worker counts"
    );
    let header = transcripts[0].lines().next().expect("header");
    assert!(
        header.ends_with("runs,epochs_median,epochs_p5,epochs_p95,epochs_ci_lo,epochs_ci_hi,error"),
        "replicated header misses the distribution columns: {header}"
    );
}

#[test]
fn replicated_rows_extend_the_point_rows_and_order_their_quantiles() {
    let grid = sweep::figure4_scaling();
    let one = streamed(&Ctx::new(), 1, &grid, None);
    let eight = streamed(&Ctx::new().with_runs(8), 1, &grid, None);

    let ones: Vec<&str> = one.lines().skip(1).collect();
    let eights: Vec<&str> = eight.lines().skip(1).collect();
    assert_eq!(
        ones.len(),
        eights.len(),
        "row count changed under replication"
    );

    let extra = RunStats::COLUMNS.len();
    let mut checked = 0;
    for (narrow, wide) in ones.iter().zip(&eights) {
        let n: Vec<&str> = narrow.split(',').collect();
        let w: Vec<&str> = wide.split(',').collect();
        // Error rows quote free-form messages; the battery's base-column
        // law is about priced rows (errors are covered by byte equality
        // of the runs=1 sweep above).
        if !narrow.contains(",ok,") {
            continue;
        }
        checked += 1;
        assert_eq!(w.len(), n.len() + extra, "column arithmetic: {wide}");
        // Base columns (everything before the trailing error column) are
        // byte-identical; the six distribution columns slot in before it.
        assert_eq!(
            n[..n.len() - 1],
            w[..n.len() - 1],
            "base columns moved: {wide}"
        );
        let stats: Vec<f64> = w[n.len() - 1..w.len() - 1]
            .iter()
            .map(|v| v.parse().expect("numeric distribution column"))
            .collect();
        let (runs, median, p5, p95, ci_lo, ci_hi) =
            (stats[0], stats[1], stats[2], stats[3], stats[4], stats[5]);
        assert_eq!(runs, 8.0, "{wide}");
        assert!(p5 <= median && median <= p95, "quantile order: {wide}");
        assert!(ci_lo <= median && median <= ci_hi, "CI bracket: {wide}");
    }
    assert!(checked > 0, "the grid priced no cells at all");
}

#[test]
fn disk_cache_keys_are_run_count_aware_and_round_trip() {
    let dir = tmp("cache");
    let cache = DiskCache::open_with_epoch(&dir, EPOCH).expect("open cache");
    let grid = sweep::figure4_scaling();
    let cells = grid.len() as u64;

    let one_cold = streamed(&Ctx::new(), 1, &grid, Some(&cache));
    let eight_cold = streamed(&Ctx::new().with_runs(8), 1, &grid, Some(&cache));
    // Distinct run counts must found distinct entries: the second cold
    // sweep stores every cell again instead of hitting the first's.
    let s = cache.stats();
    assert_eq!(
        (s.hits, s.stores),
        (0, 2 * cells),
        "runs=1 and runs=8 shared a cache slot"
    );

    let one_warm = streamed(&Ctx::new(), 1, &grid, Some(&cache));
    let eight_warm = streamed(&Ctx::new().with_runs(8), 1, &grid, Some(&cache));
    let s = cache.stats();
    assert_eq!(
        (s.hits, s.stores),
        (2 * cells, 2 * cells),
        "warm sweeps missed the cache"
    );
    assert_eq!(one_cold, one_warm, "runs=1 bytes drifted through the cache");
    assert_eq!(
        eight_cold, eight_warm,
        "runs=8 bytes drifted through the cache"
    );
    assert_ne!(one_cold, eight_cold, "replication never widened the rows");

    let _ = std::fs::remove_dir_all(&dir);
}
