//! The streaming-sweep contract at scale.
//!
//! `sweep::run_streamed` promises the same bytes — header plus one row
//! per cell in odometer order, identical quoting — for every worker count
//! and shard size, while holding at most one shard of claimed cells
//! unwritten at a time. This battery runs a 10^5-cell prefix of the
//! million-cell stress grid streamed and fully resident and compares the
//! output byte for byte, sweeps the worker × shard matrix, checks that
//! degraded cells still stream as `status=error` rows, and uses the
//! summary's `peak_resident` counter to prove buffering stayed
//! shard-bounded.

use mlperf_suite::runner::{Ctx, Pool};
use mlperf_suite::sweep::{self, StreamSummary, SweepSpec};

/// 10^5-cell prefix: 16 full (workload, system, gpus, precision) blocks
/// of the batch axis plus a partial 17th.
const PREFIX: usize = 100_032;

fn streamed(workers: usize, spec: &SweepSpec, shard: usize) -> (String, StreamSummary) {
    let mut out = Vec::new();
    let summary = sweep::run_streamed(
        &Pool::with_workers(workers),
        &Ctx::new(),
        spec,
        None,
        &mut out,
        shard,
    )
    .expect("in-memory sink");
    (String::from_utf8(out).expect("CSV is UTF-8"), summary)
}

#[test]
fn streamed_hundred_thousand_cells_match_in_memory_bytes() {
    let spec = sweep::million_cell().truncate(PREFIX);
    assert_eq!(spec.len(), PREFIX);

    let shard = 1024;
    let (text, summary) = streamed(4, &spec, shard);
    assert_eq!(summary.cells, PREFIX);
    assert!(
        summary.peak_resident <= shard,
        "streaming held {} cells resident, shard bound is {shard}",
        summary.peak_resident
    );
    // The grid crosses the OOM wall thousands of times; those cells must
    // stream as data rows, not abort the run.
    assert!(summary.errors > 0, "prefix never hit the OOM wall");
    assert!(summary.errors < summary.cells, "every cell degraded");

    // One window over the whole prefix: any cell may stay resident.
    let (in_memory, _) = streamed(4, &spec, PREFIX);
    assert_eq!(
        text, in_memory,
        "streamed bytes diverge from the resident run"
    );

    // Row accounting: header + one line per cell, errors spelled as rows.
    assert_eq!(text.lines().count(), PREFIX + 1);
    let error_rows = text.lines().filter(|l| l.contains(",error,")).count();
    assert_eq!(error_rows, summary.errors);
}

/// The streamed rows come out in exactly the odometer order `cell_at`
/// defines — spot-checked against decoded coordinates at both ends and
/// across a shard boundary.
#[test]
fn streamed_rows_follow_odometer_order() {
    let spec = sweep::million_cell().truncate(2100);
    let shard = 512;
    let (text, _) = streamed(2, &spec, shard);
    let rows: Vec<&str> = text.lines().skip(1).collect();
    assert_eq!(rows.len(), 2100);
    for i in [0, 1, shard - 1, shard, shard + 1, 2099] {
        let cell = spec.cell_at(i);
        let batch = cell.batch.expect("batch axis always set").to_string();
        let cols: Vec<&str> = rows[i].split(',').collect();
        assert_eq!(cols[3], batch, "row {i} batch column");
    }
}

/// Every worker count and shard size — one cell per claim up to whole
/// shards, more workers than a shard has cells — writes the same bytes
/// and counts, and never holds more than a shard of claimed cells
/// unwritten.
#[test]
fn bytes_and_counts_are_invariant_across_workers_and_shards() {
    let spec = sweep::million_cell().truncate(1500);
    let (reference, want) = streamed(1, &spec, spec.len());
    assert!(want.errors > 0, "the prefix must cross the OOM wall");
    for workers in [1, 2, 3, 4, 7] {
        for shard in [1, 3, 64, 1024] {
            let (bytes, got) = streamed(workers, &spec, shard);
            assert_eq!(
                bytes, reference,
                "{workers} workers, shard {shard}: bytes differ"
            );
            assert_eq!(
                (got.cells, got.errors, got.disk_hits),
                (want.cells, want.errors, want.disk_hits),
                "{workers} workers, shard {shard}: counts differ"
            );
            assert!(
                got.peak_resident <= shard,
                "{workers} workers, shard {shard}: {} cells claimed but unwritten",
                got.peak_resident
            );
        }
    }
}

/// A truncated spec and the full grid must never share cache entries:
/// their canonical identities differ even though the prefix cells agree.
#[test]
fn truncated_grid_has_its_own_identity() {
    let full = sweep::million_cell();
    let cut = sweep::million_cell().truncate(PREFIX);
    assert_eq!(full.len(), 999_936);
    assert_ne!(full.canonical_bytes(), cut.canonical_bytes());
    // The prefix cells themselves are the same cells.
    assert_eq!(full.cell_at(0), cut.cell_at(0));
    assert_eq!(full.cell_at(PREFIX - 1), cut.cell_at(PREFIX - 1));
}
