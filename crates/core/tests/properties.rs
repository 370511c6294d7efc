//! Property-based tests for the suite layer: report rendering and the
//! benchmark registry.

use mlperf_suite::{BenchmarkId, Table};
use mlperf_testkit::prop::*;

/// Cells drawn from a pool that includes every character CSV quoting
/// special-cases and the ASCII table's border characters.
fn arb_cell() -> impl Gen<Value = String> {
    let ch = elements(&['a', 'B', '3', ' ', ',', '"', '|', '\n', '-']);
    vec_of(ch, 0usize..8).prop_map(|cs| cs.into_iter().collect())
}

/// A table with 1..5 columns and 0..6 rows of arbitrary cells.
fn arb_table() -> impl Gen<Value = Table> {
    (1usize..5).prop_flat_map(|cols| {
        (
            vec_of(arb_cell(), just(cols)),
            vec_of(vec_of(arb_cell(), just(cols)), 0usize..6),
        )
            .prop_map(|(headers, rows)| {
                let mut t = Table::new("t", headers);
                for row in rows {
                    t.add_row(row);
                }
                t
            })
    })
}

/// A minimal RFC-4180 reader: the inverse of [`Table::to_csv`].
fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut records = Vec::new();
    let mut record = Vec::new();
    let mut cell = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut cell_started = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cell.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                cell.push(c);
            }
        } else {
            match c {
                '"' => {
                    in_quotes = true;
                    cell_started = true;
                }
                ',' => {
                    record.push(std::mem::take(&mut cell));
                    cell_started = false;
                }
                '\n' => {
                    record.push(std::mem::take(&mut cell));
                    records.push(std::mem::take(&mut record));
                    cell_started = false;
                }
                other => {
                    cell.push(other);
                    cell_started = true;
                }
            }
        }
    }
    if cell_started || !cell.is_empty() || !record.is_empty() {
        record.push(cell);
        records.push(record);
    }
    records
}

mlperf_testkit::properties! {
    /// CSV export round-trips arbitrary cells — commas, quotes, and
    /// newlines included — through an RFC-4180 reader.
    #[test]
    fn csv_round_trips_arbitrary_cells(
        cells in vec_of(arb_cell(), 1usize..5),
        extra_rows in vec_of(just(()), 0usize..3)
    ) {
        let mut t = Table::new("t", cells.clone());
        for _ in &extra_rows {
            t.add_row(cells.clone());
        }
        let parsed = parse_csv(&t.to_csv());
        prop_assert_eq!(parsed.len(), 1 + extra_rows.len(), "header + data rows");
        for record in &parsed {
            prop_assert_eq!(record, &cells);
        }
    }

    /// Generated tables round-trip too, independent of shape.
    #[test]
    fn csv_record_count_tracks_rows(t in arb_table()) {
        let parsed = parse_csv(&t.to_csv());
        prop_assert_eq!(parsed.len(), t.row_count() + 1);
        let width = parsed[0].len();
        prop_assert!(parsed.iter().all(|r| r.len() == width), "rectangular output");
    }

    /// The plain-text rendering is rectangular for newline-free cells:
    /// every bordered line has the same width.
    #[test]
    fn display_is_rectangular(widths in vec_of(0usize..7, 1usize..5), rows in 0usize..5) {
        let headers: Vec<String> = widths.iter().map(|&w| "h".repeat(w)).collect();
        let mut t = Table::new("title", headers);
        for i in 0..rows {
            t.add_row(widths.iter().map(|&w| "c".repeat(w.saturating_sub(i % 2))));
        }
        let text = t.to_string();
        let bordered: Vec<&str> = text.lines().skip(1).collect();
        let first = bordered.first().map(|l| l.len()).unwrap_or(0);
        prop_assert!(bordered.iter().all(|l| l.len() == first), "{text}");
    }

    /// Registry containment: Table IV rows are MLPerf benchmarks, MLPerf
    /// benchmarks are registered, and identity accessors are total.
    #[test]
    fn registry_is_consistent(idx in 0usize..9) {
        let b = BenchmarkId::ALL[idx];
        prop_assert!(!b.abbreviation().is_empty());
        prop_assert!(!b.domain().is_empty());
        prop_assert!(!b.quality_target().is_empty());
        prop_assert!(b.model().params() > 0, "{} has a non-trivial model", b.abbreviation());
        if BenchmarkId::TABLE_IV.contains(&b) {
            prop_assert!(BenchmarkId::MLPERF.contains(&b));
        }
        if BenchmarkId::MLPERF.contains(&b) {
            prop_assert!(BenchmarkId::ALL.contains(&b));
        }
        // Abbreviations identify benchmarks uniquely.
        for other in BenchmarkId::ALL {
            if other != b {
                prop_assert_ne!(other.abbreviation(), b.abbreviation());
            }
        }
    }

    /// Every benchmark's training job is runnable metadata: positive batch
    /// and a dataset that matches the registry.
    #[test]
    fn jobs_are_well_formed(idx in 0usize..9) {
        let b = BenchmarkId::ALL[idx];
        let job = b.job();
        prop_assert!(job.per_gpu_batch() >= 1);
        prop_assert_eq!(job.pipeline().dataset(), b.dataset());
    }
}

/// The odometer walk against decoding every index on its own.
mod sweep_walk {
    use mlperf_suite::sweep::{self, AxisValue, CellKind, CellSpec, SweepSpec};
    use mlperf_suite::BenchmarkId;
    use mlperf_testkit::prop::*;

    /// What [`SweepSpec::cell_at`] decodes for each index of `range`.
    fn decoded(spec: &SweepSpec, range: std::ops::Range<usize>) -> Vec<CellSpec> {
        range.map(|i| spec.cell_at(i)).collect()
    }

    /// The million grid with an empty axis after the workloads and another
    /// as its last axis, and only 97 batches: the walk must carry through
    /// both as `cell_at` decodes them.
    fn with_empty_axes() -> SweepSpec {
        let full = sweep::million_cell();
        let mut spec = SweepSpec::new("empty_axes", "empty axes", CellKind::Training);
        for axis in full.axes() {
            let values = if axis.name == "batch" {
                axis.values[..97].to_vec()
            } else {
                axis.values.clone()
            };
            spec = spec.axis(axis.name, values);
            if axis.name == "workload" {
                spec = spec.axis("none", Vec::new());
            }
        }
        spec.axis("tail", Vec::new())
    }

    /// Cells per step of axis `k`: the product of the later axes' lengths
    /// (an empty axis is one coordinate wide).
    fn stride(spec: &SweepSpec, k: usize) -> usize {
        spec.axes()[k + 1..]
            .iter()
            .map(|a| a.values.len().max(1))
            .product()
    }

    #[test]
    fn walk_matches_cell_at_on_every_registry_sweep() {
        for spec in sweep::registry() {
            let walked: Vec<CellSpec> = spec.walk(0..spec.len()).collect();
            assert_eq!(walked, decoded(&spec, 0..spec.len()), "{}", spec.name);
            for i in 0..spec.len() {
                let tail: Vec<CellSpec> = spec.walk(i..spec.len()).collect();
                assert_eq!(tail[..], walked[i..], "{} from {i}", spec.name);
            }
        }
        // A batch override in the base and on an axis: the later value
        // wins after a carry, as it does in `cell_at`.
        let spec = SweepSpec::new("override", "override", CellKind::Training)
            .fix(AxisValue::Batch(7))
            .axis(
                "workload",
                BenchmarkId::MLPERF[..3]
                    .iter()
                    .map(|&b| AxisValue::Workload(b))
                    .collect(),
            )
            .axis("batch", (1..=3).map(AxisValue::Batch).collect())
            .axis("gpus", (1..=2).map(AxisValue::Gpus).collect());
        assert_eq!(spec.walk(0..spec.len()).collect::<Vec<_>>(), spec.cells());
        assert_eq!(spec.cells(), decoded(&spec, 0..spec.len()));
    }

    mlperf_testkit::properties! {
        /// Random ranges of the million grid, of a truncated copy and of a
        /// copy with empty axes: each starts on an axis boundary or one
        /// cell either side of it, and ends a random span later or on,
        /// before or after the next step of an inner axis (in the million
        /// grid: the next lane, GPU count or system). Empty, inverted and
        /// end-of-grid ranges included.
        #[test]
        fn walk_matches_cell_at_on_random_ranges(
            which in 0usize..3,
            trunc in 1usize..999_936,
            start_at in (0usize..5, 0usize..1_000_000, 0usize..3),
            end_at in (0usize..4, 0usize..20_000, 0usize..3),
            inverted in 0usize..8
        ) {
            let spec = match which {
                0 => sweep::million_cell(),
                1 => sweep::million_cell().truncate(trunc),
                _ => with_empty_axes(),
            };
            let (axis, raw, jitter) = start_at;
            let axis = axis.min(spec.axes().len() - 1);
            let s = stride(&spec, axis);
            let start = ((raw % (spec.len() / s + 1)) * s + jitter)
                .saturating_sub(1)
                .min(spec.len());
            let (inner, span, jitter) = end_at;
            let end = if inner == 0 {
                start + span
            } else {
                // The next step of the second, third or fourth axis from
                // the end, or one cell either side of it.
                let s = stride(&spec, spec.axes().len() - 1 - inner);
                ((start / s + 1) * s + jitter).saturating_sub(1)
            }
            .min(spec.len());
            let range = if inverted == 0 { end..start } else { start..end };
            let walked: Vec<CellSpec> = spec.walk(range.clone()).collect();
            prop_assert_eq!(spec.walk(range.clone()).len(), range.len());
            prop_assert!(walked == decoded(&spec, range.clone()), "{} over {range:?}", spec.name);
        }
    }
}
