//! Golden conformance suite: fixed-seed FNV-1a fingerprints of every
//! experiment's rendered section.
//!
//! The golden-artifacts test pins CSV bytes; this battery pins the
//! *report* sections, one named test per experiment, so a regression
//! points straight at the experiment that drifted instead of a giant
//! report diff. On failure the message prints the offending section —
//! inspect it, and if the change is intentional regenerate the constants
//! with:
//!
//! ```text
//! cargo test -p mlperf-suite --test conformance -- --ignored --nocapture
//! ```

use mlperf_suite::runner::{self, Ctx, Pool};
use mlperf_testkit::hash::{fnv1a64, fnv1a64_str};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One strict execution shared by every fingerprint test.
fn rendered() -> &'static BTreeMap<&'static str, String> {
    static SECTIONS: OnceLock<BTreeMap<&'static str, String>> = OnceLock::new();
    SECTIONS.get_or_init(|| {
        let execution = runner::execute(
            &Pool::with_workers(1),
            &Ctx::new(),
            &runner::all_experiments(),
        )
        .expect("all experiments healthy");
        execution
            .reports
            .iter()
            .map(|r| (r.id, r.rendered.clone()))
            .collect()
    })
}

macro_rules! conformance {
    ($($test:ident => ($id:literal, $fp:literal)),+ $(,)?) => {
        $(
            #[test]
            fn $test() {
                let section = rendered()
                    .get($id)
                    .unwrap_or_else(|| panic!("experiment '{}' not scheduled", $id));
                let got = fnv1a64_str(section);
                let want: u64 = $fp;
                assert_eq!(
                    got, want,
                    "\nsection '{}' drifted from its golden fingerprint \
                     (got {:#018x}, want {:#018x});\noffending section:\n{}",
                    $id, got, want, section
                );
            }
        )+

        /// Regenerator: prints the current fingerprint table in macro
        /// syntax (run with `-- --ignored --nocapture` after an
        /// intentional change, then paste over the invocation below).
        #[test]
        #[ignore = "regenerates the golden constants; not a gate"]
        fn print_fingerprints() {
            for (id, section) in rendered() {
                let slug = id.replace(|c: char| !c.is_ascii_alphanumeric(), "_");
                println!(
                    "    {}_fingerprint => (\"{}\", {:#018x}),",
                    slug,
                    id,
                    fnv1a64_str(section)
                );
            }
        }

        /// The table above must cover the full experiment set — a new
        /// experiment has to come with a fingerprint.
        #[test]
        fn fingerprint_table_is_complete() {
            let pinned: &[&str] = &[$($id),+];
            let all = runner::all_experiments();
            assert_eq!(pinned.len(), all.len(), "fingerprint table out of sync");
            for e in all {
                assert!(
                    pinned.contains(&e.id()),
                    "experiment '{}' has no golden fingerprint",
                    e.id()
                );
            }
        }
    };
}

conformance! {
    batch_sweep_fingerprint => ("batch_sweep", 0xaca8d63b127022bc),
    cluster_study_fingerprint => ("cluster_study", 0x86bd653f59f3b623),
    colocation_study_fingerprint => ("colocation_study", 0x9e4138f10cbb30a5),
    energy_cost_fingerprint => ("energy_cost", 0xd86f11075749179e),
    fault_study_fingerprint => ("fault_study", 0xcb40352502963c14),
    figure1_fingerprint => ("figure1", 0x081a800b4753d117),
    figure2_fingerprint => ("figure2", 0x273fc4ce61050e6a),
    figure3_fingerprint => ("figure3", 0xbaa5f129a6ad24d6),
    figure4_fingerprint => ("figure4", 0xe08d8c325bf46110),
    figure5_fingerprint => ("figure5", 0x15de211c4021faff),
    partition_study_fingerprint => ("partition_study", 0xe8e321d4f1d3be8f),
    sensitivity_fingerprint => ("sensitivity", 0x80c59403b7ec1498),
    storage_study_fingerprint => ("storage_study", 0x7ef9d762fad32c2a),
    table1_fingerprint => ("table1", 0xa44eacb108f49693),
    table2_fingerprint => ("table2", 0xe64e401631951e1d),
    table3_fingerprint => ("table3", 0xe0fb6a89541bf797),
    table4_fingerprint => ("table4", 0xf45a845a3cddde58),
    table5_fingerprint => ("table5", 0x8d1f009188be0de8),
    validation_fingerprint => ("validation", 0xba688635a7b06efe),
    variance_decomposition_fingerprint => ("variance_decomposition", 0xe6c1f36d72100968),
}

/// Every registry sweep, priced through `run_streamed` as `repro sweep
/// --all` prices it (memo-free context, 1,024-cell shards), must come out
/// byte-identical with the analytic fast path on and off. The million-cell
/// stress grid rides the registry truncated to its CI prefix; its CSV
/// bytes are pinned here like any other golden section. (Registry sweeps
/// are not report experiments, so this lives outside the macro's pinned
/// table.)
#[test]
fn million_cell_ci_prefix_fingerprint() {
    use mlperf_suite::sweep;
    let stream = |spec: &sweep::SweepSpec, fastpath: bool| {
        let ctx = Ctx::without_memo().with_fastpath(fastpath);
        let mut out = Vec::new();
        sweep::run_streamed(&Pool::with_workers(2), &ctx, spec, None, &mut out, 1024)
            .expect("in-memory sink");
        (
            String::from_utf8(out).expect("CSV is UTF-8"),
            ctx.fast_stats(),
        )
    };
    let mut analytic = 0;
    let mut million = None;
    for spec in sweep::registry() {
        let (fast, (_, hits)) = stream(&spec, true);
        let (slow, (attempts, _)) = stream(&spec, false);
        assert_eq!(fast, slow, "fast path changed {} CSV bytes", spec.name);
        assert_eq!(
            attempts, 0,
            "{}: the reference pass tried the fast path",
            spec.name
        );
        analytic += hits;
        if spec.name == "million_cell" {
            assert_eq!(spec.len(), sweep::MILLION_CELL_CI_PREFIX);
            million = Some(fast);
        }
    }
    assert!(analytic > 0, "no registry cell took the fast path");
    let fast = million.expect("million_cell registered");
    let got = fnv1a64_str(&fast);
    let want: u64 = 0x4c343ad7848663f1;
    assert_eq!(
        got, want,
        "million_cell CI prefix drifted (got {got:#018x}, want {want:#018x});\n{fast}"
    );
}

/// The whole million-cell grid's shape, thinned to every 61st batch: every
/// workload x system x GPU count x precision, with the full grid's mix of
/// out-of-memory and viable cells, streamed memo-free at one and at two
/// workers. The CI prefix above covers only the first of those
/// combinations; this pins every row the renderer writes for all of them.
#[test]
fn million_cell_probe_grid_is_pinned() {
    use mlperf_suite::sweep::{self, CellKind, SweepSpec};
    let full = sweep::million_cell();
    let mut probe = SweepSpec::new(
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
        probe = probe.axis(axis.name, values);
    }
    assert_eq!(probe.len(), 16_464);
    for workers in [1, 2] {
        let ctx = Ctx::without_memo();
        let mut out = Vec::new();
        let summary = sweep::run_streamed(
            &Pool::with_workers(workers),
            &ctx,
            &probe,
            None,
            &mut out,
            1024,
        )
        .expect("in-memory sink");
        let got = (
            summary.cells,
            summary.errors,
            out.len(),
            fnv1a64(&out),
            ctx.fast_stats(),
        );
        let want = (
            16_464,
            12_477,
            1_062_597,
            0x64e8_2ceb_9c5f_bf4c,
            (3_863, 3_863),
        );
        assert_eq!(
            got, want,
            "probe grid at {workers} workers: (cells, errors, bytes, fnv, fast path) drifted"
        );
    }
}

/// The pinned streamed CSV fingerprints of every registry sweep: at
/// `runs` 1, at `runs` 8 (the replication columns) and re-based onto a
/// `1of2x2` slice (the `partition` column, as
/// `MLPERF_PARTITION=1of2x2 repro sweep` does). Between them the cases
/// cover point, expected-TTT, replicated, partitioned and error rows.
const SWEEP_CSV_PINNED: [(&str, &str, u64); 15] = [
    ("figure4_scaling", "runs1", 0x9e6f7c7550b361c2),
    ("figure4_scaling", "runs8", 0x3a272e0b81921ee9),
    ("figure4_scaling", "1of2x2", 0x4e3e3dd71001fec6),
    ("batch_wall", "runs1", 0x78b48c5839b43cae),
    ("batch_wall", "runs8", 0xa04d28643f4c38fe),
    ("batch_wall", "1of2x2", 0x4f099104bfcca2f1),
    ("fault_ttt", "runs1", 0x811838071b84a406),
    ("fault_ttt", "runs8", 0x811838071b84a406),
    ("fault_ttt", "1of2x2", 0x2841a7fc3b368407),
    ("million_cell", "runs1", 0x4c343ad7848663f1),
    ("million_cell", "runs8", 0x99c28dd421edd6d9),
    ("million_cell", "1of2x2", 0x40950c1315a21d95),
    ("partition_scaling", "runs1", 0x08cb6f52beda1c4f),
    ("partition_scaling", "runs8", 0x8ffc435ac045a9ec),
    ("partition_scaling", "1of2x2", 0x08cb6f52beda1c4f),
];

/// Every registry sweep in every pinned case, streamed on two workers in
/// 64-cell shards through `cache`: `(sweep, case, fingerprint)`.
fn sweep_csv_fingerprints(
    cache: Option<&mlperf_suite::sweep::DiskCache>,
) -> Vec<(&'static str, &'static str, u64)> {
    use mlperf_hw::PartitionSpec;
    use mlperf_suite::sweep::{self, AxisValue};
    let half = PartitionSpec::parse("1of2x2").expect("valid partition token");
    let mut got = Vec::new();
    for spec in sweep::registry() {
        let cases = [
            ("runs1", Ctx::without_memo(), spec.clone()),
            ("runs8", Ctx::without_memo().with_runs(8), spec.clone()),
            (
                "1of2x2",
                Ctx::without_memo(),
                spec.clone().fix(AxisValue::Partition(half)),
            ),
        ];
        for (case, ctx, spec) in cases {
            let mut out = Vec::new();
            sweep::run_streamed(&Pool::with_workers(2), &ctx, &spec, cache, &mut out, 64)
                .expect("in-memory sink");
            got.push((spec.name, case, fnv1a64(&out)));
        }
    }
    got
}

/// Panics with the drifted rows and the current table unless `got`
/// matches [`SWEEP_CSV_PINNED`].
fn assert_sweep_csv_pinned(lane: &str, got: &[(&str, &str, u64)]) {
    let drifted: Vec<String> = got
        .iter()
        .zip(&SWEEP_CSV_PINNED)
        .filter(|(g, p)| g != p)
        .map(|((name, case, fp), (_, _, want))| {
            format!("{name} {case}: got {fp:#018x}, want {want:#018x}")
        })
        .collect();
    assert!(
        drifted.is_empty() && got.len() == SWEEP_CSV_PINNED.len(),
        "{lane} sweep CSV bytes drifted:\n{}\ncurrent table:\n{}",
        drifted.join("\n"),
        got.iter()
            .map(|(name, case, fp)| format!("    (\"{name}\", \"{case}\", {fp:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The byte reference of the sweep row renderer: the streamed CSV of every
/// registry sweep without a disk cache.
#[test]
fn registry_sweep_csv_fingerprints() {
    assert_sweep_csv_pinned("uncached", &sweep_csv_fingerprints(None));
}

/// The cached lane renders the same bytes: a cold cache prices and stores
/// every cell it has not seen (errors formatted for the entry), a warm one
/// answers every cell from disk, and both stream the pinned fingerprints.
#[test]
fn registry_sweep_csv_fingerprints_through_the_disk_cache() {
    use mlperf_suite::sweep::DiskCache;
    let dir = std::env::temp_dir().join(format!("mlperf_conformance_csv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskCache::open_with_epoch(&dir, 0xC5F).expect("open cache");
    assert_sweep_csv_pinned("cold-cache", &sweep_csv_fingerprints(Some(&cache)));
    // Cases that share cells (a partition axis overrides the re-based
    // slice) hit entries the same pass stored.
    let cold = cache.stats();
    assert!(
        cold.stores > 0 && cold.stores == cold.misses,
        "cold pass: {cold:?}"
    );
    let cache = DiskCache::open_with_epoch(&dir, 0xC5F).expect("reopen cache");
    assert_sweep_csv_pinned("warm-cache", &sweep_csv_fingerprints(Some(&cache)));
    let warm = cache.stats();
    assert_eq!(
        (warm.hits, warm.misses, warm.stores),
        (cold.hits + cold.misses, 0, 0),
        "warm pass: {warm:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
