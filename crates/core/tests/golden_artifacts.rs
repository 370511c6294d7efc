//! Golden-file tests: the CSV exports regenerate the checked-in
//! `artifacts/` byte-for-byte.
//!
//! The whole pipeline behind these files — workload models, simulation,
//! analysis, rendering — is deterministic (see the "Offline build &
//! determinism policy" section in DESIGN.md), so exact equality is the
//! contract. If an intentional model change shifts numbers, regenerate
//! with `cargo run -p mlperf-suite --bin repro -- --csv artifacts`
//! and commit the diff alongside the change that caused it.

use mlperf_suite::csv_export::{self, ArtifactSet};
use mlperf_suite::runner::{Ctx, Pool, ResilienceConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn artifacts_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../artifacts")
}

/// Every export, fail-fast and cache-free, on the environment's pool.
fn build_strict() -> ArtifactSet {
    let (set, execution) = csv_export::build_all_cached(
        &Pool::from_env(),
        &Ctx::new(),
        &ResilienceConfig::strict(),
        None,
    );
    if let Some(f) = execution.root_cause() {
        panic!("export failed: {}", f.error);
    }
    set
}

#[test]
fn regenerated_csvs_match_checked_in_artifacts_byte_for_byte() {
    let built = build_strict();
    assert!(!built.is_empty());
    for export in &built {
        let name = export.file;
        let path = artifacts_dir().join(name);
        let on_disk = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("artifacts/{name} unreadable: {e}"));
        assert_eq!(
            export.contents, on_disk,
            "artifacts/{name} drifted from the generator; regenerate and commit if intended"
        );
    }
}

#[test]
fn every_artifact_on_disk_is_still_generated() {
    // Coverage in the other direction: no orphaned CSVs lingering after a
    // rename, and no generated table missing from the repo.
    let built: BTreeSet<String> = build_strict().files().map(str::to_string).collect();
    let on_disk: BTreeSet<String> = std::fs::read_dir(artifacts_dir())
        .expect("artifacts/ exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .filter(|n| n.ends_with(".csv"))
        .collect();
    assert_eq!(
        built, on_disk,
        "artifacts/ and csv_export::build_all_cached() must list the same files"
    );
}
