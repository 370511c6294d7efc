//! Machine-readable CSV exports of every regenerated artifact.
//!
//! The paper's workflow exports measurements "to comma-separated values for
//! further analysis" (§III-C); `repro --csv DIR` writes the reproduction's
//! data the same way: one file per table/figure, plus the raw PCA feature
//! matrix. Each experiment declares its own files in its
//! [`Decl`](runner::Decl); the exporting experiments are scheduled on the
//! [`runner`] pool sharing one memoized context, and the exports are
//! assembled in file-name order — the bytes are identical for any
//! `MLPERF_JOBS` worker count.

use crate::runner::{self, Ctx, ExperimentError, Pool, ResilienceConfig};
use crate::sweep::DiskCache;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// One generated CSV file, tagged with the experiment it came from.
#[derive(Debug, Clone)]
pub struct CsvExport {
    /// Id of the experiment the data belongs to (the [`runner`] vocabulary).
    pub experiment: &'static str,
    /// Output file name.
    pub file: &'static str,
    /// The CSV bytes.
    pub contents: String,
}

/// The typed collection of all CSV exports, ordered by file name.
#[derive(Debug, Clone, Default)]
pub struct ArtifactSet {
    exports: BTreeMap<&'static str, CsvExport>,
}

impl ArtifactSet {
    /// Look up one export by file name.
    pub fn get(&self, file: &str) -> Option<&CsvExport> {
        self.exports.get(file)
    }

    /// All exports, in file-name order.
    pub fn iter(&self) -> impl Iterator<Item = &CsvExport> {
        self.exports.values()
    }

    /// All file names, in order.
    pub fn files(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.exports.keys().copied()
    }

    /// Number of exports.
    pub fn len(&self) -> usize {
        self.exports.len()
    }

    /// Whether the set holds no exports.
    pub fn is_empty(&self) -> bool {
        self.exports.is_empty()
    }
}

impl<'a> IntoIterator for &'a ArtifactSet {
    type Item = &'a CsvExport;
    type IntoIter = std::collections::btree_map::Values<'a, &'static str, CsvExport>;

    fn into_iter(self) -> Self::IntoIter {
        self.exports.values()
    }
}

/// Why an export run failed: either an experiment (typed through the
/// executor's taxonomy), or writing the results to disk.
#[derive(Debug)]
pub enum ExportError {
    /// An experiment failed (strict mode only; resilient exports emit
    /// placeholders instead).
    Run(ExperimentError),
    /// A file or directory could not be written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::Run(e) => write!(f, "experiment failed: {e}"),
            ExportError::Io { path, source } => write!(f, "writing {path}: {source}"),
        }
    }
}

impl std::error::Error for ExportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExportError::Run(e) => Some(e),
            ExportError::Io { source, .. } => Some(source),
        }
    }
}

/// Every export file and the id of the registered experiment that owns
/// it, in file-name order (matching [`ArtifactSet::iter`]): a mirror of
/// what the registry's [`Decl`](runner::Decl)s declare, pinned to them by
/// a test. Public so callers outside the crate (the cache test battery,
/// the benchmark harness) count and name exports without running them.
pub const EXPORT_FILES: [(&str, &str); 9] = [
    ("fault_study_elastic.csv", "fault_study"),
    ("fault_study_sweep.csv", "fault_study"),
    ("figure1_features.csv", "figure1"),
    ("figure1_projections.csv", "figure1"),
    ("figure3_amp.csv", "figure3"),
    ("figure5_topology.csv", "figure5"),
    ("table4_scaling.csv", "table4"),
    ("table5_resources.csv", "table5"),
    ("variance_decomposition.csv", "variance_decomposition"),
];

/// The persistent-cache entry spec of one export file: the file name plus
/// its owning experiment's canonical
/// [`spec_bytes`](runner::Experiment::spec_bytes) (public for the cache
/// test battery's eviction probes).
pub fn file_spec(file: &str, owner: &dyn runner::Experiment) -> Vec<u8> {
    let mut s = format!("csv:{file}:").into_bytes();
    s.extend_from_slice(&owner.spec_bytes());
    s
}

/// Build every export with failure isolation, through the persistent
/// result cache when one is given. A failed experiment's files are emitted
/// as placeholder CSVs (headers plus a `# degraded:` comment naming the
/// failure) while every healthy file's bytes stay identical to a
/// fully-healthy run. Only the experiments owning a file missing from the
/// cache run (every owner, with `cache == None`), and a healthy one
/// re-stores its files. The bytes depend only on the simulated numbers,
/// never on the schedule — the golden-file tests pin them against
/// `artifacts/`.
pub fn build_all_cached(
    pool: &Pool,
    ctx: &Ctx,
    cfg: &ResilienceConfig,
    cache: Option<&DiskCache>,
) -> (ArtifactSet, runner::Execution) {
    let experiments = runner::all_experiments();
    let mut files: Vec<(&'static str, usize)> = experiments
        .iter()
        .enumerate()
        .flat_map(|(i, e)| e.csv_files().into_iter().map(move |file| (file, i)))
        .collect();
    files.sort_unstable();
    let specs: Vec<(Vec<u8>, usize)> = files
        .iter()
        .map(|&(file, i)| (file_spec(file, experiments[i]), i))
        .collect();
    let (contents, execution) =
        runner::execute_cached(pool, ctx, cfg, cache, &experiments, &specs, |i, report| {
            let (file, owner) = files[i];
            let artifact = ctx.stored(report.id);
            let outcome = match &report.error {
                Some(err) => Err(err),
                None => Ok(artifact
                    .as_ref()
                    .expect("a healthy run stores its artifact")),
            };
            experiments[owner].csv(file, outcome)
        });
    let exports = files
        .iter()
        .zip(contents)
        .map(|(&(file, i), contents)| {
            let experiment = experiments[i].id();
            (
                file,
                CsvExport {
                    experiment,
                    file,
                    contents,
                },
            )
        })
        .collect();
    (ArtifactSet { exports }, execution)
}

/// Write every export into a directory (created if absent) through the
/// persistent result cache (see [`build_all_cached`]), returning the paths
/// written plus the execution (whose
/// [`degraded`](runner::Execution::degraded) flag drives the exit code).
/// Failed experiments become placeholder files — unless `cfg.strict` is
/// set, in which case the run's root cause aborts the export before a
/// single file is written.
///
/// # Errors
///
/// [`ExportError::Run`] with the root-cause failure under a strict `cfg`,
/// [`ExportError::Io`] if the directory or a file cannot be written.
pub fn write_all_cached(
    dir: &Path,
    cfg: &ResilienceConfig,
    cache: Option<&DiskCache>,
) -> Result<(Vec<String>, runner::Execution), ExportError> {
    let (exports, execution) = build_all_cached(&Pool::from_env(), &Ctx::new(), cfg, cache);
    if cfg.strict {
        if let Some(f) = execution.root_cause() {
            return Err(ExportError::Run(f.error.clone()));
        }
    }
    let written = write_set(dir, &exports)?;
    Ok((written, execution))
}

fn write_set(dir: &Path, exports: &ArtifactSet) -> Result<Vec<String>, ExportError> {
    let mut written = Vec::new();
    std::fs::create_dir_all(dir).map_err(|source| ExportError::Io {
        path: dir.display().to_string(),
        source,
    })?;
    for export in exports {
        let path = dir.join(export.file);
        std::fs::write(&path, &export.contents).map_err(|source| ExportError::Io {
            path: path.display().to_string(),
            source,
        })?;
        written.push(path.display().to_string());
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every export, fail-fast: the strict, cache-free build.
    fn build_strict() -> ArtifactSet {
        let (set, execution) = build_all_cached(
            &Pool::from_env(),
            &Ctx::new(),
            &ResilienceConfig::strict(),
            None,
        );
        assert!(
            execution.root_cause().is_none(),
            "export experiments failed"
        );
        set
    }

    #[test]
    fn export_files_mirror_the_registry() {
        let mut declared: Vec<(&str, &str)> = runner::all_experiments()
            .into_iter()
            .flat_map(|e| e.csv_files().into_iter().map(move |file| (file, e.id())))
            .collect();
        declared.sort_unstable();
        assert_eq!(declared, EXPORT_FILES);
    }

    #[test]
    fn exports_cover_the_artifacts() {
        let all = build_strict();
        for (name, _) in EXPORT_FILES {
            let export = all.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(
                export.contents.lines().count() > 1,
                "{name} has no data rows"
            );
        }
        assert_eq!(all.len(), EXPORT_FILES.len());
    }

    #[test]
    fn exports_are_tagged_with_their_experiment() {
        let all = build_strict();
        for (name, owner) in EXPORT_FILES {
            let export = all.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(export.experiment, owner, "{name}");
        }
    }

    #[test]
    fn csv_rows_parse_back_numerically() {
        let all = build_strict();
        let t4 = &all.get("table4_scaling.csv").expect("present").contents;
        for line in t4.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 6);
            for c in &cols[1..] {
                let v: f64 = c.parse().expect("numeric cell");
                assert!(v > 0.0);
            }
        }
    }

    #[test]
    fn write_all_creates_files() {
        let dir = std::env::temp_dir().join("mlperf_csv_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        let (written, _) = write_all_cached(&dir, &ResilienceConfig::strict(), None).unwrap();
        assert_eq!(written.len(), EXPORT_FILES.len());
        for path in &written {
            assert!(std::path::Path::new(path).exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
