//! Machine-readable CSV exports of every regenerated artifact.
//!
//! The paper's workflow exports measurements "to comma-separated values for
//! further analysis" (§III-C); `repro --csv DIR` writes the reproduction's
//! data the same way: one file per table/figure, plus the raw PCA feature
//! matrix. The source experiments are scheduled on the
//! [`runner`] pool sharing one memoized context, and the
//! exports are assembled in file-name order — the bytes are identical for
//! any `MLPERF_JOBS` worker count.

use crate::experiments::{
    fault_study, figure1, figure3, figure5, table4, table5, variance_decomposition,
};
use crate::report::Table;
use crate::runner::{self, Ctx, ExperimentError, Pool, ResilienceConfig};
use crate::sweep::DiskCache;
use mlperf_telemetry::csv::characteristics_to_csv;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::time::Duration;

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
    fn insert(&mut self, experiment: &'static str, file: &'static str, contents: String) {
        self.exports.insert(
            file,
            CsvExport {
                experiment,
                file,
                contents,
            },
        );
    }

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
/// it; the owners are exactly the experiments an export run schedules.
/// File-name order, matching [`ArtifactSet::iter`]. Public so the cache
/// test battery counts exports from this registry instead of hardcoding
/// the set's size.
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

/// The experiments that own an export file, in report order.
fn owners() -> Vec<&'static dyn runner::Experiment> {
    runner::all_experiments()
        .into_iter()
        .filter(|e| EXPORT_FILES.iter().any(|(_, owner)| *owner == e.id()))
        .collect()
}

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
/// fully-healthy run. With every file on disk nothing re-runs; with some
/// files evicted only their owning experiments re-run (healthy re-runs
/// re-store their files); with `cache == None` every export experiment
/// runs. The bytes depend only on the simulated numbers, never on the
/// schedule — the golden-file tests pin them against `artifacts/`.
pub fn build_all_cached(
    pool: &Pool,
    ctx: &Ctx,
    cfg: &ResilienceConfig,
    cache: Option<&DiskCache>,
) -> (ArtifactSet, runner::Execution) {
    let experiments = owners();
    let Some(cache) = cache else {
        let execution = runner::execute_resilient(pool, ctx, &experiments, cfg);
        return (assemble(ctx, &execution), execution);
    };
    let owner = |id: &str| runner::experiment(id).expect("every export file's owner is registered");
    let cached: Vec<Option<String>> = EXPORT_FILES
        .iter()
        .map(|(file, id)| {
            cache
                .load(&file_spec(file, owner(id)))
                .and_then(|b| String::from_utf8(b).ok())
        })
        .collect();

    if cached.iter().all(Option::is_some) {
        // Fully warm: no experiment runs at all.
        let mut out = ArtifactSet::default();
        for ((file, id), contents) in EXPORT_FILES.iter().zip(cached) {
            // Leak-free &'static lookup: EXPORT_FILES strings are 'static.
            out.insert(id, file, contents.expect("checked above"));
        }
        let reports = experiments
            .iter()
            .map(|e| runner::ExperimentReport {
                id: e.id(),
                title: e.title(),
                deps: e.deps(),
                rendered: String::new(),
                error: None,
                wall: Duration::ZERO,
            })
            .collect();
        let execution = runner::Execution {
            reports,
            failures: Vec::new(),
            stats: runner::ExecutorStats {
                workers: pool.workers(),
                total_wall: Duration::ZERO,
                per_experiment: Vec::new(),
                cache: runner::CacheStats::default(),
            },
        };
        return (out, execution);
    }

    // Re-run only the experiments owning a missing file (their
    // dependencies outside the subset fall back to the memoized context),
    // then overlay the still-cached files on the fresh assembly.
    let rerun: Vec<&'static dyn runner::Experiment> = experiments
        .iter()
        .filter(|e| {
            EXPORT_FILES
                .iter()
                .zip(&cached)
                .any(|((_, id), c)| *id == e.id() && c.is_none())
        })
        .copied()
        .collect();
    let execution = runner::execute_resilient(pool, ctx, &rerun, cfg);
    let mut fresh = assemble(ctx, &execution);
    for ((file, id), contents) in EXPORT_FILES.iter().zip(cached) {
        match contents {
            Some(c) => fresh.insert(id, file, c),
            None => {
                let healthy = execution
                    .reports
                    .iter()
                    .any(|r| r.id == *id && r.error.is_none());
                if healthy {
                    if let Some(e) = fresh.get(file) {
                        cache.store(&file_spec(file, owner(id)), e.contents.as_bytes());
                    }
                }
            }
        }
    }
    (fresh, execution)
}

/// A placeholder export for a failed experiment: the real header row plus
/// a comment naming the failure, so downstream tooling sees the schema
/// and an explicit degradation marker instead of a missing file.
fn placeholder(headers: Table, note: &str) -> String {
    let mut csv = headers.to_csv();
    csv.push_str(&format!("# degraded: {note}\n"));
    csv
}

/// Assemble the export set from whatever artifacts the execution stored;
/// sections whose experiment failed degrade to [`placeholder`] files.
fn assemble(ctx: &Ctx, execution: &runner::Execution) -> ArtifactSet {
    // The failure summary rendered into placeholder files (deterministic:
    // the executor's error text contains no wall-clock or addresses).
    let note = |id: &str| -> String {
        execution
            .reports
            .iter()
            .find(|r| r.id == id)
            .and_then(|r| r.error.as_ref())
            .map_or_else(
                || format!("{id} produced no artifact"),
                |e| format!("{id} failed ({}): {e}", e.kind()),
            )
    };
    let mut out = ArtifactSet::default();

    // Table IV rows.
    let t4_headers = || {
        Table::new(
            "",
            [
                "benchmark",
                "p100_min",
                "v100_1_min",
                "speedup_2",
                "speedup_4",
                "speedup_8",
            ],
        )
    };
    if let Some(t4) = ctx.artifact::<table4::Table4>("table4") {
        let mut csv = t4_headers();
        for row in &t4.rows {
            csv.add_row([
                row.name().to_string(),
                format!("{:.2}", row.p100_minutes()),
                format!("{:.2}", row.v100_minutes(1).expect("anchor measured")),
                format!("{:.4}", row.speedup(2).expect("measured")),
                format!("{:.4}", row.speedup(4).expect("measured")),
                format!("{:.4}", row.speedup(8).expect("measured")),
            ]);
        }
        out.insert("table4", "table4_scaling.csv", csv.to_csv());
    } else {
        out.insert(
            "table4",
            "table4_scaling.csv",
            placeholder(t4_headers(), &note("table4")),
        );
    }

    // Table V rows.
    let t5_headers = || {
        Table::new(
            "",
            [
                "workload",
                "gpus",
                "cpu_pct",
                "gpu_pct",
                "dram_mb",
                "hbm_mb",
                "pcie_mbps",
                "nvlink_mbps",
            ],
        )
    };
    if let Some(t5) = ctx.artifact::<table5::Table5>("table5") {
        let mut csv = t5_headers();
        for r in &t5.runs {
            csv.add_row([
                r.name.clone(),
                r.n_gpus.to_string(),
                format!("{:.3}", r.usage.cpu_util_pct),
                format!("{:.3}", r.usage.gpu_util_pct),
                format!("{:.1}", r.usage.dram_mb),
                format!("{:.1}", r.usage.hbm_mb),
                format!("{:.1}", r.usage.pcie_mbps),
                format!("{:.1}", r.usage.nvlink_mbps),
            ]);
        }
        out.insert("table5", "table5_resources.csv", csv.to_csv());
    } else {
        out.insert(
            "table5",
            "table5_resources.csv",
            placeholder(t5_headers(), &note("table5")),
        );
    }

    // Figure 1: both the raw feature matrix and the projections. The
    // workload runs are all cache hits by now (Figure 1 just priced them).
    let f1_headers = || Table::new("", ["workload", "suite", "pc1", "pc2", "pc3", "pc4"]);
    let f1_runs = ctx
        .artifact::<figure1::Figure1>("figure1")
        .and_then(|f1| figure1::collect_runs_ctx(ctx).ok().map(|runs| (f1, runs)));
    if let Some((f1, runs)) = f1_runs {
        let chars: Vec<_> = runs.iter().map(|r| r.characteristics()).collect();
        out.insert(
            "figure1",
            "figure1_features.csv",
            characteristics_to_csv(&chars),
        );
        let mut csv = f1_headers();
        for (name, suite, p) in &f1.projections {
            csv.add_row([
                name.clone(),
                suite.clone(),
                format!("{:.4}", p[0]),
                format!("{:.4}", p[1]),
                format!("{:.4}", p[2]),
                format!("{:.4}", p[3]),
            ]);
        }
        out.insert("figure1", "figure1_projections.csv", csv.to_csv());
    } else {
        out.insert(
            "figure1",
            "figure1_features.csv",
            placeholder(Table::new("", ["workload"]), &note("figure1")),
        );
        out.insert(
            "figure1",
            "figure1_projections.csv",
            placeholder(f1_headers(), &note("figure1")),
        );
    }

    // Figure 3 speedups.
    let f3_headers = || {
        Table::new(
            "",
            ["benchmark", "amp_samples_s", "fp32_samples_s", "speedup"],
        )
    };
    if let Some(f3) = ctx.artifact::<figure3::Figure3>("figure3") {
        let mut csv = f3_headers();
        for s in &f3.speedups {
            csv.add_row([
                s.id.abbreviation().to_string(),
                format!("{:.1}", s.amp_throughput),
                format!("{:.1}", s.fp32_throughput),
                format!("{:.4}", s.speedup()),
            ]);
        }
        out.insert("figure3", "figure3_amp.csv", csv.to_csv());
    } else {
        out.insert(
            "figure3",
            "figure3_amp.csv",
            placeholder(f3_headers(), &note("figure3")),
        );
    }

    // Figure 5 matrix.
    let f5_headers = || {
        let mut headers = vec!["benchmark".to_string()];
        headers.extend(
            mlperf_hw::SystemId::FOUR_GPU_PLATFORMS
                .iter()
                .map(|s| s.name().replace(' ', "_")),
        );
        Table::new("", headers)
    };
    if let Some(f5) = ctx.artifact::<figure5::Figure5>("figure5") {
        let mut csv = f5_headers();
        for row in &f5.rows {
            let mut cells = vec![row.id.abbreviation().to_string()];
            for sys in mlperf_hw::SystemId::FOUR_GPU_PLATFORMS {
                cells.push(format!("{:.2}", row.on(sys)));
            }
            csv.add_row(cells);
        }
        out.insert("figure5", "figure5_topology.csv", csv.to_csv());
    } else {
        out.insert(
            "figure5",
            "figure5_topology.csv",
            placeholder(f5_headers(), &note("figure5")),
        );
    }

    // Fault study: the analytic sweep and the elastic-cluster outcomes.
    let sweep_headers = || {
        Table::new(
            "",
            [
                "mtbf_hours",
                "interval_min",
                "expected_hours",
                "overhead_pct",
                "policy",
            ],
        )
    };
    let elastic_headers = || {
        Table::new(
            "",
            [
                "policy",
                "makespan_min",
                "mean_wait_min",
                "utilization",
                "preempted",
                "abandoned",
            ],
        )
    };
    if let Some(fs) = ctx.artifact::<fault_study::FaultStudy>("fault_study") {
        let mut csv = sweep_headers();
        for r in &fs.sweep {
            csv.add_row([
                format!("{:.1}", r.mtbf_hours),
                format!("{:.3}", r.interval_min),
                format!("{:.4}", r.expected_hours),
                format!("{:.4}", r.overhead_pct),
                if r.daly { "daly" } else { "fixed" }.to_string(),
            ]);
        }
        out.insert("fault_study", "fault_study_sweep.csv", csv.to_csv());

        let mut csv = elastic_headers();
        for r in &fs.elastic {
            csv.add_row([
                r.policy.to_string(),
                format!("{:.2}", r.trace.makespan.as_minutes()),
                format!("{:.2}", r.trace.mean_wait().as_minutes()),
                format!("{:.4}", r.trace.utilization()),
                r.trace.preemptions.to_string(),
                r.trace.abandoned.len().to_string(),
            ]);
        }
        out.insert("fault_study", "fault_study_elastic.csv", csv.to_csv());
    } else {
        out.insert(
            "fault_study",
            "fault_study_sweep.csv",
            placeholder(sweep_headers(), &note("fault_study")),
        );
        out.insert(
            "fault_study",
            "fault_study_elastic.csv",
            placeholder(elastic_headers(), &note("fault_study")),
        );
    }

    // Variance decomposition: seeded epochs distribution plus the factor
    // shares, one row per benchmark.
    let var_headers = || {
        Table::new(
            "",
            [
                "benchmark",
                "runs",
                "epochs_median",
                "epochs_p5",
                "epochs_p95",
                "epochs_ci_lo",
                "epochs_ci_hi",
                "seed_var_min2",
                "batch_var_min2",
                "precision_var_min2",
                "seed_share_pct",
                "batch_share_pct",
                "precision_share_pct",
            ],
        )
    };
    if let Some(v) =
        ctx.artifact::<variance_decomposition::VarianceDecomposition>("variance_decomposition")
    {
        let mut csv = var_headers();
        for r in &v.rows {
            let (seed, batch, precision) = r.shares();
            csv.add_row([
                r.id.to_string(),
                r.stats.n.to_string(),
                format!("{:.4}", r.stats.median),
                format!("{:.4}", r.stats.p5),
                format!("{:.4}", r.stats.p95),
                format!("{:.4}", r.stats.ci_lo),
                format!("{:.4}", r.stats.ci_hi),
                format!("{:.4}", r.seed_var),
                format!("{:.4}", r.batch_var),
                format!("{:.4}", r.precision_var),
                format!("{seed:.2}"),
                format!("{batch:.2}"),
                format!("{precision:.2}"),
            ]);
        }
        out.insert(
            "variance_decomposition",
            "variance_decomposition.csv",
            csv.to_csv(),
        );
    } else {
        out.insert(
            "variance_decomposition",
            "variance_decomposition.csv",
            placeholder(var_headers(), &note("variance_decomposition")),
        );
    }

    out
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
