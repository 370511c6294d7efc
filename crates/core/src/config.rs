//! One typed view of every `MLPERF_*` environment knob.
//!
//! This module is the one parser of every knob. The `repro` CLI resolves
//! the environment once, strictly ([`Config::try_from_env`]), and builds
//! its pool, failure policy, context and cache from that [`Config`]; a
//! long-lived `repro serve` daemon keeps that startup view and varies
//! per request only through the request API, never through a mid-flight
//! env read that could split the server's view of its own knobs.
//! [`Ctx::new`](crate::runner::Ctx::new) and
//! [`Ctx::without_memo`](crate::runner::Ctx::without_memo) take the
//! defaults and read no environment; the one constructor that takes no
//! config and still does,
//! [`Pool::from_env`](crate::runner::Pool::from_env), resolves through
//! the lenient [`Config::from_env`]. Parsing is pure
//! ([`Config::resolve`] takes the lookup as a closure), which is what the
//! unit tests drive — tests must not mutate the process environment,
//! because the suite runs multi-threaded.

use crate::runner::{CHAOS_ENV, JOBS_ENV, PARTITION_ENV, RUNS_ENV, STEP_BUDGET_ENV, STRICT_ENV};
use crate::sweep::cache::{CACHE_DIR_ENV, CACHE_ENV, DEFAULT_CACHE_DIR, IO_CHAOS_ENV};
use crate::sweep::MAX_RUNS;
use mlperf_hw::PartitionSpec;
use mlperf_testkit::iochaos::{IoChaosParseError, IoChaosSpec};
use std::fmt;
use std::path::PathBuf;

/// Why a knob was rejected by the strict resolver
/// ([`Config::try_resolve`]). The lenient [`Config::resolve`] logs the
/// same error to stderr and falls back to the knob's default; the `repro`
/// CLI and the serve daemon go through the strict path, so a typo'd knob
/// fails fast instead of silently running with a default — a mistyped
/// `MLPERF_IO_CHAOS` that injected nothing would make a durability gate
/// vacuously green.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A knob's value did not parse as its type.
    BadKnob {
        /// The environment variable.
        name: &'static str,
        /// The rejected value text.
        value: String,
        /// What the knob expects, for the error message.
        expected: &'static str,
    },
    /// `MLPERF_IO_CHAOS` was present but malformed.
    BadIoChaos {
        /// The rejected spec text.
        value: String,
        /// The typed parse failure.
        error: IoChaosParseError,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadKnob {
                name,
                value,
                expected,
            } => write!(f, "{name}={value:?}: expected {expected}"),
            ConfigError::BadIoChaos { value, error } => {
                write!(f, "{IO_CHAOS_ENV}={value:?}: {error}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Every `MLPERF_*` knob, resolved once.
#[derive(Debug, Clone)]
pub struct Config {
    /// Worker-thread count (`MLPERF_JOBS`, a positive integer, else
    /// `available_parallelism`).
    pub jobs: usize,
    /// Whether the persistent result cache is enabled (`MLPERF_CACHE` is
    /// not `off`/`0`, and no chaos injection is active — injected
    /// failures must never be masked by warm entries).
    pub cache_enabled: bool,
    /// Persistent-cache directory (`MLPERF_CACHE_DIR`, else
    /// `artifacts/cache`).
    pub cache_dir: PathBuf,
    /// Per-experiment (and, for the server, per-client) simulation-request
    /// budget (`MLPERF_STEP_BUDGET`). Counted in requests, never
    /// wall-clock, so verdicts are deterministic.
    pub step_budget: Option<u64>,
    /// Fail-fast mode (`MLPERF_STRICT=1`; `0` or unset is off).
    pub strict: bool,
    /// Id of the experiment to chaos-panic (`MLPERF_CHAOS`, a registered
    /// experiment id), if any.
    pub chaos: Option<String>,
    /// Seeded runs per Training cell (`MLPERF_RUNS`, 1..=[`MAX_RUNS`];
    /// default 1 = point pricing with no replication columns,
    /// byte-identical to the pre-replication suite).
    pub runs: u32,
    /// Fractional-device partition applied to the base cell of every
    /// `repro sweep` run (`MLPERF_PARTITION`, e.g. `1of4x3`; `full` and
    /// unset both mean the whole device). Sweeps that declare their own
    /// partition axis override it per cell, and pinned report
    /// experiments ignore it entirely — like `MLPERF_RUNS`, the knob
    /// reshapes exploratory sweeps, never conformance-pinned sections.
    pub partition: Option<PartitionSpec>,
    /// Seeded I/O fault injection at the persistent cache's filesystem
    /// seam (`MLPERF_IO_CHAOS`), if configured. Unlike `MLPERF_CHAOS`,
    /// this keeps the cache *enabled*: the property under test is that a
    /// sabotaged cache still yields byte-identical output.
    pub io_chaos: Option<IoChaosSpec>,
}

/// Strictly parse knob `name`: absent or blank means unset (`None`); any
/// other text must satisfy `parse`, or the typed error is recorded and
/// the knob is left unset, so the lenient path falls back to its default.
fn strict_knob<T>(
    get: &impl Fn(&str) -> Option<String>,
    errors: &mut Vec<ConfigError>,
    name: &'static str,
    expected: &'static str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let raw = get(name)?;
    let text = raw.trim();
    if text.is_empty() {
        return None;
    }
    let parsed = parse(text);
    if parsed.is_none() {
        errors.push(ConfigError::BadKnob {
            name,
            value: raw,
            expected,
        });
    }
    parsed
}

impl Config {
    /// Resolve every knob from the process environment, once.
    pub fn from_env() -> Config {
        Config::resolve(|name| std::env::var(name).ok())
    }

    /// Strict [`Config::from_env`]: the first malformed knob is a typed
    /// error instead of a logged fallback. The `repro` CLI calls this
    /// before doing anything else.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] among the strictly parsed knobs.
    pub fn try_from_env() -> Result<Config, ConfigError> {
        Config::try_resolve(|name| std::env::var(name).ok())
    }

    /// Strict [`Config::resolve`]: the first malformed knob is returned
    /// as a typed error. Every knob except the free-form
    /// `MLPERF_CACHE_DIR` is parsed strictly.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] among the strictly parsed knobs.
    pub fn try_resolve(get: impl Fn(&str) -> Option<String>) -> Result<Config, ConfigError> {
        let (config, mut errors) = Config::resolve_inner(get);
        match errors.is_empty() {
            true => Ok(config),
            false => Err(errors.remove(0)),
        }
    }

    /// Resolve every knob through `get` (the pure core of
    /// [`Config::from_env`]; tests inject a map instead of mutating the
    /// process environment). Malformed knobs are logged to stderr and
    /// defaulted; use [`Config::try_resolve`] to get them as typed errors
    /// instead.
    pub fn resolve(get: impl Fn(&str) -> Option<String>) -> Config {
        let (config, errors) = Config::resolve_inner(get);
        for e in errors {
            eprintln!("config: {e} (using the default)");
        }
        config
    }

    fn resolve_inner(get: impl Fn(&str) -> Option<String>) -> (Config, Vec<ConfigError>) {
        let mut errors = Vec::new();
        let jobs = strict_knob(&get, &mut errors, JOBS_ENV, "a positive integer", |t| {
            t.parse::<usize>().ok().filter(|&n| n >= 1)
        })
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        // A chaos target that names no experiment would inject nothing and
        // leave the chaos gate vacuously green.
        let chaos = strict_knob(
            &get,
            &mut errors,
            CHAOS_ENV,
            "a registered experiment id",
            |t| crate::runner::experiment(t).map(|_| t.to_string()),
        );
        let cache_on = strict_knob(
            &get,
            &mut errors,
            CACHE_ENV,
            "on, off, 1 or 0",
            |t| match t {
                "on" | "1" => Some(true),
                "off" | "0" => Some(false),
                _ => None,
            },
        );
        let cache_enabled = cache_on.unwrap_or(true) && chaos.is_none();
        let cache_dir =
            get(CACHE_DIR_ENV).map_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR), PathBuf::from);
        let step_budget = strict_knob(
            &get,
            &mut errors,
            STEP_BUDGET_ENV,
            "a non-negative integer",
            |t| t.parse::<u64>().ok(),
        );
        let strict = strict_knob(&get, &mut errors, STRICT_ENV, "0 or 1", |t| match t {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        })
        .unwrap_or(false);
        let runs = strict_knob(
            &get,
            &mut errors,
            RUNS_ENV,
            "an integer from 1 to 512",
            |t| t.parse::<u32>().ok().filter(|n| (1..=MAX_RUNS).contains(n)),
        )
        .unwrap_or(1);
        let partition = strict_knob(
            &get,
            &mut errors,
            PARTITION_ENV,
            "a partition token: 'full', '1of{2|4|7}', or '1of{k}x{tenants}'",
            |t| PartitionSpec::parse(t).ok(),
        )
        .flatten();
        let io_chaos = get(IO_CHAOS_ENV).and_then(|text| match IoChaosSpec::parse(&text) {
            Ok(spec) => spec,
            Err(error) => {
                errors.push(ConfigError::BadIoChaos { value: text, error });
                None
            }
        });
        (
            Config {
                jobs,
                cache_enabled,
                cache_dir,
                step_budget,
                strict,
                chaos,
                runs,
                partition,
                io_chaos,
            },
            errors,
        )
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::resolve(|_| None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(pairs: &[(&str, &str)]) -> Config {
        let pairs: Vec<(String, String)> = pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Config::resolve(move |name| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        })
    }

    #[test]
    fn empty_environment_gives_defaults() {
        let cfg = with(&[]);
        assert!(cfg.jobs >= 1);
        assert!(cfg.cache_enabled);
        assert_eq!(cfg.cache_dir, PathBuf::from(DEFAULT_CACHE_DIR));
        assert_eq!(cfg.step_budget, None);
        assert!(!cfg.strict);
        assert!(cfg.chaos.is_none());
        assert_eq!(cfg.runs, 1, "default is point pricing");
        assert!(cfg.partition.is_none(), "default is the whole device");
        assert!(cfg.io_chaos.is_none());
    }

    #[test]
    fn every_knob_parses() {
        let cfg = with(&[
            (JOBS_ENV, "3"),
            (CACHE_ENV, "on"),
            (CACHE_DIR_ENV, "/tmp/alt"),
            (STEP_BUDGET_ENV, "250"),
            (STRICT_ENV, "1"),
            (RUNS_ENV, "8"),
            (PARTITION_ENV, "1of4x3"),
            (IO_CHAOS_ENV, "seed=3,bit_flip=0.5"),
        ]);
        assert_eq!(cfg.jobs, 3);
        assert!(cfg.cache_enabled);
        assert_eq!(cfg.cache_dir, PathBuf::from("/tmp/alt"));
        assert_eq!(cfg.step_budget, Some(250));
        assert!(cfg.strict);
        assert_eq!(cfg.runs, 8);
        assert_eq!(
            cfg.partition.map(|p| p.to_string()).as_deref(),
            Some("1of4x3")
        );
        let io = cfg.io_chaos.expect("io-chaos spec parsed");
        assert_eq!((io.seed, io.bit_flip), (3, 0.5));
    }

    #[test]
    fn cache_disables_on_off_or_chaos() {
        assert!(!with(&[(CACHE_ENV, "off")]).cache_enabled);
        assert!(!with(&[(CACHE_ENV, "0")]).cache_enabled);
        assert!(with(&[(CACHE_ENV, "1")]).cache_enabled);
        let chaotic = with(&[(CHAOS_ENV, " figure3 ")]);
        assert!(
            !chaotic.cache_enabled,
            "chaos runs must not read warm entries"
        );
        assert_eq!(chaotic.chaos.as_deref(), Some("figure3"));
        // A blank chaos target is no chaos at all.
        assert!(with(&[(CHAOS_ENV, "  ")]).chaos.is_none());
    }

    #[test]
    fn malformed_values_fall_back() {
        let cfg = with(&[
            (JOBS_ENV, "0"),
            (STEP_BUDGET_ENV, "lots"),
            (STRICT_ENV, "true"),
            (CACHE_ENV, "false"),
        ]);
        assert!(cfg.jobs >= 1, "non-positive job count is ignored");
        assert_eq!(cfg.step_budget, None);
        assert!(!cfg.strict);
        assert!(cfg.cache_enabled);
    }

    fn try_with(pairs: &[(&str, &str)]) -> Result<Config, ConfigError> {
        let pairs: Vec<(String, String)> = pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Config::try_resolve(move |name| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        })
    }

    #[test]
    fn strict_knobs_reject_garbage_with_typed_errors() {
        // Unknown io-chaos key.
        let err = try_with(&[(IO_CHAOS_ENV, "bitflip=0.5")]).unwrap_err();
        assert!(matches!(
            &err,
            ConfigError::BadIoChaos {
                error: IoChaosParseError::UnknownKey(k),
                ..
            } if k == "bitflip"
        ));
        assert!(err.to_string().contains(IO_CHAOS_ENV), "{err}");
        // Out-of-range rate.
        assert!(try_with(&[(IO_CHAOS_ENV, "bit_flip=2.0")]).is_err());
        // Every other malformed knob is a BadKnob that names it.
        for (knob, bad) in [
            (STEP_BUDGET_ENV, "lots"),
            (STEP_BUDGET_ENV, "-5"),
            // Overflow is a typed error, not a silent wrap.
            (STEP_BUDGET_ENV, "99999999999999999999999999"),
            (JOBS_ENV, "abc"),
            (JOBS_ENV, "0"),
            (JOBS_ENV, "-2"),
            (STRICT_ENV, "true"),
            (STRICT_ENV, "yes"),
            (CACHE_ENV, "false"),
            (CACHE_ENV, "disabled"),
            // A chaos target must name a registered experiment.
            (CHAOS_ENV, "figure33"),
            (CHAOS_ENV, "Figure3"),
        ] {
            let err = try_with(&[(knob, bad)]).unwrap_err();
            assert!(
                matches!(
                    &err,
                    ConfigError::BadKnob { name, value, .. } if *name == knob && value == bad
                ),
                "{knob}={bad}: {err}"
            );
            assert!(err.to_string().contains(knob), "{err}");
        }
    }

    #[test]
    fn strict_knobs_treat_empty_and_whitespace_as_unset() {
        let cfg = try_with(&[
            (IO_CHAOS_ENV, ""),
            (RUNS_ENV, "   "),
            (JOBS_ENV, "\t"),
            (STEP_BUDGET_ENV, " "),
            (STRICT_ENV, ""),
            (CACHE_ENV, "  "),
            (PARTITION_ENV, "\t"),
            (CHAOS_ENV, " "),
        ])
        .expect("blank knobs are unset, not errors");
        assert!(cfg.io_chaos.is_none());
        assert_eq!(cfg.runs, 1);
        assert!(cfg.jobs >= 1);
        assert_eq!(cfg.step_budget, None);
        assert!(!cfg.strict);
        assert!(cfg.cache_enabled);
        assert!(cfg.partition.is_none());
        assert!(cfg.chaos.is_none());
        // Surrounding whitespace is trimmed, not an error.
        assert_eq!(
            try_with(&[(JOBS_ENV, " 3 ")]).expect("padded count").jobs,
            3
        );
        assert_eq!(
            try_with(&[(CHAOS_ENV, " figure3 ")])
                .expect("padded chaos target")
                .chaos
                .as_deref(),
            Some("figure3")
        );
        // All-whitespace io-chaos text is likewise no injection.
        assert!(try_with(&[(IO_CHAOS_ENV, "  \t ")])
            .expect("whitespace spec")
            .io_chaos
            .is_none());
    }

    #[test]
    fn lenient_resolve_defaults_what_strict_rejects() {
        // The lenient path (`Pool::from_env`) logs and falls back, so
        // a bad knob can never abort a batch run mid-flight …
        let cfg = with(&[
            (IO_CHAOS_ENV, "bit_flip=lots"),
            (RUNS_ENV, "huge"),
            (CHAOS_ENV, "figure33"),
        ]);
        assert!(cfg.io_chaos.is_none());
        assert_eq!(cfg.runs, 1);
        assert!(
            cfg.chaos.is_none(),
            "an unknown chaos target injects nothing"
        );
        // … while the strict path rejects the same environment.
        assert!(try_with(&[(IO_CHAOS_ENV, "bit_flip=lots")]).is_err());
        assert!(try_with(&[(RUNS_ENV, "huge")]).is_err());
        assert!(try_with(&[(CHAOS_ENV, "figure33")]).is_err());
    }

    #[test]
    fn io_chaos_keeps_the_cache_enabled() {
        let cfg = with(&[(IO_CHAOS_ENV, "seed=1,torn_rename=0.5")]);
        assert!(
            cfg.cache_enabled,
            "io chaos sabotages the cache's I/O — it must not disable the cache"
        );
        assert!(cfg.io_chaos.is_some());
    }

    #[test]
    fn partition_knob_normalizes_or_rejects() {
        // `full`, blank, and unset all mean the whole device — the
        // normalized form, so a knob'd full-device sweep is byte-identical
        // to an un-knob'd one.
        assert!(with(&[]).partition.is_none());
        assert!(with(&[(PARTITION_ENV, "full")]).partition.is_none());
        assert!(with(&[(PARTITION_ENV, "  ")]).partition.is_none());
        // Explicit solo-tenant spelling normalizes to the bare token.
        assert_eq!(
            with(&[(PARTITION_ENV, "1of2x1")])
                .partition
                .map(|p| p.to_string())
                .as_deref(),
            Some("1of2")
        );
        // Garbage is a typed error under strict resolution (the CLI path)
        // and a logged fallback under the lenient one.
        for bad in ["1of3", "2of4", "1of4x9", "half"] {
            let err = try_with(&[(PARTITION_ENV, bad)]).unwrap_err();
            assert!(
                matches!(&err, ConfigError::BadKnob { name, .. } if *name == PARTITION_ENV),
                "{bad}: {err}"
            );
            assert!(with(&[(PARTITION_ENV, bad)]).partition.is_none());
        }
    }

    #[test]
    fn runs_knob_clamps_to_the_sane_window() {
        assert_eq!(with(&[(RUNS_ENV, "8")]).runs, 8);
        assert_eq!(try_with(&[(RUNS_ENV, "1")]).expect("lower bound").runs, 1);
        assert_eq!(
            try_with(&[(RUNS_ENV, "512")]).expect("upper bound").runs,
            512
        );
        // Zero, negatives, absurd counts, and garbage are typed errors
        // under strict resolution and fall back to 1 under the lenient one.
        for bad in ["0", "-4", "513", "many"] {
            let err = try_with(&[(RUNS_ENV, bad)]).unwrap_err();
            assert!(
                matches!(&err, ConfigError::BadKnob { name, .. } if *name == RUNS_ENV),
                "{bad}: {err}"
            );
            assert_eq!(with(&[(RUNS_ENV, bad)]).runs, 1, "{bad}");
        }
    }
}
