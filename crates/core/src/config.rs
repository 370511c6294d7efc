//! One typed view of every `MLPERF_*` environment knob.
//!
//! Until this module, each subsystem read its own knobs straight from the
//! environment at whatever moment it was constructed — the pool read
//! `MLPERF_JOBS`, the context read `MLPERF_RUNS`, the persistent
//! cache read `MLPERF_CACHE`/`MLPERF_CACHE_DIR` (and peeked at
//! `MLPERF_CHAOS`), and the resilience layer read the rest. That worked
//! for a batch CLI where everything is constructed once, but a long-lived
//! `repro serve` daemon needs *one* configuration resolved at startup and
//! then explicit per-request overrides — never a mid-flight env read that
//! could split the server's view of its own knobs.
//!
//! [`Config::from_env`] resolves every knob exactly once; the legacy
//! `from_env` constructors ([`Pool::from_env`](crate::runner::Pool),
//! [`Ctx::new`](crate::runner::Ctx),
//! [`DiskCache::from_env`](crate::sweep::DiskCache),
//! [`ResilienceConfig::from_env`](crate::runner::ResilienceConfig)) all
//! delegate here, so there is a single parsing truth. Parsing is pure
//! ([`Config::resolve`] takes the lookup as a closure), which is what the
//! unit tests drive — tests must not mutate the process environment,
//! because the suite runs multi-threaded.

use crate::runner::{
    ChaosSpec, CHAOS_ATTEMPTS_ENV, CHAOS_ENV, JOBS_ENV, PARTITION_ENV, RETRIES_ENV, RUNS_ENV,
    STEP_BUDGET_ENV, STRICT_ENV,
};
use crate::serve::{
    DEFAULT_MAX_FRAME, DEFAULT_READ_TIMEOUT_MS, DEFAULT_WRITE_TIMEOUT_MS, SERVE_MAX_FRAME_ENV,
    SERVE_READ_TIMEOUT_ENV, SERVE_WRITE_TIMEOUT_ENV,
};
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
    /// Worker-thread count (`MLPERF_JOBS`, else `available_parallelism`).
    pub jobs: usize,
    /// Whether the persistent result cache is enabled (`MLPERF_CACHE` not
    /// `off`/`0`, and no chaos injection active — injected failures must
    /// never be masked by warm entries).
    pub cache_enabled: bool,
    /// Persistent-cache directory (`MLPERF_CACHE_DIR`, else
    /// `artifacts/cache`).
    pub cache_dir: PathBuf,
    /// Per-experiment (and, for the server, per-client) simulation-request
    /// budget (`MLPERF_STEP_BUDGET`). Counted in requests, never
    /// wall-clock, so verdicts are deterministic.
    pub step_budget: Option<u64>,
    /// Fail-fast mode (`MLPERF_STRICT=1`).
    pub strict: bool,
    /// Retry-count override for transient failures (`MLPERF_RETRIES`);
    /// ignored under strict mode, which forces zero retries.
    pub retries: Option<u32>,
    /// Deterministic chaos injection (`MLPERF_CHAOS`,
    /// `MLPERF_CHAOS_ATTEMPTS`), if configured.
    pub chaos: Option<ChaosSpec>,
    /// Seeded runs per Training cell (`MLPERF_RUNS`, clamped to
    /// 1..=[`MAX_RUNS`]; default 1 = point pricing with no replication
    /// columns, byte-identical to the pre-replication suite).
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
    /// Serve per-connection read deadline in milliseconds
    /// (`MLPERF_SERVE_READ_TIMEOUT_MS`; `0` disables it).
    pub serve_read_timeout_ms: u64,
    /// Serve per-connection write deadline in milliseconds
    /// (`MLPERF_SERVE_WRITE_TIMEOUT_MS`; `0` disables it).
    pub serve_write_timeout_ms: u64,
    /// Serve maximum request-frame size in bytes
    /// (`MLPERF_SERVE_MAX_FRAME`; `0` removes the bound).
    pub serve_max_frame: usize,
}

/// Strictly parse one unsigned knob: absent or blank means the default,
/// anything else must parse or the typed error is recorded (and the
/// default used, for the lenient path).
fn strict_unsigned(
    raw: Option<String>,
    name: &'static str,
    default: u64,
    errors: &mut Vec<ConfigError>,
) -> u64 {
    let Some(raw) = raw else { return default };
    let text = raw.trim();
    if text.is_empty() {
        return default;
    }
    match text.parse::<u64>() {
        Ok(n) => n,
        Err(_) => {
            errors.push(ConfigError::BadKnob {
                name,
                value: raw,
                expected: "a non-negative integer (no overflow)",
            });
            default
        }
    }
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

    /// Strict [`Config::resolve`]: the first malformed strictly-parsed
    /// knob (`MLPERF_IO_CHAOS`, the serve deadline/frame knobs) is
    /// returned as a typed error. The legacy knobs keep their documented
    /// lenient fallbacks either way.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] among the strictly parsed knobs.
    pub fn try_resolve(
        get: impl Fn(&str) -> Option<String>,
    ) -> Result<Config, ConfigError> {
        let (config, mut errors) = Config::resolve_inner(get);
        match errors.is_empty() {
            true => Ok(config),
            false => Err(errors.remove(0)),
        }
    }

    /// Resolve every knob through `get` (the pure core of
    /// [`Config::from_env`]; tests inject a map instead of mutating the
    /// process environment). Malformed strictly-parsed knobs are logged
    /// to stderr and defaulted; use [`Config::try_resolve`] to get them
    /// as typed errors instead.
    pub fn resolve(get: impl Fn(&str) -> Option<String>) -> Config {
        let (config, errors) = Config::resolve_inner(get);
        for e in errors {
            eprintln!("config: {e} (using the default)");
        }
        config
    }

    fn resolve_inner(get: impl Fn(&str) -> Option<String>) -> (Config, Vec<ConfigError>) {
        let jobs = get(JOBS_ENV)
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let chaos = get(CHAOS_ENV).and_then(|target| {
            let target = target.trim().to_string();
            if target.is_empty() {
                return None;
            }
            let attempts = get(CHAOS_ATTEMPTS_ENV)
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map_or(u32::MAX, |n| n.min(u64::from(u32::MAX)) as u32);
            Some(ChaosSpec { target, attempts })
        });
        let cache_enabled = !get(CACHE_ENV).is_some_and(|v| matches!(v.trim(), "off" | "0"))
            && chaos.is_none();
        let cache_dir = get(CACHE_DIR_ENV)
            .map_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR), PathBuf::from);
        let step_budget = get(STEP_BUDGET_ENV).and_then(|v| v.trim().parse::<u64>().ok());
        let strict = get(STRICT_ENV).is_some_and(|v| v.trim() == "1");
        let retries = get(RETRIES_ENV)
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(|n| n.min(u64::from(u32::MAX)) as u32);
        let runs = get(RUNS_ENV)
            .and_then(|v| v.trim().parse::<u32>().ok())
            .filter(|n| (1..=MAX_RUNS).contains(n))
            .unwrap_or(1);
        let mut errors = Vec::new();
        let partition = get(PARTITION_ENV).and_then(|raw| {
            let text = raw.trim();
            if text.is_empty() {
                return None;
            }
            match PartitionSpec::parse(text) {
                Ok(p) => p,
                Err(_) => {
                    errors.push(ConfigError::BadKnob {
                        name: PARTITION_ENV,
                        value: raw,
                        expected: "a partition token: 'full', '1of{2|4|7}', or '1of{k}x{tenants}'",
                    });
                    None
                }
            }
        });
        let io_chaos = get(IO_CHAOS_ENV).and_then(|text| match IoChaosSpec::parse(&text) {
            Ok(spec) => spec,
            Err(error) => {
                errors.push(ConfigError::BadIoChaos { value: text, error });
                None
            }
        });
        let serve_read_timeout_ms = strict_unsigned(
            get(SERVE_READ_TIMEOUT_ENV),
            SERVE_READ_TIMEOUT_ENV,
            DEFAULT_READ_TIMEOUT_MS,
            &mut errors,
        );
        let serve_write_timeout_ms = strict_unsigned(
            get(SERVE_WRITE_TIMEOUT_ENV),
            SERVE_WRITE_TIMEOUT_ENV,
            DEFAULT_WRITE_TIMEOUT_MS,
            &mut errors,
        );
        let serve_max_frame = strict_unsigned(
            get(SERVE_MAX_FRAME_ENV),
            SERVE_MAX_FRAME_ENV,
            DEFAULT_MAX_FRAME as u64,
            &mut errors,
        )
        .min(usize::MAX as u64) as usize;
        (
            Config {
                jobs,
                cache_enabled,
                cache_dir,
                step_budget,
                strict,
                retries,
                chaos,
                runs,
                partition,
                io_chaos,
                serve_read_timeout_ms,
                serve_write_timeout_ms,
                serve_max_frame,
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
        assert_eq!(cfg.retries, None);
        assert!(cfg.chaos.is_none());
        assert_eq!(cfg.runs, 1, "default is point pricing");
        assert!(cfg.partition.is_none(), "default is the whole device");
        assert!(cfg.io_chaos.is_none());
        assert_eq!(cfg.serve_read_timeout_ms, DEFAULT_READ_TIMEOUT_MS);
        assert_eq!(cfg.serve_write_timeout_ms, DEFAULT_WRITE_TIMEOUT_MS);
        assert_eq!(cfg.serve_max_frame, DEFAULT_MAX_FRAME);
    }

    #[test]
    fn every_knob_parses() {
        let cfg = with(&[
            (JOBS_ENV, "3"),
            (CACHE_ENV, "on"),
            (CACHE_DIR_ENV, "/tmp/alt"),
            (STEP_BUDGET_ENV, "250"),
            (STRICT_ENV, "1"),
            (RETRIES_ENV, "7"),
            (RUNS_ENV, "8"),
            (PARTITION_ENV, "1of4x3"),
            (IO_CHAOS_ENV, "seed=3,bit_flip=0.5"),
            (SERVE_READ_TIMEOUT_ENV, "1500"),
            (SERVE_WRITE_TIMEOUT_ENV, "0"),
            (SERVE_MAX_FRAME_ENV, "4096"),
        ]);
        assert_eq!(cfg.jobs, 3);
        assert!(cfg.cache_enabled);
        assert_eq!(cfg.cache_dir, PathBuf::from("/tmp/alt"));
        assert_eq!(cfg.step_budget, Some(250));
        assert!(cfg.strict);
        assert_eq!(cfg.retries, Some(7));
        assert_eq!(cfg.runs, 8);
        assert_eq!(
            cfg.partition.map(|p| p.to_string()).as_deref(),
            Some("1of4x3")
        );
        let io = cfg.io_chaos.expect("io-chaos spec parsed");
        assert_eq!((io.seed, io.bit_flip), (3, 0.5));
        assert_eq!(cfg.serve_read_timeout_ms, 1500);
        assert_eq!(cfg.serve_write_timeout_ms, 0, "0 = deadline disabled");
        assert_eq!(cfg.serve_max_frame, 4096);
    }

    #[test]
    fn cache_disables_on_off_or_chaos() {
        assert!(!with(&[(CACHE_ENV, "off")]).cache_enabled);
        assert!(!with(&[(CACHE_ENV, "0")]).cache_enabled);
        let chaotic = with(&[(CHAOS_ENV, "figure3"), (CHAOS_ATTEMPTS_ENV, "2")]);
        assert!(!chaotic.cache_enabled, "chaos runs must not read warm entries");
        let chaos = chaotic.chaos.expect("chaos spec parsed");
        assert_eq!(chaos.target, "figure3");
        assert_eq!(chaos.attempts, 2);
        // A blank chaos target is no chaos at all.
        assert!(with(&[(CHAOS_ENV, "  ")]).chaos.is_none());
    }

    #[test]
    fn malformed_values_fall_back() {
        let cfg = with(&[
            (JOBS_ENV, "0"),
            (STEP_BUDGET_ENV, "lots"),
            (RETRIES_ENV, "-1"),
        ]);
        assert!(cfg.jobs >= 1, "non-positive job count is ignored");
        assert_eq!(cfg.step_budget, None);
        assert_eq!(cfg.retries, None);
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
        // Non-numeric deadline.
        let err = try_with(&[(SERVE_READ_TIMEOUT_ENV, "soon")]).unwrap_err();
        assert!(matches!(
            &err,
            ConfigError::BadKnob { name, value, .. }
                if *name == SERVE_READ_TIMEOUT_ENV && value == "soon"
        ));
        // Overflow is a typed error, not a silent wrap.
        assert!(try_with(&[(SERVE_MAX_FRAME_ENV, "99999999999999999999999999")]).is_err());
        assert!(try_with(&[(SERVE_WRITE_TIMEOUT_ENV, "-5")]).is_err());
    }

    #[test]
    fn strict_knobs_treat_empty_and_whitespace_as_unset() {
        let cfg = try_with(&[
            (IO_CHAOS_ENV, ""),
            (SERVE_READ_TIMEOUT_ENV, "   "),
            (SERVE_MAX_FRAME_ENV, "\t"),
        ])
        .expect("blank knobs are unset, not errors");
        assert!(cfg.io_chaos.is_none());
        assert_eq!(cfg.serve_read_timeout_ms, DEFAULT_READ_TIMEOUT_MS);
        assert_eq!(cfg.serve_max_frame, DEFAULT_MAX_FRAME);
        // All-whitespace io-chaos text is likewise no injection.
        assert!(try_with(&[(IO_CHAOS_ENV, "  \t ")])
            .expect("whitespace spec")
            .io_chaos
            .is_none());
    }

    #[test]
    fn lenient_resolve_defaults_what_strict_rejects() {
        // The lenient path (legacy constructors) logs and falls back, so
        // a bad knob can never abort a batch run mid-flight …
        let cfg = with(&[
            (IO_CHAOS_ENV, "bit_flip=lots"),
            (SERVE_MAX_FRAME_ENV, "huge"),
        ]);
        assert!(cfg.io_chaos.is_none());
        assert_eq!(cfg.serve_max_frame, DEFAULT_MAX_FRAME);
        // … while the strict path rejects the same environment.
        assert!(try_with(&[(IO_CHAOS_ENV, "bit_flip=lots")]).is_err());
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
        assert_eq!(with(&[(RUNS_ENV, "512")]).runs, 512);
        // Zero, negatives, absurd counts, and garbage all fall back to 1.
        assert_eq!(with(&[(RUNS_ENV, "0")]).runs, 1);
        assert_eq!(with(&[(RUNS_ENV, "-4")]).runs, 1);
        assert_eq!(with(&[(RUNS_ENV, "513")]).runs, 1);
        assert_eq!(with(&[(RUNS_ENV, "many")]).runs, 1);
    }
}
