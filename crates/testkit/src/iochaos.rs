//! Seeded I/O fault injection: deterministic storage-failure scripting
//! for durability tests.
//!
//! Where [`chaos`](crate::chaos) injects *compute* failures (panics,
//! typed errors, non-finite values), an [`IoChaosPlan`] injects *storage*
//! failures at the filesystem seam of a persistent artifact store: short
//! writes, torn renames (a simulated crash between the temp-file write
//! and the publishing rename), bit flips on read, `ENOSPC`, and
//! unreadable files. Every decision is drawn through a
//! [`FaultScript`](crate::fault::FaultScript), so a whole corruption
//! scenario replays byte-identically from its seed and the recorded
//! trace names the exact operations that were sabotaged.
//!
//! The plan is deliberately generic: it knows nothing about caches or
//! entry formats. Consumers map the fault variants onto their own I/O
//! calls; the draw order per operation is fixed and documented on each
//! `decide_*` method, so behaviour is a pure function of
//! `(seed, rates, call sequence)`.
//!
//! [`IoChaosSpec::parse`] is the typed front door for the
//! `MLPERF_IO_CHAOS` environment knob: a comma-separated `key=value`
//! list (`seed=7,bit_flip=0.25,torn_rename=0.1`). Malformed specs are
//! rejected with a typed [`IoChaosParseError`] — never silently
//! defaulted, because a typo'd chaos spec that injects nothing would
//! make a durability gate vacuously green.

use crate::fault::FaultScript;
use std::fmt;

/// What an instrumented read should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// Read normally.
    Proceed,
    /// Fail the read outright (permissions / media error).
    Unreadable,
    /// Read, then flip one bit of the returned buffer. `bit` is a raw
    /// draw; the consumer reduces it modulo the buffer's bit length.
    BitFlip {
        /// Raw 64-bit draw selecting the bit to flip.
        bit: u64,
    },
}

/// What an instrumented write should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Write normally.
    Proceed,
    /// Persist only a prefix of the buffer (simulated power cut mid
    /// write). `keep` is a raw draw; the consumer reduces it modulo the
    /// buffer length.
    Short {
        /// Raw 64-bit draw selecting how many bytes survive.
        keep: u64,
    },
    /// Fail with no bytes persisted (`ENOSPC`).
    Enospc,
}

/// What an instrumented rename (the atomic publish step) should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenameFault {
    /// Rename normally.
    Proceed,
    /// Simulated crash *before* the rename: the temp file stays on disk
    /// as an orphan and the destination is never updated.
    Torn,
}

/// A parsed `MLPERF_IO_CHAOS` spec: the seed plus one injection rate per
/// fault channel, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoChaosSpec {
    /// Seed the replayable plan draws from.
    pub seed: u64,
    /// Probability a write persists only a prefix.
    pub short_write: f64,
    /// Probability the publishing rename is skipped (simulated crash).
    pub torn_rename: f64,
    /// Probability a read comes back with one bit flipped.
    pub bit_flip: f64,
    /// Probability a write fails with no bytes persisted.
    pub enospc: f64,
    /// Probability a read fails outright.
    pub unreadable: f64,
}

impl Default for IoChaosSpec {
    fn default() -> Self {
        IoChaosSpec {
            seed: 0,
            short_write: 0.0,
            torn_rename: 0.0,
            bit_flip: 0.0,
            enospc: 0.0,
            unreadable: 0.0,
        }
    }
}

/// Why an `MLPERF_IO_CHAOS` spec was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoChaosParseError {
    /// An item was not `key=value`.
    Malformed(String),
    /// `key` is not a recognized fault channel (or `seed`).
    UnknownKey(String),
    /// The value did not parse as the key's type.
    BadValue {
        /// The offending key.
        key: String,
        /// The unparseable value text.
        value: String,
    },
    /// A rate parsed but fell outside `[0, 1]` (or was non-finite).
    OutOfRange {
        /// The offending key.
        key: String,
        /// The out-of-range value text.
        value: String,
    },
    /// The same key appeared twice.
    DuplicateKey(String),
}

impl fmt::Display for IoChaosParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoChaosParseError::Malformed(item) => {
                write!(f, "expected key=value, got {item:?}")
            }
            IoChaosParseError::UnknownKey(key) => write!(
                f,
                "unknown key {key:?} (expected seed, short_write, torn_rename, \
                 bit_flip, enospc, or unreadable)"
            ),
            IoChaosParseError::BadValue { key, value } => {
                write!(f, "{key}={value:?} does not parse")
            }
            IoChaosParseError::OutOfRange { key, value } => {
                write!(f, "{key}={value} is outside [0, 1]")
            }
            IoChaosParseError::DuplicateKey(key) => write!(f, "{key} given twice"),
        }
    }
}

impl std::error::Error for IoChaosParseError {}

impl IoChaosSpec {
    /// Parse a spec from `MLPERF_IO_CHAOS` text: comma-separated
    /// `key=value` items where `seed` takes a u64 and every fault
    /// channel takes a rate in `[0, 1]`. Blank (or all-whitespace) text
    /// means "no injection" and parses to `None`; anything else must be
    /// fully well-formed or the whole spec is rejected.
    ///
    /// # Errors
    ///
    /// Returns a typed [`IoChaosParseError`] naming the first offending
    /// item — malformed, unknown, unparseable, out of range, or
    /// duplicated.
    pub fn parse(text: &str) -> Result<Option<IoChaosSpec>, IoChaosParseError> {
        if text.trim().is_empty() {
            return Ok(None);
        }
        let mut spec = IoChaosSpec::default();
        let mut seen: Vec<String> = Vec::new();
        for item in text.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let Some((key, value)) = item.split_once('=') else {
                return Err(IoChaosParseError::Malformed(item.to_string()));
            };
            let (key, value) = (key.trim(), value.trim());
            if seen.iter().any(|k| k == key) {
                return Err(IoChaosParseError::DuplicateKey(key.to_string()));
            }
            seen.push(key.to_string());
            if key == "seed" {
                spec.seed = value
                    .parse::<u64>()
                    .map_err(|_| IoChaosParseError::BadValue {
                        key: key.to_string(),
                        value: value.to_string(),
                    })?;
                continue;
            }
            let slot = match key {
                "short_write" => &mut spec.short_write,
                "torn_rename" => &mut spec.torn_rename,
                "bit_flip" => &mut spec.bit_flip,
                "enospc" => &mut spec.enospc,
                "unreadable" => &mut spec.unreadable,
                _ => return Err(IoChaosParseError::UnknownKey(key.to_string())),
            };
            let rate = value
                .parse::<f64>()
                .map_err(|_| IoChaosParseError::BadValue {
                    key: key.to_string(),
                    value: value.to_string(),
                })?;
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(IoChaosParseError::OutOfRange {
                    key: key.to_string(),
                    value: value.to_string(),
                });
            }
            *slot = rate;
        }
        Ok(Some(spec))
    }
}

/// A seeded schedule of storage-fault injections.
///
/// # Examples
///
/// ```
/// use mlperf_testkit::iochaos::{IoChaosPlan, WriteFault};
///
/// let mut a = IoChaosPlan::new(7).with_write_rates(0.5, 0.0);
/// let mut b = IoChaosPlan::new(7).with_write_rates(0.5, 0.0);
/// let xs: Vec<WriteFault> = (0..16).map(|_| a.decide_write()).collect();
/// let ys: Vec<WriteFault> = (0..16).map(|_| b.decide_write()).collect();
/// assert_eq!(xs, ys);
/// assert_eq!(a.trace_bytes(), b.trace_bytes());
/// ```
#[derive(Debug, Clone)]
pub struct IoChaosPlan {
    script: FaultScript,
    spec: IoChaosSpec,
}

impl IoChaosPlan {
    /// A plan that never injects (all rates zero) for `seed`.
    pub fn new(seed: u64) -> Self {
        IoChaosPlan {
            script: FaultScript::new(seed),
            spec: IoChaosSpec {
                seed,
                ..IoChaosSpec::default()
            },
        }
    }

    /// A plan replaying exactly the given spec.
    pub fn from_spec(spec: IoChaosSpec) -> Self {
        IoChaosPlan {
            script: FaultScript::new(spec.seed),
            spec,
        }
    }

    /// Set the write-side rates (`ENOSPC`, short write), clamped to
    /// `[0, 1]`.
    #[must_use]
    pub fn with_write_rates(mut self, short_write: f64, enospc: f64) -> Self {
        self.spec.short_write = short_write.clamp(0.0, 1.0);
        self.spec.enospc = enospc.clamp(0.0, 1.0);
        self
    }

    /// Set the read-side rates (unreadable, bit flip), clamped to
    /// `[0, 1]`.
    #[must_use]
    pub fn with_read_rates(mut self, unreadable: f64, bit_flip: f64) -> Self {
        self.spec.unreadable = unreadable.clamp(0.0, 1.0);
        self.spec.bit_flip = bit_flip.clamp(0.0, 1.0);
        self
    }

    /// Set the torn-rename (crash-point) rate, clamped to `[0, 1]`.
    #[must_use]
    pub fn with_torn_rename(mut self, torn_rename: f64) -> Self {
        self.spec.torn_rename = torn_rename.clamp(0.0, 1.0);
        self
    }

    /// The seed the plan replays.
    pub fn seed(&self) -> u64 {
        self.script.seed()
    }

    /// The spec the plan was built from.
    pub fn spec(&self) -> IoChaosSpec {
        self.spec
    }

    /// Decide one read's fate. Draw order: unreadable → bit flip, with
    /// one extra draw (`io.read.bit`) selecting the bit when a flip
    /// fires.
    pub fn decide_read(&mut self) -> ReadFault {
        let u = self.script.draw_unit("io.read");
        if u < self.spec.unreadable {
            ReadFault::Unreadable
        } else if u < self.spec.unreadable + self.spec.bit_flip {
            ReadFault::BitFlip {
                bit: self.script.draw("io.read.bit"),
            }
        } else {
            ReadFault::Proceed
        }
    }

    /// Decide one write's fate. Draw order: `ENOSPC` → short write, with
    /// one extra draw (`io.write.keep`) selecting the surviving prefix
    /// when a short write fires.
    pub fn decide_write(&mut self) -> WriteFault {
        let u = self.script.draw_unit("io.write");
        if u < self.spec.enospc {
            WriteFault::Enospc
        } else if u < self.spec.enospc + self.spec.short_write {
            WriteFault::Short {
                keep: self.script.draw("io.write.keep"),
            }
        } else {
            WriteFault::Proceed
        }
    }

    /// Decide one publishing rename's fate (one draw, `io.rename`).
    pub fn decide_rename(&mut self) -> RenameFault {
        if self.script.draw_unit("io.rename") < self.spec.torn_rename {
            RenameFault::Torn
        } else {
            RenameFault::Proceed
        }
    }

    /// Number of decisions (including sub-draws) taken so far.
    pub fn decisions(&self) -> usize {
        self.script.draws().len()
    }

    /// The recorded decision trace, byte-identical across replays of one
    /// seed.
    pub fn trace_bytes(&self) -> Vec<u8> {
        self.script.trace_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_plan_always_proceeds() {
        let mut plan = IoChaosPlan::new(3);
        for _ in 0..32 {
            assert_eq!(plan.decide_read(), ReadFault::Proceed);
            assert_eq!(plan.decide_write(), WriteFault::Proceed);
            assert_eq!(plan.decide_rename(), RenameFault::Proceed);
        }
        assert_eq!(plan.decisions(), 96);
    }

    #[test]
    fn degenerate_rates_always_fire() {
        let mut plan = IoChaosPlan::new(9).with_write_rates(0.0, 1.0);
        for _ in 0..16 {
            assert_eq!(plan.decide_write(), WriteFault::Enospc);
        }
        let mut plan = IoChaosPlan::new(9).with_read_rates(1.0, 0.0);
        for _ in 0..16 {
            assert_eq!(plan.decide_read(), ReadFault::Unreadable);
        }
        let mut plan = IoChaosPlan::new(9).with_torn_rename(1.0);
        for _ in 0..16 {
            assert_eq!(plan.decide_rename(), RenameFault::Torn);
        }
    }

    #[test]
    fn equal_seeds_replay_identically() {
        let spec = IoChaosSpec {
            seed: 11,
            short_write: 0.3,
            torn_rename: 0.2,
            bit_flip: 0.3,
            enospc: 0.2,
            unreadable: 0.2,
        };
        let mut a = IoChaosPlan::from_spec(spec);
        let mut b = IoChaosPlan::from_spec(spec);
        for _ in 0..64 {
            assert_eq!(a.decide_read(), b.decide_read());
            assert_eq!(a.decide_write(), b.decide_write());
            assert_eq!(a.decide_rename(), b.decide_rename());
        }
        assert_eq!(a.trace_bytes(), b.trace_bytes());
    }

    #[test]
    fn mixed_rates_produce_every_fault() {
        let mut plan = IoChaosPlan::new(5)
            .with_write_rates(0.35, 0.35)
            .with_read_rates(0.35, 0.35)
            .with_torn_rename(0.5);
        let (mut short, mut enospc, mut flip, mut unreadable, mut torn) =
            (false, false, false, false, false);
        for _ in 0..128 {
            match plan.decide_write() {
                WriteFault::Short { .. } => short = true,
                WriteFault::Enospc => enospc = true,
                WriteFault::Proceed => {}
            }
            match plan.decide_read() {
                ReadFault::BitFlip { .. } => flip = true,
                ReadFault::Unreadable => unreadable = true,
                ReadFault::Proceed => {}
            }
            if plan.decide_rename() == RenameFault::Torn {
                torn = true;
            }
        }
        assert!(short && enospc && flip && unreadable && torn);
    }

    #[test]
    fn blank_spec_text_is_no_injection() {
        assert_eq!(IoChaosSpec::parse(""), Ok(None));
        assert_eq!(IoChaosSpec::parse("   \t "), Ok(None));
    }

    #[test]
    fn full_spec_round_trips() {
        let spec = IoChaosSpec::parse("seed=7, bit_flip=0.25, torn_rename=0.1")
            .unwrap()
            .unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.bit_flip, 0.25);
        assert_eq!(spec.torn_rename, 0.1);
        assert_eq!(spec.short_write, 0.0);
        assert_eq!(spec.enospc, 0.0);
        assert_eq!(spec.unreadable, 0.0);
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        assert_eq!(
            IoChaosSpec::parse("bit_flip"),
            Err(IoChaosParseError::Malformed("bit_flip".to_string()))
        );
        assert_eq!(
            IoChaosSpec::parse("bitflip=0.5"),
            Err(IoChaosParseError::UnknownKey("bitflip".to_string()))
        );
        assert_eq!(
            IoChaosSpec::parse("bit_flip=lots"),
            Err(IoChaosParseError::BadValue {
                key: "bit_flip".to_string(),
                value: "lots".to_string(),
            })
        );
        assert_eq!(
            IoChaosSpec::parse("bit_flip=1.5"),
            Err(IoChaosParseError::OutOfRange {
                key: "bit_flip".to_string(),
                value: "1.5".to_string(),
            })
        );
        assert_eq!(
            IoChaosSpec::parse("bit_flip=NaN"),
            Err(IoChaosParseError::OutOfRange {
                key: "bit_flip".to_string(),
                value: "NaN".to_string(),
            })
        );
        assert_eq!(
            IoChaosSpec::parse("seed=1,seed=2"),
            Err(IoChaosParseError::DuplicateKey("seed".to_string()))
        );
        // Seed overflow is a typed error, not a silent wrap.
        assert_eq!(
            IoChaosSpec::parse("seed=99999999999999999999999999"),
            Err(IoChaosParseError::BadValue {
                key: "seed".to_string(),
                value: "99999999999999999999999999".to_string(),
            })
        );
    }
}
