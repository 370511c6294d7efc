//! Persistent, content-addressed result cache (`artifacts/cache/`).
//!
//! Every entry is addressed by `fnv1a64(code_epoch ‖ canonical-spec-bytes)`
//! where the *code epoch* fingerprints the running binary: rebuild the
//! code and every old entry is invalidated (and garbage-collected the
//! next time the cache is opened). Canonical spec bytes come from the
//! sweep layer ([`super::CellSpec::canonical_bytes`], the experiments'
//! [`Experiment::spec_bytes`](crate::runner::Experiment::spec_bytes)),
//! so two requests share an entry exactly when their specs are
//! canonically equal.
//!
//! Entries are **self-verifying**: the payload is framed as
//!
//! ```text
//! magic (8) ‖ format version (4, LE) ‖ code epoch (8, LE)
//!   ‖ spec key (8, LE) ‖ payload length (8, LE)
//!   ‖ fnv1a64(payload) (8, LE) ‖ payload
//! ```
//!
//! so [`DiskCache::load`] detects torn, truncated, bit-flipped,
//! wrong-key, and stale-format entries, quarantines (deletes) them,
//! counts the event in [`DiskStats::corrupt`], and reports a miss — the
//! caller recomputes and the slot heals. Corruption can never change
//! output bytes, only warm-hit counts. Opening the cache also sweeps
//! orphaned `.tmp.*` files left by crashed writers; both sweeps are
//! idempotent removals, so a crash mid-GC is harmless.
//!
//! Policy, enforced by the callers in `report_gen` / `csv_export` /
//! `sweep`:
//!
//! * only deterministic payloads are stored (rendered section bytes, CSV
//!   bytes, sweep-cell results) — never wall-clock;
//! * a degraded cell is cached **as the error it produced**, never as a
//!   success; a report or CSV run with a failed experiment persists
//!   none of that experiment's output;
//! * chaos runs (`MLPERF_CHAOS`) disable the cache entirely, so injected
//!   failures can never be masked by a warm entry. I/O chaos
//!   (`MLPERF_IO_CHAOS`) is the one deliberate exception: it keeps the
//!   cache *enabled* and sabotages its filesystem seam, because the
//!   property under test is that a sabotaged cache still yields
//!   byte-identical output.
//!
//! Escape hatches: `--no-cache` on the `repro` CLI, `MLPERF_CACHE=off` in
//! the environment. `MLPERF_CACHE_DIR` moves the directory. Tests pin the
//! epoch with [`DiskCache::open_with_epoch`] to exercise invalidation
//! deterministically.

use mlperf_testkit::hash::{fnv1a64, Fnv1a64, FNV64_OFFSET, FNV64_PRIME};
use mlperf_testkit::iochaos::{IoChaosPlan, ReadFault, RenameFault, WriteFault};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable: `off` (or `0`) disables the persistent cache.
pub const CACHE_ENV: &str = "MLPERF_CACHE";
/// Environment variable overriding the cache directory.
pub const CACHE_DIR_ENV: &str = "MLPERF_CACHE_DIR";
/// Environment variable carrying a seeded I/O fault-injection spec
/// (see [`mlperf_testkit::iochaos::IoChaosSpec::parse`]).
pub const IO_CHAOS_ENV: &str = "MLPERF_IO_CHAOS";
/// Default cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "artifacts/cache";

/// Leading magic of a framed cache entry.
pub const ENTRY_MAGIC: &[u8; 8] = b"MLPFCA01";
/// On-disk entry format version (bump to invalidate by format).
pub const ENTRY_VERSION: u32 = 1;
/// Fixed frame-header length preceding the payload.
pub const ENTRY_HEADER_LEN: usize = 44;

/// Why a loaded entry was rejected and quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryDefect {
    /// Shorter than the fixed header — a torn or truncated write.
    Truncated,
    /// The magic bytes are wrong — foreign bytes or a pre-framing entry.
    BadMagic,
    /// The format version is not the one this binary writes.
    StaleFormat,
    /// The frame's epoch field disagrees with this handle's epoch.
    WrongEpoch,
    /// The frame's spec-key field disagrees with the requested key —
    /// an entry copied or renamed onto the wrong address.
    WrongKey,
    /// The payload-length field disagrees with the bytes on disk.
    LengthMismatch,
    /// The payload checksum does not match — a bit flip or partial
    /// overwrite inside the payload.
    ChecksumMismatch,
}

impl EntryDefect {
    /// The defect's stable lowercase name (for traces and assertions).
    pub fn name(self) -> &'static str {
        match self {
            EntryDefect::Truncated => "truncated",
            EntryDefect::BadMagic => "bad-magic",
            EntryDefect::StaleFormat => "stale-format",
            EntryDefect::WrongEpoch => "wrong-epoch",
            EntryDefect::WrongKey => "wrong-key",
            EntryDefect::LengthMismatch => "length-mismatch",
            EntryDefect::ChecksumMismatch => "checksum-mismatch",
        }
    }
}

/// Frame `payload` for the entry addressed by `(epoch, key)`.
pub fn encode_entry(epoch: u64, key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENTRY_HEADER_LEN + payload.len());
    out.extend_from_slice(ENTRY_MAGIC);
    out.extend_from_slice(&ENTRY_VERSION.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn frame_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte field"))
}

/// Verify the frame in `bytes` against the expected `(epoch, key)` and
/// return the payload slice.
///
/// # Errors
///
/// Returns the first [`EntryDefect`] found, checking in fixed order:
/// length, magic, version, epoch, key, payload length, checksum.
pub fn verify_entry(bytes: &[u8], epoch: u64, key: u64) -> Result<&[u8], EntryDefect> {
    if bytes.len() < ENTRY_HEADER_LEN {
        return Err(EntryDefect::Truncated);
    }
    if &bytes[0..8] != ENTRY_MAGIC {
        return Err(EntryDefect::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte field"));
    if version != ENTRY_VERSION {
        return Err(EntryDefect::StaleFormat);
    }
    if frame_u64(bytes, 12) != epoch {
        return Err(EntryDefect::WrongEpoch);
    }
    if frame_u64(bytes, 20) != key {
        return Err(EntryDefect::WrongKey);
    }
    let payload = &bytes[ENTRY_HEADER_LEN..];
    if frame_u64(bytes, 28) != payload.len() as u64 {
        return Err(EntryDefect::LengthMismatch);
    }
    if frame_u64(bytes, 36) != fnv1a64(payload) {
        return Err(EntryDefect::ChecksumMismatch);
    }
    Ok(payload)
}

/// Deterministic-by-construction counters of one cache handle's traffic.
/// These are *live* (a warm run reports hits where a cold run reported
/// misses), so they are surfaced on stderr and in tests — never in
/// report bytes, which must be identical cold vs warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Entries served from disk (frame verified).
    pub hits: u64,
    /// Lookups that found no valid entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Stale-epoch entries garbage-collected when the cache was opened.
    pub invalidated: u64,
    /// Entries that failed frame verification on load and were
    /// quarantined (each also counts as a miss).
    pub corrupt: u64,
    /// Stores that failed to land (write or rename error).
    pub store_failures: u64,
    /// Orphaned `.tmp.*` files from crashed writers swept at open.
    pub orphans_swept: u64,
}

impl DiskStats {
    /// Fraction of lookups served from disk.
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }
}

/// A handle on the on-disk cache directory. Opening it garbage-collects
/// entries from other code epochs and sweeps orphaned temp files;
/// lookups verify the entry frame before trusting a byte; stores are
/// write-to-temp + rename. Counters are atomic, so lookups and stores
/// stay lock-free (the optional I/O chaos plan is the one mutex, and it
/// exists only in durability tests).
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    epoch: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    invalidated: AtomicU64,
    corrupt: AtomicU64,
    store_failures: AtomicU64,
    orphans_swept: AtomicU64,
    io_chaos: Option<Mutex<IoChaosPlan>>,
}

/// Bytes [`code_epoch`] streams the executable through per fill; a
/// multiple of the 32-byte lane block, so only the last fill has a tail.
const EPOCH_BUF: usize = 64 * 1024;
/// Independent FNV-style lanes the epoch hash spreads words over.
const EPOCH_LANES: usize = 4;

/// One FNV-style step over a whole word. For a fixed word it is a
/// bijection in `state` (xor, then multiply by the odd FNV prime), and
/// for a fixed state it is injective in `word`.
fn fnv_word(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV64_PRIME)
}

/// Fill `buf` from `reader` until it is full or the reader is at its end,
/// returning the bytes read. A short `read` never ends a fill early, so
/// the word and lane alignment depend only on the content.
fn fill(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match reader.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// The epoch hash over everything `reader` yields (see [`code_epoch`]).
fn epoch_of(mut reader: impl Read) -> std::io::Result<u64> {
    let mut buf = vec![0u8; EPOCH_BUF];
    let mut lanes = [FNV64_OFFSET; EPOCH_LANES];
    let mut len = 0u64;
    loop {
        let n = fill(&mut reader, &mut buf)?;
        len += n as u64;
        let blocks = buf[..n].chunks_exact(8 * EPOCH_LANES);
        let tail = blocks.remainder();
        for block in blocks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = fnv_word(
                    *lane,
                    u64::from_le_bytes(word.try_into().expect("8-byte word")),
                );
            }
        }
        if n < EPOCH_BUF {
            let mut h = lanes.into_iter().fold(FNV64_OFFSET, fnv_word);
            for word in tail.chunks(8) {
                let mut padded = [0u8; 8];
                padded[..word.len()].copy_from_slice(word);
                h = fnv_word(h, u64::from_le_bytes(padded));
            }
            return Ok(fnv_word(h, len));
        }
    }
}

/// [`epoch_of`] over the file at `path`.
fn file_epoch(path: &Path) -> std::io::Result<u64> {
    epoch_of(std::fs::File::open(path)?)
}

/// Fingerprint of the running binary, over every byte of the executable.
/// Computed once per process, by the commands that open the cache.
///
/// The file streams through one fixed 64 KiB buffer. Its little-endian
/// `u64` words go round-robin to 4 independent lanes, each stepping
/// `l = (l ^ w).wrapping_mul(FNV64_PRIME)` from the FNV-1a offset basis.
/// At the end the 4 lanes, then the tail of fewer than 32 bytes (a word
/// at a time, the last one zero-padded), then the byte length fold into
/// one value by the same step. Every buffer is filled to the end before
/// it is hashed, so how the file system splits the reads cannot move a
/// word to another lane.
///
/// Guarantee: two executables of the same length that differ in one
/// 8-byte word (so any two that differ in one byte) get different
/// epochs. The differing word meets equal states, where the step is
/// injective in the word; every later lane step and fold step is a
/// bijection in the state, because the prime is odd.
///
/// Cost: about 0.3 ms for the ~2 MB `repro` in a fresh process (2-vCPU
/// Xeon VM, release build).
///
/// # Errors
///
/// Returns the error if the executable cannot be located or read. No
/// fallback epoch exists: one would be shared by every build, so a
/// rebuilt binary would serve an older build's entries as its own.
/// [`DiskCache::from_config`] then runs uncached.
pub fn code_epoch() -> std::io::Result<u64> {
    static EPOCH: OnceLock<Result<u64, String>> = OnceLock::new();
    EPOCH
        .get_or_init(|| {
            let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
            file_epoch(&exe).map_err(|e| format!("code epoch of {}: {e}", exe.display()))
        })
        .clone()
        .map_err(std::io::Error::other)
}

/// Does `name` have the exact `{16 hex}-{16 hex}` stem shape every cache
/// artifact (entry or temp file) is written with?
fn has_entry_stem(name: &str) -> bool {
    name.len() > 33
        && name.as_bytes()[16] == b'-'
        && name.bytes().take(33).enumerate().all(|(i, b)| {
            if i == 16 {
                b == b'-'
            } else {
                b.is_ascii_hexdigit()
            }
        })
}

/// Is `name` a well-formed entry file name (`{16 hex}-{16 hex}.art`)?
fn is_entry_name(name: &str) -> bool {
    name.len() == 37 && has_entry_stem(name) && name.ends_with(".art")
}

/// Is `name` an in-flight temp file from some writer
/// (`{16 hex}-{16 hex}.tmp.{pid}`)?
fn is_tmp_name(name: &str) -> bool {
    has_entry_stem(name) && name[33..].starts_with(".tmp.")
}

impl DiskCache {
    /// Open (creating if needed) the cache at `dir` under the process's
    /// [`code_epoch`], garbage-collecting entries from other epochs and
    /// sweeping orphaned temp files.
    ///
    /// # Errors
    ///
    /// Propagates [`std::io::Error`] if the executable cannot be read for
    /// its epoch, or if the directory cannot be created or scanned.
    pub fn open(dir: &Path) -> std::io::Result<DiskCache> {
        DiskCache::open_with_epoch(dir, code_epoch()?)
    }

    /// [`DiskCache::open`] under an explicit epoch (tests pin this to
    /// exercise key derivation and invalidation deterministically).
    ///
    /// Both sweeps — stale-epoch entries and orphaned `.tmp.*` files —
    /// are plain idempotent removals: a crash partway through leaves
    /// only files the next open removes again. Files that are not
    /// cache-shaped at all are left untouched.
    ///
    /// # Errors
    ///
    /// Propagates [`std::io::Error`] if the directory cannot be created
    /// or scanned.
    pub fn open_with_epoch(dir: &Path, epoch: u64) -> std::io::Result<DiskCache> {
        std::fs::create_dir_all(dir)?;
        let prefix = format!("{epoch:016x}-");
        let mut invalidated = 0;
        let mut orphans_swept = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if is_tmp_name(&name) {
                // A writer crashed between temp-write and rename; the
                // published entry (if any) is intact, this is garbage.
                if std::fs::remove_file(entry.path()).is_ok() {
                    orphans_swept += 1;
                }
            } else if is_entry_name(&name) && !name.starts_with(&prefix) {
                // A different build wrote this; its numbers may no longer
                // be reproducible by the current code, so drop it.
                if std::fs::remove_file(entry.path()).is_ok() {
                    invalidated += 1;
                }
            }
        }
        Ok(DiskCache {
            dir: dir.to_path_buf(),
            epoch,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            invalidated: AtomicU64::new(invalidated),
            corrupt: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
            orphans_swept: AtomicU64::new(orphans_swept),
            io_chaos: None,
        })
    }

    /// Attach a seeded I/O fault-injection plan: every subsequent read,
    /// write, and rename consults the plan first. Durability tests use
    /// this to prove that a sabotaged cache still yields byte-identical
    /// output.
    #[must_use]
    pub fn with_io_chaos(mut self, plan: IoChaosPlan) -> DiskCache {
        self.io_chaos = Some(Mutex::new(plan));
        self
    }

    /// Open the cache an explicitly resolved
    /// [`Config`](crate::config::Config) dictates: `None` when it says
    /// the cache is disabled (`MLPERF_CACHE=off`/`0`, or a chaos run
    /// configured with `MLPERF_CHAOS` — injected failures must never be
    /// masked by warm entries), or when [`DiskCache::open`] fails (the
    /// executable is unreadable for its epoch, or the directory cannot be
    /// opened), which it reports on stderr.
    /// An `MLPERF_IO_CHAOS` spec in the config arms the handle's fault
    /// seam — the cache stays *enabled* under I/O chaos by design.
    pub fn from_config(config: &crate::config::Config) -> Option<DiskCache> {
        if !config.cache_enabled {
            return None;
        }
        match DiskCache::open(&config.cache_dir) {
            Ok(cache) => Some(match config.io_chaos {
                Some(spec) => cache.with_io_chaos(IoChaosPlan::from_spec(spec)),
                None => cache,
            }),
            Err(e) => {
                eprintln!(
                    "persistent cache disabled: {}: {e}",
                    config.cache_dir.display()
                );
                None
            }
        }
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The epoch this handle addresses entries under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The content address of `spec`: `fnv1a64(epoch ‖ spec)`.
    pub fn key(&self, spec: &[u8]) -> u64 {
        let mut h = Fnv1a64::new();
        h.write_u64(self.epoch);
        h.update(spec);
        h.finish()
    }

    fn path_for(&self, spec: &[u8]) -> PathBuf {
        self.dir
            .join(format!("{:016x}-{:016x}.art", self.epoch, self.key(spec)))
    }

    /// Read the raw entry file, through the fault seam if armed.
    fn read_entry(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        if let Some(chaos) = &self.io_chaos {
            let fault = chaos.lock().expect("io-chaos plan lock").decide_read();
            match fault {
                ReadFault::Unreadable => {
                    return Err(std::io::ErrorKind::PermissionDenied.into());
                }
                ReadFault::BitFlip { bit } => {
                    let mut bytes = std::fs::read(path)?;
                    if !bytes.is_empty() {
                        let bit = (bit as usize) % (bytes.len() * 8);
                        bytes[bit / 8] ^= 1 << (bit % 8);
                    }
                    return Ok(bytes);
                }
                ReadFault::Proceed => {}
            }
        }
        std::fs::read(path)
    }

    /// Load the entry for `spec`, counting a hit or a miss. The entry
    /// frame is verified end to end before any byte is trusted; an
    /// entry that fails verification is quarantined (deleted), counted
    /// in [`DiskStats::corrupt`], and reported as a miss so the caller
    /// recomputes and the slot heals.
    pub fn load(&self, spec: &[u8]) -> Option<Vec<u8>> {
        let path = self.path_for(spec);
        let Ok(bytes) = self.read_entry(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match verify_entry(&bytes, self.epoch, self.key(spec)) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload.to_vec())
            }
            Err(_defect) => {
                let _ = std::fs::remove_file(&path);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store `bytes` under `spec`, best-effort (an unwritable cache never
    /// fails the run): frame, write to a temp file, then rename, so a
    /// concurrent reader sees either the old entry or the complete new
    /// one. Failures are counted in [`DiskStats::store_failures`].
    pub fn store(&self, spec: &[u8], bytes: &[u8]) {
        let path = self.path_for(spec);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let frame = encode_entry(self.epoch, self.key(spec), bytes);
        let (write_fault, rename_fault) = match &self.io_chaos {
            Some(chaos) => {
                let mut plan = chaos.lock().expect("io-chaos plan lock");
                (plan.decide_write(), plan.decide_rename())
            }
            None => (WriteFault::Proceed, RenameFault::Proceed),
        };
        match write_fault {
            WriteFault::Enospc => {
                // Nothing landed; cleanup ran.
                self.store_failures.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&tmp);
                return;
            }
            WriteFault::Short { keep } => {
                // Simulated power cut after the rename was durable but the
                // data was not: a torn frame lands at the final path and the
                // store *believes* it succeeded — load's verification is the
                // only line of defense.
                let keep = (keep as usize) % frame.len().max(1);
                if std::fs::write(&tmp, &frame[..keep]).is_ok()
                    && std::fs::rename(&tmp, &path).is_ok()
                {
                    self.stores.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.store_failures.fetch_add(1, Ordering::Relaxed);
                    let _ = std::fs::remove_file(&tmp);
                }
                return;
            }
            WriteFault::Proceed => {}
        }
        if let RenameFault::Torn = rename_fault {
            // Simulated crash between temp-write and rename: the temp file
            // stays behind as the orphan the next open sweeps.
            let _ = std::fs::write(&tmp, &frame);
            self.store_failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if std::fs::write(&tmp, &frame).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
            self.stores.fetch_add(1, Ordering::Relaxed);
        } else {
            self.store_failures.fetch_add(1, Ordering::Relaxed);
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Remove the entry for `spec`, if present (tests exercise the
    /// evict-and-reproduce property with this).
    pub fn evict(&self, spec: &[u8]) -> bool {
        std::fs::remove_file(self.path_for(spec)).is_ok()
    }

    /// Entries currently on disk for this epoch. Only well-formed entry
    /// names (`{epoch:016x}-{16 hex}.art`) are counted — leftover temp
    /// files and foreign junk in the directory are not entries.
    pub fn entries(&self) -> usize {
        let prefix = format!("{:016x}-", self.epoch);
        std::fs::read_dir(&self.dir).map_or(0, |rd| {
            rd.filter_map(Result::ok)
                .filter(|e| {
                    let n = e.file_name();
                    let n = n.to_string_lossy();
                    is_entry_name(&n) && n.starts_with(&prefix)
                })
                .count()
        })
    }

    /// This handle's traffic counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            store_failures: self.store_failures.load(Ordering::Relaxed),
            orphans_swept: self.orphans_swept.load(Ordering::Relaxed),
        }
    }

    /// One stderr line of live counters. Never rendered into report
    /// bytes: a warm run's counters differ from a cold run's, and the
    /// report must be byte-identical across the two.
    pub fn summary(&self) -> String {
        let s = self.stats();
        format!(
            "persistent cache [{}]: {} hits / {} misses ({:.0}% hit rate), \
             {} stored, {} invalidated, {} corrupt quarantined, \
             {} store failures, {} orphan tmp swept\n",
            self.dir.display(),
            s.hits,
            s.misses,
            s.hit_rate() * 100.0,
            s.stores,
            s.invalidated,
            s.corrupt,
            s.store_failures,
            s.orphans_swept,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlperf_diskcache_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `len` deterministic bytes with no short period.
    fn exe_bytes(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect()
    }

    fn epoch(bytes: &[u8]) -> u64 {
        epoch_of(bytes).unwrap()
    }

    fn flipped(bytes: &[u8], at: usize) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at] ^= 0x01;
        out
    }

    /// Serves its bytes 1 to 7 at a time.
    struct Dribble<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = (self.reads % 7 + 1).min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn epoch_changes_when_any_byte_of_a_short_input_flips() {
        let bytes = exe_bytes(200);
        let base = epoch(&bytes);
        for at in 0..bytes.len() {
            assert_ne!(epoch(&flipped(&bytes, at)), base, "flip at byte {at}");
        }
    }

    #[test]
    fn epoch_changes_when_a_byte_flips_across_buffer_fills() {
        let bytes = exe_bytes(150_000);
        let base = epoch(&bytes);
        for at in [65_535, 65_536, 65_537, bytes.len() - 1] {
            assert_ne!(epoch(&flipped(&bytes, at)), base, "flip at byte {at}");
        }
    }

    #[test]
    fn epoch_changes_when_a_byte_is_appended() {
        // At a length that is not a multiple of 8 the appended zero byte
        // lands in the zero-padded last word, so only the folded length
        // tells the two apart. Length 0 checks the empty input is defined.
        for len in [0, 31, 32, 150_001] {
            let mut bytes = exe_bytes(len);
            let base = epoch(&bytes);
            bytes.push(0);
            assert_ne!(epoch(&bytes), base, "{len} bytes");
        }
    }

    #[test]
    fn epoch_ignores_how_the_reads_are_split() {
        for len in [0, 31, 32, 200, 150_000] {
            let bytes = exe_bytes(len);
            let dribbled = epoch_of(Dribble {
                bytes: &bytes,
                reads: 0,
            })
            .unwrap();
            assert_eq!(dribbled, epoch(&bytes), "{len} bytes");
        }
    }

    #[test]
    fn unreadable_executable_is_an_error_not_a_shared_epoch() {
        let missing = tmp("epoch_missing").join("repro");
        assert_eq!(
            file_epoch(&missing).unwrap_err().kind(),
            std::io::ErrorKind::NotFound
        );
    }

    #[test]
    fn round_trips_and_counts() {
        let dir = tmp("round_trip");
        let c = DiskCache::open_with_epoch(&dir, 7).unwrap();
        assert_eq!(c.load(b"spec-a"), None);
        c.store(b"spec-a", b"payload");
        assert_eq!(c.load(b"spec-a").as_deref(), Some(&b"payload"[..]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stores), (1, 1, 1));
        assert_eq!((s.corrupt, s.store_failures, s.orphans_swept), (0, 0, 0));
        assert_eq!(c.entries(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_epoch_entries_are_invalidated_on_open() {
        let dir = tmp("invalidate");
        let old = DiskCache::open_with_epoch(&dir, 1).unwrap();
        old.store(b"spec", b"old-build");
        let new = DiskCache::open_with_epoch(&dir, 2).unwrap();
        assert_eq!(new.stats().invalidated, 1);
        assert_eq!(new.load(b"spec"), None, "old-epoch entry must not hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mixes_epoch_and_spec() {
        let dir = tmp("keys");
        let a = DiskCache::open_with_epoch(&dir, 1).unwrap();
        let b = DiskCache::open_with_epoch(&dir, 2).unwrap();
        assert_ne!(a.key(b"x"), b.key(b"x"), "epoch must re-key entries");
        assert_ne!(a.key(b"x"), a.key(b"y"));
        assert_eq!(a.key(b"x"), a.key(b"x"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_removes_exactly_one_entry() {
        let dir = tmp("evict");
        let c = DiskCache::open_with_epoch(&dir, 3).unwrap();
        c.store(b"a", b"1");
        c.store(b"b", b"2");
        assert!(c.evict(b"a"));
        assert!(!c.evict(b"a"), "second evict finds nothing");
        assert_eq!(c.load(b"a"), None);
        assert_eq!(c.load(b"b").as_deref(), Some(&b"2"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_frame_round_trips_and_names_every_defect() {
        let frame = encode_entry(7, 9, b"payload");
        assert_eq!(verify_entry(&frame, 7, 9), Ok(&b"payload"[..]));
        // Truncation, at both header and payload granularity.
        assert_eq!(
            verify_entry(&frame[..10], 7, 9),
            Err(EntryDefect::Truncated)
        );
        assert_eq!(
            verify_entry(&frame[..frame.len() - 2], 7, 9),
            Err(EntryDefect::LengthMismatch)
        );
        // Foreign bytes.
        assert_eq!(
            verify_entry(b"not a cache entry at all, but long enough to scan", 7, 9),
            Err(EntryDefect::BadMagic)
        );
        // Stale format version.
        let mut stale = frame.clone();
        stale[8] ^= 0xff;
        assert_eq!(verify_entry(&stale, 7, 9), Err(EntryDefect::StaleFormat));
        // Wrong epoch / wrong key (entry copied onto the wrong address).
        assert_eq!(verify_entry(&frame, 8, 9), Err(EntryDefect::WrongEpoch));
        assert_eq!(verify_entry(&frame, 7, 10), Err(EntryDefect::WrongKey));
        // A bit flip anywhere in the payload.
        let mut flipped = frame.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(
            verify_entry(&flipped, 7, 9),
            Err(EntryDefect::ChecksumMismatch)
        );
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_counted() {
        let dir = tmp("quarantine");
        let c = DiskCache::open_with_epoch(&dir, 5).unwrap();
        c.store(b"spec", b"good bytes");
        let path = dir.join(format!("{:016x}-{:016x}.art", 5u64, c.key(b"spec")));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(c.load(b"spec"), None, "tampered entry must not hit");
        assert!(!path.exists(), "tampered entry must be quarantined");
        let s = c.stats();
        assert_eq!((s.corrupt, s.misses, s.hits), (1, 1, 0));
        // The slot heals: recompute, store, hit.
        c.store(b"spec", b"good bytes");
        assert_eq!(c.load(b"spec").as_deref(), Some(&b"good bytes"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_framing_entries_self_heal() {
        let dir = tmp("preframing");
        let c = DiskCache::open_with_epoch(&dir, 6).unwrap();
        // An entry written by the pre-framing code: raw payload bytes.
        let path = dir.join(format!("{:016x}-{:016x}.art", 6u64, c.key(b"spec")));
        std::fs::write(&path, b"raw unframed payload from an older format").unwrap();
        assert_eq!(c.load(b"spec"), None, "unframed entry must not be served");
        assert!(!path.exists());
        assert_eq!(c.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_tmp_files_are_swept_at_open() {
        let dir = tmp("orphans");
        let c = DiskCache::open_with_epoch(&dir, 4).unwrap();
        c.store(b"spec", b"entry");
        // A crashed writer's leftovers, plus foreign junk that is not ours.
        std::fs::write(
            dir.join(format!("{:016x}-{:016x}.tmp.12345", 4u64, c.key(b"spec"))),
            b"half-written",
        )
        .unwrap();
        std::fs::write(dir.join("README.txt"), b"not a cache file").unwrap();
        let reopened = DiskCache::open_with_epoch(&dir, 4).unwrap();
        let s = reopened.stats();
        assert_eq!((s.orphans_swept, s.invalidated), (1, 0));
        assert_eq!(reopened.entries(), 1, "the published entry survives");
        assert!(
            dir.join("README.txt").exists(),
            "files that are not cache-shaped are left alone"
        );
        assert_eq!(reopened.load(b"spec").as_deref(), Some(&b"entry"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_counts_only_well_formed_entry_names() {
        let dir = tmp("strict_names");
        let c = DiskCache::open_with_epoch(&dir, 0xab).unwrap();
        c.store(b"a", b"1");
        c.store(b"b", b"2");
        // None of these are entries, whatever their names suggest.
        let prefix = format!("{:016x}-", 0xabu64);
        std::fs::write(dir.join(format!("{prefix}0123456789abcdef.tmp.7")), b"x").unwrap();
        std::fs::write(dir.join(format!("{prefix}short.art")), b"x").unwrap();
        std::fs::write(dir.join(format!("{prefix}zzzzzzzzzzzzzzzz.art")), b"x").unwrap();
        std::fs::write(dir.join("junk.art"), b"x").unwrap();
        assert_eq!(c.entries(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_chaos_enospc_counts_store_failures() {
        let dir = tmp("chaos_enospc");
        let c = DiskCache::open_with_epoch(&dir, 9)
            .unwrap()
            .with_io_chaos(IoChaosPlan::new(1).with_write_rates(0.0, 1.0));
        c.store(b"spec", b"bytes");
        let s = c.stats();
        assert_eq!((s.stores, s.store_failures), (0, 1));
        assert_eq!(c.entries(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_chaos_torn_rename_leaves_a_sweepable_orphan() {
        let dir = tmp("chaos_torn");
        let c = DiskCache::open_with_epoch(&dir, 9)
            .unwrap()
            .with_io_chaos(IoChaosPlan::new(1).with_torn_rename(1.0));
        c.store(b"spec", b"bytes");
        assert_eq!(c.stats().store_failures, 1);
        assert_eq!(c.entries(), 0, "nothing was published");
        assert_eq!(c.load(b"spec"), None);
        let reopened = DiskCache::open_with_epoch(&dir, 9).unwrap();
        assert_eq!(reopened.stats().orphans_swept, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_chaos_short_write_is_caught_by_verification() {
        let dir = tmp("chaos_short");
        let c = DiskCache::open_with_epoch(&dir, 9)
            .unwrap()
            .with_io_chaos(IoChaosPlan::new(2).with_write_rates(1.0, 0.0));
        c.store(b"spec", b"a payload long enough that a prefix is plausible");
        // The torn frame landed at the final path claiming success …
        assert_eq!(c.stats().stores, 1);
        // … and load refuses to serve it.
        assert_eq!(c.load(b"spec"), None);
        assert_eq!(c.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_chaos_bit_flips_on_read_never_serve_corrupt_bytes() {
        let dir = tmp("chaos_flip");
        let c = DiskCache::open_with_epoch(&dir, 9)
            .unwrap()
            .with_io_chaos(IoChaosPlan::new(3).with_read_rates(0.0, 1.0));
        c.store(b"spec", b"bytes under test");
        // Every read comes back with one bit flipped somewhere in the
        // frame; whichever field it hits, verification must reject it.
        assert_eq!(c.load(b"spec"), None);
        let s = c.stats();
        assert_eq!((s.hits, s.corrupt), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
