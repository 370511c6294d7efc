//! Deterministic test substrate for the MLPerf-demystified workspace.
//!
//! The paper's methodology rests on reproducible, seeded measurement runs;
//! this crate gives the workspace the same property for its *tests* without
//! reaching for crates.io. Seven modules:
//!
//! * [`rng`] — a seedable SplitMix64-seeded xoshiro256++ PRNG with
//!   stream-splitting, so every replication run, load client and test
//!   case draws from an independent, replayable stream;
//! * [`prop`] — a minimal property-testing harness (generators, a
//!   [`properties!`](crate::properties) macro close to `proptest!`, greedy
//!   draw-stream shrinking, failure-seed reporting);
//! * [`fault`] — a seeded-replay draw log ([`fault::FaultScript`]) that
//!   fault-plan generators draw through, so an injected failure scenario
//!   replays byte-identically from its seed;
//! * [`chaos`] — a seeded failure-injection plan ([`chaos::ChaosPlan`])
//!   deciding panic / error / non-finite actions at named draw points,
//!   used to chaos-test the experiment executor's resilience layer;
//! * [`iochaos`] — the storage-side twin ([`iochaos::IoChaosPlan`]):
//!   seeded short writes, torn renames, bit flips, `ENOSPC`, and
//!   unreadable files injected at a persistent store's filesystem seam,
//!   used to prove the artifact cache self-heals under corruption;
//! * [`loadgen`] — seeded client-workload plans (skewed hot-subset draws
//!   over an abstract query vocabulary) for replayable load tests of
//!   long-lived services;
//! * [`hash`] — the workspace's single FNV-1a implementation (64-bit,
//!   with published reference vectors): trace fingerprints, replication
//!   streams, and the persistent artifact cache all key on it.
//!
//! The whole workspace builds and tests offline because of this crate: it
//! has **zero dependencies** by design. See DESIGN.md §"Offline build &
//! determinism policy".

pub mod chaos;
pub mod fault;
pub mod hash;
pub mod iochaos;
pub mod loadgen;
pub mod prop;
pub mod rng;
