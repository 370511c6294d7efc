//! Benchmark harness for the MLPerf-demystified reproduction.
//!
//! The timing-only targets under `benches/` regenerate every table and
//! figure of the paper and time the machinery that produces them:
//!
//! * `tables` — Tables I-V;
//! * `figures` — Figures 1-5;
//! * `ablations` — design-choice studies DESIGN.md calls out (all-reduce
//!   algorithm, comm/compute overlap, PCIe lane width, scheduler policy);
//! * `substrate` — micro-benchmarks of the underlying machinery (model
//!   builders, the engine step, PCA, the schedule search);
//! * `extensions` — the studies beyond the paper;
//! * `executor` — the memoized DAG scheduler on the full-report path.
//!
//! The `repro` binary in `mlperf-suite` prints the regenerated artifacts;
//! these targets measure them. End-to-end performance — `repro --report`
//! and `--csv`, the million-cell sweep, `repro serve` — is measured and
//! gated by the standalone `perfbench/` package (`BENCHMARK.json`).
