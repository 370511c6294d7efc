//! Profiling-tool analogues over simulated runs.
//!
//! The study instruments real training with `nvprof` (kernel FLOP and
//! memory-transaction counts), `dstat` (CPU/DRAM time series), and
//! `nvidia-smi dmon` (per-GPU SM/HBM/PCIe/NVLink counters). This crate
//! derives the same quantities from the engine's models rather than by
//! sampling:
//!
//! * [`nvprof`] — [`KernelProfile`]: per-kernel FLOPs/bytes, arithmetic
//!   intensity, sustained throughput (the Fig. 2 coordinates);
//! * [`usage`] — [`ResourceUsage`]: the six Table V columns, closed-form
//!   accounting over one steady-state [`StepReport`](mlperf_sim::StepReport);
//! * [`characteristics`] — the 8-feature vector §IV-A feeds to PCA;
//! * [`csv`] — CSV export matching the paper's analysis workflow.

pub mod characteristics;
pub mod csv;
pub mod nvprof;
pub mod usage;

pub use characteristics::{WorkloadCharacteristics, FEATURE_NAMES};
pub use nvprof::{KernelProfile, KernelRecord};
pub use usage::ResourceUsage;
