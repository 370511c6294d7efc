//! Hardware substrate for the MLPerf-demystified reproduction.
//!
//! This crate models the hardware the ISPASS 2020 study ran on, at the level
//! of detail its conclusions depend on:
//!
//! * [`gpu`] — Tesla V100 (PCIe and SXM2, 16/32 GB) and Tesla P100 device
//!   models with per-precision peak and empirical compute/memory ceilings;
//! * [`cpu`] — Xeon Gold 6148/6142 sockets and DDR4 DIMM populations;
//! * [`interconnect`] — PCIe 3.0, NVLink 2.0, and UPI link models;
//! * [`topology`] — interconnect graphs with GPU-to-GPU path classification
//!   (NVLink / PCIe-switch P2P / through-CPU / through-UPI);
//! * [`partition`] — MIG-style fractional device slices (SM/HBM/L2/NVLink
//!   shares with typed layout-validity rules) and a co-location
//!   interference model for tenants sharing a device;
//! * [`systems`] — the six Dell platforms of Table III plus the MLPerf v0.5
//!   reference machine, prebuilt;
//! * [`units`] — strongly-typed bytes, FLOPs, bandwidths, rates, durations.
//!
//! # Examples
//!
//! ```
//! use mlperf_hw::systems::SystemId;
//! use mlperf_hw::topology::P2pClass;
//!
//! let c4140k = SystemId::C4140K.spec();
//! let path = c4140k.topology().gpu_peer_path(0, 3)?;
//! assert_eq!(path.class, P2pClass::NvLinkDirect);
//! # Ok::<(), mlperf_hw::topology::TopologyError>(())
//! ```

pub mod cpu;
pub mod gpu;
pub mod interconnect;
pub mod partition;
pub mod power;
pub mod systems;
pub mod topology;
pub mod units;

pub use cpu::{CpuModel, CpuSpec, DimmConfig};
pub use gpu::{FormFactor, GpuModel, GpuSpec, Precision};
pub use interconnect::Link;
pub use partition::{PartitionError, PartitionProfile, PartitionSpec};
pub use systems::{SystemId, SystemSpec};
pub use topology::{NodeId, P2pClass, Path, PeerPath, Topology, TopologyError};
pub use units::{Bandwidth, Bytes, FlopRate, Flops, Seconds};
