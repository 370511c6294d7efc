//! Host CPU and DRAM models.
//!
//! Table III of the paper lists Intel Xeon Gold 6148 (2.40 GHz) and 6142
//! (2.60 GHz) processors with DDR4 DIMM configurations. The host matters to
//! the study through three quantities: core throughput available for input
//! preprocessing, DRAM capacity for dataset staging, and PCIe lane budget
//! for attaching GPUs.

use crate::units::Bytes;
use std::fmt;

/// Xeon SKUs used across the six systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuModel {
    /// Xeon Gold 6148: 20 cores @ 2.40 GHz base.
    XeonGold6148,
    /// Xeon Gold 6142: 16 cores @ 2.60 GHz base.
    XeonGold6142,
}

impl CpuModel {
    /// Full specification for this SKU.
    pub fn spec(self) -> CpuSpec {
        match self {
            CpuModel::XeonGold6148 => CpuSpec {
                model: self,
                name: "Intel Xeon Gold 6148",
                cores: 20,
                base_freq_ghz: 2.40,
                pcie_lanes: 48,
            },
            CpuModel::XeonGold6142 => CpuSpec {
                model: self,
                name: "Intel Xeon Gold 6142",
                cores: 16,
                base_freq_ghz: 2.60,
                pcie_lanes: 48,
            },
        }
    }
}

/// Specification of one CPU socket.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    model: CpuModel,
    name: &'static str,
    cores: u32,
    base_freq_ghz: f64,
    pcie_lanes: u32,
}

impl CpuSpec {
    /// The SKU this spec describes.
    pub fn model(&self) -> CpuModel {
        self.model
    }

    /// Marketing name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Physical core count per socket.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Base frequency in GHz.
    pub fn base_freq_ghz(&self) -> f64 {
        self.base_freq_ghz
    }

    /// PCIe 3.0 lanes provided by this socket.
    pub fn pcie_lanes(&self) -> u32 {
        self.pcie_lanes
    }

    /// A scalar "preprocessing throughput" proxy: core count × frequency.
    /// Used by the input-pipeline model to scale per-sample host costs.
    pub fn preprocess_capacity(&self) -> f64 {
        self.cores as f64 * self.base_freq_ghz
    }
}

impl fmt::Display for CpuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} cores @ {:.2} GHz, {} PCIe lanes)",
            self.name, self.cores, self.base_freq_ghz, self.pcie_lanes
        )
    }
}

/// A populated bank of DDR4 DIMMs attached to one or more sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimmConfig {
    /// Number of DIMMs installed in the chassis.
    pub count: u32,
    /// Capacity of each DIMM in GiB.
    pub size_gib: u32,
}

impl DimmConfig {
    /// Construct a DIMM population.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `size_gib` is zero.
    pub fn new(count: u32, size_gib: u32) -> Self {
        assert!(count > 0 && size_gib > 0, "DIMM config must be non-empty");
        DimmConfig { count, size_gib }
    }

    /// Total installed DRAM capacity.
    pub fn total_capacity(&self) -> Bytes {
        Bytes::from_gib(self.count as u64 * self.size_gib as u64)
    }
}

impl fmt::Display for DimmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x {} GB DDR4", self.count, self.size_gib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_6148_spec() {
        let spec = CpuModel::XeonGold6148.spec();
        assert_eq!(spec.cores(), 20);
        assert!((spec.base_freq_ghz() - 2.40).abs() < 1e-12);
        assert_eq!(spec.pcie_lanes(), 48);
    }

    #[test]
    fn xeon_6142_is_faster_but_smaller() {
        let a = CpuModel::XeonGold6148.spec();
        let b = CpuModel::XeonGold6142.spec();
        assert!(b.base_freq_ghz() > a.base_freq_ghz());
        assert!(b.cores() < a.cores());
    }

    #[test]
    fn dimm_capacity() {
        // C4140 (K): 12x 16 GB = 192 GB.
        assert_eq!(
            DimmConfig::new(12, 16).total_capacity(),
            Bytes::from_gib(192)
        );
        // DSS 8440: 12x 32 GB = 384 GB.
        assert_eq!(
            DimmConfig::new(12, 32).total_capacity(),
            Bytes::from_gib(384)
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dimm_config_rejected() {
        let _ = DimmConfig::new(0, 16);
    }

    #[test]
    fn preprocess_capacity_scales_with_cores_and_clock() {
        let a = CpuModel::XeonGold6148.spec().preprocess_capacity();
        assert!((a - 48.0).abs() < 1e-9);
    }
}
