//! The 8-dimensional workload-characteristics vector of the PCA study.
//!
//! Section IV-A reduces each workload to eight measured features — PCIe
//! utilization, GPU utilization, CPU utilization, DDR memory footprint,
//! HBM2 footprint, FLOP throughput, memory throughput, and number of
//! epochs — and runs PCA over the suite. [`WorkloadCharacteristics`]
//! holds that exact vector.

use std::fmt;

/// Names of the eight features, in vector order.
pub const FEATURE_NAMES: [&str; 8] = [
    "PCIe util (Mbps)",
    "GPU util (%)",
    "CPU util (%)",
    "DDR footprint (MB)",
    "HBM2 footprint (MB)",
    "FLOP throughput (GFLOP/s)",
    "Memory throughput (GB/s)",
    "Epochs",
];

/// One workload's eight measured characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadCharacteristics {
    /// Workload label (e.g. `"MLPf_Res50_TF"`).
    pub name: String,
    /// Which suite the workload belongs to (for plot grouping).
    pub suite: String,
    /// The eight features, ordered as [`FEATURE_NAMES`].
    pub features: [f64; 8],
}

impl WorkloadCharacteristics {
    /// Build from the eight feature values, ordered as [`FEATURE_NAMES`]
    /// (DeepBench kernels have no training loop, so some are synthesized).
    pub fn from_raw(name: impl Into<String>, suite: impl Into<String>, features: [f64; 8]) -> Self {
        assert!(
            features.iter().all(|f| f.is_finite()),
            "all features must be finite"
        );
        WorkloadCharacteristics {
            name: name.into(),
            suite: suite.into(),
            features,
        }
    }
}

impl fmt::Display for WorkloadCharacteristics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]:", self.name, self.suite)?;
        for (n, v) in FEATURE_NAMES.iter().zip(self.features) {
            write!(f, " {n}={v:.1}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_construction_validates() {
        let w = WorkloadCharacteristics::from_raw("k", "DeepBench", [1.0; 8]);
        assert_eq!(w.features, [1.0; 8]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_feature_rejected() {
        let _ = WorkloadCharacteristics::from_raw("k", "s", [f64::NAN; 8]);
    }

    #[test]
    fn feature_names_cover_the_vector() {
        assert_eq!(FEATURE_NAMES.len(), 8);
        let w = WorkloadCharacteristics::from_raw("k", "s", [2.0; 8]);
        let s = w.to_string();
        assert!(s.contains("Epochs=2.0"));
    }
}
