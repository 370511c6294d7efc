//! The roofline model of Fig. 2.
//!
//! A roofline plots attainable FLOP/s against arithmetic intensity: below
//! the ridge point performance is capped by memory bandwidth (the slanted
//! roof), above it by the compute ceiling of the precision in use. The
//! paper measures empirical V100 ceilings with the Empirical Roofline
//! Toolkit and places every workload on the plot; [`RooflineModel::sweep`]
//! reproduces the ERT-style intensity sweep, and [`RooflinePoint`]s carry
//! the workload coordinates.

use mlperf_hw::gpu::{GpuSpec, Precision};
use mlperf_hw::units::{Bandwidth, FlopRate};
use std::fmt;

/// Whether a point sits under the slanted (memory) or flat (compute) roof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Boundedness {
    /// Left of the ridge: limited by memory bandwidth.
    MemoryBound,
    /// Right of the ridge: limited by the compute ceiling.
    ComputeBound,
}

impl fmt::Display for Boundedness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Boundedness::MemoryBound => f.write_str("memory-bound"),
            Boundedness::ComputeBound => f.write_str("compute-bound"),
        }
    }
}

/// One workload's coordinates on the roofline plot.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Workload label.
    pub name: String,
    /// Suite label (determines the marker color in Fig. 2).
    pub suite: String,
    /// Arithmetic intensity, FLOP/byte.
    pub intensity: f64,
    /// Sustained throughput.
    pub throughput: FlopRate,
}

impl RooflinePoint {
    /// Construct a point, validating the intensity.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is not finite and positive.
    pub fn new(
        name: impl Into<String>,
        suite: impl Into<String>,
        intensity: f64,
        throughput: FlopRate,
    ) -> Self {
        assert!(
            intensity.is_finite() && intensity > 0.0,
            "arithmetic intensity must be finite and positive"
        );
        RooflinePoint {
            name: name.into(),
            suite: suite.into(),
            intensity,
            throughput,
        }
    }
}

/// An empirical roofline for one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineModel {
    gpu_name: String,
    memory_bandwidth: Bandwidth,
    ceilings: Vec<(Precision, FlopRate)>,
}

impl RooflineModel {
    /// Build the empirical roofline of a GPU (ERT-measured ceilings).
    pub fn for_gpu(gpu: &GpuSpec) -> Self {
        RooflineModel {
            gpu_name: gpu.name().to_string(),
            memory_bandwidth: gpu.empirical_hbm_bandwidth(),
            ceilings: Precision::ALL
                .iter()
                .map(|&p| (p, gpu.empirical_flop_rate(p)))
                .collect(),
        }
    }

    /// The measured memory-bandwidth roof.
    pub fn memory_bandwidth(&self) -> Bandwidth {
        self.memory_bandwidth
    }

    /// The compute ceiling for a precision.
    pub fn ceiling(&self, precision: Precision) -> FlopRate {
        self.ceilings
            .iter()
            .find(|(p, _)| *p == precision)
            .map(|(_, r)| *r)
            .expect("all precisions present by construction")
    }

    /// Attainable FLOP/s at an arithmetic intensity under a precision roof:
    /// `min(ceiling, intensity × bandwidth)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlperf_analysis::roofline::RooflineModel;
    /// use mlperf_hw::{GpuModel, Precision};
    ///
    /// let r = RooflineModel::for_gpu(&GpuModel::TeslaV100Sxm2_16.spec());
    /// // Left of the ridge, attainable performance scales with intensity.
    /// let low = r.attainable(1.0, Precision::Single);
    /// let high = r.attainable(2.0, Precision::Single);
    /// assert!((high.as_flops_per_sec() / low.as_flops_per_sec() - 2.0).abs() < 1e-9);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is not finite and positive.
    pub fn attainable(&self, intensity: f64, precision: Precision) -> FlopRate {
        assert!(
            intensity.is_finite() && intensity > 0.0,
            "arithmetic intensity must be finite and positive"
        );
        let mem_limited = FlopRate::new(intensity * self.memory_bandwidth.as_bytes_per_sec());
        mem_limited.min(self.ceiling(precision))
    }

    /// The ridge-point intensity for a precision: where the slanted and
    /// flat roofs meet.
    pub fn ridge(&self, precision: Precision) -> f64 {
        self.ceiling(precision).as_flops_per_sec() / self.memory_bandwidth.as_bytes_per_sec()
    }

    /// Classify a point against a precision roof.
    pub fn classify(&self, point: &RooflinePoint, precision: Precision) -> Boundedness {
        if point.intensity < self.ridge(precision) {
            Boundedness::MemoryBound
        } else {
            Boundedness::ComputeBound
        }
    }

    /// Fraction of the attainable roof a point achieves (1.0 = on the roof).
    pub fn roof_fraction(&self, point: &RooflinePoint, precision: Precision) -> f64 {
        point.throughput.as_flops_per_sec()
            / self
                .attainable(point.intensity, precision)
                .as_flops_per_sec()
    }

    /// ERT-style sweep: sample the attainable curve at logarithmically
    /// spaced intensities spanning `lo..=hi` FLOP/byte with `n` points.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid or `n < 2`.
    pub fn sweep(&self, precision: Precision, lo: f64, hi: f64, n: usize) -> Vec<(f64, FlopRate)> {
        assert!(lo > 0.0 && hi > lo, "invalid sweep range");
        assert!(n >= 2, "sweep needs at least two points");
        let ratio = (hi / lo).ln();
        (0..n)
            .map(|i| {
                let ai = lo * (ratio * i as f64 / (n - 1) as f64).exp();
                (ai, self.attainable(ai, precision))
            })
            .collect()
    }
}

impl fmt::Display for RooflineModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} roofline: {} memory roof, FP32 ceiling {}, ridge {:.1} FLOP/B",
            self.gpu_name,
            self.memory_bandwidth,
            self.ceiling(Precision::Single),
            self.ridge(Precision::Single),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_hw::gpu::GpuModel;

    fn v100() -> RooflineModel {
        RooflineModel::for_gpu(&GpuModel::TeslaV100Sxm2_16.spec())
    }

    #[test]
    fn attainable_is_min_of_roofs() {
        let r = v100();
        // Far left: memory slope.
        let low = r.attainable(0.1, Precision::Single);
        assert!(
            (low.as_flops_per_sec() - 0.1 * r.memory_bandwidth().as_bytes_per_sec()).abs() < 1.0
        );
        // Far right: flat ceiling.
        let high = r.attainable(1e4, Precision::Single);
        assert_eq!(high, r.ceiling(Precision::Single));
    }

    #[test]
    fn ridge_ordering_matches_precision_speed() {
        let r = v100();
        assert!(r.ridge(Precision::Double) < r.ridge(Precision::Single));
        assert!(r.ridge(Precision::Single) < r.ridge(Precision::TensorCore));
        // V100 FP32 ridge is around 17 FLOP/byte empirically.
        let fp32 = r.ridge(Precision::Single);
        assert!(fp32 > 10.0 && fp32 < 25.0, "fp32 ridge = {fp32}");
        // Every modelled GPU has positive ridges ordered by precision speed.
        for model in [
            GpuModel::TeslaV100Sxm2_16,
            GpuModel::TeslaV100Sxm2_32,
            GpuModel::TeslaV100Pcie16,
            GpuModel::TeslaV100Pcie32,
            GpuModel::TeslaP100Pcie16,
        ] {
            let r = RooflineModel::for_gpu(&model.spec());
            let [fp64, fp32, tc] =
                [Precision::Double, Precision::Single, Precision::TensorCore].map(|p| r.ridge(p));
            assert!(
                0.0 < fp64 && fp64 <= fp32 && fp32 <= tc,
                "{model:?}: {fp64} / {fp32} / {tc}"
            );
        }
    }

    #[test]
    fn classification_flips_at_ridge() {
        let r = v100();
        let ridge = r.ridge(Precision::Single);
        let below = RooflinePoint::new("a", "s", ridge * 0.5, FlopRate::from_tflops(1.0));
        let above = RooflinePoint::new("b", "s", ridge * 2.0, FlopRate::from_tflops(1.0));
        assert_eq!(
            r.classify(&below, Precision::Single),
            Boundedness::MemoryBound
        );
        assert_eq!(
            r.classify(&above, Precision::Single),
            Boundedness::ComputeBound
        );
    }

    #[test]
    fn roof_fraction_is_one_on_the_roof() {
        let r = v100();
        let ai = 2.0;
        let p = RooflinePoint::new("on-roof", "s", ai, r.attainable(ai, Precision::Single));
        assert!((r.roof_fraction(&p, Precision::Single) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_is_monotonic_and_spans_range() {
        let r = v100();
        let pts = r.sweep(Precision::Single, 0.01, 1000.0, 64);
        assert_eq!(pts.len(), 64);
        assert!((pts[0].0 - 0.01).abs() < 1e-12);
        assert!((pts[63].0 - 1000.0).abs() < 1e-6);
        assert!(pts
            .windows(2)
            .all(|w| w[1].1.as_flops_per_sec() >= w[0].1.as_flops_per_sec()));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_intensity_rejected() {
        let _ = RooflinePoint::new("x", "s", 0.0, FlopRate::ZERO);
    }

    #[test]
    fn display_names_the_gpu() {
        assert!(v100().to_string().contains("V100"));
    }
}
