//! GPU device models.
//!
//! The study uses NVIDIA Tesla V100 accelerators in two form factors (PCIe
//! add-in card and SXM2 mezzanine) plus the Tesla P100 of the MLPerf v0.5
//! reference machine. A [`GpuSpec`] captures exactly the parameters the
//! paper's conclusions depend on: peak compute rates per precision (including
//! Tensor Cores), HBM2 capacity and bandwidth, and the number of NVLink lanes
//! the form factor exposes.
//!
//! Peak numbers follow the NVIDIA V100/P100 datasheets; *empirical* ceilings
//! (what the Empirical Roofline Toolkit measures, Fig. 2 of the paper) are
//! derived via fixed derating factors in [`GpuSpec::empirical_flop_rate`] and
//! [`GpuSpec::empirical_hbm_bandwidth`].

use crate::units::{Bandwidth, Bytes, FlopRate};
use std::fmt;

/// Numeric precision of a compute kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// IEEE double precision (FP64).
    Double,
    /// IEEE single precision (FP32).
    Single,
    /// IEEE half precision (FP16) on the regular SIMT pipeline.
    Half,
    /// FP16 matrix math on Tensor Cores (V100 only).
    TensorCore,
}

impl Precision {
    /// All precisions, in decreasing width.
    pub const ALL: [Precision; 4] = [
        Precision::Double,
        Precision::Single,
        Precision::Half,
        Precision::TensorCore,
    ];

    /// Bytes per scalar element at this precision (Tensor Core math is FP16).
    pub fn element_bytes(self) -> u64 {
        match self {
            Precision::Double => 8,
            Precision::Single => 4,
            Precision::Half | Precision::TensorCore => 2,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Precision::Double => "FP64",
            Precision::Single => "FP32",
            Precision::Half => "FP16",
            Precision::TensorCore => "FP16-TC",
        };
        f.write_str(s)
    }
}

/// Physical packaging of the accelerator, which determines its interconnect
/// options (SXM2 exposes NVLink; PCIe cards do not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormFactor {
    /// Full-height/full-length PCI Express add-in card.
    PcieCard,
    /// SXM2 mezzanine module (NVLink-capable).
    Sxm2,
}

impl fmt::Display for FormFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormFactor::PcieCard => f.write_str("PCIe Full Height/Length"),
            FormFactor::Sxm2 => f.write_str("SXM2"),
        }
    }
}

/// The GPU SKUs that appear in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuModel {
    /// Tesla V100 SXM2 with 16 GB HBM2 (C4140 K and M).
    TeslaV100Sxm2_16,
    /// Tesla V100 SXM2 with 32 GB HBM2.
    TeslaV100Sxm2_32,
    /// Tesla V100 PCIe with 16 GB HBM2 (C4140 B, DSS 8440).
    TeslaV100Pcie16,
    /// Tesla V100 PCIe with 32 GB HBM2 (T640, R940 XA).
    TeslaV100Pcie32,
    /// Tesla P100 PCIe 16 GB — the MLPerf v0.5 reference machine's GPU.
    TeslaP100Pcie16,
}

impl GpuModel {
    /// The full specification sheet for this SKU.
    pub fn spec(self) -> GpuSpec {
        match self {
            GpuModel::TeslaV100Sxm2_16 => GpuSpec {
                model: self,
                name: "Tesla V100-SXM2-16GB",
                form_factor: FormFactor::Sxm2,
                sm_count: 80,
                boost_clock_mhz: 1530,
                peak_fp64: FlopRate::from_tflops(7.8),
                peak_fp32: FlopRate::from_tflops(15.7),
                peak_fp16: FlopRate::from_tflops(31.4),
                peak_tensor: FlopRate::from_tflops(125.0),
                hbm_capacity: Bytes::from_gib(16),
                hbm_bandwidth: Bandwidth::from_gb_per_sec(900.0),
                nvlink_lanes: 6,
            },
            GpuModel::TeslaV100Sxm2_32 => GpuSpec {
                hbm_capacity: Bytes::from_gib(32),
                name: "Tesla V100-SXM2-32GB",
                ..GpuModel::TeslaV100Sxm2_16.spec()
            }
            .with_model(self),
            GpuModel::TeslaV100Pcie16 => GpuSpec {
                model: self,
                name: "Tesla V100-PCIE-16GB",
                form_factor: FormFactor::PcieCard,
                sm_count: 80,
                boost_clock_mhz: 1380,
                peak_fp64: FlopRate::from_tflops(7.0),
                peak_fp32: FlopRate::from_tflops(14.0),
                peak_fp16: FlopRate::from_tflops(28.0),
                peak_tensor: FlopRate::from_tflops(112.0),
                hbm_capacity: Bytes::from_gib(16),
                hbm_bandwidth: Bandwidth::from_gb_per_sec(900.0),
                nvlink_lanes: 0,
            },
            GpuModel::TeslaV100Pcie32 => GpuSpec {
                hbm_capacity: Bytes::from_gib(32),
                name: "Tesla V100-PCIE-32GB",
                ..GpuModel::TeslaV100Pcie16.spec()
            }
            .with_model(self),
            GpuModel::TeslaP100Pcie16 => GpuSpec {
                model: self,
                name: "Tesla P100-PCIE-16GB",
                form_factor: FormFactor::PcieCard,
                sm_count: 56,
                boost_clock_mhz: 1303,
                peak_fp64: FlopRate::from_tflops(4.7),
                peak_fp32: FlopRate::from_tflops(9.3),
                peak_fp16: FlopRate::from_tflops(18.7),
                // Pascal has no Tensor Cores: FP16 runs on the SIMT pipeline.
                peak_tensor: FlopRate::from_tflops(18.7),
                hbm_capacity: Bytes::from_gib(16),
                hbm_bandwidth: Bandwidth::from_gb_per_sec(732.0),
                nvlink_lanes: 0,
            },
        }
    }

    /// Whether this SKU has Tensor Cores (Volta yes, Pascal no).
    pub fn has_tensor_cores(self) -> bool {
        !matches!(self, GpuModel::TeslaP100Pcie16)
    }
}

/// Full specification of a GPU SKU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    model: GpuModel,
    name: &'static str,
    form_factor: FormFactor,
    sm_count: u32,
    boost_clock_mhz: u32,
    peak_fp64: FlopRate,
    peak_fp32: FlopRate,
    peak_fp16: FlopRate,
    peak_tensor: FlopRate,
    hbm_capacity: Bytes,
    hbm_bandwidth: Bandwidth,
    nvlink_lanes: u32,
}

/// Fraction of peak compute the Empirical Roofline Toolkit attains on V100
/// (Fig. 2 plots empirical, not datasheet, ceilings).
const EMPIRICAL_COMPUTE_FRACTION: f64 = 0.93;
/// Fraction of datasheet HBM2 bandwidth attainable in practice (~830/900 on
/// V100 per ERT).
const EMPIRICAL_HBM_FRACTION: f64 = 0.92;

impl GpuSpec {
    fn with_model(mut self, model: GpuModel) -> Self {
        self.model = model;
        self
    }

    /// The SKU this spec describes.
    pub fn model(&self) -> GpuModel {
        self.model
    }

    /// Marketing name, e.g. `"Tesla V100-SXM2-16GB"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Physical packaging.
    pub fn form_factor(&self) -> FormFactor {
        self.form_factor
    }

    /// Number of streaming multiprocessors.
    pub fn sm_count(&self) -> u32 {
        self.sm_count
    }

    /// Boost clock in MHz.
    pub fn boost_clock_mhz(&self) -> u32 {
        self.boost_clock_mhz
    }

    /// Datasheet peak compute rate at the given precision.
    pub fn peak_flop_rate(&self, precision: Precision) -> FlopRate {
        match precision {
            Precision::Double => self.peak_fp64,
            Precision::Single => self.peak_fp32,
            Precision::Half => self.peak_fp16,
            Precision::TensorCore => self.peak_tensor,
        }
    }

    /// Empirically attainable compute ceiling at the given precision, as the
    /// Empirical Roofline Toolkit would measure it.
    pub fn empirical_flop_rate(&self, precision: Precision) -> FlopRate {
        self.peak_flop_rate(precision)
            .scale(EMPIRICAL_COMPUTE_FRACTION)
    }

    /// HBM2 device-memory capacity.
    pub fn hbm_capacity(&self) -> Bytes {
        self.hbm_capacity
    }

    /// Datasheet HBM2 bandwidth.
    pub fn hbm_bandwidth(&self) -> Bandwidth {
        self.hbm_bandwidth
    }

    /// Empirically attainable HBM2 bandwidth.
    pub fn empirical_hbm_bandwidth(&self) -> Bandwidth {
        self.hbm_bandwidth.scale(EMPIRICAL_HBM_FRACTION)
    }

    /// Number of NVLink lanes this form factor exposes (0 for PCIe cards).
    pub fn nvlink_lanes(&self) -> u32 {
        self.nvlink_lanes
    }

    /// A MIG-style slice of this device: `sm_count` granted SMs with every
    /// compute ceiling scaled by `compute_scale`, a fixed HBM allocation,
    /// bandwidth scaled by `bw_scale`, and a lane share of the
    /// interconnect. Only [`crate::partition`] constructs these — layout
    /// validity (and the refusal rules) live there.
    pub(crate) fn slice(
        &self,
        sm_count: u32,
        compute_scale: f64,
        hbm_capacity: Bytes,
        bw_scale: f64,
        nvlink_lanes: u32,
    ) -> GpuSpec {
        GpuSpec {
            model: self.model,
            name: self.name,
            form_factor: self.form_factor,
            sm_count,
            boost_clock_mhz: self.boost_clock_mhz,
            peak_fp64: self.peak_fp64.scale(compute_scale),
            peak_fp32: self.peak_fp32.scale(compute_scale),
            peak_fp16: self.peak_fp16.scale(compute_scale),
            peak_tensor: self.peak_tensor.scale(compute_scale),
            hbm_capacity,
            hbm_bandwidth: self.hbm_bandwidth.scale(bw_scale),
            nvlink_lanes,
        }
    }
}

impl fmt::Display for GpuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} SMs @ {} MHz, {} HBM2 @ {}, {} FP32)",
            self.name,
            self.sm_count,
            self.boost_clock_mhz,
            self.hbm_capacity,
            self.hbm_bandwidth,
            self.peak_fp32,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_sxm2_datasheet_numbers() {
        let spec = GpuModel::TeslaV100Sxm2_16.spec();
        assert_eq!(spec.sm_count(), 80);
        assert_eq!(spec.form_factor(), FormFactor::Sxm2);
        assert_eq!(spec.nvlink_lanes(), 6);
        assert!((spec.peak_flop_rate(Precision::Single).as_tflops() - 15.7).abs() < 1e-9);
        assert!((spec.peak_flop_rate(Precision::TensorCore).as_tflops() - 125.0).abs() < 1e-9);
        assert_eq!(spec.hbm_capacity(), Bytes::from_gib(16));
    }

    #[test]
    fn v100_pcie_has_no_nvlink_and_lower_clocks() {
        let pcie = GpuModel::TeslaV100Pcie16.spec();
        let sxm2 = GpuModel::TeslaV100Sxm2_16.spec();
        assert_eq!(pcie.nvlink_lanes(), 0);
        assert!(pcie.boost_clock_mhz() < sxm2.boost_clock_mhz());
        assert!(
            pcie.peak_flop_rate(Precision::Single).as_tflops()
                < sxm2.peak_flop_rate(Precision::Single).as_tflops()
        );
    }

    #[test]
    fn thirty_two_gig_variants_differ_only_in_capacity() {
        let a = GpuModel::TeslaV100Pcie16.spec();
        let b = GpuModel::TeslaV100Pcie32.spec();
        assert_eq!(b.hbm_capacity(), Bytes::from_gib(32));
        assert_eq!(a.sm_count(), b.sm_count());
        assert_eq!(
            a.peak_flop_rate(Precision::Single),
            b.peak_flop_rate(Precision::Single)
        );
    }

    #[test]
    fn p100_lacks_tensor_cores() {
        assert!(!GpuModel::TeslaP100Pcie16.has_tensor_cores());
        assert!(GpuModel::TeslaV100Sxm2_16.has_tensor_cores());
        let p100 = GpuModel::TeslaP100Pcie16.spec();
        // Without Tensor Cores the "tensor" rate is just the FP16 rate.
        assert_eq!(
            p100.peak_flop_rate(Precision::TensorCore),
            p100.peak_flop_rate(Precision::Half)
        );
    }

    #[test]
    fn empirical_ceilings_are_below_peak() {
        for model in [
            GpuModel::TeslaV100Sxm2_16,
            GpuModel::TeslaV100Pcie16,
            GpuModel::TeslaP100Pcie16,
        ] {
            let spec = model.spec();
            for p in Precision::ALL {
                assert!(
                    spec.empirical_flop_rate(p).as_flops_per_sec()
                        < spec.peak_flop_rate(p).as_flops_per_sec()
                );
            }
            assert!(
                spec.empirical_hbm_bandwidth().as_bytes_per_sec()
                    < spec.hbm_bandwidth().as_bytes_per_sec()
            );
        }
    }

    #[test]
    fn precision_element_bytes() {
        assert_eq!(Precision::Double.element_bytes(), 8);
        assert_eq!(Precision::Single.element_bytes(), 4);
        assert_eq!(Precision::Half.element_bytes(), 2);
        assert_eq!(Precision::TensorCore.element_bytes(), 2);
    }

    #[test]
    fn displays_are_informative() {
        let s = GpuModel::TeslaV100Sxm2_16.spec().to_string();
        assert!(s.contains("V100") && s.contains("80 SMs"));
        assert_eq!(Precision::TensorCore.to_string(), "FP16-TC");
    }
}
