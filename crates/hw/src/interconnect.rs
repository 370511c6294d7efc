//! Interconnect link models: PCI Express 3.0, NVLink, and Intel UPI.
//!
//! Section V-D of the paper walks through the bandwidth hierarchy that drives
//! its topology results: PCIe 3.0 at ~0.985 GB/s per lane (15.8 GB/s for x16),
//! NVLink at 25 GB/s per lane (up to 150 GB/s on a 6-lane SXM2 V100), and UPI
//! at 20.8 GB/s between sockets. All bandwidths here are *unidirectional*,
//! matching the paper's convention.

use crate::units::{Bandwidth, Seconds};

/// PCIe 3.0 unidirectional bandwidth per lane (GB/s).
const PCIE3_PER_LANE_GB: f64 = 0.9846;
/// NVLink 2.0 unidirectional bandwidth per lane (GB/s).
const NVLINK_PER_LANE_GB: f64 = 25.0;
/// UPI unidirectional bandwidth per link (GB/s), per the paper's §V-C.
const UPI_PER_LINK_GB: f64 = 20.8;

/// Protocol efficiency: fraction of raw link bandwidth attainable by bulk
/// DMA transfers after header/flow-control overhead.
const PCIE_EFFICIENCY: f64 = 0.85;
const NVLINK_EFFICIENCY: f64 = 0.90;
const UPI_EFFICIENCY: f64 = 0.80;

/// One physical link between two topology nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Link {
    /// PCI Express 3.0 with the given lane count (x8, x16, ...).
    PcieGen3 {
        /// Number of lanes (1..=16 in practice).
        lanes: u32,
    },
    /// NVLink 2.0 with the given lane (brick) count between two endpoints.
    NvLink {
        /// Number of NVLink bricks bonded between the two endpoints.
        lanes: u32,
    },
    /// Intel Ultra Path Interconnect between CPU sockets.
    Upi {
        /// Number of UPI links between the sockets.
        links: u32,
    },
}

impl Link {
    /// A PCIe 3.0 x16 link, the common GPU attachment.
    pub const PCIE3_X16: Link = Link::PcieGen3 { lanes: 16 };
    /// A PCIe 3.0 x8 link.
    pub const PCIE3_X8: Link = Link::PcieGen3 { lanes: 8 };
    /// A single UPI link.
    pub const UPI_X1: Link = Link::Upi { links: 1 };

    /// Theoretical unidirectional bandwidth (datasheet numbers).
    pub fn theoretical_bandwidth(self) -> Bandwidth {
        match self {
            Link::PcieGen3 { lanes } => {
                Bandwidth::from_gb_per_sec(PCIE3_PER_LANE_GB * lanes as f64)
            }
            Link::NvLink { lanes } => Bandwidth::from_gb_per_sec(NVLINK_PER_LANE_GB * lanes as f64),
            Link::Upi { links } => Bandwidth::from_gb_per_sec(UPI_PER_LINK_GB * links as f64),
        }
    }

    /// Effective unidirectional bandwidth after protocol overhead; this is
    /// what the simulator charges transfers against.
    pub fn effective_bandwidth(self) -> Bandwidth {
        let eff = match self {
            Link::PcieGen3 { .. } => PCIE_EFFICIENCY,
            Link::NvLink { .. } => NVLINK_EFFICIENCY,
            Link::Upi { .. } => UPI_EFFICIENCY,
        };
        self.theoretical_bandwidth().scale(eff)
    }

    /// One-way message latency of the link (used as the α term in the
    /// α-β all-reduce cost model).
    pub fn latency(self) -> Seconds {
        match self {
            // PCIe round trips through the root complex are several µs.
            Link::PcieGen3 { .. } => Seconds::from_micros(5.0),
            // NVLink peer access is ~1.5 µs.
            Link::NvLink { .. } => Seconds::from_micros(1.5),
            // Socket-to-socket hops add ~0.5 µs on top of whatever bus
            // carried the data to the socket.
            Link::Upi { .. } => Seconds::from_micros(0.5),
        }
    }

    /// Number of lanes/links bonded in this link.
    pub fn width(self) -> u32 {
        match self {
            Link::PcieGen3 { lanes } => lanes,
            Link::NvLink { lanes } => lanes,
            Link::Upi { links } => links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_x16_matches_paper_figure() {
        let bw = Link::PCIE3_X16.theoretical_bandwidth();
        // Paper: "15.8 GBps for x16 lanes".
        assert!((bw.as_gb_per_sec() - 15.75).abs() < 0.1, "got {bw}");
    }

    #[test]
    fn nvlink_six_lanes_is_150_gbps() {
        let bw = Link::NvLink { lanes: 6 }.theoretical_bandwidth();
        assert!((bw.as_gb_per_sec() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn nvlink_two_lanes_is_50_gbps() {
        // C4140 pairs GPUs with 2 bonded bricks: 50 GB/s uni = 100 GB/s bidir,
        // the "100GB/s bandwidth between any two GPUs" the paper quotes.
        let bw = Link::NvLink { lanes: 2 }.theoretical_bandwidth();
        assert!((bw.as_gb_per_sec() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn upi_matches_paper_figure() {
        let bw = Link::UPI_X1.theoretical_bandwidth();
        assert!((bw.as_gb_per_sec() - 20.8).abs() < 1e-9);
    }

    #[test]
    fn effective_bandwidth_below_theoretical() {
        for link in [Link::PCIE3_X16, Link::NvLink { lanes: 6 }, Link::UPI_X1] {
            assert!(
                link.effective_bandwidth().as_bytes_per_sec()
                    < link.theoretical_bandwidth().as_bytes_per_sec()
            );
        }
    }

    #[test]
    fn bandwidth_hierarchy_nvlink_gt_upi_gt_pcie() {
        let nv = Link::NvLink { lanes: 2 }.effective_bandwidth();
        let upi = Link::UPI_X1.effective_bandwidth();
        let pcie = Link::PCIE3_X16.effective_bandwidth();
        assert!(nv.as_bytes_per_sec() > upi.as_bytes_per_sec());
        assert!(upi.as_bytes_per_sec() > pcie.as_bytes_per_sec());
    }

    #[test]
    fn latency_hierarchy() {
        assert!(
            Link::NvLink { lanes: 2 }.latency().as_secs() < Link::PCIE3_X16.latency().as_secs()
        );
    }
}
