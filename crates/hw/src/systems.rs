//! The experimental platforms of Table III, as prebuilt topologies.
//!
//! Six Dell PowerEdge servers were used in the study, differing in CPU count,
//! GPU form factor, and — decisively — GPU interconnect topology:
//!
//! | System    | GPUs            | GPU interconnect                          |
//! |-----------|-----------------|-------------------------------------------|
//! | T640      | 4× V100 PCIe 32G| CPU PCIe ports, pairs split across UPI     |
//! | C4140 (B) | 4× V100 PCIe 16G| 96-lane PCIe switch (single root complex)  |
//! | C4140 (K) | 4× V100 SXM2 16G| NVLink mesh + PCIe switch to host          |
//! | C4140 (M) | 4× V100 SXM2 16G| NVLink mesh + direct CPU PCIe              |
//! | R940 XA   | 4× V100 PCIe 32G| one GPU per CPU socket, UPI between        |
//! | DSS 8440  | 8× V100 PCIe 16G| two PCIe switch domains + UPI              |
//!
//! plus the MLPerf v0.5 reference machine (one Tesla P100).

use crate::cpu::{CpuModel, DimmConfig};
use crate::gpu::GpuModel;
use crate::interconnect::Link;
use crate::topology::Topology;
use crate::units::Bytes;
use std::fmt;

/// Identifier for each experimental platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemId {
    /// Dell PowerEdge T640 (4× V100 PCIe, PCIe & UPI).
    T640,
    /// Dell PowerEdge C4140 config B (4× V100 PCIe behind one PCIe switch).
    C4140B,
    /// Dell PowerEdge C4140 config K (4× V100 SXM2, NVLink + PCIe switch).
    C4140K,
    /// Dell PowerEdge C4140 config M (4× V100 SXM2, NVLink + direct PCIe).
    C4140M,
    /// Dell PowerEdge R940 XA (4 CPUs, one V100 per socket).
    R940Xa,
    /// Dell DSS 8440 (8× V100 PCIe, two switch domains).
    Dss8440,
    /// MLPerf v0.5 reference machine (1× Tesla P100).
    ReferenceP100,
    /// NVIDIA DGX-1V (8× V100 SXM2 in a hybrid cube-mesh) — an extension
    /// platform beyond Table III; NVIDIA's v0.5 submissions ran on it.
    Dgx1V,
}

impl SystemId {
    /// All platforms, in Table III column order (reference machine last).
    pub const ALL: [SystemId; 7] = [
        SystemId::T640,
        SystemId::C4140B,
        SystemId::C4140K,
        SystemId::C4140M,
        SystemId::R940Xa,
        SystemId::Dss8440,
        SystemId::ReferenceP100,
    ];

    /// The five 4-GPU platforms compared in Fig. 5, in the paper's order.
    pub const FOUR_GPU_PLATFORMS: [SystemId; 5] = [
        SystemId::C4140M,
        SystemId::C4140K,
        SystemId::C4140B,
        SystemId::R940Xa,
        SystemId::T640,
    ];

    /// Short display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            SystemId::T640 => "T640",
            SystemId::C4140B => "C4140 (B)",
            SystemId::C4140K => "C4140 (K)",
            SystemId::C4140M => "C4140 (M)",
            SystemId::R940Xa => "R940 XA",
            SystemId::Dss8440 => "DSS 8440",
            SystemId::ReferenceP100 => "MLPerf reference (P100)",
            SystemId::Dgx1V => "DGX-1V (extension)",
        }
    }

    /// The whitespace-free wire token for this platform: [`SystemId::name`]
    /// with every space replaced by an underscore (`"DSS_8440"`,
    /// `"C4140_(K)"`). This is the single system vocabulary of the
    /// `repro serve` wire schema.
    pub fn token(self) -> String {
        self.name().replace(' ', "_")
    }

    /// The inverse of [`SystemId::token`]: the platform a wire token
    /// names, if any. Covers every variant, including the extension
    /// platforms outside [`SystemId::ALL`].
    pub fn from_token(s: &str) -> Option<SystemId> {
        const EVERY: [SystemId; 8] = [
            SystemId::T640,
            SystemId::C4140B,
            SystemId::C4140K,
            SystemId::C4140M,
            SystemId::R940Xa,
            SystemId::Dss8440,
            SystemId::ReferenceP100,
            SystemId::Dgx1V,
        ];
        EVERY.into_iter().find(|id| id.token() == s)
    }

    /// Build the full specification (topology included) for this platform.
    pub fn spec(self) -> SystemSpec {
        build_system(self)
    }
}

impl fmt::Display for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete platform description: sockets, memory, GPUs, and topology.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    id: SystemId,
    cpu_model: CpuModel,
    dimms: DimmConfig,
    gpu_model: GpuModel,
    interconnect_label: &'static str,
    topology: Topology,
}

impl SystemSpec {
    /// Which platform this is.
    pub fn id(&self) -> SystemId {
        self.id
    }

    /// CPU SKU (all sockets identical).
    pub fn cpu_model(&self) -> CpuModel {
        self.cpu_model
    }

    /// Installed DIMM population.
    pub fn dimms(&self) -> DimmConfig {
        self.dimms
    }

    /// Total system DRAM capacity.
    pub fn dram_capacity(&self) -> Bytes {
        self.dimms.total_capacity()
    }

    /// GPU SKU (all GPUs identical).
    pub fn gpu_model(&self) -> GpuModel {
        self.gpu_model
    }

    /// Number of GPUs installed.
    pub fn gpu_count(&self) -> usize {
        self.topology.gpu_count()
    }

    /// Number of CPU sockets.
    pub fn cpu_count(&self) -> usize {
        self.topology.cpu_count()
    }

    /// The inter-connect description string of Table III.
    pub fn interconnect_label(&self) -> &'static str {
        self.interconnect_label
    }

    /// The interconnect topology graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

impl fmt::Display for SystemSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}x {}, {}x {}, {} ({})",
            self.id.name(),
            self.cpu_count(),
            self.cpu_model.spec().name(),
            self.gpu_count(),
            self.gpu_model.spec().name(),
            self.dimms,
            self.interconnect_label,
        )
    }
}

/// NVLink bonding between each GPU pair in the C4140 mesh: 2 bricks per pair
/// gives the "100 GB/s [bidirectional] between any two GPUs" of §V-E.
const C4140_NVLINK_LANES_PER_PAIR: u32 = 2;

fn build_system(id: SystemId) -> SystemSpec {
    match id {
        SystemId::T640 => {
            // Two sockets, two PCIe GPUs hanging off each socket's root ports.
            let mut t = Topology::new("T640");
            let c0 = t.add_cpu();
            let c1 = t.add_cpu();
            t.connect(c0, c1, Link::UPI_X1);
            for cpu in [c0, c0, c1, c1] {
                let g = t.add_gpu(GpuModel::TeslaV100Pcie32);
                t.connect(cpu, g, Link::PCIE3_X16);
            }
            SystemSpec {
                id,
                cpu_model: CpuModel::XeonGold6148,
                dimms: DimmConfig::new(12, 16),
                gpu_model: GpuModel::TeslaV100Pcie32,
                interconnect_label: "PCIe & UPI",
                topology: t,
            }
        }
        SystemId::C4140B => {
            // One 96-lane PCIe switch hosts all four GPUs: single root
            // complex, GPUDirect P2P over the switch.
            let mut t = Topology::new("C4140 (B)");
            let c0 = t.add_cpu();
            let c1 = t.add_cpu();
            t.connect(c0, c1, Link::UPI_X1);
            let sw = t.add_switch();
            t.connect(c0, sw, Link::PCIE3_X16);
            for _ in 0..4 {
                let g = t.add_gpu(GpuModel::TeslaV100Pcie16);
                t.connect(sw, g, Link::PCIE3_X16);
            }
            SystemSpec {
                id,
                cpu_model: CpuModel::XeonGold6148,
                dimms: DimmConfig::new(12, 16),
                gpu_model: GpuModel::TeslaV100Pcie16,
                interconnect_label: "PCIe (switch)",
                topology: t,
            }
        }
        SystemId::C4140K => {
            // NVLink mesh between SXM2 GPUs; host attach aggregated through
            // a PCIe switch.
            let mut t = Topology::new("C4140 (K)");
            let c0 = t.add_cpu();
            let c1 = t.add_cpu();
            t.connect(c0, c1, Link::UPI_X1);
            let sw = t.add_switch();
            t.connect(c0, sw, Link::PCIE3_X16);
            let gpus: Vec<_> = (0..4)
                .map(|_| t.add_gpu(GpuModel::TeslaV100Sxm2_16))
                .collect();
            for &g in &gpus {
                t.connect(sw, g, Link::PCIE3_X16);
            }
            nvlink_mesh(&mut t, &gpus);
            SystemSpec {
                id,
                cpu_model: CpuModel::XeonGold6148,
                dimms: DimmConfig::new(12, 16),
                gpu_model: GpuModel::TeslaV100Sxm2_16,
                interconnect_label: "NVLink",
                topology: t,
            }
        }
        SystemId::C4140M => {
            // NVLink mesh; each GPU also has a dedicated x16 to a socket.
            let mut t = Topology::new("C4140 (M)");
            let c0 = t.add_cpu();
            let c1 = t.add_cpu();
            t.connect(c0, c1, Link::UPI_X1);
            let mut gpus = Vec::new();
            for (i, cpu) in [c0, c0, c1, c1].into_iter().enumerate() {
                let g = t.add_gpu(GpuModel::TeslaV100Sxm2_16);
                t.connect(cpu, g, Link::PCIE3_X16);
                gpus.push(g);
                let _ = i;
            }
            nvlink_mesh(&mut t, &gpus);
            SystemSpec {
                id,
                cpu_model: CpuModel::XeonGold6148,
                dimms: DimmConfig::new(24, 16),
                gpu_model: GpuModel::TeslaV100Sxm2_16,
                interconnect_label: "NVLink",
                topology: t,
            }
        }
        SystemId::R940Xa => {
            // Four sockets in a UPI ring, one GPU per socket.
            let mut t = Topology::new("R940 XA");
            let cpus: Vec<_> = (0..4).map(|_| t.add_cpu()).collect();
            for i in 0..4 {
                t.connect(cpus[i], cpus[(i + 1) % 4], Link::UPI_X1);
            }
            for &c in &cpus {
                let g = t.add_gpu(GpuModel::TeslaV100Pcie32);
                t.connect(c, g, Link::PCIE3_X16);
            }
            SystemSpec {
                id,
                cpu_model: CpuModel::XeonGold6148,
                dimms: DimmConfig::new(24, 16),
                gpu_model: GpuModel::TeslaV100Pcie32,
                interconnect_label: "UPI",
                topology: t,
            }
        }
        SystemId::Dss8440 => {
            // Two sockets; each hosts a PCIe switch domain with four GPUs.
            let mut t = Topology::new("DSS 8440");
            let c0 = t.add_cpu();
            let c1 = t.add_cpu();
            t.connect(c0, c1, Link::UPI_X1);
            for cpu in [c0, c1] {
                let sw = t.add_switch();
                t.connect(cpu, sw, Link::PCIE3_X16);
                for _ in 0..4 {
                    let g = t.add_gpu(GpuModel::TeslaV100Pcie16);
                    t.connect(sw, g, Link::PCIE3_X16);
                }
            }
            SystemSpec {
                id,
                cpu_model: CpuModel::XeonGold6142,
                dimms: DimmConfig::new(12, 32),
                gpu_model: GpuModel::TeslaV100Pcie16,
                interconnect_label: "PCIe & UPI",
                topology: t,
            }
        }
        SystemId::Dgx1V => {
            // Hybrid cube mesh: two quads bridged GPU-to-GPU; each GPU
            // spends its six NVLink bricks as one doubled intra-quad pair
            // plus four single links. Pairs without a direct link (e.g.
            // 0-5) relay over a one-hop NVLink neighbour.
            let mut t = Topology::new("DGX-1V");
            let c0 = t.add_cpu();
            let c1 = t.add_cpu();
            t.connect(c0, c1, Link::UPI_X1);
            let mut gpus = Vec::new();
            for cpu in [c0, c1] {
                for _ in 0..2 {
                    let sw = t.add_switch();
                    t.connect(cpu, sw, Link::PCIE3_X16);
                    for _ in 0..2 {
                        let g = t.add_gpu(GpuModel::TeslaV100Sxm2_16);
                        t.connect(sw, g, Link::PCIE3_X16);
                        gpus.push(g);
                    }
                }
            }
            const DOUBLE: [(usize, usize); 4] = [(0, 1), (2, 3), (4, 5), (6, 7)];
            const SINGLE: [(usize, usize); 12] = [
                (0, 2),
                (1, 3),
                (0, 3),
                (1, 2), // quad A diagonals
                (4, 6),
                (5, 7),
                (4, 7),
                (5, 6), // quad B diagonals
                (0, 4),
                (1, 5),
                (2, 6),
                (3, 7), // cube edges
            ];
            for (a, b) in DOUBLE {
                t.connect(gpus[a], gpus[b], Link::NvLink { lanes: 2 });
            }
            for (a, b) in SINGLE {
                t.connect(gpus[a], gpus[b], Link::NvLink { lanes: 1 });
            }
            SystemSpec {
                id,
                cpu_model: CpuModel::XeonGold6148,
                dimms: DimmConfig::new(16, 32),
                gpu_model: GpuModel::TeslaV100Sxm2_16,
                interconnect_label: "NVLink cube mesh",
                topology: t,
            }
        }
        SystemId::ReferenceP100 => {
            let mut t = Topology::new("MLPerf reference (P100)");
            let c0 = t.add_cpu();
            let g = t.add_gpu(GpuModel::TeslaP100Pcie16);
            t.connect(c0, g, Link::PCIE3_X16);
            SystemSpec {
                id,
                cpu_model: CpuModel::XeonGold6148,
                dimms: DimmConfig::new(12, 16),
                gpu_model: GpuModel::TeslaP100Pcie16,
                interconnect_label: "PCIe",
                topology: t,
            }
        }
    }
}

/// Fully connect a set of GPUs with NVLink (the C4140 SXM2 mesh).
fn nvlink_mesh(t: &mut Topology, gpus: &[crate::topology::NodeId]) {
    for (i, &a) in gpus.iter().enumerate() {
        for &b in &gpus[i + 1..] {
            t.connect(
                a,
                b,
                Link::NvLink {
                    lanes: C4140_NVLINK_LANES_PER_PAIR,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::P2pClass;

    #[test]
    fn all_platforms_build() {
        for id in SystemId::ALL {
            let spec = id.spec();
            assert_eq!(spec.id(), id);
            assert!(spec.gpu_count() >= 1);
            assert!(spec.cpu_count() >= 1);
        }
    }

    #[test]
    fn gpu_counts_match_table_iii() {
        assert_eq!(SystemId::T640.spec().gpu_count(), 4);
        assert_eq!(SystemId::C4140B.spec().gpu_count(), 4);
        assert_eq!(SystemId::C4140K.spec().gpu_count(), 4);
        assert_eq!(SystemId::C4140M.spec().gpu_count(), 4);
        assert_eq!(SystemId::R940Xa.spec().gpu_count(), 4);
        assert_eq!(SystemId::Dss8440.spec().gpu_count(), 8);
        assert_eq!(SystemId::ReferenceP100.spec().gpu_count(), 1);
    }

    #[test]
    fn dram_capacities_match_table_iii() {
        assert_eq!(SystemId::T640.spec().dram_capacity(), Bytes::from_gib(192));
        assert_eq!(
            SystemId::C4140M.spec().dram_capacity(),
            Bytes::from_gib(384)
        );
        assert_eq!(
            SystemId::Dss8440.spec().dram_capacity(),
            Bytes::from_gib(384)
        );
    }

    #[test]
    fn dss8440_uses_6142() {
        assert_eq!(SystemId::Dss8440.spec().cpu_model(), CpuModel::XeonGold6142);
        assert_eq!(SystemId::T640.spec().cpu_model(), CpuModel::XeonGold6148);
    }

    #[test]
    fn nvlink_systems_have_nvlink_peer_paths() {
        for id in [SystemId::C4140K, SystemId::C4140M] {
            let spec = id.spec();
            for a in 0..4u32 {
                for b in (a + 1)..4 {
                    let p = spec.topology().gpu_peer_path(a, b).unwrap();
                    assert_eq!(p.class, P2pClass::NvLinkDirect, "{id} {a}-{b}");
                }
            }
        }
    }

    #[test]
    fn c4140b_is_switch_p2p() {
        let spec = SystemId::C4140B.spec();
        let p = spec.topology().gpu_peer_path(0, 3).unwrap();
        assert_eq!(p.class, P2pClass::PcieSwitchP2p);
    }

    #[test]
    fn t640_cross_socket_pairs_cross_upi() {
        let spec = SystemId::T640.spec();
        let same = spec.topology().gpu_peer_path(0, 1).unwrap();
        let cross = spec.topology().gpu_peer_path(0, 2).unwrap();
        assert_eq!(same.class, P2pClass::ThroughCpu);
        assert_eq!(cross.class, P2pClass::ThroughUpi);
    }

    #[test]
    fn r940xa_every_pair_crosses_upi() {
        let spec = SystemId::R940Xa.spec();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                let p = spec.topology().gpu_peer_path(a, b).unwrap();
                assert_eq!(p.class, P2pClass::ThroughUpi, "{a}-{b}");
            }
        }
    }

    #[test]
    fn dss8440_same_switch_p2p_cross_switch_upi() {
        let spec = SystemId::Dss8440.spec();
        let same = spec.topology().gpu_peer_path(0, 3).unwrap();
        let cross = spec.topology().gpu_peer_path(0, 4).unwrap();
        assert_eq!(same.class, P2pClass::PcieSwitchP2p);
        assert_eq!(cross.class, P2pClass::ThroughUpi);
    }

    #[test]
    fn four_gpu_platform_list_excludes_dss_and_reference() {
        for id in SystemId::FOUR_GPU_PLATFORMS {
            assert_eq!(id.spec().gpu_count(), 4);
        }
    }

    #[test]
    fn worst_path_ordering_across_fig5_platforms() {
        // The Fig. 5 result hierarchy: NVLink platforms have the best worst
        // path, the switch platform next, the CPU/UPI platforms worst.
        let class_of = |id: SystemId| {
            id.spec()
                .topology()
                .worst_peer_path(&[0, 1, 2, 3])
                .unwrap()
                .class
        };
        assert_eq!(class_of(SystemId::C4140M), P2pClass::NvLinkDirect);
        assert_eq!(class_of(SystemId::C4140K), P2pClass::NvLinkDirect);
        assert_eq!(class_of(SystemId::C4140B), P2pClass::PcieSwitchP2p);
        assert_eq!(class_of(SystemId::T640), P2pClass::ThroughUpi);
        assert_eq!(class_of(SystemId::R940Xa), P2pClass::ThroughUpi);
    }

    #[test]
    fn dgx1v_cube_mesh_properties() {
        let spec = SystemId::Dgx1V.spec();
        assert_eq!(spec.gpu_count(), 8);
        // Directly-linked pairs are NVLink P2P; 0-1 is the doubled pair.
        let p01 = spec.topology().gpu_peer_path(0, 1).unwrap();
        assert_eq!(p01.class, P2pClass::NvLinkDirect);
        let p02 = spec.topology().gpu_peer_path(0, 2).unwrap();
        assert!(p01.bandwidth.as_bytes_per_sec() > p02.bandwidth.as_bytes_per_sec());
        // 0-5 has no direct brick: it relays over an NVLink neighbour
        // without touching a CPU.
        let p05 = spec.topology().gpu_peer_path(0, 5).unwrap();
        assert_ne!(p05.class, P2pClass::NvLinkDirect);
        assert!(p05.class.supports_p2p(), "relay path avoids the CPUs");
        assert_eq!(p05.path.hops(), 2);
        // The 8-GPU worst path stays P2P-capable: a single NCCL domain.
        let worst = spec
            .topology()
            .worst_peer_path(&(0..8).collect::<Vec<_>>())
            .unwrap();
        assert!(worst.class.supports_p2p());
        // Excluded from the paper's platform list.
        assert!(!SystemId::ALL.contains(&SystemId::Dgx1V));
    }

    #[test]
    fn reference_machine_is_single_p100() {
        let spec = SystemId::ReferenceP100.spec();
        assert_eq!(spec.gpu_model(), GpuModel::TeslaP100Pcie16);
        assert_eq!(spec.gpu_count(), 1);
    }

    #[test]
    fn display_summarizes_platform() {
        let s = SystemId::C4140K.spec().to_string();
        assert!(s.contains("C4140 (K)") && s.contains("NVLink"));
    }
}
