//! System interconnect topology graphs.
//!
//! A [`Topology`] is a small undirected graph whose nodes are CPU sockets,
//! GPUs, and PCIe switches, and whose edges are [`Link`]s. Section V-E of the
//! paper shows that the decisive property of a platform is *how* two GPUs can
//! reach each other: over NVLink, over a shared PCIe switch (GPUDirect P2P in
//! a single root complex), or only through a CPU — possibly crossing a UPI
//! socket boundary. [`Topology::gpu_peer_path`] classifies exactly that.
//!
//! # Examples
//!
//! ```
//! use mlperf_hw::topology::{Topology, P2pClass};
//! use mlperf_hw::gpu::GpuModel;
//! use mlperf_hw::interconnect::Link;
//!
//! let mut t = Topology::new("toy");
//! let cpu = t.add_cpu();
//! let sw = t.add_switch();
//! let g0 = t.add_gpu(GpuModel::TeslaV100Pcie16);
//! let g1 = t.add_gpu(GpuModel::TeslaV100Pcie16);
//! t.connect(cpu, sw, Link::PCIE3_X16);
//! t.connect(sw, g0, Link::PCIE3_X16);
//! t.connect(sw, g1, Link::PCIE3_X16);
//! let path = t.gpu_peer_path(0, 1).unwrap();
//! assert_eq!(path.class, P2pClass::PcieSwitchP2p);
//! ```

use crate::gpu::GpuModel;
use crate::interconnect::Link;
use crate::units::{Bandwidth, Seconds};
use std::collections::VecDeque;
use std::fmt;
use std::sync::OnceLock;

/// Opaque handle to a node inside one [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// The raw index (valid only within the owning topology).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A vertex of the topology graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    /// A CPU socket.
    Cpu,
    /// A GPU accelerator.
    Gpu {
        /// GPU SKU.
        model: GpuModel,
    },
    /// A PCIe switch (e.g. a PLX 96-lane part).
    PcieSwitch,
}

impl Node {
    /// Whether this node is a CPU socket.
    fn is_cpu(&self) -> bool {
        matches!(self, Node::Cpu)
    }
}

/// How a pair of GPUs reaches each other — the property §V-E shows drives
/// multi-GPU training time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum P2pClass {
    /// Dedicated NVLink connection (GPUDirect P2P at NVLink speed).
    NvLinkDirect,
    /// Same PCIe root complex through a switch: GPUDirect P2P at PCIe speed
    /// without touching host memory.
    PcieSwitchP2p,
    /// Data must bounce through a CPU's root ports and host memory.
    ThroughCpu,
    /// Data must additionally cross the UPI socket interconnect.
    ThroughUpi,
}

impl P2pClass {
    /// Whether this path supports GPUDirect peer-to-peer access.
    pub fn supports_p2p(self) -> bool {
        matches!(self, P2pClass::NvLinkDirect | P2pClass::PcieSwitchP2p)
    }
}

impl fmt::Display for P2pClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            P2pClass::NvLinkDirect => "NVLink P2P",
            P2pClass::PcieSwitchP2p => "PCIe-switch P2P",
            P2pClass::ThroughCpu => "through CPU",
            P2pClass::ThroughUpi => "through CPU + UPI",
        };
        f.write_str(s)
    }
}

/// A resolved route between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Node sequence from source to destination (inclusive).
    pub nodes: Vec<NodeId>,
    /// Links traversed, `nodes.len() - 1` of them.
    pub links: Vec<Link>,
}

impl Path {
    /// Bottleneck effective bandwidth along the route.
    ///
    /// # Panics
    ///
    /// Panics if the path has no links (source == destination).
    pub fn bottleneck_bandwidth(&self) -> Bandwidth {
        assert!(!self.links.is_empty(), "degenerate path has no bandwidth");
        self.links
            .iter()
            .map(|l| l.effective_bandwidth())
            .fold(Bandwidth::new(f64::MAX / 2.0), Bandwidth::min)
    }

    /// Accumulated one-way latency along the route.
    pub fn latency(&self) -> Seconds {
        self.links.iter().map(|l| l.latency()).sum()
    }

    /// Number of hops (edges) in the route.
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// A GPU-to-GPU route together with its P2P classification.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerPath {
    /// The classification (§V-E).
    pub class: P2pClass,
    /// Bottleneck effective bandwidth of the route.
    pub bandwidth: Bandwidth,
    /// One-way latency of the route.
    pub latency: Seconds,
    /// The underlying route.
    pub path: Path,
}

impl PeerPath {
    /// Whether this path ranks below `other` for a collective: a slower
    /// class, or the same class at lower bandwidth (compared in whole
    /// bytes per second).
    pub fn is_worse_than(&self, other: &PeerPath) -> bool {
        let rank = |p: &PeerPath| {
            (
                p.class,
                std::cmp::Reverse(p.bandwidth.as_bytes_per_sec() as u64),
            )
        };
        rank(self) > rank(other)
    }
}

/// Errors raised by topology queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The requested GPU ordinal does not exist.
    NoSuchGpu(u32),
    /// Two nodes are not connected by any sequence of links.
    Disconnected(NodeId, NodeId),
    /// The topology contains no CPU node.
    NoCpu,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoSuchGpu(i) => write!(f, "no GPU with ordinal {i}"),
            TopologyError::Disconnected(a, b) => {
                write!(f, "nodes {} and {} are disconnected", a.0, b.0)
            }
            TopologyError::NoCpu => f.write_str("topology has no CPU node"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Every GPU's host path and every ordered GPU pair's peer path, routed
/// together on the first query (see [`Topology::gpu_peer_path`]).
#[derive(Clone)]
struct RouteTable {
    /// Indexed by GPU ordinal.
    host: Vec<Result<Path, TopologyError>>,
    /// Indexed by [`RouteTable::slot`]: one entry per ordered pair of
    /// distinct GPUs.
    peer: Vec<Result<PeerPath, TopologyError>>,
}

impl RouteTable {
    /// Where the ordered pair `(a, b)`, `a != b`, lives in `peer` on a
    /// chassis of `n` GPUs: row `a`, with the diagonal left out.
    fn slot(n: usize, a: usize, b: usize) -> usize {
        a * (n - 1) + if b < a { b } else { b - 1 }
    }
}

/// The lazily filled [`RouteTable`]. A function of the graph alone, so it
/// clones with the topology, is cleared by every edit, is invisible to
/// equality, and shows in `Debug` only as filled or not.
#[derive(Clone, Default)]
struct Routes(OnceLock<RouteTable>);

impl PartialEq for Routes {
    fn eq(&self, _: &Routes) -> bool {
        true
    }
}

impl fmt::Debug for Routes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Routes")
            .field("filled", &self.0.get().is_some())
            .finish()
    }
}

/// An undirected interconnect graph for one server chassis.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    nodes: Vec<Node>,
    /// Adjacency: for each node, `(neighbor, link)` pairs.
    adjacency: Vec<Vec<(NodeId, Link)>>,
    gpu_nodes: Vec<NodeId>,
    cpu_nodes: Vec<NodeId>,
    routes: Routes,
}

impl Topology {
    /// Create an empty topology with a descriptive name.
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            nodes: Vec::new(),
            adjacency: Vec::new(),
            gpu_nodes: Vec::new(),
            cpu_nodes: Vec::new(),
            routes: Routes::default(),
        }
    }

    /// The descriptive name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        self.routes = Routes::default();
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        self.adjacency.push(Vec::new());
        id
    }

    /// Add a CPU socket; sockets are numbered in insertion order.
    pub fn add_cpu(&mut self) -> NodeId {
        let id = self.push_node(Node::Cpu);
        self.cpu_nodes.push(id);
        id
    }

    /// Add a GPU; GPUs are numbered in insertion order.
    pub fn add_gpu(&mut self, model: GpuModel) -> NodeId {
        let id = self.push_node(Node::Gpu { model });
        self.gpu_nodes.push(id);
        id
    }

    /// Add a PCIe switch.
    pub fn add_switch(&mut self) -> NodeId {
        self.push_node(Node::PcieSwitch)
    }

    /// Connect two nodes with a link (undirected).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or `a == b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, link: Link) {
        assert!(
            a.0 < self.nodes.len() && b.0 < self.nodes.len(),
            "node id out of range"
        );
        assert_ne!(a, b, "self-loops are not meaningful");
        self.routes = Routes::default();
        self.adjacency[a.0].push((b, link));
        self.adjacency[b.0].push((a, link));
    }

    /// Number of GPUs in the chassis.
    pub fn gpu_count(&self) -> usize {
        self.gpu_nodes.len()
    }

    /// Number of CPU sockets in the chassis.
    pub fn cpu_count(&self) -> usize {
        self.cpu_nodes.len()
    }

    /// Node ids of all GPUs, in ordinal order.
    pub fn gpus(&self) -> &[NodeId] {
        &self.gpu_nodes
    }

    /// Node ids of all CPU sockets, in socket order.
    pub fn cpus(&self) -> &[NodeId] {
        &self.cpu_nodes
    }

    /// The GPU model of ordinal `gpu` (errors if out of range).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoSuchGpu`] for an unknown ordinal.
    pub fn gpu_model(&self, gpu: u32) -> Result<GpuModel, TopologyError> {
        let id = *self
            .gpu_nodes
            .get(gpu as usize)
            .ok_or(TopologyError::NoSuchGpu(gpu))?;
        match self.nodes[id.0] {
            Node::Gpu { model } => Ok(model),
            _ => unreachable!("gpu_nodes only holds GPU nodes"),
        }
    }

    /// Breadth-first min-hop route between two nodes, preferring (among
    /// equal-hop routes) the one discovered first in insertion order.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Disconnected`] if no route exists.
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<Path, TopologyError> {
        if from == to {
            return Ok(Path {
                nodes: vec![from],
                links: Vec::new(),
            });
        }
        let mut prev: Vec<Option<(NodeId, Link)>> = vec![None; self.nodes.len()];
        let mut visited = vec![false; self.nodes.len()];
        let mut queue = VecDeque::new();
        visited[from.0] = true;
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                break;
            }
            for &(next, link) in &self.adjacency[cur.0] {
                if !visited[next.0] {
                    visited[next.0] = true;
                    prev[next.0] = Some((cur, link));
                    queue.push_back(next);
                }
            }
        }
        if !visited[to.0] {
            return Err(TopologyError::Disconnected(from, to));
        }
        let mut nodes = vec![to];
        let mut links = Vec::new();
        let mut cur = to;
        while let Some((p, link)) = prev[cur.0] {
            nodes.push(p);
            links.push(link);
            cur = p;
        }
        nodes.reverse();
        links.reverse();
        Ok(Path { nodes, links })
    }

    /// Route and classify the path between two GPUs (by ordinal).
    ///
    /// Classification rules, in priority order:
    /// 1. a direct NVLink edge ⇒ [`P2pClass::NvLinkDirect`];
    /// 2. a min-hop route touching no CPU ⇒ [`P2pClass::PcieSwitchP2p`];
    /// 3. a route crossing a UPI link ⇒ [`P2pClass::ThroughUpi`];
    /// 4. otherwise ⇒ [`P2pClass::ThroughCpu`].
    ///
    /// The first host- or peer-path query routes every GPU of the chassis
    /// once; later queries read that table until the graph is edited.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoSuchGpu`] for unknown ordinals and
    /// [`TopologyError::Disconnected`] when no route exists.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn gpu_peer_path(&self, a: u32, b: u32) -> Result<&PeerPath, TopologyError> {
        let n = self.gpu_nodes.len();
        for g in [a, b] {
            if g as usize >= n {
                return Err(TopologyError::NoSuchGpu(g));
            }
        }
        assert_ne!(a, b, "peer path between a GPU and itself is meaningless");
        self.routes().peer[RouteTable::slot(n, a as usize, b as usize)]
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The host route for a GPU: min-hop path to the nearest CPU socket.
    /// This is the road the input pipeline's H2D copies travel. Read from
    /// the same table as [`Topology::gpu_peer_path`].
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoSuchGpu`], [`TopologyError::NoCpu`], or
    /// [`TopologyError::Disconnected`] as appropriate.
    pub fn gpu_host_path(&self, gpu: u32) -> Result<&Path, TopologyError> {
        if gpu as usize >= self.gpu_nodes.len() {
            return Err(TopologyError::NoSuchGpu(gpu));
        }
        self.routes().host[gpu as usize]
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The route table, filled on first use.
    fn routes(&self) -> &RouteTable {
        self.routes.0.get_or_init(|| {
            let gpus = &self.gpu_nodes;
            RouteTable {
                host: gpus.iter().map(|&g| self.host_route(g)).collect(),
                peer: gpus
                    .iter()
                    .flat_map(|&a| {
                        gpus.iter()
                            .filter(move |&&b| b != a)
                            .map(move |&b| self.peer_route(a, b))
                    })
                    .collect(),
            }
        })
    }

    /// Classify the route between two distinct GPU nodes (the rules of
    /// [`Topology::gpu_peer_path`]).
    fn peer_route(&self, na: NodeId, nb: NodeId) -> Result<PeerPath, TopologyError> {
        // Rule 1: direct NVLink edge.
        if let Some(&(_, link)) = self.adjacency[na.0]
            .iter()
            .find(|(n, l)| *n == nb && matches!(l, Link::NvLink { .. }))
        {
            let path = Path {
                nodes: vec![na, nb],
                links: vec![link],
            };
            return Ok(PeerPath {
                class: P2pClass::NvLinkDirect,
                bandwidth: path.bottleneck_bandwidth(),
                latency: path.latency(),
                path,
            });
        }

        let path = self.route(na, nb)?;
        let touches_cpu = path.nodes.iter().any(|&n| self.nodes[n.0].is_cpu());
        let crosses_upi = path.links.iter().any(|l| matches!(l, Link::Upi { .. }));
        let class = if !touches_cpu {
            P2pClass::PcieSwitchP2p
        } else if crosses_upi {
            P2pClass::ThroughUpi
        } else {
            P2pClass::ThroughCpu
        };
        Ok(PeerPath {
            class,
            bandwidth: path.bottleneck_bandwidth(),
            latency: path.latency(),
            path,
        })
    }

    /// The min-hop route from a GPU node to its nearest CPU socket (the
    /// first in socket order among equals).
    fn host_route(&self, g: NodeId) -> Result<Path, TopologyError> {
        if self.cpu_nodes.is_empty() {
            return Err(TopologyError::NoCpu);
        }
        let mut best: Option<Path> = None;
        for &cpu in &self.cpu_nodes {
            if let Ok(p) = self.route(g, cpu) {
                let better = match &best {
                    None => true,
                    Some(b) => p.hops() < b.hops(),
                };
                if better {
                    best = Some(p);
                }
            }
        }
        best.ok_or(TopologyError::Disconnected(g, self.cpu_nodes[0]))
    }

    /// The worst (slowest-class, then lowest-bandwidth) peer path over all
    /// GPU pairs in a set — the link a ring all-reduce must cross.
    ///
    /// # Errors
    ///
    /// Propagates routing errors; errors if `gpus` has fewer than 2 entries.
    pub fn worst_peer_path(&self, gpus: &[u32]) -> Result<&PeerPath, TopologyError> {
        assert!(gpus.len() >= 2, "need at least two GPUs for a peer path");
        let mut worst: Option<&PeerPath> = None;
        for (i, &a) in gpus.iter().enumerate() {
            for &b in &gpus[i + 1..] {
                let p = self.gpu_peer_path(a, b)?;
                if worst.is_none_or(|w| p.is_worse_than(w)) {
                    worst = Some(p);
                }
            }
        }
        Ok(worst.expect("loop ran at least once"))
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} CPUs, {} GPUs)",
            self.name,
            self.cpu_count(),
            self.gpu_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two GPUs behind one switch behind one CPU.
    fn switch_topology() -> Topology {
        let mut t = Topology::new("switch");
        let cpu = t.add_cpu();
        let sw = t.add_switch();
        let g0 = t.add_gpu(GpuModel::TeslaV100Pcie16);
        let g1 = t.add_gpu(GpuModel::TeslaV100Pcie16);
        t.connect(cpu, sw, Link::PCIE3_X16);
        t.connect(sw, g0, Link::PCIE3_X16);
        t.connect(sw, g1, Link::PCIE3_X16);
        t
    }

    /// Two sockets, one GPU each, joined by UPI.
    fn upi_topology() -> Topology {
        let mut t = Topology::new("upi");
        let c0 = t.add_cpu();
        let c1 = t.add_cpu();
        let g0 = t.add_gpu(GpuModel::TeslaV100Pcie32);
        let g1 = t.add_gpu(GpuModel::TeslaV100Pcie32);
        t.connect(c0, c1, Link::UPI_X1);
        t.connect(c0, g0, Link::PCIE3_X16);
        t.connect(c1, g1, Link::PCIE3_X16);
        t
    }

    #[test]
    fn switch_path_is_p2p_without_cpu() {
        let t = switch_topology();
        let p = t.gpu_peer_path(0, 1).unwrap();
        assert_eq!(p.class, P2pClass::PcieSwitchP2p);
        assert!(p.class.supports_p2p());
        assert_eq!(p.path.hops(), 2);
    }

    #[test]
    fn upi_path_classified_and_bottlenecked() {
        let t = upi_topology();
        let p = t.gpu_peer_path(0, 1).unwrap();
        assert_eq!(p.class, P2pClass::ThroughUpi);
        assert!(!p.class.supports_p2p());
        // Bottleneck is the PCIe x16 (13.4 GB/s eff) vs UPI (16.6 GB/s eff).
        let pcie_eff = Link::PCIE3_X16.effective_bandwidth().as_bytes_per_sec();
        assert!((p.bandwidth.as_bytes_per_sec() - pcie_eff).abs() < 1.0);
    }

    #[test]
    fn nvlink_edge_wins_over_pcie_route() {
        let mut t = switch_topology();
        let g0 = t.gpus()[0];
        let g1 = t.gpus()[1];
        t.connect(g0, g1, Link::NvLink { lanes: 2 });
        let p = t.gpu_peer_path(0, 1).unwrap();
        assert_eq!(p.class, P2pClass::NvLinkDirect);
        assert!((p.bandwidth.as_gb_per_sec() - 45.0).abs() < 1e-6); // 50 * 0.9
        assert_eq!(p.path.hops(), 1);
    }

    #[test]
    fn same_socket_pcie_is_through_cpu() {
        let mut t = Topology::new("t");
        let c = t.add_cpu();
        let g0 = t.add_gpu(GpuModel::TeslaV100Pcie16);
        let g1 = t.add_gpu(GpuModel::TeslaV100Pcie16);
        t.connect(c, g0, Link::PCIE3_X16);
        t.connect(c, g1, Link::PCIE3_X16);
        let p = t.gpu_peer_path(0, 1).unwrap();
        assert_eq!(p.class, P2pClass::ThroughCpu);
    }

    #[test]
    fn host_path_finds_nearest_cpu() {
        let t = switch_topology();
        let p = t.gpu_host_path(1).unwrap();
        assert_eq!(p.hops(), 2); // gpu -> switch -> cpu
        let t2 = upi_topology();
        assert_eq!(t2.gpu_host_path(0).unwrap().hops(), 1);
    }

    #[test]
    fn route_to_self_is_degenerate() {
        let t = switch_topology();
        let g = t.gpus()[0];
        let p = t.route(g, g).unwrap();
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn disconnected_nodes_error() {
        let mut t = Topology::new("parts");
        let c = t.add_cpu();
        let g = t.add_gpu(GpuModel::TeslaV100Pcie16);
        // no edge between them
        assert_eq!(t.route(c, g), Err(TopologyError::Disconnected(c, g)));
    }

    #[test]
    fn unknown_gpu_ordinal_errors() {
        let t = switch_topology();
        assert!(matches!(
            t.gpu_peer_path(0, 9),
            Err(TopologyError::NoSuchGpu(9))
        ));
        assert!(matches!(
            t.gpu_host_path(7),
            Err(TopologyError::NoSuchGpu(7))
        ));
        assert!(matches!(t.gpu_model(5), Err(TopologyError::NoSuchGpu(5))));
    }

    #[test]
    fn worst_peer_path_picks_slowest_class() {
        // 4 GPUs: 0-1 NVLink'd, 2-3 NVLink'd, pairs bridged only through CPU.
        let mut t = Topology::new("mixed");
        let c = t.add_cpu();
        let gpus: Vec<_> = (0..4)
            .map(|_| t.add_gpu(GpuModel::TeslaV100Sxm2_16))
            .collect();
        for &g in &gpus {
            t.connect(c, g, Link::PCIE3_X16);
        }
        t.connect(gpus[0], gpus[1], Link::NvLink { lanes: 2 });
        t.connect(gpus[2], gpus[3], Link::NvLink { lanes: 2 });
        let worst = t.worst_peer_path(&[0, 1, 2, 3]).unwrap();
        assert_eq!(worst.class, P2pClass::ThroughCpu);
        let best_subset = t.worst_peer_path(&[0, 1]).unwrap();
        assert_eq!(best_subset.class, P2pClass::NvLinkDirect);
    }

    type AllRoutes = (
        Vec<Result<Path, TopologyError>>,
        Vec<Result<PeerPath, TopologyError>>,
    );

    /// Every host path and every ordered peer path of `t`, each in ordinal
    /// order. `backwards` queries the peers first and walks both lists in
    /// reverse, so the table is filled from the other end.
    fn all_routes(t: &Topology, backwards: bool) -> AllRoutes {
        let n = t.gpu_count() as u32;
        let hosts: Vec<u32> = (0..n).collect();
        let pairs: Vec<(u32, u32)> = (0..n)
            .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
            .collect();
        let host = |&g: &u32| t.gpu_host_path(g).cloned();
        let peer = |&(a, b): &(u32, u32)| t.gpu_peer_path(a, b).cloned();
        if backwards {
            let mut peers: Vec<_> = pairs.iter().rev().map(peer).collect();
            let mut hosts: Vec<_> = hosts.iter().rev().map(host).collect();
            peers.reverse();
            hosts.reverse();
            (hosts, peers)
        } else {
            (
                hosts.iter().map(host).collect(),
                pairs.iter().map(peer).collect(),
            )
        }
    }

    #[test]
    fn route_table_is_independent_of_query_order_and_survives_clones() {
        use crate::systems::SystemId;
        let every = [
            SystemId::T640,
            SystemId::C4140B,
            SystemId::C4140K,
            SystemId::C4140M,
            SystemId::R940Xa,
            SystemId::Dss8440,
            SystemId::ReferenceP100,
            SystemId::Dgx1V,
        ];
        for id in every {
            let spec = id.spec();
            let fresh = spec.topology();
            let ascending = all_routes(&fresh.clone(), false);
            let queried = fresh.clone();
            let descending = all_routes(&queried, true);
            assert_eq!(ascending, descending, "{id:?}: query order changed a route");
            assert_eq!(
                all_routes(&queried.clone(), false),
                ascending,
                "{id:?}: filled clone"
            );
            assert_eq!(all_routes(fresh, true), ascending, "{id:?}: empty original");
            assert_eq!(&queried, fresh, "{id:?}: the table is not part of equality");
            let n = fresh.gpu_count();
            assert_eq!((ascending.0.len(), ascending.1.len()), (n, n * (n - 1)));
            assert!(ascending.0.iter().all(Result::is_ok), "{id:?}: host paths");
            assert!(ascending.1.iter().all(Result::is_ok), "{id:?}: peer paths");
        }
    }

    #[test]
    fn edits_clear_the_route_table() {
        let mut t = switch_topology();
        assert_eq!(
            t.gpu_peer_path(0, 1).unwrap().class,
            P2pClass::PcieSwitchP2p
        );
        assert_eq!(t.gpu_host_path(0).unwrap().hops(), 2);
        let (g0, g1) = (t.gpus()[0], t.gpus()[1]);
        t.connect(g0, g1, Link::NvLink { lanes: 2 });
        assert_eq!(t.gpu_peer_path(0, 1).unwrap().class, P2pClass::NvLinkDirect);
        // A GPU added after a query is routed on the next one.
        let cpu = t.cpus()[0];
        let g2 = t.add_gpu(GpuModel::TeslaV100Pcie16);
        assert_eq!(
            t.gpu_host_path(2),
            Err(TopologyError::Disconnected(g2, cpu))
        );
        t.connect(cpu, g2, Link::PCIE3_X16);
        assert_eq!(t.gpu_host_path(2).unwrap().hops(), 1);
        assert_eq!(t.gpu_peer_path(2, 0).unwrap().class, P2pClass::ThroughCpu);
    }

    #[test]
    fn gpu_model_lookup() {
        let t = upi_topology();
        assert_eq!(t.gpu_model(0).unwrap(), GpuModel::TeslaV100Pcie32);
    }

    #[test]
    fn display_mentions_counts() {
        let t = switch_topology();
        assert_eq!(t.to_string(), "switch (1 CPUs, 2 GPUs)");
    }
}
