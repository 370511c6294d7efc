//! Gradient all-reduce cost models.
//!
//! Synchronous data-parallel training ends every step with an all-reduce of
//! the gradient vector. NCCL's ring algorithm moves `2·(N−1)/N · B` bytes
//! through every GPU; its speed is set by the *worst* GPU-to-GPU path in the
//! ring — which is exactly how the paper's topology hierarchy (NVLink >
//! PCIe-switch P2P > through-CPU > through-UPI, §V-E) turns into training
//! time. Tree, naive and parameter-server exchange are the baselines of the
//! all-reduce ablation (`TrainingJob::with_allreduce`).

use mlperf_hw::topology::{P2pClass, PeerPath};
use mlperf_hw::units::{Bytes, Seconds};
use std::fmt;

/// The collective algorithm reducing gradients across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllReduceAlgorithm {
    /// Bandwidth-optimal ring (NCCL's default at these scales).
    #[default]
    Ring,
    /// Binary-tree reduce + broadcast (latency-optimal for small payloads).
    Tree,
    /// Gather-to-root then broadcast (the strawman baseline).
    Naive,
    /// Parameter-server exchange: every worker pushes its gradient to host
    /// memory and pulls fresh weights back — 2018-era TensorFlow's default
    /// distribution strategy, which never touches NVLink.
    ParameterServer,
}

impl fmt::Display for AllReduceAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AllReduceAlgorithm::Ring => "ring",
            AllReduceAlgorithm::Tree => "tree",
            AllReduceAlgorithm::Naive => "naive",
            AllReduceAlgorithm::ParameterServer => "parameter-server",
        };
        f.write_str(s)
    }
}

/// How many concurrent ring transfers contend for the bottleneck medium of
/// a peer path of the given class with `n` participants.
///
/// NVLink pairs own dedicated bricks and PCIe switches are internally
/// non-blocking for disjoint pairs. Without GPUDirect P2P the transfer must
/// *stage through host memory* (a device-to-host copy then host-to-device:
/// each byte crosses PCIe twice), and concurrent ring transfers additionally
/// share the root complex — a combined factor of ~4 on the effective
/// bandwidth of through-CPU/UPI paths.
fn contention_factor(class: P2pClass, n: u64) -> f64 {
    match class {
        P2pClass::NvLinkDirect | P2pClass::PcieSwitchP2p => 1.0,
        P2pClass::ThroughCpu => 4.0_f64.min(2.0 * n as f64),
        P2pClass::ThroughUpi => 4.0_f64.min(2.0 * n as f64),
    }
}

/// Time for one all-reduce of `bytes` across `n` GPUs whose worst pair is
/// `peer`.
///
/// Returns [`Seconds::ZERO`] for `n <= 1`.
///
/// # Examples
///
/// ```
/// use mlperf_hw::systems::SystemId;
/// use mlperf_hw::units::Bytes;
/// use mlperf_sim::allreduce::{allreduce_time, AllReduceAlgorithm};
///
/// let system = SystemId::C4140K.spec();
/// let peer = system.topology().worst_peer_path(&[0, 1, 2, 3])?;
/// let t = allreduce_time(AllReduceAlgorithm::Ring, Bytes::from_mib(100), 4, peer);
/// assert!(t.as_secs() > 0.0);
/// # Ok::<(), mlperf_hw::TopologyError>(())
/// ```
pub fn allreduce_time(alg: AllReduceAlgorithm, bytes: Bytes, n: u64, peer: &PeerPath) -> Seconds {
    if n <= 1 || bytes == Bytes::ZERO {
        return Seconds::ZERO;
    }
    let bw = peer.bandwidth.scale(1.0 / contention_factor(peer.class, n));
    let alpha = peer.latency;
    let nf = n as f64;
    match alg {
        AllReduceAlgorithm::Ring => {
            // 2(N-1) pipeline steps of B/N bytes each.
            let volume = bytes.scale(2.0 * (nf - 1.0) / nf);
            volume / bw + alpha.scale(2.0 * (nf - 1.0))
        }
        AllReduceAlgorithm::Tree => {
            let rounds = (64 - (n - 1).leading_zeros()) as f64; // ceil(log2 n)
            (bytes / bw).scale(2.0 * rounds) + alpha.scale(2.0 * rounds)
        }
        AllReduceAlgorithm::Naive => (bytes / bw).scale(2.0 * (nf - 1.0)) + alpha.scale(2.0),
        AllReduceAlgorithm::ParameterServer => {
            // All n workers push B and pull B through the shared host
            // memory path; the peer path's bandwidth stands in for the
            // per-worker host link here (plan_allreduce routes PS over the
            // true host path).
            (bytes / bw).scale(2.0 * nf) + alpha.scale(2.0)
        }
    }
}

/// Bytes each participant pushes onto the wire during a ring all-reduce —
/// the quantity the bus-utilization counters (Table V) integrate.
pub fn ring_wire_bytes_per_gpu(bytes: Bytes, n: u64) -> Bytes {
    if n <= 1 {
        return Bytes::ZERO;
    }
    bytes.scale(2.0 * (n as f64 - 1.0) / n as f64)
}

/// A topology-aware all-reduce plan: NCCL groups GPUs into GPUDirect-P2P
/// *domains* (an NVLink mesh, a PCIe-switch complex) and reduces
/// hierarchically — a ring inside each domain, then a shard exchange across
/// domains over the slow path, then an in-domain allgather. This is why an
/// 8-GPU DSS 8440 run does not pay the UPI price on its full gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectivePlan {
    /// Time for one all-reduce of the planned payload.
    pub time: Seconds,
    /// The slowest path class any byte crosses.
    pub worst_class: P2pClass,
    /// Wire bytes each GPU pushes (for the bus counters).
    pub wire_bytes_per_gpu: Bytes,
}

/// GPU sets up to this size plan on the stack; larger ones borrow one heap
/// buffer for the union-find and the domain counts.
const STACK_GPUS: usize = 64;

/// The union-find root of `x`, compressing the path to it.
fn find(parent: &mut [usize], x: usize) -> usize {
    if parent[x] != x {
        let root = find(parent, parent[x]);
        parent[x] = root;
    }
    parent[x]
}

/// Plan an all-reduce of `bytes` over the given GPU ordinals of a topology.
///
/// Allocation-free for up to 64 GPUs: the union-find and the domain counts
/// live in a stack array, and the GPU pairs are walked twice, once to merge
/// the P2P domains and once to classify each pair against them, so no pair
/// is kept.
///
/// # Errors
///
/// Propagates routing errors from the topology.
///
/// # Panics
///
/// Panics if fewer than two GPUs are given.
pub fn plan_allreduce(
    topo: &mlperf_hw::Topology,
    gpus: &[u32],
    alg: AllReduceAlgorithm,
    bytes: Bytes,
) -> Result<CollectivePlan, mlperf_hw::TopologyError> {
    assert!(gpus.len() >= 2, "collective needs at least two GPUs");
    let n = gpus.len() as u64;

    // Parameter-server exchange never runs GPU-to-GPU: every worker talks
    // to host memory over its own host path, contending at the root.
    if alg == AllReduceAlgorithm::ParameterServer {
        let mut worst_host = f64::INFINITY;
        let mut latency = Seconds::ZERO;
        for &g in gpus {
            let path = topo.gpu_host_path(g)?;
            worst_host = worst_host.min(path.bottleneck_bandwidth().as_bytes_per_sec());
            latency = latency.max(path.latency());
        }
        let per_worker = mlperf_hw::Bandwidth::new(worst_host / n as f64);
        let time = (bytes / per_worker).scale(2.0) + latency.scale(2.0);
        return Ok(CollectivePlan {
            time,
            worst_class: P2pClass::ThroughCpu,
            wire_bytes_per_gpu: bytes.scale(2.0),
        });
    }

    // Partition into P2P domains with union-find over pairwise paths:
    // `parent` holds the forest, `sizes` later counts each root's domain.
    let len = gpus.len();
    let mut stack = [0usize; 2 * STACK_GPUS];
    let mut heap = Vec::new();
    let scratch = if len <= STACK_GPUS {
        &mut stack[..2 * len]
    } else {
        heap.resize(2 * len, 0);
        &mut heap[..]
    };
    let (parent, sizes) = scratch.split_at_mut(len);
    for (i, p) in parent.iter_mut().enumerate() {
        *p = i;
    }
    for (i, &a) in gpus.iter().enumerate() {
        for (j, &b) in gpus.iter().enumerate().skip(i + 1) {
            if topo.gpu_peer_path(a, b)?.class.supports_p2p() {
                let (ra, rb) = (find(parent, i), find(parent, j));
                if ra != rb {
                    parent[ra] = rb;
                }
            }
        }
    }
    // Second walk, in the same pair order, against the final domains; on a
    // tie the earlier pair keeps the slot.
    let mut worst_intra: Option<&PeerPath> = None;
    let mut worst_inter: Option<&PeerPath> = None;
    for (i, &a) in gpus.iter().enumerate() {
        for (j, &b) in gpus.iter().enumerate().skip(i + 1) {
            let p = topo.gpu_peer_path(a, b)?;
            let slot = if find(parent, i) == find(parent, j) {
                &mut worst_intra
            } else {
                &mut worst_inter
            };
            if slot.is_none_or(|w| p.is_worse_than(w)) {
                *slot = Some(p);
            }
        }
    }

    let wire = ring_wire_bytes_per_gpu(bytes, n);
    match worst_inter {
        None => {
            // Single domain: flat collective.
            let peer = worst_intra.expect("n >= 2 implies at least one pair");
            Ok(CollectivePlan {
                time: allreduce_time(alg, bytes, n, peer),
                worst_class: peer.class,
                wire_bytes_per_gpu: wire,
            })
        }
        Some(inter) => {
            // Hierarchical: in-domain ring + cross-domain shard exchange.
            for i in 0..len {
                sizes[find(parent, i)] += 1;
            }
            let (mut groups, mut max_domain, mut min_domain) = (0u64, 0u64, u64::MAX);
            for &size in sizes.iter().filter(|&&s| s > 0) {
                groups += 1;
                max_domain = max_domain.max(size as u64);
                min_domain = min_domain.min(size as u64);
            }
            let intra_time = match (worst_intra, max_domain) {
                (Some(peer), k) if k > 1 => allreduce_time(alg, bytes, k, peer),
                _ => Seconds::ZERO,
            };
            // Each domain leader exchanges its 1/k shard across domains.
            let shard = bytes.scale(1.0 / min_domain.max(1) as f64);
            let inter_time = allreduce_time(alg, shard, groups, inter);
            Ok(CollectivePlan {
                time: intra_time + inter_time,
                worst_class: inter.class,
                wire_bytes_per_gpu: wire,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_hw::topology::Path;
    use mlperf_hw::units::Bandwidth;

    fn peer(class: P2pClass, gb_per_sec: f64) -> PeerPath {
        PeerPath {
            class,
            bandwidth: Bandwidth::from_gb_per_sec(gb_per_sec),
            latency: Seconds::from_micros(2.0),
            path: Path {
                nodes: Vec::new(),
                links: Vec::new(),
            },
        }
    }

    #[test]
    fn single_gpu_is_free() {
        let p = peer(P2pClass::NvLinkDirect, 45.0);
        for alg in [
            AllReduceAlgorithm::Ring,
            AllReduceAlgorithm::Tree,
            AllReduceAlgorithm::Naive,
        ] {
            assert_eq!(
                allreduce_time(alg, Bytes::from_mib(100), 1, &p),
                Seconds::ZERO
            );
        }
        assert_eq!(
            ring_wire_bytes_per_gpu(Bytes::from_mib(100), 1),
            Bytes::ZERO
        );
    }

    #[test]
    fn zero_bytes_are_free() {
        let p = peer(P2pClass::NvLinkDirect, 45.0);
        assert_eq!(
            allreduce_time(AllReduceAlgorithm::Ring, Bytes::ZERO, 4, &p),
            Seconds::ZERO
        );
    }

    #[test]
    fn ring_time_matches_alpha_beta_model() {
        let p = peer(P2pClass::NvLinkDirect, 50.0);
        let bytes = Bytes::from_gib(1);
        let t = allreduce_time(AllReduceAlgorithm::Ring, bytes, 4, &p);
        let expected = 2.0 * 3.0 / 4.0 * bytes.as_f64() / 50e9 + 6.0 * 2e-6;
        assert!((t.as_secs() - expected).abs() < 1e-9, "{t}");
    }

    #[test]
    fn nvlink_beats_pcie_beats_upi() {
        let bytes = Bytes::from_mib(400);
        let nv = allreduce_time(
            AllReduceAlgorithm::Ring,
            bytes,
            4,
            &peer(P2pClass::NvLinkDirect, 45.0),
        );
        let sw = allreduce_time(
            AllReduceAlgorithm::Ring,
            bytes,
            4,
            &peer(P2pClass::PcieSwitchP2p, 13.4),
        );
        let upi = allreduce_time(
            AllReduceAlgorithm::Ring,
            bytes,
            4,
            &peer(P2pClass::ThroughUpi, 13.4),
        );
        assert!(nv.as_secs() < sw.as_secs());
        assert!(
            sw.as_secs() < upi.as_secs(),
            "contention should slow UPI paths"
        );
    }

    #[test]
    fn ring_scales_gently_with_n() {
        let p = peer(P2pClass::NvLinkDirect, 45.0);
        let bytes = Bytes::from_mib(400);
        let t2 = allreduce_time(AllReduceAlgorithm::Ring, bytes, 2, &p);
        let t8 = allreduce_time(AllReduceAlgorithm::Ring, bytes, 8, &p);
        // Ring volume grows 2(N-1)/N: from 1.0x to 1.75x of B, not 4x.
        assert!(t8.as_secs() < 2.0 * t2.as_secs());
    }

    #[test]
    fn naive_is_worst_for_large_payloads() {
        let p = peer(P2pClass::PcieSwitchP2p, 13.0);
        let bytes = Bytes::from_mib(400);
        let ring = allreduce_time(AllReduceAlgorithm::Ring, bytes, 8, &p);
        let tree = allreduce_time(AllReduceAlgorithm::Tree, bytes, 8, &p);
        let naive = allreduce_time(AllReduceAlgorithm::Naive, bytes, 8, &p);
        assert!(ring.as_secs() < tree.as_secs());
        assert!(tree.as_secs() < naive.as_secs());
    }

    /// A 160 MiB ring all-reduce on a one-socket, 4-GPU box whose GPUs hang
    /// off the CPU on x4, x8 or x16 links: 300.8, 150.4 and 75.2 ms, each
    /// halving of the lanes doubling the time.
    #[test]
    fn ring_time_is_inverse_in_pcie_lanes() {
        use mlperf_hw::gpu::GpuModel;
        use mlperf_hw::interconnect::Link;
        use mlperf_hw::topology::Topology;
        let ms = |lanes: u32| {
            let mut t = Topology::new(format!("x{lanes}"));
            let cpu = t.add_cpu();
            for _ in 0..4 {
                let gpu = t.add_gpu(GpuModel::TeslaV100Pcie16);
                t.connect(cpu, gpu, Link::PcieGen3 { lanes });
            }
            let worst = t.worst_peer_path(&[0, 1, 2, 3]).expect("connected");
            allreduce_time(AllReduceAlgorithm::Ring, Bytes::from_mib(160), 4, worst).as_secs() * 1e3
        };
        let (x4, x8, x16) = (ms(4), ms(8), ms(16));
        for (got, want) in [(x4, 300.8), (x8, 150.4), (x16, 75.2)] {
            assert!((got - want).abs() < 0.05, "{got:.2} ms, want {want}");
        }
        for (narrow, wide) in [(x4, x8), (x8, x16)] {
            assert!((narrow / wide - 2.0).abs() < 0.02, "{narrow} vs {wide} ms");
        }
    }

    #[test]
    fn tree_wins_for_tiny_payloads() {
        let p = peer(P2pClass::NvLinkDirect, 45.0);
        let bytes = Bytes::from_kib(4);
        let ring = allreduce_time(AllReduceAlgorithm::Ring, bytes, 8, &p);
        let tree = allreduce_time(AllReduceAlgorithm::Tree, bytes, 8, &p);
        // 2*(N-1)=14 latency terms vs 2*log2(8)=6.
        assert!(tree.as_secs() < ring.as_secs());
    }

    #[test]
    fn parameter_server_avoids_nvlink_and_costs_more() {
        use crate::allreduce::plan_allreduce;
        let system = mlperf_hw::systems::SystemId::C4140K.spec();
        let grads = Bytes::from_mib(100);
        let gpus = [0u32, 1, 2, 3];
        let ring =
            plan_allreduce(system.topology(), &gpus, AllReduceAlgorithm::Ring, grads).unwrap();
        let ps = plan_allreduce(
            system.topology(),
            &gpus,
            AllReduceAlgorithm::ParameterServer,
            grads,
        )
        .unwrap();
        // PS traffic is classified to the host path: the NVLink counters
        // stay dark even on an NVLink machine (2018-era TF's Table V look).
        assert_eq!(ps.worst_class, P2pClass::ThroughCpu);
        assert_eq!(ring.worst_class, P2pClass::NvLinkDirect);
        assert!(ps.time.as_secs() > 3.0 * ring.time.as_secs());
    }

    #[test]
    fn wire_bytes_formula() {
        let b = Bytes::new(1000);
        assert_eq!(ring_wire_bytes_per_gpu(b, 2), Bytes::new(1000));
        assert_eq!(ring_wire_bytes_per_gpu(b, 4), Bytes::new(1500));
        assert_eq!(ring_wire_bytes_per_gpu(b, 8), Bytes::new(1750));
    }

    #[test]
    fn display_names() {
        assert_eq!(AllReduceAlgorithm::Ring.to_string(), "ring");
    }
}
