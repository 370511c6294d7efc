//! Property-based tests for the hardware substrate.

use mlperf_hw::gpu::{GpuModel, Precision};
use mlperf_hw::interconnect::Link;
use mlperf_hw::partition::{PartitionError, PartitionProfile, PartitionSpec};
use mlperf_hw::topology::Topology;
use mlperf_hw::units::{Bandwidth, Bytes, FlopRate, Flops, Seconds};
use mlperf_testkit::prop::*;

/// The Volta-class SKUs that accept MIG-style slicing (Pascal refuses).
const SLICEABLE: [GpuModel; 4] = [
    GpuModel::TeslaV100Sxm2_16,
    GpuModel::TeslaV100Sxm2_32,
    GpuModel::TeslaV100Pcie16,
    GpuModel::TeslaV100Pcie32,
];

/// Shared checker for `star_topology_routes`, so the pinned regression
/// case below re-runs exactly the property's logic.
fn check_star_topology(lane_choices: &[usize]) -> Result<(), String> {
    let widths = [4u32, 8, 16];
    let mut t = Topology::new("star");
    let cpu = t.add_cpu();
    let mut gpu_bw = Vec::new();
    for &c in lane_choices {
        let g = t.add_gpu(GpuModel::TeslaV100Pcie16);
        let link = Link::PcieGen3 { lanes: widths[c] };
        gpu_bw.push(link.effective_bandwidth().as_bytes_per_sec());
        t.connect(cpu, g, link);
    }
    let n = lane_choices.len() as u32;
    for a in 0..n {
        for b in (a + 1)..n {
            let p = t.gpu_peer_path(a, b).expect("star is connected");
            prop_assert_eq!(p.class, mlperf_hw::P2pClass::ThroughCpu);
            // The route's bottleneck is the slower of the two legs.
            let expect = gpu_bw[a as usize].min(gpu_bw[b as usize]);
            prop_assert!((p.bandwidth.as_bytes_per_sec() - expect).abs() < 1.0);
            prop_assert_eq!(p.path.hops(), 2);
        }
    }
    Ok(())
}

/// Pinned counterexample from the proptest era (the old
/// `properties.proptest-regressions` seed shrank to
/// `lane_choices = [0, 1, 1]`): mixed lane widths where the narrower leg
/// must win the bottleneck.
#[test]
fn regression_star_topology_lanes_0_1_1() {
    check_star_topology(&[0, 1, 1]).unwrap();
}

mlperf_testkit::properties! {
    /// Byte addition is associative and commutative.
    #[test]
    fn bytes_addition_laws(a in 0u64..1 << 40, b in 0u64..1 << 40, c in 0u64..1 << 40) {
        let (a, b, c) = (Bytes::new(a), Bytes::new(b), Bytes::new(c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    /// Scaling bytes by a factor then its inverse round-trips within 1 byte
    /// per unit of magnitude.
    #[test]
    fn bytes_scale_round_trip(raw in 1u64..1 << 40, factor in 0.01f64..100.0) {
        let b = Bytes::new(raw);
        let there = b.scale(factor);
        let back = there.scale(1.0 / factor);
        let tolerance = (factor.max(1.0 / factor)).ceil() as u64 + 1;
        prop_assert!(back.as_u64().abs_diff(raw) <= tolerance);
    }

    /// Transfer time is monotone: more bytes or less bandwidth never
    /// finishes sooner.
    #[test]
    fn transfer_time_monotone(
        small in 1u64..1 << 30,
        extra in 0u64..1 << 30,
        bw_gb in 0.1f64..500.0,
        bw_extra in 0.0f64..500.0
    ) {
        let slow = Bandwidth::from_gb_per_sec(bw_gb);
        let fast = Bandwidth::from_gb_per_sec(bw_gb + bw_extra);
        let less = Bytes::new(small);
        let more = Bytes::new(small + extra);
        prop_assert!((more / slow).as_secs() >= (less / slow).as_secs());
        prop_assert!((less / fast).as_secs() <= (less / slow).as_secs());
    }

    /// Rate-from-observation inverts transfer-time: (B / t) * t == B.
    #[test]
    fn rate_inverts_time(bytes in 1u64..1 << 40, secs in 0.001f64..1e6) {
        let b = Bytes::new(bytes);
        let t = Seconds::new(secs);
        let bw = b / t;
        let t2 = b / bw;
        prop_assert!((t2.as_secs() - secs).abs() / secs < 1e-9);
    }

    /// Compute time scales inversely with the rate.
    #[test]
    fn compute_time_scales(flops in 1u64..1 << 50, rate_gf in 0.001f64..200_000.0) {
        let f = Flops::new(flops);
        let r = FlopRate::from_gflops(rate_gf);
        let t1 = f / r;
        let t2 = f / r.scale(2.0);
        prop_assert!((t1.as_secs() / t2.as_secs() - 2.0).abs() < 1e-9);
    }

    /// Seconds::max/min agree with ordering.
    #[test]
    fn seconds_lattice(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let (x, y) = (Seconds::new(a), Seconds::new(b));
        prop_assert!(x.max(y).as_secs() >= x.min(y).as_secs());
        prop_assert_eq!(x.max(y).as_secs() + x.min(y).as_secs(), a + b);
    }

    /// PCIe bandwidth is linear in lane count.
    #[test]
    fn pcie_linear_in_lanes(lanes in 1u32..=16) {
        let one = Link::PcieGen3 { lanes: 1 }.theoretical_bandwidth().as_bytes_per_sec();
        let many = Link::PcieGen3 { lanes }.theoretical_bandwidth().as_bytes_per_sec();
        prop_assert!((many - one * lanes as f64).abs() < 1.0);
    }

    /// In any random star topology (GPUs hanging off one CPU), every
    /// GPU-GPU route exists, is classified through-CPU, and its bottleneck
    /// bandwidth never exceeds the narrowest attached link.
    #[test]
    fn star_topology_routes(lane_choices in vec_of(0usize..3, 2usize..6)) {
        check_star_topology(&lane_choices)?;
    }

    /// A partition slice never exceeds its parent device on any resource:
    /// SMs, HBM capacity, HBM bandwidth, NVLink lanes, and every
    /// per-precision compute ceiling.
    #[test]
    fn partition_slice_never_exceeds_parent(
        model_idx in 0usize..4,
        profile_idx in 0usize..3,
        tenants in 1u32..=7,
    ) {
        let parent = SLICEABLE[model_idx].spec();
        let profile = PartitionProfile::ALL[profile_idx];
        let tenants = tenants.min(profile.slice_count());
        let spec = PartitionSpec::new(profile, tenants).expect("in-range tenants");
        let slice = spec.sliced_spec(&parent).expect("V100-class slices");
        prop_assert!(slice.sm_count() >= 1);
        prop_assert!(slice.sm_count() <= parent.sm_count());
        prop_assert!(slice.hbm_capacity() <= parent.hbm_capacity());
        prop_assert!(
            slice.hbm_bandwidth().as_bytes_per_sec()
                <= parent.hbm_bandwidth().as_bytes_per_sec()
        );
        prop_assert!(slice.nvlink_lanes() <= parent.nvlink_lanes());
        for p in Precision::ALL {
            prop_assert!(
                slice.peak_flop_rate(p).as_flops_per_sec()
                    <= parent.peak_flop_rate(p).as_flops_per_sec()
            );
            prop_assert!(
                slice.empirical_flop_rate(p).as_flops_per_sec()
                    <= parent.empirical_flop_rate(p).as_flops_per_sec()
            );
        }
    }

    /// Invalid slice layouts are typed errors, never a clamp: zero or
    /// oversubscribed tenant counts refuse at construction, Pascal refuses
    /// at slicing, and out-of-grammar tokens refuse at parse.
    #[test]
    fn invalid_partition_layouts_refuse_typed(
        profile_idx in 0usize..3,
        extra in 1u32..=9,
    ) {
        let profile = PartitionProfile::ALL[profile_idx];
        let slices = profile.slice_count();
        prop_assert_eq!(
            PartitionSpec::new(profile, 0),
            Err(PartitionError::ZeroTenants)
        );
        prop_assert_eq!(
            PartitionSpec::new(profile, slices + extra),
            Err(PartitionError::TooManyTenants { tenants: slices + extra, slices })
        );
        let pascal = GpuModel::TeslaP100Pcie16.spec();
        prop_assert_eq!(
            PartitionSpec::solo(profile).sliced_spec(&pascal),
            Err(PartitionError::UnsupportedDevice { model: GpuModel::TeslaP100Pcie16 })
        );
        let token = format!("1of{}x{}", slices, slices + extra);
        prop_assert_eq!(
            PartitionSpec::parse(&token),
            Err(PartitionError::TooManyTenants { tenants: slices + extra, slices })
        );
    }

    /// The co-location interference slowdown is ≥ 1 everywhere, exactly
    /// 1.0 for a sole tenant, and strictly monotone in the tenant count.
    #[test]
    fn interference_slowdown_laws(profile_idx in 0usize..3) {
        let profile = PartitionProfile::ALL[profile_idx];
        prop_assert_eq!(PartitionSpec::solo(profile).interference_slowdown(), 1.0);
        let mut last = 0.0;
        for t in 1..=profile.slice_count() {
            let s = PartitionSpec::new(profile, t)
                .expect("in-range tenants")
                .interference_slowdown();
            prop_assert!(s >= 1.0);
            prop_assert!(s > last);
            last = s;
        }
    }

    /// Canonical partition tokens round-trip through parse/display, and
    /// the two normalizing spellings (`full`, explicit `x1`) land on the
    /// canonical form.
    #[test]
    fn partition_tokens_round_trip(profile_idx in 0usize..3, tenants in 1u32..=7) {
        let profile = PartitionProfile::ALL[profile_idx];
        let tenants = tenants.min(profile.slice_count());
        let spec = PartitionSpec::new(profile, tenants).expect("in-range tenants");
        let token = spec.to_string();
        prop_assert_eq!(PartitionSpec::parse(&token), Ok(Some(spec)));
        let explicit = format!("1of{}x1", profile.slice_count());
        let normalized = PartitionSpec::parse(&explicit)
            .expect("grammatical")
            .expect("partitioned");
        prop_assert_eq!(normalized.to_string(), format!("1of{}", profile.slice_count()));
        prop_assert_eq!(PartitionSpec::parse("full"), Ok(None));
    }

    /// Route bottleneck bandwidth equals the minimum over traversed links,
    /// and latency is the sum — on a random chain topology.
    #[test]
    fn chain_route_composition(widths in vec_of(1u32..=16, 1usize..6)) {
        let mut t = Topology::new("chain");
        let first = t.add_gpu(GpuModel::TeslaV100Pcie16);
        let mut prev = first;
        let mut min_bw = f64::INFINITY;
        let mut total_lat = 0.0;
        for &w in &widths {
            let sw = t.add_switch();
            let link = Link::PcieGen3 { lanes: w };
            min_bw = min_bw.min(link.effective_bandwidth().as_bytes_per_sec());
            total_lat += link.latency().as_secs();
            t.connect(prev, sw, link);
            prev = sw;
        }
        let last = t.add_gpu(GpuModel::TeslaV100Pcie16);
        t.connect(prev, last, Link::PCIE3_X16);
        min_bw = min_bw.min(Link::PCIE3_X16.effective_bandwidth().as_bytes_per_sec());
        total_lat += Link::PCIE3_X16.latency().as_secs();

        let p = t.gpu_peer_path(0, 1).expect("chain is connected");
        prop_assert!((p.bandwidth.as_bytes_per_sec() - min_bw).abs() < 1.0);
        prop_assert!((p.latency.as_secs() - total_lat).abs() < 1e-12);
    }
}
