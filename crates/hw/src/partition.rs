//! MIG-style device partitioning and co-location interference.
//!
//! Modern fleet economics are set by fractional GPUs: NVIDIA's
//! Multi-Instance GPU (MIG) carves one device into isolated slices, each
//! with a fixed share of SMs, HBM capacity/bandwidth, L2, and interconnect
//! lanes. *MIGPerf* shows that partitioning and training/inference
//! co-location reorder throughput-per-dollar rankings, so the suite prices
//! cells on a [`PartitionSpec`]: which slice layout the device is divided
//! into, and how many co-resident tenants share the silicon.
//!
//! Two effects are modeled, and they are deliberately separate:
//!
//! 1. **Slicing** — a `1/k` slice gets `floor(SMs/k)` multiprocessors (and
//!    compute ceilings scaled by the *granted* SM fraction, exactly as MIG
//!    grants whole GPCs), `1/k` of HBM capacity and bandwidth, and `1/k` of
//!    the collective-bandwidth share. Slicing is an allocation, not a
//!    penalty: a sole tenant on a slice sees no interference.
//! 2. **Co-location interference** — tenants sharing the device contend on
//!    the DRAM controllers and the (partially shared) L2. This is a
//!    multiplicative slowdown on the roofline terms: the memory-bandwidth
//!    ceiling and the compute ceiling each degrade per *additional*
//!    co-tenant. The slowdown is exactly 1.0 for a sole tenant, is always
//!    ≥ 1, and grows monotonically with the tenant count (property-tested).
//!
//! Invalid layouts are **typed errors, never a clamp**: a slice that would
//! round to zero SMs, a tenant count exceeding the slice count, or a
//! Pascal-class device (no MIG-style isolation hardware) all refuse
//! loudly. The canonical token grammar (`1of7`, `1of4x3`, `full`) is the
//! single spelling shared by sweep canonical bytes, CSV cells, the serve
//! `QueryV1` schema, and the `MLPERF_PARTITION` knob; `full` normalizes to
//! "no partition" so partition-free requests coalesce with old clients.

use crate::gpu::{GpuModel, GpuSpec};
use std::fmt;

/// Memory-bandwidth contention per additional co-tenant: each extra job
/// sharing the DRAM controllers costs ~8% of the slice's attainable
/// bandwidth (MIGPerf measures 5–12% for streaming-bound pairs).
const MEM_CONTENTION_PER_TENANT: f64 = 0.08;
/// L2 / instruction-issue contention per additional co-tenant on the
/// compute ceiling (~3%: MIG isolates SMs, so only the shared cache
/// hierarchy leaks).
const L2_CONTENTION_PER_TENANT: f64 = 0.03;

/// How a device is divided into MIG-style slices.
///
/// The layouts mirror the A100 MIG geometry scaled to the modeled
/// V100-class parts: halves (`3g.20gb`-analog), quarters (`2g.10gb`), and
/// the canonical seven-way `1g.5gb` layout. A whole device is *not* a
/// profile — "no partition" is the absence of a [`PartitionSpec`], so
/// partition-free cells spell byte-identically to the pre-partition suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PartitionProfile {
    /// Two half-device slices.
    Half,
    /// Four quarter-device slices.
    Quarter,
    /// Seven one-seventh slices — the A100 7-way layout.
    Seventh,
}

impl PartitionProfile {
    /// All profiles, coarsest first.
    pub const ALL: [PartitionProfile; 3] = [
        PartitionProfile::Half,
        PartitionProfile::Quarter,
        PartitionProfile::Seventh,
    ];

    /// Number of slices this layout divides the device into.
    pub fn slice_count(self) -> u32 {
        match self {
            PartitionProfile::Half => 2,
            PartitionProfile::Quarter => 4,
            PartitionProfile::Seventh => 7,
        }
    }
}

/// Why a partition layout was refused. Validity failures are typed and
/// final — nothing in this module clamps an invalid request into a valid
/// one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The device has no MIG-class isolation hardware (Pascal).
    UnsupportedDevice {
        /// The refusing SKU.
        model: GpuModel,
    },
    /// The slice layout would grant a slice zero SMs on this device.
    SliceTooSmall {
        /// The device being sliced.
        model: GpuModel,
        /// Slices requested.
        slices: u32,
    },
    /// A tenant count of zero is meaningless (the job itself is a tenant).
    ZeroTenants,
    /// More co-resident tenants than the layout has slices.
    TooManyTenants {
        /// Tenants requested (including the job itself).
        tenants: u32,
        /// Slices the layout provides.
        slices: u32,
    },
    /// The token does not parse under the `1of{2|4|7}[x{t}]` / `full`
    /// grammar.
    BadToken {
        /// The offending spelling.
        token: String,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::UnsupportedDevice { model } => {
                write!(f, "{} has no MIG-style partitioning", model.spec().name())
            }
            PartitionError::SliceTooSmall { model, slices } => write!(
                f,
                "a 1/{slices} slice of {} would have zero SMs",
                model.spec().name()
            ),
            PartitionError::ZeroTenants => f.write_str("tenant count must be at least 1"),
            PartitionError::TooManyTenants { tenants, slices } => {
                write!(f, "{tenants} tenants exceed the {slices}-slice layout")
            }
            PartitionError::BadToken { token } => write!(
                f,
                "bad partition token {token:?} (expected full, 1of2, 1of4 or 1of7, \
                 optionally x<tenants>)"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// One slice of a partitioned device, plus its co-location context: the
/// layout the device is divided into and how many tenants (including this
/// job) are resident on the parent device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionSpec {
    profile: PartitionProfile,
    tenants: u32,
}

impl PartitionSpec {
    /// A slice of `profile`'s layout with `tenants` co-resident jobs on
    /// the parent device (including this one).
    ///
    /// # Errors
    ///
    /// [`PartitionError::ZeroTenants`] and
    /// [`PartitionError::TooManyTenants`] — the tenant count must be in
    /// `1..=slice_count`.
    pub fn new(profile: PartitionProfile, tenants: u32) -> Result<PartitionSpec, PartitionError> {
        if tenants == 0 {
            return Err(PartitionError::ZeroTenants);
        }
        let slices = profile.slice_count();
        if tenants > slices {
            return Err(PartitionError::TooManyTenants { tenants, slices });
        }
        Ok(PartitionSpec { profile, tenants })
    }

    /// A sole tenant on one slice of `profile`'s layout.
    pub fn solo(profile: PartitionProfile) -> PartitionSpec {
        PartitionSpec {
            profile,
            tenants: 1,
        }
    }

    /// The device fully packed: one tenant per slice of `profile`'s
    /// layout (the k-way partitioning study's operating point).
    pub fn packed(profile: PartitionProfile) -> PartitionSpec {
        PartitionSpec {
            profile,
            tenants: profile.slice_count(),
        }
    }

    /// The slice layout.
    pub fn profile(&self) -> PartitionProfile {
        self.profile
    }

    /// Co-resident tenants on the parent device, including this job.
    pub fn tenants(&self) -> u32 {
        self.tenants
    }

    /// Parse the canonical token. `"full"` (and the explicit-default
    /// `x1` suffix) normalizes: `full` means "no partition" and returns
    /// `None`, so old partition-free spellings and new explicit ones
    /// coalesce onto the same canonical bytes.
    ///
    /// # Errors
    ///
    /// [`PartitionError::BadToken`] for anything outside the grammar, and
    /// the [`PartitionSpec::new`] validity errors for in-grammar tokens
    /// naming an invalid layout (never a clamp).
    pub fn parse(token: &str) -> Result<Option<PartitionSpec>, PartitionError> {
        if token == "full" {
            return Ok(None);
        }
        let bad = || PartitionError::BadToken {
            token: token.to_string(),
        };
        let rest = token.strip_prefix("1of").ok_or_else(bad)?;
        let (k_str, tenants) = match rest.split_once('x') {
            None => (rest, 1),
            Some((k_str, t_str)) => {
                // Reject non-canonical digits (leading zeros, signs,
                // whitespace) so every accepted token has exactly one
                // spelling.
                if t_str.is_empty() || !t_str.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(bad());
                }
                if t_str.len() > 1 && t_str.starts_with('0') {
                    return Err(bad());
                }
                (k_str, t_str.parse::<u32>().map_err(|_| bad())?)
            }
        };
        let profile = match k_str {
            "2" => PartitionProfile::Half,
            "4" => PartitionProfile::Quarter,
            "7" => PartitionProfile::Seventh,
            _ => return Err(bad()),
        };
        // Tenant-count validity is a typed layout error, not a token
        // error: `1of2x9` is grammatical but names an impossible layout.
        PartitionSpec::new(profile, tenants).map(Some)
    }

    /// Multiplicative slowdown on the memory-bandwidth roofline term from
    /// co-tenant DRAM contention. Exactly 1.0 for a sole tenant.
    pub fn mem_slowdown(&self) -> f64 {
        1.0 + MEM_CONTENTION_PER_TENANT * f64::from(self.tenants - 1)
    }

    /// Multiplicative slowdown on the compute roofline term from shared-L2
    /// contention. Exactly 1.0 for a sole tenant.
    pub fn l2_slowdown(&self) -> f64 {
        1.0 + L2_CONTENTION_PER_TENANT * f64::from(self.tenants - 1)
    }

    /// The headline co-location interference factor: the combined
    /// multiplicative penalty across both contended roofline terms.
    /// Always ≥ 1, exactly 1.0 for a sole tenant, and strictly monotone
    /// in the tenant count.
    pub fn interference_slowdown(&self) -> f64 {
        self.mem_slowdown() * self.l2_slowdown()
    }

    /// Slowdown on collective (all-reduce) bandwidth: a `1/k` slice is
    /// granted a `1/k` share of the device's interconnect lanes, so wire
    /// time stretches by the slice count. Allocation, not contention —
    /// MIG lane shares are isolated, so the tenant count does not appear.
    pub fn comm_slowdown(&self) -> f64 {
        f64::from(self.profile.slice_count())
    }

    /// The spec sheet of one slice of `parent`, with co-location
    /// interference folded into the attainable ceilings:
    ///
    /// * SMs: `floor(parent / k)` (MIG grants whole compute units), with
    ///   compute ceilings scaled by the *granted* fraction and divided by
    ///   the L2 contention factor;
    /// * HBM capacity and bandwidth: `1/k`, bandwidth further divided by
    ///   the DRAM contention factor;
    /// * NVLink lanes: `floor(parent / k)` (the collective model uses
    ///   [`PartitionSpec::comm_slowdown`], which keeps the exact `1/k`
    ///   share).
    ///
    /// # Errors
    ///
    /// [`PartitionError::UnsupportedDevice`] on Pascal-class parts and
    /// [`PartitionError::SliceTooSmall`] when the layout would grant zero
    /// SMs — both typed refusals, never a clamp.
    pub fn sliced_spec(&self, parent: &GpuSpec) -> Result<GpuSpec, PartitionError> {
        if !parent.model().has_tensor_cores() {
            return Err(PartitionError::UnsupportedDevice {
                model: parent.model(),
            });
        }
        let k = self.profile.slice_count();
        let sm_count = parent.sm_count() / k;
        if sm_count == 0 {
            return Err(PartitionError::SliceTooSmall {
                model: parent.model(),
                slices: k,
            });
        }
        let granted = f64::from(sm_count) / f64::from(parent.sm_count());
        let compute_scale = granted / self.l2_slowdown();
        let bw_scale = (1.0 / f64::from(k)) / self.mem_slowdown();
        Ok(parent.slice(
            sm_count,
            compute_scale,
            parent.hbm_capacity().scale(1.0 / f64::from(k)),
            bw_scale,
            parent.nvlink_lanes() / k,
        ))
    }
}

impl fmt::Display for PartitionSpec {
    /// The canonical token: `1of{k}` for a sole tenant, `1of{k}x{t}`
    /// otherwise. Round-trips through [`PartitionSpec::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "1of{}", self.profile.slice_count())?;
        if self.tenants > 1 {
            write!(f, "x{}", self.tenants)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::Precision;

    #[test]
    fn tokens_round_trip_and_full_normalizes() {
        for token in ["1of2", "1of4x3", "1of7", "1of7x7"] {
            let spec = PartitionSpec::parse(token).unwrap().expect("partitioned");
            assert_eq!(spec.to_string(), token);
        }
        assert_eq!(PartitionSpec::parse("full").unwrap(), None);
        // Explicit sole tenant normalizes to the bare spelling.
        let spec = PartitionSpec::parse("1of4x1").unwrap().unwrap();
        assert_eq!(spec.to_string(), "1of4");
    }

    #[test]
    fn bad_tokens_are_typed_never_clamped() {
        for token in [
            "", "half", "1of3", "1of8", "2of7", "1of7x", "1of7x0x", "1of4x03", "1of4x+2", "FULL",
            " 1of2", "1of2 ",
        ] {
            assert!(
                matches!(
                    PartitionSpec::parse(token),
                    Err(PartitionError::BadToken { .. })
                ),
                "token {token:?} should be a BadToken"
            );
        }
        assert_eq!(
            PartitionSpec::parse("1of4x9"),
            Err(PartitionError::TooManyTenants {
                tenants: 9,
                slices: 4
            })
        );
        assert_eq!(
            PartitionSpec::parse("1of4x0"),
            Err(PartitionError::ZeroTenants)
        );
    }

    #[test]
    fn slicing_divides_resources() {
        let parent = GpuModel::TeslaV100Sxm2_16.spec();
        let spec = PartitionSpec::solo(PartitionProfile::Seventh);
        let slice = spec.sliced_spec(&parent).unwrap();
        assert_eq!(slice.sm_count(), 80 / 7);
        assert_eq!(slice.hbm_capacity(), parent.hbm_capacity().scale(1.0 / 7.0));
        assert!(
            (slice.hbm_bandwidth().as_bytes_per_sec()
                - parent.hbm_bandwidth().as_bytes_per_sec() / 7.0)
                .abs()
                < 1.0
        );
        assert_eq!(slice.nvlink_lanes(), 0); // floor(6 / 7)
                                             // Compute scales by the granted SM fraction, not the naive 1/7.
        let granted = (80 / 7) as f64 / 80.0;
        let want = parent.peak_flop_rate(Precision::TensorCore).as_tflops() * granted;
        let got = slice.peak_flop_rate(Precision::TensorCore).as_tflops();
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
    }

    #[test]
    fn sole_tenant_has_no_interference() {
        for profile in PartitionProfile::ALL {
            let spec = PartitionSpec::solo(profile);
            assert_eq!(spec.interference_slowdown(), 1.0);
            assert_eq!(spec.mem_slowdown(), 1.0);
            assert_eq!(spec.l2_slowdown(), 1.0);
        }
    }

    #[test]
    fn interference_monotone_in_tenants() {
        let mut last = 0.0;
        for t in 1..=7 {
            let spec = PartitionSpec::new(PartitionProfile::Seventh, t).unwrap();
            let s = spec.interference_slowdown();
            assert!(s >= 1.0 && s > last);
            last = s;
        }
    }

    #[test]
    fn pascal_refuses_partitioning() {
        let parent = GpuModel::TeslaP100Pcie16.spec();
        let spec = PartitionSpec::solo(PartitionProfile::Half);
        assert_eq!(
            spec.sliced_spec(&parent),
            Err(PartitionError::UnsupportedDevice {
                model: GpuModel::TeslaP100Pcie16
            })
        );
    }

    #[test]
    fn packed_fills_every_slice() {
        for profile in PartitionProfile::ALL {
            let spec = PartitionSpec::packed(profile);
            assert_eq!(spec.tenants(), profile.slice_count());
        }
    }

    #[test]
    fn comm_slowdown_is_the_slice_count() {
        assert_eq!(
            PartitionSpec::solo(PartitionProfile::Quarter).comm_slowdown(),
            4.0
        );
        assert_eq!(
            PartitionSpec::packed(PartitionProfile::Half).comm_slowdown(),
            2.0
        );
    }

    #[test]
    fn errors_display_informatively() {
        let e = PartitionSpec::parse("1of9").unwrap_err();
        assert!(e.to_string().contains("1of9"));
        let e = PartitionSpec::parse("1of2x3").unwrap_err();
        assert!(e.to_string().contains("2-slice"));
    }
}
