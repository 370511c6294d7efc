//! Strongly-typed physical quantities used throughout the hardware models.
//!
//! Every quantity in the simulator flows through one of these newtypes so that
//! bandwidths cannot be confused with compute rates, nor byte counts with FLOP
//! counts ([C-NEWTYPE]). All types are plain `f64`/`u64` wrappers and are
//! `Copy`; arithmetic that makes dimensional sense is provided as operators.
//!
//! # Examples
//!
//! ```
//! use mlperf_hw::units::{Bytes, Bandwidth, Seconds};
//!
//! let payload = Bytes::from_mib(512);
//! let link = Bandwidth::from_gib_per_sec(16.0);
//! let t: Seconds = payload / link;
//! assert!((t.as_secs() - 0.03125).abs() < 1e-12);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;
const GIB: u64 = 1024 * MIB;

/// A number of bytes (memory footprint, transfer volume, capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from a raw byte count.
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Construct from binary kibibytes.
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * KIB)
    }

    /// Construct from binary mebibytes.
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * MIB)
    }

    /// Construct from binary gibibytes.
    pub const fn from_gib(gib: u64) -> Self {
        Bytes(gib * GIB)
    }

    /// Construct from a fractional number of gibibytes.
    ///
    /// # Panics
    ///
    /// Panics if `gib` is negative or not finite.
    pub fn from_gib_f64(gib: f64) -> Self {
        assert!(
            gib.is_finite() && gib >= 0.0,
            "byte count must be finite and non-negative"
        );
        Bytes((gib * GIB as f64).round() as u64)
    }

    /// The raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The byte count as `f64` (for rate arithmetic).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// The byte count in mebibytes.
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / MIB as f64
    }

    /// The byte count in gibibytes.
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / GIB as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }

    /// Saturating multiplication by a count.
    pub fn saturating_mul(self, rhs: u64) -> Bytes {
        Bytes(self.0.saturating_mul(rhs))
    }

    /// Scale by a dimensionless factor, rounding to the nearest byte.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Bytes {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        Bytes((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= GIB {
            write!(f, "{:.2} GiB", self.as_gib())
        } else if self.0 >= MIB {
            write!(f, "{:.2} MiB", self.as_mib())
        } else if self.0 >= KIB {
            write!(f, "{:.2} KiB", self.0 as f64 / KIB as f64)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A count of floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Flops(pub u64);

impl Flops {
    /// Zero FLOPs.
    pub const ZERO: Flops = Flops(0);

    /// Construct from a raw operation count.
    pub const fn new(flops: u64) -> Self {
        Flops(flops)
    }

    /// Construct from GFLOPs (10^9 operations).
    pub fn from_gflops(gflops: f64) -> Self {
        assert!(
            gflops.is_finite() && gflops >= 0.0,
            "flop count must be finite and non-negative"
        );
        Flops((gflops * 1e9).round() as u64)
    }

    /// The raw operation count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The operation count as `f64`.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// The operation count in GFLOPs.
    pub fn as_gflops(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Scale by a dimensionless factor, rounding to the nearest operation.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Flops {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        Flops((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Flops {
    type Output = Flops;
    fn add(self, rhs: Flops) -> Flops {
        Flops(self.0 + rhs.0)
    }
}

impl AddAssign for Flops {
    fn add_assign(&mut self, rhs: Flops) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Flops {
    type Output = Flops;
    fn mul(self, rhs: u64) -> Flops {
        Flops(self.0 * rhs)
    }
}

impl Sum for Flops {
    fn sum<I: Iterator<Item = Flops>>(iter: I) -> Flops {
        iter.fold(Flops::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Flops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000_000 {
            write!(f, "{:.2} TFLOP", self.0 as f64 / 1e12)
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.2} GFLOP", self.as_gflops())
        } else {
            write!(f, "{} FLOP", self.0)
        }
    }
}

/// A data-transfer or memory-access rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Construct from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is negative or not finite.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec >= 0.0,
            "bandwidth must be finite and non-negative"
        );
        Bandwidth(bytes_per_sec)
    }

    /// Construct from decimal gigabytes per second (vendor-datasheet units).
    pub fn from_gb_per_sec(gb: f64) -> Self {
        Bandwidth::new(gb * 1e9)
    }

    /// Construct from binary gibibytes per second.
    pub fn from_gib_per_sec(gib: f64) -> Self {
        Bandwidth::new(gib * GIB as f64)
    }

    /// Construct from decimal megabytes per second.
    pub fn from_mb_per_sec(mb: f64) -> Self {
        Bandwidth::new(mb * 1e6)
    }

    /// The rate in bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// The rate in decimal gigabytes per second.
    pub fn as_gb_per_sec(self) -> f64 {
        self.0 / 1e9
    }

    /// Scale by a dimensionless efficiency factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Bandwidth {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        Bandwidth(self.0 * factor)
    }

    /// The smaller of two bandwidths (bottleneck composition).
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth::new(self.0 * rhs)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GB/s", self.as_gb_per_sec())
    }
}

/// A compute rate in floating-point operations per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct FlopRate(f64);

impl FlopRate {
    /// Zero throughput.
    pub const ZERO: FlopRate = FlopRate(0.0);

    /// Construct from operations per second.
    ///
    /// # Panics
    ///
    /// Panics if `flops_per_sec` is negative or not finite.
    pub fn new(flops_per_sec: f64) -> Self {
        assert!(
            flops_per_sec.is_finite() && flops_per_sec >= 0.0,
            "flop rate must be finite and non-negative"
        );
        FlopRate(flops_per_sec)
    }

    /// Construct from TFLOP/s.
    pub fn from_tflops(tf: f64) -> Self {
        FlopRate::new(tf * 1e12)
    }

    /// Construct from GFLOP/s.
    pub fn from_gflops(gf: f64) -> Self {
        FlopRate::new(gf * 1e9)
    }

    /// The rate in operations per second.
    pub fn as_flops_per_sec(self) -> f64 {
        self.0
    }

    /// The rate in GFLOP/s.
    pub fn as_gflops(self) -> f64 {
        self.0 / 1e9
    }

    /// The rate in TFLOP/s.
    pub fn as_tflops(self) -> f64 {
        self.0 / 1e12
    }

    /// Scale by a dimensionless efficiency factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> FlopRate {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        FlopRate(self.0 * factor)
    }

    /// The smaller of two rates.
    pub fn min(self, other: FlopRate) -> FlopRate {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for FlopRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} TFLOP/s", self.as_tflops())
    }
}

/// A duration in simulated seconds.
///
/// Unlike [`std::time::Duration`] this type is a plain `f64`, because the
/// simulator composes times arithmetically (rates, ratios, overlap factors)
/// where nanosecond integer precision buys nothing.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Construct from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn new(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative"
        );
        Seconds(secs)
    }

    /// Construct from minutes.
    pub fn from_minutes(mins: f64) -> Self {
        Seconds::new(mins * 60.0)
    }

    /// Construct from hours.
    pub fn from_hours(hours: f64) -> Self {
        Seconds::new(hours * 3600.0)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Seconds::new(us * 1e-6)
    }

    /// The duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The duration in minutes (the unit Table IV of the paper reports).
    pub fn as_minutes(self) -> f64 {
        self.0 / 60.0
    }

    /// The duration in hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Scale by a dimensionless factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Seconds {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        Seconds(self.0 * factor)
    }

    /// The larger of two durations.
    pub fn max(self, other: Seconds) -> Seconds {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: Seconds) -> Seconds {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        assert!(self.0 >= rhs.0, "duration subtraction would go negative");
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds::new(self.0 * rhs)
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3600.0 {
            write!(f, "{:.2} h", self.as_hours())
        } else if self.0 >= 60.0 {
            write!(f, "{:.2} min", self.as_minutes())
        } else {
            write!(f, "{:.3} s", self.0)
        }
    }
}

// --- dimensional arithmetic -------------------------------------------------

impl Div<Bandwidth> for Bytes {
    type Output = Seconds;
    /// Transfer time of `self` over a link of the given bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero while the byte count is non-zero.
    fn div(self, rhs: Bandwidth) -> Seconds {
        if self.0 == 0 {
            return Seconds::ZERO;
        }
        assert!(
            rhs.0 > 0.0,
            "cannot transfer {self} over a zero-bandwidth link"
        );
        Seconds::new(self.as_f64() / rhs.0)
    }
}

impl Div<FlopRate> for Flops {
    type Output = Seconds;
    /// Execution time of `self` at the given sustained compute rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero while the operation count is non-zero.
    fn div(self, rhs: FlopRate) -> Seconds {
        if self.0 == 0 {
            return Seconds::ZERO;
        }
        assert!(rhs.0 > 0.0, "cannot execute {self} at a zero compute rate");
        Seconds::new(self.as_f64() / rhs.0)
    }
}

impl Div<Seconds> for Bytes {
    type Output = Bandwidth;
    /// Average transfer rate when `self` bytes move in the given time.
    fn div(self, rhs: Seconds) -> Bandwidth {
        if self.0 == 0 {
            return Bandwidth::ZERO;
        }
        assert!(rhs.0 > 0.0, "cannot compute a rate over zero time");
        Bandwidth::new(self.as_f64() / rhs.0)
    }
}

impl Div<Seconds> for Flops {
    type Output = FlopRate;
    /// Average compute rate when `self` operations complete in the given time.
    fn div(self, rhs: Seconds) -> FlopRate {
        if self.0 == 0 {
            return FlopRate::ZERO;
        }
        assert!(rhs.0 > 0.0, "cannot compute a rate over zero time");
        FlopRate::new(self.as_f64() / rhs.0)
    }
}

impl Div<Bytes> for Flops {
    type Output = f64;
    /// Arithmetic intensity: FLOPs per byte of memory traffic.
    fn div(self, rhs: Bytes) -> f64 {
        assert!(rhs.0 > 0, "arithmetic intensity undefined for zero bytes");
        self.as_f64() / rhs.as_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors_and_views() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1024);
        assert_eq!(Bytes::from_mib(1).as_u64(), 1024 * 1024);
        assert_eq!(Bytes::from_gib(2).as_gib(), 2.0);
        assert_eq!(Bytes::from_gib_f64(0.5).as_mib(), 512.0);
    }

    #[test]
    fn bytes_arithmetic() {
        let a = Bytes::new(100);
        let b = Bytes::new(50);
        assert_eq!(a + b, Bytes::new(150));
        assert_eq!(a - b, Bytes::new(50));
        assert_eq!(a * 3, Bytes::new(300));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
        assert_eq!(a.scale(0.5), Bytes::new(50));
        let total: Bytes = [a, b, b].into_iter().sum();
        assert_eq!(total, Bytes::new(200));
    }

    #[test]
    fn bytes_display_picks_unit() {
        assert_eq!(Bytes::new(12).to_string(), "12 B");
        assert_eq!(Bytes::from_kib(4).to_string(), "4.00 KiB");
        assert_eq!(Bytes::from_mib(3).to_string(), "3.00 MiB");
        assert_eq!(Bytes::from_gib(1).to_string(), "1.00 GiB");
    }

    #[test]
    fn flops_conversions() {
        assert_eq!(Flops::from_gflops(2.5).as_u64(), 2_500_000_000);
        assert!((Flops::new(3_000_000_000).as_gflops() - 3.0).abs() < 1e-12);
        assert_eq!(Flops::new(10).scale(2.5), Flops::new(25));
    }

    #[test]
    fn bandwidth_units() {
        let bw = Bandwidth::from_gb_per_sec(15.8);
        assert!((bw.as_gb_per_sec() - 15.8).abs() < 1e-9);
        assert_eq!(Bandwidth::from_mb_per_sec(1.0).as_bytes_per_sec(), 1e6);
        assert_eq!(
            bw.min(Bandwidth::from_gb_per_sec(10.0)).as_gb_per_sec(),
            10.0
        );
    }

    #[test]
    fn transfer_time_division() {
        let t = Bytes::from_gib(1) / Bandwidth::from_gib_per_sec(2.0);
        assert!((t.as_secs() - 0.5).abs() < 1e-12);
        assert_eq!(Bytes::ZERO / Bandwidth::ZERO, Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero-bandwidth")]
    fn transfer_over_dead_link_panics() {
        let _ = Bytes::new(1) / Bandwidth::ZERO;
    }

    #[test]
    fn compute_time_division() {
        let t = Flops::from_gflops(100.0) / FlopRate::from_gflops(50.0);
        assert!((t.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rates_from_observations() {
        let bw = Bytes::from_gib(4) / Seconds::new(2.0);
        assert!((bw.as_bytes_per_sec() - 2.0 * 1024.0 * 1024.0 * 1024.0).abs() < 1.0);
        let rate = Flops::from_gflops(10.0) / Seconds::new(5.0);
        assert!((rate.as_gflops() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_intensity() {
        let ai = Flops::new(400) / Bytes::new(100);
        assert!((ai - 4.0).abs() < 1e-12);
    }

    #[test]
    fn seconds_constructors_and_ordering() {
        assert_eq!(Seconds::from_minutes(2.0).as_secs(), 120.0);
        assert_eq!(Seconds::from_hours(1.0).as_minutes(), 60.0);
        assert!((Seconds::from_micros(5.0).as_secs() - 5e-6).abs() < 1e-18);
        let a = Seconds::new(1.0);
        let b = Seconds::new(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let total: Seconds = [a, b].into_iter().sum();
        assert_eq!(total.as_secs(), 3.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn seconds_subtraction_underflow_panics() {
        let _ = Seconds::new(1.0) - Seconds::new(2.0);
    }

    #[test]
    fn display_formats_are_nonempty() {
        // C-DEBUG-NONEMPTY analogue for Display.
        for s in [
            Bytes::ZERO.to_string(),
            Flops::ZERO.to_string(),
            Bandwidth::ZERO.to_string(),
            FlopRate::ZERO.to_string(),
            Seconds::ZERO.to_string(),
        ] {
            assert!(!s.is_empty());
        }
    }
}
