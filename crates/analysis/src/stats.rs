//! Small statistics helpers shared by the analyses.
//!
//! Two families live here. The moment-based helpers ([`mean`],
//! [`variance`], [`std_dev`]) predate the replication subsystem and
//! keep their panic-on-empty contract — their callers construct the
//! samples themselves. The order-statistic kernels ([`quantile`],
//! [`median`], [`bootstrap_ci_median`]) feed run-to-run distributions
//! whose values come from simulation output, so they return a typed
//! [`StatsError`] instead: an empty or non-finite sample must surface as
//! an error the executor can classify (`NonFiniteOutput`), never as a
//! silently-garbage quantile. The bootstrap draws its resamples from the
//! workspace's seeded PRNG and reuses caller-owned scratch buffers, so
//! the resampling loop allocates nothing.

use mlperf_testkit::rng::Rng;
use std::fmt;

/// Why an order-statistic kernel refused a sample.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// The sample was empty.
    Empty,
    /// The sample contained a NaN or infinity at `index`.
    NonFinite {
        /// Position of the first offending value.
        index: usize,
        /// The offending value (NaN or ±inf).
        value: f64,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty => write!(f, "statistic of an empty sample is undefined"),
            StatsError::NonFinite { index, value } => {
                write!(f, "non-finite sample value {value} at index {index}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Reject empty and non-finite samples with a typed error.
fn check_sample(xs: &[f64]) -> Result<(), StatsError> {
    if xs.is_empty() {
        return Err(StatsError::Empty);
    }
    if let Some((index, &value)) = xs.iter().enumerate().find(|(_, x)| !x.is_finite()) {
        return Err(StatsError::NonFinite { index, value });
    }
    Ok(())
}

/// The R-7 position of quantile `q` in a sorted sample of `n`: the two
/// neighbouring ranks and the weight of the upper one.
fn r7_rank(n: usize, q: f64) -> (usize, usize, f64) {
    let h = (n - 1) as f64 * q;
    let lo = h.floor() as usize;
    (lo, h.ceil() as usize, h - lo as f64)
}

/// Linear-interpolation quantile (the R-7 / NumPy default) of the values
/// already sorted in `sorted`. `q` in `[0, 1]`.
fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    let (lo, hi, weight) = r7_rank(sorted.len(), q);
    sorted[lo] + weight * (sorted[hi] - sorted[lo])
}

/// Linear-interpolation quantile (R-7), sorting into the caller's
/// `scratch` buffer — after the first call on a scratch of sufficient
/// capacity, no allocation happens.
///
/// # Errors
///
/// [`StatsError::Empty`] on an empty sample; [`StatsError::NonFinite`]
/// naming the first NaN/infinite value.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` (a programming error in the caller,
/// not a data problem).
pub fn quantile_in(xs: &[f64], q: f64, scratch: &mut Vec<f64>) -> Result<f64, StatsError> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile level {q} outside [0, 1]"
    );
    check_sample(xs)?;
    scratch.clear();
    scratch.extend_from_slice(xs);
    scratch.sort_unstable_by(f64::total_cmp);
    Ok(quantile_of_sorted(scratch, q))
}

/// Convenience wrapper over [`quantile_in`] with a fresh scratch buffer.
///
/// # Errors
///
/// See [`quantile_in`].
pub fn quantile(xs: &[f64], q: f64) -> Result<f64, StatsError> {
    quantile_in(xs, q, &mut Vec::with_capacity(xs.len()))
}

/// Sample median (the 0.5 quantile).
///
/// # Errors
///
/// See [`quantile_in`].
pub fn median(xs: &[f64]) -> Result<f64, StatsError> {
    quantile(xs, 0.5)
}

/// Reusable buffers for [`bootstrap_ci_median`]: one sorted copy of the
/// base sample, one count of draws per sorted index, one buffer of
/// resample medians. Reusing a scratch across calls keeps the resampling
/// loop free of allocation.
#[derive(Debug, Clone, Default)]
pub struct BootstrapScratch {
    sorted: Vec<f64>,
    counts: Vec<usize>,
    medians: Vec<f64>,
}

impl BootstrapScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        BootstrapScratch::default()
    }
}

/// Percentile-bootstrap confidence interval for the median: `resamples`
/// same-size resamples drawn with replacement from `xs` using the seeded
/// in-tree PRNG (deterministic for a given `(xs, resamples, level,
/// seed)`), returning the `(lo, hi)` percentile interval of the resample
/// medians at confidence `level` (e.g. `0.95`). The hot loop reuses
/// `scratch` and allocates nothing once the buffers have grown.
///
/// Each resample draws `rng.gen_range(0..n)` indices into the sorted
/// sample and is never materialised: counting the draws per index and
/// walking the counts to the two middle order statistics yields exactly
/// the values a sorted resample holds there, so the result is
/// bit-identical to building, sorting and taking the R-7 median of every
/// resample.
///
/// # Errors
///
/// [`StatsError::Empty`] / [`StatsError::NonFinite`] on a bad sample.
///
/// # Panics
///
/// Panics if `resamples == 0` or `level` is outside `(0, 1)` (programming
/// errors in the caller).
pub fn bootstrap_ci_median(
    xs: &[f64],
    resamples: usize,
    level: f64,
    seed: u64,
    scratch: &mut BootstrapScratch,
) -> Result<(f64, f64), StatsError> {
    assert!(resamples > 0, "bootstrap needs at least one resample");
    assert!(
        level > 0.0 && level < 1.0,
        "confidence level {level} outside (0, 1)"
    );
    check_sample(xs)?;
    let n = xs.len();
    scratch.sorted.clear();
    scratch.sorted.extend_from_slice(xs);
    scratch.sorted.sort_unstable_by(f64::total_cmp);
    let mut rng = Rng::new(seed);
    let (lo, hi, weight) = r7_rank(n, 0.5);
    scratch.counts.clear();
    scratch.counts.resize(n, 0);
    scratch.medians.clear();
    scratch.medians.reserve(resamples);
    for _ in 0..resamples {
        let counts = &mut scratch.counts;
        counts.fill(0);
        for _ in 0..n {
            counts[rng.gen_range(0..n)] += 1;
        }
        // Walk to the resample's order statistics `lo` and `hi`: the
        // sorted index at which the running draw count first exceeds each.
        let (mut i, mut drawn) = (0, counts[0]);
        while drawn <= lo {
            i += 1;
            drawn += counts[i];
        }
        let below = scratch.sorted[i];
        while drawn <= hi {
            i += 1;
            drawn += counts[i];
        }
        let above = scratch.sorted[i];
        scratch.medians.push(below + weight * (above - below));
    }
    scratch.medians.sort_unstable_by(f64::total_cmp);
    let tail = (1.0 - level) / 2.0;
    Ok((
        quantile_of_sorted(&scratch.medians, tail),
        quantile_of_sorted(&scratch.medians, 1.0 - tail),
    ))
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty slice is undefined");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `n`, matching standardization for PCA).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn variance(xs: &[f64]) -> f64 {
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_mean_panics() {
        let _ = mean(&[]);
    }

    #[test]
    fn quantile_interpolates_r7() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Ok(1.0));
        assert_eq!(quantile(&xs, 1.0), Ok(4.0));
        assert_eq!(median(&xs), Ok(2.5));
        assert_eq!(quantile(&xs, 0.25), Ok(1.75));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Ok(3.0));
    }

    #[test]
    fn quantile_rejects_bad_samples_with_typed_errors() {
        assert_eq!(median(&[]), Err(StatsError::Empty));
        let got = median(&[1.0, f64::NAN, 2.0]).unwrap_err();
        let StatsError::NonFinite { index, value } = got else {
            panic!("expected NonFinite, got {got:?}");
        };
        assert_eq!(index, 1);
        assert!(value.is_nan());
        assert_eq!(
            quantile(&[f64::INFINITY], 0.5),
            Err(StatsError::NonFinite {
                index: 0,
                value: f64::INFINITY
            })
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_rejects_bad_level() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn quantile_in_ignores_stale_scratch_contents() {
        let mut scratch = vec![f64::NAN; 32];
        assert_eq!(quantile_in(&[2.0, 1.0], 0.5, &mut scratch), Ok(1.5));
    }

    #[test]
    fn bootstrap_is_seed_deterministic_and_contains_the_median() {
        let xs = [12.0, 9.5, 11.0, 10.2, 9.9, 10.8, 10.1, 11.4];
        let mut scratch = BootstrapScratch::new();
        let a = bootstrap_ci_median(&xs, 200, 0.95, 7, &mut scratch).unwrap();
        let b = bootstrap_ci_median(&xs, 200, 0.95, 7, &mut scratch).unwrap();
        assert_eq!(a, b, "same seed, same interval");
        let c = bootstrap_ci_median(&xs, 200, 0.95, 8, &mut scratch).unwrap();
        assert_ne!(a, c, "a different seed resamples differently");
        let m = median(&xs).unwrap();
        assert!(a.0 <= m && m <= a.1, "CI {a:?} must contain the median {m}");
        assert!(a.0 >= 9.5 && a.1 <= 12.0, "CI within the sample range");
    }

    #[test]
    fn bootstrap_of_a_constant_sample_is_degenerate() {
        let xs = [4.0; 6];
        let mut scratch = BootstrapScratch::new();
        assert_eq!(
            bootstrap_ci_median(&xs, 50, 0.95, 1, &mut scratch),
            Ok((4.0, 4.0))
        );
    }

    #[test]
    fn bootstrap_rejects_non_finite_samples() {
        let mut scratch = BootstrapScratch::new();
        assert_eq!(
            bootstrap_ci_median(&[1.0, f64::NEG_INFINITY], 10, 0.9, 0, &mut scratch),
            Err(StatsError::NonFinite {
                index: 1,
                value: f64::NEG_INFINITY
            })
        );
        assert_eq!(
            bootstrap_ci_median(&[], 10, 0.9, 0, &mut scratch),
            Err(StatsError::Empty)
        );
    }
}
