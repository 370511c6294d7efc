//! Property battery for the order-statistic kernels feeding the
//! replication subsystem: the interpolating quantile must agree with a
//! sort-based reference on fuzzed inputs, non-finite values must surface
//! as typed errors naming their position, and the seeded bootstrap CI
//! must contain the sample median and narrow as the sample grows. All
//! failures shrink and replay through the testkit harness
//! (`MLPERF_PROP_SEED=<seed>` reproduces the minimal counterexample).

use mlperf_analysis::stats::{
    bootstrap_ci_median, median, quantile, quantile_in, BootstrapScratch, StatsError,
};
use mlperf_testkit::prop::*;
use mlperf_testkit::rng::Rng;

/// Finite samples on a 1/128 grid (ties and negatives included).
fn arb_sample(len: std::ops::Range<usize>) -> impl Gen<Value = Vec<f64>> {
    vec_of((-80_000i64..80_000).prop_map(|m| m as f64 / 128.0), len)
}

/// An independently-written sort-based reference for the R-7 quantile.
fn reference_quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite reference input"));
    let rank = q * (sorted.len() as f64 - 1.0);
    let below = sorted[rank.floor() as usize];
    let above = sorted[rank.ceil() as usize];
    below + (above - below) * rank.fract()
}

/// A sort-based reference for the bootstrap: the same seeded index draws
/// into the sorted sample, but each resample is built and sorted whole and
/// its median taken with `reference_quantile`.
fn reference_bootstrap(xs: &[f64], resamples: usize, level: f64, seed: u64) -> (f64, f64) {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite reference input"));
    let mut rng = Rng::new(seed);
    let medians: Vec<f64> = (0..resamples)
        .map(|_| {
            let resample: Vec<f64> = (0..xs.len())
                .map(|_| sorted[rng.gen_range(0..xs.len())])
                .collect();
            reference_quantile(&resample, 0.5)
        })
        .collect();
    let tail = (1.0 - level) / 2.0;
    (
        reference_quantile(&medians, tail),
        reference_quantile(&medians, 1.0 - tail),
    )
}

#[test]
fn bootstrap_is_bit_identical_to_sorting_each_resample() {
    // A quarter of the samples fold onto seven values, so most resamples
    // tie at the middle order statistics.
    let sample = (vec_of(-80_000i64..80_000, 1usize..=64), 0u32..4).prop_map(|(ms, mode)| {
        ms.into_iter()
            .map(|m| if mode == 0 { m % 4 } else { m } as f64 / 128.0)
            .collect::<Vec<f64>>()
    });
    let levels = elements(&[0.5, 0.8, 0.9, 0.95, 0.99]);
    let gen = (sample, 1usize..=64, levels, 0u64..1 << 32);
    let scratch = std::cell::RefCell::new(BootstrapScratch::new());
    check(
        "bootstrap vs sorted resamples",
        &gen,
        |(xs, resamples, level, seed)| {
            let got = bootstrap_ci_median(&xs, resamples, level, seed, &mut scratch.borrow_mut())
                .map_err(|e| e.to_string())?;
            let want = reference_bootstrap(&xs, resamples, level, seed);
            if (got.0.to_bits(), got.1.to_bits()) != (want.0.to_bits(), want.1.to_bits()) {
                return Err(format!("bootstrap {got:?}, reference {want:?}"));
            }
            Ok(())
        },
    );
}

#[test]
fn quantile_agrees_with_the_sort_based_reference() {
    let gen = (arb_sample(1..24), 0u32..=8).prop_map(|(xs, i)| (xs, f64::from(i) / 8.0));
    check("quantile vs sort reference", &gen, |(xs, q)| {
        let got = quantile(&xs, q).map_err(|e| e.to_string())?;
        let want = reference_quantile(&xs, q);
        if (got - want).abs() > 1e-9 * (1.0 + want.abs()) {
            return Err(format!("quantile({q}) = {got}, reference = {want}"));
        }
        Ok(())
    });
}

#[test]
fn quantile_is_monotone_in_q_and_bracketed_by_the_extremes() {
    let gen = (arb_sample(1..24), 0u32..=8, 0u32..=8);
    check("quantile monotone", &gen, |(xs, a, b)| {
        let (lo_q, hi_q) = (f64::from(a.min(b)) / 8.0, f64::from(a.max(b)) / 8.0);
        let lo = quantile(&xs, lo_q).map_err(|e| e.to_string())?;
        let hi = quantile(&xs, hi_q).map_err(|e| e.to_string())?;
        if lo > hi {
            return Err(format!("quantile({lo_q}) = {lo} > quantile({hi_q}) = {hi}"));
        }
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if lo < min || hi > max {
            return Err(format!(
                "[{lo}, {hi}] escapes the sample range [{min}, {max}]"
            ));
        }
        Ok(())
    });
}

#[test]
fn quantile_reuses_scratch_without_contamination() {
    // One scratch across all cases: stale contents from a previous (often
    // longer) sample must never leak into the next answer.
    let scratch = std::cell::RefCell::new(Vec::new());
    let gen = (arb_sample(1..24), 0u32..=8).prop_map(|(xs, i)| (xs, f64::from(i) / 8.0));
    check("quantile scratch reuse", &gen, |(xs, q)| {
        let got = quantile_in(&xs, q, &mut scratch.borrow_mut()).map_err(|e| e.to_string())?;
        let clean = quantile(&xs, q).map_err(|e| e.to_string())?;
        if got.to_bits() != clean.to_bits() {
            return Err(format!(
                "dirty scratch gave {got}, clean buffer gave {clean}"
            ));
        }
        Ok(())
    });
}

#[test]
fn non_finite_values_are_typed_errors_naming_the_first_offender() {
    let bad = elements(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
    let gen = (arb_sample(1..16), bad, 0usize..64).prop_map(|(mut xs, v, at)| {
        let at = at % xs.len();
        xs[at] = v;
        (xs, at)
    });
    check("non-finite is typed", &gen, |(xs, at)| {
        let first = xs
            .iter()
            .position(|x| !x.is_finite())
            .expect("one value was injected");
        assert!(first <= at, "injection position bounds the first offender");
        match median(&xs) {
            Err(StatsError::NonFinite { index, .. }) if index == first => {}
            other => return Err(format!("expected NonFinite at {first}, got {other:?}")),
        }
        let mut scratch = BootstrapScratch::new();
        match bootstrap_ci_median(&xs, 8, 0.9, 1, &mut scratch) {
            Err(StatsError::NonFinite { index, .. }) if index == first => Ok(()),
            other => Err(format!(
                "bootstrap: expected NonFinite at {first}, got {other:?}"
            )),
        }
    });
}

#[test]
fn bootstrap_ci_contains_the_median_and_narrows_with_n() {
    let gen = (arb_sample(6..16), 0u64..1 << 32);
    let scratch = std::cell::RefCell::new(BootstrapScratch::new());
    check("bootstrap contains & narrows", &gen, |(xs, seed)| {
        let scratch = &mut *scratch.borrow_mut();
        let m = median(&xs).map_err(|e| e.to_string())?;
        // Replicating the sample k-fold keeps the empirical distribution
        // but grows n, so the median's sampling spread must not widen.
        let mut widths = Vec::new();
        for k in [1usize, 4, 16] {
            let grown: Vec<f64> = xs.iter().copied().cycle().take(xs.len() * k).collect();
            let (lo, hi) =
                bootstrap_ci_median(&grown, 96, 0.95, seed, scratch).map_err(|e| e.to_string())?;
            if lo > m || m > hi {
                return Err(format!("CI [{lo}, {hi}] at k={k} excludes the median {m}"));
            }
            widths.push(hi - lo);
        }
        for pair in widths.windows(2) {
            if pair[1] > pair[0] + 1e-9 {
                return Err(format!("CI widened as n grew: {widths:?}"));
            }
        }
        Ok(())
    });
}
