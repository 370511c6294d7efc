//! Seeded chaos injection: deterministic failure scripting for harness
//! tests.
//!
//! A [`ChaosPlan`] decides, at named draw points, whether the surrounding
//! code should proceed normally or fail — by panicking, by returning a
//! typed error, or by emitting a non-finite value — with every decision
//! drawn through a [`FaultScript`](crate::fault::FaultScript) so the whole
//! failure scenario replays byte-identically from its seed. The executor's
//! resilience suite wraps real experiments in a chaos adapter driven by
//! this type and property-tests that an injected failure in one corner of
//! the DAG leaves every healthy subgraph's output bytes untouched.
//!
//! The plan is deliberately generic: it knows nothing about experiments,
//! pools, or simulators. Consumers map [`ChaosAction`]s onto their own
//! failure channels.

use crate::fault::FaultScript;

/// What the instrumented site should do at one decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Run normally.
    Proceed,
    /// Panic (exercises unwind isolation).
    Panic,
    /// Return a typed error (exercises error plumbing).
    Error,
    /// Emit a non-finite value (exercises numeric-integrity guards).
    NonFinite,
}

impl ChaosAction {
    /// The action's stable lowercase name (for traces and assertions).
    pub fn name(self) -> &'static str {
        match self {
            ChaosAction::Proceed => "proceed",
            ChaosAction::Panic => "panic",
            ChaosAction::Error => "error",
            ChaosAction::NonFinite => "non-finite",
        }
    }
}

/// A seeded schedule of failure injections.
///
/// Probabilities are per decision point and drawn in the fixed order
/// panic → error → non-finite, so a plan's behaviour is a pure function of
/// `(seed, rates, call sequence)`.
///
/// # Examples
///
/// ```
/// use mlperf_testkit::chaos::{ChaosAction, ChaosPlan};
///
/// let mut a = ChaosPlan::new(7).with_rates(0.5, 0.0, 0.0);
/// let mut b = ChaosPlan::new(7).with_rates(0.5, 0.0, 0.0);
/// let xs: Vec<ChaosAction> = (0..16).map(|_| a.decide("site")).collect();
/// let ys: Vec<ChaosAction> = (0..16).map(|_| b.decide("site")).collect();
/// assert_eq!(xs, ys);
/// assert_eq!(a.trace_bytes(), b.trace_bytes());
/// ```
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    script: FaultScript,
    panic_rate: f64,
    error_rate: f64,
    non_finite_rate: f64,
}

impl ChaosPlan {
    /// A plan that never injects (all rates zero) for `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            script: FaultScript::new(seed),
            panic_rate: 0.0,
            error_rate: 0.0,
            non_finite_rate: 0.0,
        }
    }

    /// Set the per-decision injection probabilities. Rates are clamped to
    /// `[0, 1]` and applied in panic → error → non-finite order.
    #[must_use]
    pub fn with_rates(mut self, panic: f64, error: f64, non_finite: f64) -> Self {
        self.panic_rate = panic.clamp(0.0, 1.0);
        self.error_rate = error.clamp(0.0, 1.0);
        self.non_finite_rate = non_finite.clamp(0.0, 1.0);
        self
    }

    /// A plan that *always* injects `action` (degenerate rates) — the
    /// building block for "force this one experiment to fail" tests.
    pub fn always(seed: u64, action: ChaosAction) -> Self {
        let plan = ChaosPlan::new(seed);
        match action {
            ChaosAction::Proceed => plan,
            ChaosAction::Panic => plan.with_rates(1.0, 0.0, 0.0),
            ChaosAction::Error => plan.with_rates(0.0, 1.0, 0.0),
            ChaosAction::NonFinite => plan.with_rates(0.0, 0.0, 1.0),
        }
    }

    /// The seed the plan replays.
    pub fn seed(&self) -> u64 {
        self.script.seed()
    }

    /// Decide what the site labeled `site` should do, consuming one draw.
    ///
    /// The draw is recorded in the underlying script's trace under the
    /// site label, so a failing scenario names the exact decision points
    /// that fired.
    pub fn decide(&mut self, site: &'static str) -> ChaosAction {
        let u = self.script.draw_unit(site);
        if u < self.panic_rate {
            ChaosAction::Panic
        } else if u < self.panic_rate + self.error_rate {
            ChaosAction::Error
        } else if u < self.panic_rate + self.error_rate + self.non_finite_rate {
            ChaosAction::NonFinite
        } else {
            ChaosAction::Proceed
        }
    }

    /// Number of decisions taken so far.
    pub fn decisions(&self) -> usize {
        self.script.draws().len()
    }

    /// The recorded decision trace (seed line + one `site=draw` line per
    /// decision), byte-identical across replays of one seed.
    pub fn trace_bytes(&self) -> Vec<u8> {
        self.script.trace_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_plan_always_proceeds() {
        let mut plan = ChaosPlan::new(3);
        for _ in 0..64 {
            assert_eq!(plan.decide("s"), ChaosAction::Proceed);
        }
        assert_eq!(plan.decisions(), 64);
    }

    #[test]
    fn always_plans_are_degenerate() {
        for action in [
            ChaosAction::Panic,
            ChaosAction::Error,
            ChaosAction::NonFinite,
        ] {
            let mut plan = ChaosPlan::always(9, action);
            for _ in 0..32 {
                assert_eq!(plan.decide("s"), action, "{}", action.name());
            }
        }
    }

    #[test]
    fn equal_seeds_replay_identically() {
        let mut a = ChaosPlan::new(11).with_rates(0.3, 0.3, 0.3);
        let mut b = ChaosPlan::new(11).with_rates(0.3, 0.3, 0.3);
        let xs: Vec<_> = (0..128).map(|_| a.decide("x")).collect();
        let ys: Vec<_> = (0..128).map(|_| b.decide("x")).collect();
        assert_eq!(xs, ys);
        assert_eq!(a.trace_bytes(), b.trace_bytes());
    }

    #[test]
    fn mixed_rates_produce_every_action() {
        let mut plan = ChaosPlan::new(5).with_rates(0.25, 0.25, 0.25);
        let mut seen = [false; 4];
        for _ in 0..256 {
            match plan.decide("mix") {
                ChaosAction::Proceed => seen[0] = true,
                ChaosAction::Panic => seen[1] = true,
                ChaosAction::Error => seen[2] = true,
                ChaosAction::NonFinite => seen[3] = true,
            }
        }
        assert_eq!(seen, [true; 4]);
    }
}
