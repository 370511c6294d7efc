//! Seeded-replay fault scripting: a labeled draw log for deterministic
//! fault injection.
//!
//! A [`FaultScript`] wraps a seeded [`Rng`] and records
//! every draw together with a short label naming what the draw decided
//! (`"interarrival"`, `"kind"`, `"victim"`, …). The recorded log renders
//! to bytes ([`FaultScript::trace_bytes`]), which gives fault-plan
//! generators a *byte-exact replay contract*: two scripts built from the
//! same seed hand out the same draws in the same order and render the
//! same trace, regardless of who consumes them or on how many worker
//! threads the surrounding experiment runs.
//!
//! The simulator's `FaultPlan` draws through this type, and the property
//! suites shrink on the same draw stream the script records — a failing
//! fault scenario minimizes to the fewest, earliest, smallest draws that
//! still break the property.

use crate::rng::Rng;

/// One recorded draw: the label the consumer gave it and the raw word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptDraw {
    /// What the draw decided (static so logs stay allocation-light).
    pub label: &'static str,
    /// The raw 64-bit draw handed out.
    pub value: u64,
}

/// A seeded, self-recording draw source for fault-plan generation.
///
/// # Examples
///
/// ```
/// use mlperf_testkit::fault::FaultScript;
///
/// let mut a = FaultScript::new(7);
/// let mut b = FaultScript::new(7);
/// assert_eq!(a.draw("kind"), b.draw("kind"));
/// assert_eq!(a.trace_bytes(), b.trace_bytes());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultScript {
    seed: u64,
    rng: Rng,
    log: Vec<ScriptDraw>,
}

impl FaultScript {
    /// A fresh script for `seed`. Equal seeds yield byte-identical draw
    /// sequences and traces.
    pub fn new(seed: u64) -> Self {
        FaultScript {
            seed,
            rng: Rng::stream(seed, 0xFA01),
            log: Vec::new(),
        }
    }

    /// The seed this script replays.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The next raw 64-bit draw, recorded under `label`.
    pub fn draw(&mut self, label: &'static str) -> u64 {
        let value = self.rng.gen_u64();
        self.log.push(ScriptDraw { label, value });
        value
    }

    /// A uniform draw in `[0, 1)`, recorded under `label`.
    pub fn draw_unit(&mut self, label: &'static str) -> f64 {
        (self.draw(label) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform index in `[0, n)`, recorded under `label`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn draw_index(&mut self, label: &'static str, n: usize) -> usize {
        assert!(n > 0, "draw_index over an empty choice");
        (self.draw(label) % n as u64) as usize
    }

    /// An exponentially distributed draw with the given mean (inverse-CDF
    /// over a unit draw), recorded under `label`. The fault-plan
    /// inter-arrival primitive.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn draw_exponential(&mut self, label: &'static str, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive"
        );
        // 1 - u in (0, 1]: ln never sees zero.
        let u = self.draw_unit(label);
        -mean * (1.0 - u).ln()
    }

    /// Every draw handed out so far, in order.
    pub fn draws(&self) -> &[ScriptDraw] {
        &self.log
    }

    /// Render the draw log to bytes: one `label=value` line per draw,
    /// preceded by the seed. Byte-identical across replays of one seed.
    pub fn trace_bytes(&self) -> Vec<u8> {
        let mut out = format!("seed={:#018x}\n", self.seed);
        for d in &self.log {
            out.push_str(&format!("{}={:#018x}\n", d.label, d.value));
        }
        out.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_replay_byte_identically() {
        let mut a = FaultScript::new(42);
        let mut b = FaultScript::new(42);
        for _ in 0..10 {
            assert_eq!(a.draw("x"), b.draw("x"));
        }
        assert_eq!(a.trace_bytes(), b.trace_bytes());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultScript::new(1);
        let mut b = FaultScript::new(2);
        let xs: Vec<u64> = (0..4).map(|_| a.draw("x")).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.draw("x")).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn exponential_draws_are_positive_with_sane_mean() {
        let mut s = FaultScript::new(9);
        let n = 4096;
        let total: f64 = (0..n).map(|_| s.draw_exponential("dt", 10.0)).sum();
        let mean = total / n as f64;
        assert!(mean > 8.0 && mean < 12.0, "sample mean {mean}");
        assert_eq!(s.draws().len(), n);
    }

    #[test]
    fn trace_names_every_label() {
        let mut s = FaultScript::new(5);
        s.draw("interarrival");
        s.draw_index("victim", 4);
        let text = String::from_utf8(s.trace_bytes()).unwrap();
        assert!(text.starts_with("seed="));
        assert!(text.contains("interarrival=") && text.contains("victim="));
    }
}
