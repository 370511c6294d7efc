//! Minimal property-testing harness, proptest-flavoured, zero
//! dependencies.
//!
//! Generators implement [`Gen`] and draw `u64`s from a [`TestRng`] that
//! records every draw. When a property fails, the harness shrinks the
//! recorded *draw stream* greedily — zeroing, halving, and decrementing
//! draws while the failure persists — and replays generation over the
//! mutated stream. Because integer generators map a draw of `0` to their
//! range start and vector generators draw their length first, this one
//! mechanism shrinks integers toward minimal values and vectors toward
//! fewer elements, and it composes through [`Gen::prop_map`] /
//! [`Gen::prop_flat_map`] with no per-type shrinker code.
//!
//! Failure reporting: every failure names the case seed; re-running with
//! `MLPERF_PROP_SEED=<seed>` replays the failing case first. Case count
//! defaults to 96 and is tunable with `MLPERF_PROP_CASES` (the tier-1
//! gate requires ≥ 64). To pin a shrunk counterexample permanently,
//! encode it as a named `#[test]` that calls the same checker the
//! property uses — see `crates/analysis/tests/properties.rs` for the
//! pattern.

use crate::rng::{mix64, Rng};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---------------------------------------------------------------------------
// Draw stream
// ---------------------------------------------------------------------------

/// The draw source generators consume: fresh (seeded PRNG) while
/// exploring, replay (a recorded stream, zero-padded past its end) while
/// shrinking. Every draw handed out is recorded.
#[derive(Debug)]
pub struct TestRng {
    fresh: Option<Rng>,
    replay: Vec<u64>,
    pos: usize,
    record: Vec<u64>,
}

impl TestRng {
    /// A fresh, seeded stream.
    pub fn fresh(seed: u64) -> Self {
        TestRng {
            fresh: Some(Rng::new(seed)),
            replay: Vec::new(),
            pos: 0,
            record: Vec::new(),
        }
    }

    /// Replay a recorded stream; draws past its end are `0` (which every
    /// generator maps to its minimal value).
    pub fn replay(draws: Vec<u64>) -> Self {
        TestRng {
            fresh: None,
            replay: draws,
            pos: 0,
            record: Vec::new(),
        }
    }

    /// The next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        let v = if self.pos < self.replay.len() {
            self.replay[self.pos]
        } else {
            match &mut self.fresh {
                Some(rng) => rng.gen_u64(),
                None => 0,
            }
        };
        self.pos += 1;
        self.record.push(v);
        v
    }

    /// Every draw handed out so far, in order.
    pub fn draws(&self) -> &[u64] {
        &self.record
    }
}

/// Map a raw draw onto `[0, n)`. Draw `0` maps to `0`, so shrinking a
/// draw toward zero shrinks the index toward the first alternative.
fn index(draw: u64, n: usize) -> usize {
    assert!(n > 0, "empty choice");
    (draw % n as u64) as usize
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A value generator over a recorded draw stream.
pub trait Gen {
    /// The generated type.
    type Value;

    /// Produce one value, consuming draws from `rng`.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values. Named as in proptest — a plain `map`
    /// would collide with `Iterator::map` on range generators.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from a generator derived from it.
    /// Named as in proptest, like [`Gen::prop_map`].
    fn prop_flat_map<G, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        G: Gen,
        F: Fn(Self::Value) -> G,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erase, for heterogeneous collections like [`one_of`].
    fn boxed(self) -> BoxedGen<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedGen {
            inner: Box::new(move |rng| self.generate(rng)),
        }
    }
}

/// See [`Gen::prop_map`].
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, T, F: Fn(G::Value) -> T> Gen for Map<G, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Gen::prop_flat_map`].
pub struct FlatMap<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, H: Gen, F: Fn(G::Value) -> H> Gen for FlatMap<G, F> {
    type Value = H::Value;
    fn generate(&self, rng: &mut TestRng) -> H::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Gen::boxed`].
pub struct BoxedGen<T> {
    inner: Box<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Gen for BoxedGen<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.inner)(rng)
    }
}

/// A constant generator (proptest's `Just`). Consumes no draws.
pub fn just<T: Clone>(value: T) -> Just<T> {
    Just(value)
}

/// See [`just`].
pub struct Just<T>(T);

impl<T: Clone> Gen for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// A uniform choice among concrete values (proptest's
/// `prop_oneof![Just(..), ..]` for the value-only case).
pub fn elements<T: Clone>(options: &[T]) -> Elements<T> {
    assert!(!options.is_empty(), "elements() needs at least one option");
    Elements(options.to_vec())
}

/// See [`elements`].
pub struct Elements<T>(Vec<T>);

impl<T: Clone> Gen for Elements<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0[index(rng.next_u64(), self.0.len())].clone()
    }
}

/// A uniform choice among generators of a common value type (proptest's
/// `prop_oneof!` general case). Shrinks toward the first alternative.
pub fn one_of<T>(options: Vec<BoxedGen<T>>) -> OneOf<T> {
    assert!(!options.is_empty(), "one_of() needs at least one generator");
    OneOf(options)
}

/// See [`one_of`].
pub struct OneOf<T>(Vec<BoxedGen<T>>);

impl<T> Gen for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = index(rng.next_u64(), self.0.len());
        self.0[i].generate(rng)
    }
}

/// Vectors of `elem`, with length drawn from `len` (proptest's
/// `collection::vec`). The length draw comes first, so shrinking it
/// drops trailing elements.
pub fn vec_of<G: Gen, L: Gen<Value = usize>>(elem: G, len: L) -> VecOf<G, L> {
    VecOf { elem, len }
}

/// See [`vec_of`].
pub struct VecOf<G, L> {
    elem: G,
    len: L,
}

impl<G: Gen, L: Gen<Value = usize>> Gen for VecOf<G, L> {
    type Value = Vec<G::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<G::Value> {
        let n = self.len.generate(rng);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }
}

macro_rules! impl_int_gen {
    ($($t:ty),+) => {$(
        impl Gen for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty generator range");
                let width = (self.end as i128 - self.start as i128) as u128;
                let off = if width > u64::MAX as u128 {
                    rng.next_u64() as u128
                } else {
                    (rng.next_u64() % width as u64) as u128
                };
                (self.start as i128 + off as i128) as $t
            }
        }
        impl Gen for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty generator range");
                let width = (end as i128 - start as i128) as u128 + 1;
                let off = if width > u64::MAX as u128 {
                    rng.next_u64() as u128
                } else {
                    (rng.next_u64() % width as u64) as u128
                };
                (start as i128 + off as i128) as $t
            }
        }
    )+}
}

impl_int_gen!(u32, u64, usize, i64);

impl Gen for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty generator range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

impl Gen for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty generator range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        start + unit * (end - start)
    }
}

macro_rules! impl_tuple_gen {
    ($($g:ident . $idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_gen!(A.0);
impl_tuple_gen!(A.0, B.1);
impl_tuple_gen!(A.0, B.1, C.2);
impl_tuple_gen!(A.0, B.1, C.2, D.3);
impl_tuple_gen!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_gen!(A.0, B.1, C.2, D.3, E.4, F.5);

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Harness configuration, read once per property from the environment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Cases to run per property (`MLPERF_PROP_CASES`, default 96).
    pub cases: u32,
    /// Base seed for case 0 (`MLPERF_PROP_SEED`, fixed default so CI runs
    /// are deterministic).
    pub seed: u64,
    /// Budget of property evaluations the shrinker may spend.
    pub max_shrink_evals: u32,
}

impl Config {
    /// Read `MLPERF_PROP_CASES` / `MLPERF_PROP_SEED`, with deterministic
    /// defaults.
    pub fn from_env() -> Self {
        fn env_u64(name: &str) -> Option<u64> {
            std::env::var(name).ok().and_then(|s| s.parse().ok())
        }
        Config {
            cases: env_u64("MLPERF_PROP_CASES").unwrap_or(96) as u32,
            seed: env_u64("MLPERF_PROP_SEED").unwrap_or(0x4D4C_5065_7266), // "MLPerf"
            max_shrink_evals: 4096,
        }
    }
}

/// A shrunk counterexample.
#[derive(Debug)]
pub struct Failure<V> {
    /// The minimal failing input the shrinker reached.
    pub minimal: V,
    /// The failure message at the minimal input.
    pub message: String,
    /// Seed that reproduces this case first (`MLPERF_PROP_SEED=<seed>`).
    pub seed: u64,
    /// Which case (0-based) first failed.
    pub case: u32,
}

/// Run `prop` over `cases` generated inputs; on failure, shrink and
/// return the minimal counterexample instead of panicking. [`check`] is
/// the panicking wrapper tests use; this entry point exists so the
/// harness can test its own shrinking.
pub fn find_failure<G>(
    cfg: &Config,
    gen: &G,
    prop: &(impl Fn(G::Value) -> Result<(), String> + ?Sized),
) -> Option<Failure<G::Value>>
where
    G: Gen,
{
    let mut case_seed = cfg.seed;
    for case in 0..cfg.cases {
        let mut rng = TestRng::fresh(case_seed);
        if let Some(message) = eval(gen, prop, &mut rng) {
            let draws = rng.draws().to_vec();
            let (min_draws, min_message) = shrink(gen, prop, draws, message, cfg.max_shrink_evals);
            let mut replay = TestRng::replay(min_draws);
            let minimal = gen.generate(&mut replay);
            return Some(Failure {
                minimal,
                message: min_message,
                seed: case_seed,
                case,
            });
        }
        case_seed = mix64(case_seed);
    }
    None
}

/// Run a property over generated inputs, shrinking and panicking on the
/// first failure. Used by the [`properties!`](crate::properties) macro.
///
/// # Panics
///
/// Panics with the minimal counterexample, its failure message, and the
/// seed that replays it.
pub fn check<G>(name: &str, gen: &G, prop: impl Fn(G::Value) -> Result<(), String>)
where
    G: Gen,
    G::Value: Debug,
{
    let cfg = Config::from_env();
    if let Some(failure) = find_failure(&cfg, gen, &prop) {
        panic!(
            "property {name} failed (case {} of {}): {}\n  minimal input: {:?}\n  \
             replay first with: MLPERF_PROP_SEED={} cargo test",
            failure.case, cfg.cases, failure.message, failure.minimal, failure.seed,
        );
    }
}

/// Generate from `rng` and evaluate the property, converting panics into
/// failure messages. `None` means the property held.
fn eval<G: Gen>(
    gen: &G,
    prop: &(impl Fn(G::Value) -> Result<(), String> + ?Sized),
    rng: &mut TestRng,
) -> Option<String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| prop(gen.generate(rng))));
    match outcome {
        Ok(Ok(())) => None,
        Ok(Err(message)) => Some(message),
        Err(panic) => Some(panic_message(panic.as_ref())),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

/// Greedy draw-stream shrinking: for each draw position, try zero, then
/// repeatedly halve, then repeatedly decrement, keeping any mutation
/// under which the property still fails. Loops to a fixpoint or until
/// the evaluation budget runs out. Returns the minimal stream and its
/// failure message.
fn shrink<G: Gen>(
    gen: &G,
    prop: &(impl Fn(G::Value) -> Result<(), String> + ?Sized),
    mut draws: Vec<u64>,
    mut message: String,
    budget: u32,
) -> (Vec<u64>, String) {
    let mut evals = 0u32;

    // Try one candidate stream; on sustained failure adopt it (trimmed to
    // the draws generation actually consumed) and return true.
    let attempt = |draws: &mut Vec<u64>, message: &mut String, candidate: Vec<u64>| -> bool {
        let mut rng = TestRng::replay(candidate);
        match eval(gen, prop, &mut rng) {
            Some(msg) => {
                *draws = rng.draws().to_vec();
                *message = msg;
                true
            }
            None => false,
        }
    };

    loop {
        let mut improved = false;
        let mut i = 0;
        while i < draws.len() && evals < budget {
            // Zero is the biggest single step: range minimum / first
            // alternative / empty vector.
            if draws[i] != 0 {
                let mut candidate = draws.clone();
                candidate[i] = 0;
                evals += 1;
                if attempt(&mut draws, &mut message, candidate) {
                    improved = true;
                }
            }
            // Halve while that keeps failing.
            while i < draws.len() && draws[i] > 1 && evals < budget {
                let mut candidate = draws.clone();
                candidate[i] /= 2;
                evals += 1;
                if attempt(&mut draws, &mut message, candidate) {
                    improved = true;
                } else {
                    break;
                }
            }
            // Decrement to the exact boundary.
            while i < draws.len() && draws[i] > 0 && evals < budget {
                let mut candidate = draws.clone();
                candidate[i] -= 1;
                evals += 1;
                if attempt(&mut draws, &mut message, candidate) {
                    improved = true;
                } else {
                    break;
                }
            }
            i += 1;
        }
        if !improved || evals >= budget {
            break;
        }
    }
    (draws, message)
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declare property tests, proptest-style:
///
/// ```
/// use mlperf_testkit::prop::*;
///
/// mlperf_testkit::properties! {
///     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// # addition_commutes();
/// ```
///
/// (In test files, put `#[test]` above each `fn` so the harness picks
/// them up.)
///
/// Each `fn` becomes a `#[test]` that runs the body over generated
/// inputs via [`prop::check`](crate::prop::check). The body may use
/// [`prop_assert!`](crate::prop_assert),
/// [`prop_assert_eq!`](crate::prop_assert_eq), and
/// [`prop_assert_ne!`](crate::prop_assert_ne), and may call helpers
/// returning `Result<(), String>` with `?`.
#[macro_export]
macro_rules! properties {
    ($( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $gen:expr),+ $(,)? ) $body:block )+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let gen = ($($gen,)+);
                $crate::prop::check(
                    concat!(module_path!(), "::", stringify!($name)),
                    &gen,
                    |($($arg,)+)| {
                        $body
                        Ok(())
                    },
                );
            }
        )+
    };
}

/// Property-scope assertion: fails the current case (triggering
/// shrinking) instead of aborting the whole property run.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err(format!(
                "assertion failed: {} ({}:{})", stringify!($cond), file!(), line!(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
}

/// Property-scope equality assertion; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err(format!(
                "assertion failed: `{:?} == {:?}` ({}:{})", left, right, file!(), line!(),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err(format!(
                "assertion failed: `{:?} == {:?}`: {}", left, right, format!($($fmt)+),
            ));
        }
    }};
}

/// Property-scope inequality assertion; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return Err(format!(
                "assertion failed: `{:?} != {:?}` ({}:{})", left, right, file!(), line!(),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return Err(format!(
                "assertion failed: `{:?} != {:?}`: {}", left, right, format!($($fmt)+),
            ));
        }
    }};
}

// Make `use mlperf_testkit::prop::*` bring the macros along, mirroring
// `use proptest::prelude::*`.
pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, properties};
