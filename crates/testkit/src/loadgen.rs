//! Seeded client-workload generation for load-testing query services.
//!
//! A load test is only a regression test if the offered load replays
//! exactly; this module turns a seed into per-client query plans the same
//! way [`fault`](crate::fault) turns a seed into a failure scenario. The
//! generator is deliberately *abstract*: it produces indices into a
//! caller-supplied vocabulary (this crate knows nothing about query
//! schemas — the dependency points the other way), with a skewed
//! hot-subset access pattern so a realistic mix hammers a few popular
//! queries from many clients at once. That overlap is what exercises
//! request coalescing: with `clients × queries` draws over a small hot
//! set, most draws collide across clients by construction.
//!
//! Determinism contract: a plan is a pure function of
//! `(spec, seed, client)`. Each client draws from its own
//! [`Rng::stream`], so plans are independent of client *scheduling* —
//! thread interleaving at replay time cannot change what any client asks.

use crate::rng::Rng;

/// Shape of a seeded client workload over an abstract query vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSpec {
    /// Vocabulary size: plans index `0..vocab`.
    pub vocab: usize,
    /// Size of the hot subset (clamped to `vocab`).
    pub hot: usize,
    /// Percent of draws taken from the hot subset (0–100).
    pub hot_pct: u32,
    /// Queries per client.
    pub queries: usize,
}

impl LoadSpec {
    /// The seeded hot subset: a fixed-per-seed selection of distinct
    /// vocabulary indices, shared by every client of that seed (the
    /// sharing is the point — cross-client collisions on the hot set are
    /// what a coalescing layer must absorb).
    pub fn hot_set(&self, seed: u64) -> Vec<usize> {
        let mut all: Vec<usize> = (0..self.vocab).collect();
        // A dedicated stream index no client uses (clients use their own
        // ordinal), so growing the client count never re-deals the deck.
        Rng::stream(seed, u64::MAX).shuffle(&mut all);
        all.truncate(self.hot.min(self.vocab));
        all
    }

    /// One client's full query plan: `queries` indices into the
    /// vocabulary, `hot_pct` percent of them drawn from the seed's hot
    /// subset. Pure in `(self, seed, client)`.
    pub fn client_plan(&self, seed: u64, client: u64) -> Vec<usize> {
        assert!(self.vocab > 0, "empty vocabulary");
        assert!(self.hot_pct <= 100, "hot_pct is a percentage");
        let hot = self.hot_set(seed);
        let mut rng = Rng::stream(seed, client);
        (0..self.queries)
            .map(|_| {
                if !hot.is_empty() && rng.gen_range(0u64..100) < u64::from(self.hot_pct) {
                    *rng.sample(&hot)
                } else {
                    rng.gen_range(0..self.vocab as u64) as usize
                }
            })
            .collect()
    }

    /// Every client's plan, client `0..clients` in order.
    pub fn plans(&self, seed: u64, clients: u64) -> Vec<Vec<usize>> {
        (0..clients).map(|c| self.client_plan(seed, c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: LoadSpec = LoadSpec {
        vocab: 200,
        hot: 8,
        hot_pct: 75,
        queries: 500,
    };

    #[test]
    fn plans_replay_exactly_and_differ_across_clients_and_seeds() {
        let a = SPEC.client_plan(42, 3);
        assert_eq!(
            a,
            SPEC.client_plan(42, 3),
            "same (seed, client) must replay"
        );
        assert_ne!(
            a,
            SPEC.client_plan(42, 4),
            "clients draw independent streams"
        );
        assert_ne!(a, SPEC.client_plan(43, 3), "seeds re-deal the workload");
        assert_eq!(a.len(), SPEC.queries);
        assert!(a.iter().all(|&i| i < SPEC.vocab));
    }

    #[test]
    fn hot_subset_concentrates_the_draws() {
        let hot = SPEC.hot_set(42);
        assert_eq!(hot.len(), SPEC.hot);
        let plan = SPEC.client_plan(42, 0);
        let in_hot = plan.iter().filter(|i| hot.contains(i)).count();
        // 75% targeted plus cold draws that land in the hot set by
        // chance; far above uniform (8/200 = 4%) either way.
        assert!(
            in_hot * 100 >= plan.len() * 60,
            "expected skew toward the hot set, got {in_hot}/{}",
            plan.len()
        );
    }

    #[test]
    fn hot_set_is_shared_across_clients_and_stable_in_client_count() {
        assert_eq!(SPEC.hot_set(7), SPEC.hot_set(7));
        let plans = SPEC.plans(7, 4);
        assert_eq!(plans.len(), 4);
        assert_eq!(
            plans[2],
            SPEC.client_plan(7, 2),
            "plans() is just the per-client map"
        );
    }
}
