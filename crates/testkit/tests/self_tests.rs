//! Self-tests for the test substrate itself: PRNG reference vectors,
//! `gen_range` bound semantics, and shrinking behaviour.
//!
//! The reference vectors were computed from an independent (big-integer,
//! Python) implementation of the published SplitMix64 and xoshiro256++
//! algorithms; the first SplitMix64 output for seed 0
//! (`0xE220A8397B1DCDAF`) also matches the widely circulated C test
//! vector. If any of these tests fail, the byte streams under every
//! seeded test, fault plan and replication run in the workspace have
//! drifted.

use mlperf_testkit::prop::{self, *};
use mlperf_testkit::rng::{mix64, splitmix64, Rng};

// ---------------------------------------------------------------------------
// rng: reference vectors
// ---------------------------------------------------------------------------

#[test]
fn splitmix64_matches_reference_vectors() {
    let mut s = 0u64;
    let outs: Vec<u64> = (0..5).map(|_| splitmix64(&mut s)).collect();
    assert_eq!(
        outs,
        [
            0xE220_A839_7B1D_CDAF,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
            0xF88B_B8A8_724C_81EC,
            0x1B39_896A_51A8_749B,
        ]
    );

    let mut s = 0x0123_4567_89AB_CDEFu64;
    let outs: Vec<u64> = (0..5).map(|_| splitmix64(&mut s)).collect();
    assert_eq!(
        outs,
        [
            0x157A_3807_A48F_AA9D,
            0xD573_529B_34A1_D093,
            0x2F90_B72E_996D_CCBE,
            0xA2D4_1933_4C46_67EC,
            0x0140_4CE9_1493_8008,
        ]
    );
}

#[test]
fn xoshiro256pp_matches_reference_vectors() {
    let mut rng = Rng::new(0);
    let outs: Vec<u64> = (0..5).map(|_| rng.gen_u64()).collect();
    assert_eq!(
        outs,
        [
            0x5317_5D61_490B_23DF,
            0x61DA_6F3D_C380_D507,
            0x5C0F_DF91_EC9A_7BFC,
            0x02EE_BF8C_3BBE_5E1A,
            0x7ECA_04EB_AF4A_5EEA,
        ]
    );

    let mut rng = Rng::new(42);
    let outs: Vec<u64> = (0..5).map(|_| rng.gen_u64()).collect();
    assert_eq!(
        outs,
        [
            0xD076_4D4F_4476_689F,
            0x519E_4174_576F_3791,
            0xFBE0_7CFB_0C24_ED8C,
            0xB37D_9F60_0CD8_35B8,
            0xCB23_1C38_7484_6A73,
        ]
    );
}

// ---------------------------------------------------------------------------
// rng: gen_range bound semantics
// ---------------------------------------------------------------------------

#[test]
fn gen_range_half_open_excludes_end_and_reaches_both_bounds() {
    let mut rng = Rng::new(1);
    let mut seen = [false; 2];
    for _ in 0..256 {
        let v = rng.gen_range(10u64..12);
        assert!((10..12).contains(&v), "half-open draw {v} out of [10, 12)");
        seen[(v - 10) as usize] = true;
    }
    assert!(seen.iter().all(|&s| s), "both representable values drawn");
}

#[test]
fn gen_range_inclusive_reaches_its_end() {
    let mut rng = Rng::new(2);
    let mut saw_end = false;
    for _ in 0..256 {
        let v = rng.gen_range(0u64..=1);
        assert!(v <= 1);
        saw_end |= v == 1;
    }
    assert!(saw_end, "inclusive range must produce its upper bound");

    // Degenerate inclusive range: only one value.
    assert_eq!(rng.gen_range(7usize..=7), 7);
}

#[test]
fn gen_range_covers_signed_and_float_domains() {
    let mut rng = Rng::new(3);
    for _ in 0..256 {
        let v = rng.gen_range(-5i64..5);
        assert!((-5..5).contains(&v));
        let f = rng.gen_range(-1.5f64..2.5);
        assert!((-1.5..2.5).contains(&f));
        let u = rng.gen_f64();
        assert!((0.0..1.0).contains(&u));
    }
}

#[test]
#[should_panic(expected = "empty range")]
fn gen_range_rejects_empty_ranges() {
    let mut rng = Rng::new(4);
    let _ = rng.gen_range(5u64..5);
}

#[test]
fn shuffle_permutes_and_sample_stays_in_bounds() {
    let mut rng = Rng::new(5);
    let mut xs: Vec<u32> = (0..100).collect();
    rng.shuffle(&mut xs);
    let mut sorted = xs.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    assert_ne!(xs, sorted, "a 100-element shuffle virtually never fixes");

    let mut replay = Rng::new(5);
    let mut ys: Vec<u32> = (0..100).collect();
    replay.shuffle(&mut ys);
    assert_eq!(xs, ys, "same seed, same permutation");

    for _ in 0..32 {
        assert!(xs.contains(rng.sample(&xs)));
    }
}

// ---------------------------------------------------------------------------
// prop: generators and shrinking
// ---------------------------------------------------------------------------

fn small_config() -> Config {
    Config {
        cases: 128,
        seed: 0xDEAD_BEEF,
        max_shrink_evals: 4096,
    }
}

#[test]
fn shrinking_reaches_the_minimal_integer_counterexample() {
    let failure = prop::find_failure(&small_config(), &(0u64..1000), &|x| {
        if x < 10 {
            Ok(())
        } else {
            Err(format!("{x} >= 10"))
        }
    })
    .expect("the property fails for 990 of 1000 values");
    assert_eq!(
        failure.minimal, 10,
        "greedy zero/halve/decrement must land exactly on the boundary"
    );
}

#[test]
fn shrinking_reaches_the_minimal_vector_counterexample() {
    let gen = vec_of(0u64..100, 0usize..20);
    let failure = prop::find_failure(&small_config(), &gen, &|v| {
        if v.len() < 3 {
            Ok(())
        } else {
            Err(format!("len {}", v.len()))
        }
    })
    .expect("vectors of length >= 3 are common");
    assert_eq!(
        failure.minimal,
        vec![0, 0, 0],
        "length shrinks to the boundary and every element to the range start"
    );
}

#[test]
fn shrinking_holds_the_failure_while_minimizing() {
    // Failure requires *both* a long vector and a large element; the
    // shrinker must not lose one condition while minimizing the other.
    let gen = vec_of(0u64..1000, 0usize..12);
    let failure = prop::find_failure(&small_config(), &gen, &|v| {
        if v.len() >= 2 && v.iter().any(|&x| x >= 500) {
            Err("long with a large element".to_string())
        } else {
            Ok(())
        }
    })
    .expect("failing inputs are common");
    assert_eq!(failure.minimal.len(), 2);
    let large: Vec<u64> = failure
        .minimal
        .iter()
        .copied()
        .filter(|&x| x >= 500)
        .collect();
    assert_eq!(
        large,
        vec![500],
        "the witness element shrinks to the boundary"
    );
    assert!(
        failure
            .minimal
            .iter()
            .filter(|&&x| x < 500)
            .all(|&x| x == 0),
        "non-witness elements shrink to the range start: {:?}",
        failure.minimal
    );
}

#[test]
fn find_failure_reports_a_replayable_seed() {
    let failure = prop::find_failure(&small_config(), &(0u64..1000), &|x| {
        if x < 990 {
            Ok(())
        } else {
            Err("big".to_string())
        }
    })
    .expect("1% of cases fail");
    // Re-running with the reported seed must fail at case 0.
    let replay = Config {
        seed: failure.seed,
        ..small_config()
    };
    let again = prop::find_failure(&replay, &(0u64..1000), &|x| {
        if x < 990 {
            Ok(())
        } else {
            Err("big".to_string())
        }
    })
    .expect("replay still fails");
    assert_eq!(again.case, 0, "the reported seed replays the case first");
    assert_eq!(again.minimal, failure.minimal);
}

#[test]
fn panics_inside_properties_count_as_failures_and_shrink() {
    let failure = prop::find_failure(&small_config(), &(0u64..1000), &|x| {
        assert!(x < 10, "boom at {x}");
        Ok(())
    })
    .expect("panicking property fails");
    assert_eq!(failure.minimal, 10);
    assert!(failure.message.contains("boom"), "panic text is preserved");
}

#[test]
fn composed_generators_cover_their_stated_domains() {
    let mut rng = TestRng::fresh(11);
    let gen = one_of(vec![
        (0u64..10).prop_map(|x| x as i64).boxed(),
        (100u64..110).prop_map(|x| x as i64).boxed(),
        just(-1i64).boxed(),
    ]);
    let mut buckets = [false; 3];
    for _ in 0..256 {
        match gen.generate(&mut rng) {
            0..=9 => buckets[0] = true,
            100..=109 => buckets[1] = true,
            -1 => buckets[2] = true,
            other => panic!("generator escaped its domain: {other}"),
        }
    }
    assert!(buckets.iter().all(|&b| b), "every alternative is reachable");

    let pairs = vec_of(
        (0usize..4).prop_flat_map(|n| (just(n), 0u64..=9)),
        1usize..5,
    );
    for _ in 0..64 {
        for (n, v) in pairs.generate(&mut rng) {
            assert!(n < 4 && v <= 9);
        }
    }
    let picked = elements(&[2u32, 4, 6]);
    for _ in 0..32 {
        assert!([2, 4, 6].contains(&picked.generate(&mut rng)));
    }
}

#[test]
fn generation_is_deterministic_per_seed() {
    let gen = vec_of(0u64..1_000_000, 0usize..32);
    let a = gen.generate(&mut TestRng::fresh(77));
    let b = gen.generate(&mut TestRng::fresh(77));
    assert_eq!(a, b);
    let c = gen.generate(&mut TestRng::fresh(78));
    assert_ne!(a, c);
}

#[test]
fn case_seeds_walk_deterministically() {
    // The runner chains case seeds through mix64; pin the walk so a
    // reported seed stays meaningful across releases.
    assert_eq!(mix64(mix64(1)), mix64(mix64(1)));
    assert_ne!(mix64(1), mix64(2));
}

// The macro facade: a passing property runs silently, a failing one
// panics with a minimal input.

mlperf_testkit::properties! {
    #[test]
    fn macro_addition_commutes(a in 0u64..1 << 32, b in 0u64..1 << 32) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn macro_vectors_round_trip(xs in vec_of(-1e6f64..1e6, 0usize..40)) {
        let doubled: Vec<f64> = xs.iter().map(|x| x * 2.0).collect();
        let halved: Vec<f64> = doubled.iter().map(|x| x / 2.0).collect();
        prop_assert_eq!(xs, halved);
    }
}

#[test]
#[should_panic(expected = "minimal input")]
fn macro_failures_panic_with_the_minimal_input() {
    mlperf_testkit::properties! {
        fn inner_always_fails(x in 0u64..100) {
            prop_assert!(x > 100, "x = {x} never exceeds 100");
        }
    }
    inner_always_fails();
}
