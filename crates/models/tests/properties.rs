//! Property-based tests for the operator/graph cost models.

use mlperf_models::zoo::resnet::resnet18_cifar;
use mlperf_models::zoo::{deepbench, detection, drqa, ncf, resnet, translation};
use mlperf_models::{ModelGraph, Op, Optimizer, PrecisionPolicy};
use mlperf_testkit::prop::*;

/// A generator producing small random-but-valid operators.
fn arb_op() -> impl Gen<Value = Op> {
    one_of(vec![
        (1usize..64, 1usize..64)
            .prop_map(|(i, o)| Op::dense(format!("fc{i}x{o}"), i, o))
            .boxed(),
        (1usize..16, 1usize..16, 8usize..32)
            .prop_map(|(ci, co, hw)| Op::conv2d(format!("c{ci}x{co}"), ci, co, 3, 1, 1, hw, hw))
            .boxed(),
        (1u64..10_000)
            .prop_map(|e| Op::activation(format!("act{e}"), e))
            .boxed(),
        (1usize..64, 1usize..128)
            .prop_map(|(c, s)| Op::batch_norm(format!("bn{c}"), c, s))
            .boxed(),
        (100usize..5000, 4usize..64, 1usize..8)
            .prop_map(|(v, d, l)| Op::embedding(format!("emb{v}"), v, d, l))
            .boxed(),
    ])
}

/// A generator producing small random-but-valid operator graphs.
fn arb_graph() -> impl Gen<Value = ModelGraph> {
    vec_of(arb_op(), 1usize..12).prop_map(|ops| {
        let mut g = ModelGraph::new("random");
        g.extend(ops);
        g
    })
}

/// One way to grow (or share) a graph.
#[derive(Debug)]
enum Growth {
    Push(Op),
    Extend(Vec<Op>),
    /// Keep a clone aside; later growth must not reach it.
    Clone,
    /// Build the cost tables, as pricing does.
    Price(u64),
}

fn arb_growth() -> impl Gen<Value = Growth> {
    one_of(vec![
        arb_op().prop_map(Growth::Push).boxed(),
        vec_of(arb_op(), 0usize..4).prop_map(Growth::Extend).boxed(),
        just(()).prop_map(|()| Growth::Clone).boxed(),
        (1u64..512).prop_map(Growth::Price).boxed(),
    ])
}

/// `params()` and `resident_activation_elems_per_sample()` equal a fresh
/// walk over `ops()`: the parameter sum, and 55% of the written half of
/// every op's per-sample forward activation traffic.
fn totals_match_a_walk(g: &ModelGraph) -> Result<(), String> {
    let params: u64 = g.ops().iter().map(Op::params).sum();
    let written: u64 = g.ops().iter().map(|op| op.fwd_act_elems(1) / 2).sum();
    let resident = (written as f64 * 0.55).round() as u64;
    prop_assert_eq!(g.params(), params, "{}: params", g.name());
    prop_assert_eq!(
        g.resident_activation_elems_per_sample(),
        resident,
        "{}: resident activation elements",
        g.name()
    );
    Ok(())
}

mlperf_testkit::properties! {
    /// The kept totals follow any mix of pushes and extends, including
    /// growth after a clone (which leaves the clone's totals alone) and
    /// after pricing built the cost tables.
    #[test]
    fn graph_totals_match_a_walk_through_any_growth(steps in vec_of(arb_growth(), 0usize..16)) {
        let mut g = ModelGraph::new("grown");
        let mut kept = Vec::new();
        for step in steps {
            match step {
                Growth::Push(op) => {
                    g.push(op);
                }
                Growth::Extend(ops) => g.extend(ops),
                Growth::Clone => kept.push(g.clone()),
                Growth::Price(batch) => {
                    g.pass_cost(batch, PrecisionPolicy::Amp);
                }
            }
            totals_match_a_walk(&g)?;
        }
        for clone in &kept {
            totals_match_a_walk(clone)?;
        }
    }

    /// Differential battery for the vectorized cost tables: the
    /// table-backed `pass_cost` must be bit-identical to the original
    /// scalar op walk on fuzzed graphs, batches, and both policies — and
    /// so must a standalone `PassCostTable` built from the same ops.
    #[test]
    fn pass_cost_table_matches_scalar_walk(g in arb_graph(), batch in 1u64..=8192) {
        use mlperf_models::PassCostTable;
        for policy in [PrecisionPolicy::Fp32, PrecisionPolicy::Amp] {
            let scalar = g.pass_cost_scalar(batch, policy);
            prop_assert_eq!(g.pass_cost(batch, policy), scalar);
            prop_assert_eq!(PassCostTable::build(g.ops(), policy).pass_cost(batch), scalar);
        }
    }

    /// Graph mutation after pricing invalidates the cached tables: a
    /// pushed op must show up in the next pass cost.
    #[test]
    fn cached_tables_track_mutation(g in arb_graph(), batch in 1u64..256) {
        let before = g.pass_cost(batch, PrecisionPolicy::Fp32);
        let mut grown = g.clone();
        grown.push(Op::dense("appended", 32, 32));
        let after = grown.pass_cost(batch, PrecisionPolicy::Fp32);
        prop_assert!(after.total_flops() > before.total_flops());
        prop_assert_eq!(grown.pass_cost_scalar(batch, PrecisionPolicy::Fp32), after);
        // The original graph is untouched (copy-on-write).
        prop_assert_eq!(g.pass_cost(batch, PrecisionPolicy::Fp32), before);
    }

    /// FLOPs and activation traffic are exactly linear in the batch size.
    #[test]
    fn costs_linear_in_batch(g in arb_graph(), batch in 1u64..64) {
        prop_assert_eq!(
            g.fwd_flops(batch).as_u64(),
            batch * g.fwd_flops(1).as_u64()
        );
        prop_assert_eq!(
            g.training_flops(batch).as_u64(),
            batch * g.training_flops(1).as_u64()
        );
    }

    /// Backward work never undercuts forward work for standard ops.
    #[test]
    fn training_at_least_forward(g in arb_graph(), batch in 1u64..32) {
        prop_assert!(g.training_flops(batch).as_u64() >= g.fwd_flops(batch).as_u64());
    }

    /// AMP never moves more bytes than FP32 and never changes total FLOPs.
    #[test]
    fn amp_dominates_fp32_on_traffic(g in arb_graph(), batch in 1u64..32) {
        let amp = g.pass_cost(batch, PrecisionPolicy::Amp);
        let fp32 = g.pass_cost(batch, PrecisionPolicy::Fp32);
        prop_assert!(amp.mem_bytes <= fp32.mem_bytes);
        prop_assert!(amp.gradient_bytes <= fp32.gradient_bytes);
        prop_assert_eq!(amp.total_flops(), fp32.total_flops());
        // All FP32 flops stay on the SIMT pipeline.
        prop_assert_eq!(fp32.tensor_flops.as_u64(), 0);
    }

    /// Replica footprint is monotone in batch size and in optimizer state.
    #[test]
    fn footprint_monotonicity(g in arb_graph(), batch in 1u64..64) {
        let small = g.replica_footprint(batch, PrecisionPolicy::Amp, Optimizer::SgdMomentum);
        let large = g.replica_footprint(batch + 1, PrecisionPolicy::Amp, Optimizer::SgdMomentum);
        prop_assert!(large >= small);
        let adam = g.replica_footprint(batch, PrecisionPolicy::Amp, Optimizer::Adam);
        prop_assert!(adam >= small, "Adam carries more state than SGD");
    }

    /// Kind breakdown always partitions the training FLOPs.
    #[test]
    fn breakdown_partitions(g in arb_graph(), batch in 1u64..16) {
        let total: u64 = g.kind_breakdown(batch).values().map(|f| f.as_u64()).sum();
        prop_assert_eq!(total, g.training_flops(batch).as_u64());
    }

    /// Tensor-core fraction is a fraction.
    #[test]
    fn tc_fraction_bounded(g in arb_graph()) {
        let f = g.tensor_core_fraction(4);
        prop_assert!((0.0..=1.0).contains(&f));
    }

    /// Gradient bytes track parameters exactly at both precisions.
    #[test]
    fn gradients_track_params(g in arb_graph(), batch in 1u64..16) {
        let amp = g.pass_cost(batch, PrecisionPolicy::Amp);
        let fp32 = g.pass_cost(batch, PrecisionPolicy::Fp32);
        prop_assert_eq!(amp.gradient_bytes.as_u64(), 2 * g.params());
        prop_assert_eq!(fp32.gradient_bytes.as_u64(), 4 * g.params());
    }
}

/// Every zoo graph, DeepBench's one-op kernels included, carries the
/// totals a walk over its ops gives.
#[test]
fn zoo_graph_totals_match_a_walk() {
    let kernels = [
        deepbench::gemm_kernels(),
        deepbench::conv_kernels(),
        deepbench::rnn_kernels(),
    ];
    let graphs = [
        resnet::resnet50(),
        resnet::resnet18_cifar(),
        resnet::resnet34_ssd_backbone(300).0,
        resnet::resnet50_fpn_backbone(800, 1344).0,
        detection::ssd300(),
        detection::mask_rcnn(),
        translation::transformer_big(),
        translation::gnmt(),
        ncf::ncf(),
        drqa::drqa(),
    ]
    .into_iter()
    .chain(kernels.iter().flatten().map(|k| k.as_graph()));
    for g in graphs {
        totals_match_a_walk(&g).unwrap();
    }
}

/// A fixed-model anchor: the CIFAR ResNet-18 obeys the same laws at a
/// realistic size (guards against the generator only covering tiny ops).
#[test]
fn realistic_model_obeys_linearity() {
    let g = resnet18_cifar();
    assert_eq!(g.fwd_flops(256).as_u64(), 256 * g.fwd_flops(1).as_u64());
    let amp = g.pass_cost(128, PrecisionPolicy::Amp);
    let fp32 = g.pass_cost(128, PrecisionPolicy::Fp32);
    assert!(amp.mem_bytes < fp32.mem_bytes);
}
