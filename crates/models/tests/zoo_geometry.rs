//! Architecture-level regression tests for the model zoo: layer geometry,
//! parameter budgets per component, and cost-structure facts that the
//! calibration relies on.

use mlperf_models::zoo::{deepbench, detection, drqa, ncf, resnet, translation};
use mlperf_models::{OpKind, PrecisionPolicy};

#[test]
fn resnet50_stage_structure() {
    let g = resnet::resnet50();
    // 53 convolutions total: stem + 3x(3,4,6,3) bottleneck convs + 4
    // projection shortcuts.
    let convs = g.ops().iter().filter(|o| o.kind() == OpKind::Conv).count();
    assert_eq!(convs, 1 + 3 * (3 + 4 + 6 + 3) + 4);
    // Exactly one classifier GEMM.
    let gemms = g.ops().iter().filter(|o| o.kind() == OpKind::Gemm).count();
    assert_eq!(gemms, 1);
    // Every conv has a batch norm.
    let norms = g.ops().iter().filter(|o| o.kind() == OpKind::Norm).count();
    assert_eq!(norms, convs);
}

#[test]
fn resnet50_parameter_budget_by_kind() {
    let g = resnet::resnet50();
    let conv_params: u64 = g
        .ops()
        .iter()
        .filter(|o| o.kind() == OpKind::Conv)
        .map(|o| o.params())
        .sum();
    let fc_params: u64 = g
        .ops()
        .iter()
        .filter(|o| o.kind() == OpKind::Gemm)
        .map(|o| o.params())
        .sum();
    // The classifier is 2048*1000 + 1000.
    assert_eq!(fc_params, 2048 * 1000 + 1000);
    // Convolutions hold ~90% of the parameters.
    assert!(conv_params as f64 > 0.88 * g.params() as f64);
}

#[test]
fn resnet18_cifar_keeps_full_resolution_stem() {
    let g = resnet::resnet18_cifar();
    // The CIFAR variant's stem is a 3x3 stride-1 conv: its output
    // activation traffic covers the full 32x32 map at 64 channels.
    let stem = &g.ops()[0];
    assert_eq!(stem.kind(), OpKind::Conv);
    assert!(stem.fwd_act_elems(1) >= (3 * 32 * 32 + 64 * 32 * 32) as u64);
}

#[test]
fn ssd_head_counts_cover_six_maps() {
    let g = detection::ssd300();
    let loc_heads = g
        .ops()
        .iter()
        .filter(|o| o.name().starts_with("loc_head"))
        .count();
    let conf_heads = g
        .ops()
        .iter()
        .filter(|o| o.name().starts_with("conf_head"))
        .count();
    assert_eq!(loc_heads, 6);
    assert_eq!(conf_heads, 6);
}

#[test]
fn mask_rcnn_component_structure() {
    let g = detection::mask_rcnn();
    let names: Vec<&str> = g.ops().iter().map(|o| o.name()).collect();
    // FPN laterals and outputs at four levels.
    for i in 0..4 {
        assert!(names.contains(&format!("fpn_lateral{i}").as_str()));
        assert!(names.contains(&format!("fpn_output{i}").as_str()));
    }
    // RPN over the four FPN output levels (P6 is a stride of P5 with no
    // extra convolution in this cost model).
    for p in 2..=5 {
        assert!(names.contains(&format!("rpn_conv_p{p}").as_str()));
    }
    // Both RoIAlign stages are pure gathers (no trainable weights).
    for roi in ["roi_align_box", "roi_align_mask"] {
        let op = g.ops().iter().find(|o| o.name() == roi).expect("present");
        assert_eq!(op.params(), 0);
        assert_eq!(op.kind(), OpKind::Pool);
    }
}

#[test]
fn transformer_layer_stack_is_six_plus_six() {
    let g = translation::transformer_big();
    let enc_attn = g
        .ops()
        .iter()
        .filter(|o| o.name().contains("enc") && o.name().contains("self_attn"))
        .count();
    let dec_self = g
        .ops()
        .iter()
        .filter(|o| o.name().contains("dec") && o.name().contains("self_attn"))
        .count();
    let dec_cross = g
        .ops()
        .iter()
        .filter(|o| o.name().contains("cross_attn"))
        .count();
    assert_eq!(enc_attn, 6);
    assert_eq!(dec_self, 6);
    assert_eq!(dec_cross, 6);
    // The shared-embedding logits GEMM carries no extra parameters.
    let logits = g
        .ops()
        .iter()
        .find(|o| o.name() == "logits")
        .expect("present");
    assert_eq!(logits.params(), 0);
}

#[test]
fn gnmt_encoder_is_bidirectional_only_at_layer_zero() {
    let g = translation::gnmt();
    assert!(g.ops().iter().any(|o| o.name() == "enc0_fwd"));
    assert!(g.ops().iter().any(|o| o.name() == "enc0_bwd"));
    assert!(!g.ops().iter().any(|o| o.name() == "enc1_bwd"));
    // Decoder stack: dec0..dec3.
    for l in 0..4 {
        assert!(g.ops().iter().any(|o| o.name() == format!("dec{l}")));
    }
}

#[test]
fn ncf_embedding_tables_match_movielens() {
    let g = ncf::ncf();
    let emb_params: u64 = g
        .ops()
        .iter()
        .filter(|o| o.kind() == OpKind::Embedding)
        .map(|o| o.params())
        .sum();
    let expected =
        (ncf::USERS + ncf::ITEMS) as u64 * (ncf::MF_DIM as u64 + (ncf::MLP_LAYERS[0] / 2) as u64);
    assert_eq!(emb_params, expected);
}

#[test]
fn drqa_has_six_bilstm_sweeps_per_encoder() {
    let g = drqa::drqa();
    let doc = g
        .ops()
        .iter()
        .filter(|o| o.name().starts_with("doc_lstm"))
        .count();
    let q = g
        .ops()
        .iter()
        .filter(|o| o.name().starts_with("q_lstm"))
        .count();
    assert_eq!(doc, 6, "3 layers x 2 directions");
    assert_eq!(q, 6);
    // Span prediction has start and end heads.
    assert!(g.ops().iter().any(|o| o.name() == "span_start"));
    assert!(g.ops().iter().any(|o| o.name() == "span_end"));
}

#[test]
fn deepbench_kernels_have_expected_precision_behaviour() {
    // FP32 pricing of a GEMM kernel moves 2x the bytes of AMP pricing.
    let k = &deepbench::gemm_kernels()[0];
    let g = k.as_graph();
    let fp32 = g.pass_cost(k.batch, PrecisionPolicy::Fp32);
    let amp = g.pass_cost(k.batch, PrecisionPolicy::Amp);
    assert_eq!(fp32.mem_bytes.as_u64(), 2 * amp.mem_bytes.as_u64());
}

#[test]
fn model_scale_ordering_is_sane() {
    // Parameter counts order as the literature says.
    let params = |g: &mlperf_models::ModelGraph| g.params();
    let resnet18 = resnet::resnet18_cifar();
    let resnet50 = resnet::resnet50();
    let xfmr = translation::transformer_big();
    let gnmt = translation::gnmt();
    assert!(params(&resnet18) < params(&resnet50));
    assert!(params(&resnet50) < params(&gnmt));
    assert!(params(&gnmt) < params(&xfmr));
}

#[test]
fn per_sample_compute_ordering_is_sane() {
    // MRCNN >> SSD >> ResNet-50 >> NCF per sample.
    let fwd = |g: &mlperf_models::ModelGraph| g.fwd_flops(1).as_f64();
    assert!(fwd(&detection::mask_rcnn()) > 10.0 * fwd(&detection::ssd300()));
    assert!(fwd(&detection::ssd300()) > fwd(&resnet::resnet50()));
    assert!(fwd(&resnet::resnet50()) > 1000.0 * fwd(&ncf::ncf()));
}
