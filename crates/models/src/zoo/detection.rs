//! Object-detection models: SSD (the MLPerf "light-weight" benchmark) and
//! Mask R-CNN (the "heavy-weight" one).
//!
//! SSD follows the MLPerf v0.5 reference: a ResNet-34 backbone truncated at
//! stage 3 (38×38 maps on a 300×300 input), extra stride-2 feature layers
//! down to 1×1, and per-map location/confidence heads over ~8700 default
//! boxes. Mask R-CNN follows He et al.: ResNet-50-FPN backbone at 800×1344,
//! RPN over five pyramid levels, a 1024-d two-FC box head over 512 sampled
//! RoIs, and a four-conv mask head.

use crate::graph::ModelGraph;
use crate::op::{Op, OpKind};
use crate::zoo::resnet::{resnet34_ssd_backbone, resnet50_fpn_backbone};

/// COCO has 80 object classes + background.
const COCO_CLASSES: usize = 81;

/// A dense layer applied independently to `count` region proposals
/// (so per-sample costs scale by the proposal count).
fn roi_dense(name: &str, count: usize, in_f: usize, out_f: usize) -> Op {
    let macs = (count * in_f * out_f) as u64;
    Op::custom(
        name,
        OpKind::Gemm,
        2 * macs,
        (count * (in_f + out_f)) as u64,
        (in_f * out_f + out_f) as u64,
        true,
        2.0,
        2.0,
    )
}

/// A 3×3 same-padding convolution applied to `count` fixed-size RoI maps.
fn roi_conv(name: &str, count: usize, ch_in: usize, ch_out: usize, hw: usize) -> Op {
    let macs = (count * ch_in * 9 * ch_out * hw * hw) as u64;
    Op::custom(
        name,
        OpKind::Conv,
        2 * macs,
        (count * hw * hw * (ch_in + ch_out)) as u64,
        (ch_in * 9 * ch_out) as u64,
        true,
        2.0,
        2.0,
    )
}

/// Single-shot detector on 300×300 inputs (MLPerf object detection,
/// light-weight).
pub fn ssd300() -> ModelGraph {
    let (backbone, mut ch, mut hw) = resnet34_ssd_backbone(300);
    let mut g = ModelGraph::new("SSD-ResNet34");
    g.extend(backbone.ops().iter().cloned());

    // Feature maps: (channels, spatial, anchors per location).
    // The 38x38 backbone output is the first head input; extra layers
    // generate 19, 10, 5, 3, 1.
    let mut maps: Vec<(usize, usize, usize)> = vec![(ch, hw, 4)];
    let extra: [(usize, usize, usize); 5] = [
        (512, 19, 6),
        (512, 10, 6),
        (256, 5, 6),
        (256, 3, 4),
        (256, 1, 4),
    ];
    for (i, (out_ch, out_hw, anchors)) in extra.into_iter().enumerate() {
        // 1x1 bottleneck then 3x3 stride-2 (SSD's extra-layer pattern).
        g.push(Op::conv2d(
            format!("extra{i}_1x1"),
            ch,
            out_ch / 2,
            1,
            1,
            0,
            hw,
            hw,
        ));
        let stride = if hw / out_hw >= 2 { 2 } else { 1 };
        let pad = 1;
        g.push(Op::custom(
            format!("extra{i}_3x3"),
            OpKind::Conv,
            2 * ((out_ch / 2) * 9 * out_ch) as u64 * (out_hw * out_hw) as u64,
            ((out_ch / 2) * hw * hw + out_ch * out_hw * out_hw) as u64,
            ((out_ch / 2) * 9 * out_ch) as u64,
            true,
            2.0,
            2.0,
        ));
        let _ = (stride, pad);
        ch = out_ch;
        hw = out_hw;
        maps.push((ch, hw, anchors));
    }

    // Detection heads: per map a 3x3 conv to 4*anchors (loc) and
    // classes*anchors (conf).
    let mut total_boxes = 0u64;
    for (i, (mch, mhw, anchors)) in maps.iter().copied().enumerate() {
        g.push(Op::conv2d(
            format!("loc_head{i}"),
            mch,
            4 * anchors,
            3,
            1,
            1,
            mhw,
            mhw,
        ));
        g.push(Op::conv2d(
            format!("conf_head{i}"),
            mch,
            COCO_CLASSES * anchors,
            3,
            1,
            1,
            mhw,
            mhw,
        ));
        total_boxes += (mhw * mhw * anchors) as u64;
    }
    // Box decode + NMS over all default boxes.
    g.push(Op::elementwise("box_decode", total_boxes * 4, 4));
    g.push(Op::softmax(
        "conf_softmax",
        total_boxes * COCO_CLASSES as u64,
    ));
    g
}

/// RoIs sampled per image during Mask R-CNN training.
const TRAIN_ROIS: usize = 512;

/// Mask R-CNN with ResNet-50-FPN on 800×1344 inputs (MLPerf object
/// detection, heavy-weight).
pub fn mask_rcnn() -> ModelGraph {
    let (backbone, c5, h5, w5) = resnet50_fpn_backbone(800, 1344);
    let mut g = ModelGraph::new("Mask-R-CNN-R50-FPN");
    g.extend(backbone.ops().iter().cloned());

    // FPN: lateral 1x1 convs on C2..C5 plus 3x3 output convs, all to 256ch.
    // Geometry: C2=200x336, C3=100x168, C4=50x84, C5=25x42.
    let levels: [(usize, usize, usize); 4] = [
        (256, h5 * 8, w5 * 8),
        (512, h5 * 4, w5 * 4),
        (1024, h5 * 2, w5 * 2),
        (c5, h5, w5),
    ];
    for (i, (ch, h, w)) in levels.into_iter().enumerate() {
        g.push(Op::conv2d(
            format!("fpn_lateral{i}"),
            ch,
            256,
            1,
            1,
            0,
            h,
            w,
        ));
        g.push(Op::conv2d(
            format!("fpn_output{i}"),
            256,
            256,
            3,
            1,
            1,
            h,
            w,
        ));
    }

    // RPN head shared across 5 levels (P2..P6): 3x3 conv + two 1x1s over
    // 3 anchors per location.
    for (i, (_, h, w)) in levels.into_iter().enumerate() {
        g.push(Op::conv2d(
            format!("rpn_conv_p{}", i + 2),
            256,
            256,
            3,
            1,
            1,
            h,
            w,
        ));
        g.push(Op::conv2d(
            format!("rpn_cls_p{}", i + 2),
            256,
            3,
            1,
            1,
            0,
            h,
            w,
        ));
        g.push(Op::conv2d(
            format!("rpn_box_p{}", i + 2),
            256,
            12,
            1,
            1,
            0,
            h,
            w,
        ));
    }

    // RoIAlign is a gather: bandwidth, not FLOPs.
    let roi_feat = 7 * 7 * 256;
    g.push(Op::custom(
        "roi_align_box",
        OpKind::Pool,
        (TRAIN_ROIS * roi_feat * 4) as u64, // bilinear: 4 taps per output
        (2 * TRAIN_ROIS * roi_feat) as u64,
        0,
        false,
        1.0,
        1.0,
    ));

    // Box head: two 1024-d FCs, then class + box predictors.
    g.push(roi_dense("box_fc1", TRAIN_ROIS, roi_feat, 1024));
    g.push(roi_dense("box_fc2", TRAIN_ROIS, 1024, 1024));
    g.push(roi_dense("box_cls", TRAIN_ROIS, 1024, COCO_CLASSES));
    g.push(roi_dense("box_reg", TRAIN_ROIS, 1024, 4 * COCO_CLASSES));

    // Mask head: RoIAlign at 14x14, four 3x3 convs, deconv to 28x28, then
    // per-class mask predictor.
    let mask_rois = TRAIN_ROIS / 4; // only foreground RoIs reach the mask head
    g.push(Op::custom(
        "roi_align_mask",
        OpKind::Pool,
        (mask_rois * 14 * 14 * 256 * 4) as u64,
        (2 * mask_rois * 14 * 14 * 256) as u64,
        0,
        false,
        1.0,
        1.0,
    ));
    for i in 0..4 {
        g.push(roi_conv(&format!("mask_conv{i}"), mask_rois, 256, 256, 14));
    }
    g.push(roi_conv("mask_deconv", mask_rois, 256, 256, 28));
    g.push(Op::custom(
        "mask_pred",
        OpKind::Conv,
        2 * (mask_rois * 256 * COCO_CLASSES * 28 * 28) as u64,
        (mask_rois * 28 * 28 * (256 + COCO_CLASSES)) as u64,
        (256 * COCO_CLASSES) as u64,
        true,
        2.0,
        2.0,
    ));
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_parameter_count_plausible() {
        let g = ssd300();
        let m = g.params() as f64 / 1e6;
        // MLPerf SSD-ResNet34 is ~25-36 M params depending on head config.
        assert!((15.0..45.0).contains(&m), "SSD params = {m} M");
    }

    #[test]
    fn ssd_forward_flops_plausible() {
        let gf = ssd300().fwd_flops(1).as_gflops();
        // Light-weight detector: tens of GFLOP per 300x300 image
        // (the truncated ResNet-34 keeps stage 3 at 38x38).
        assert!((15.0..50.0).contains(&gf), "SSD fwd = {gf} GFLOP");
    }

    #[test]
    fn mask_rcnn_parameter_count_plausible() {
        let m = mask_rcnn().params() as f64 / 1e6;
        // Literature: ~44 M for R50-FPN Mask R-CNN.
        assert!((35.0..55.0).contains(&m), "Mask R-CNN params = {m} M");
    }

    #[test]
    fn mask_rcnn_is_heavyweight() {
        let ssd = ssd300().fwd_flops(1).as_gflops();
        let mrcnn = mask_rcnn().fwd_flops(1).as_gflops();
        // Paper calls Mask R-CNN "heavy-weight": order-of-magnitude costlier.
        assert!(mrcnn > 8.0 * ssd, "MRCNN {mrcnn} vs SSD {ssd} GFLOP");
        assert!((200.0..900.0).contains(&mrcnn), "MRCNN fwd = {mrcnn} GFLOP");
    }

    #[test]
    fn heads_are_tensor_core_eligible() {
        assert!(mask_rcnn().tensor_core_fraction(1) > 0.85);
        assert!(ssd300().tensor_core_fraction(1) > 0.85);
    }
}
