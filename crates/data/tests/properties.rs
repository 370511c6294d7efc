//! Property-based tests for the dataset/pipeline substrate.

use mlperf_data::{DatasetId, InputPipeline};
use mlperf_hw::units::Bytes;
use mlperf_hw::CpuModel;
use mlperf_testkit::prop::*;

fn arb_dataset() -> impl Gen<Value = DatasetId> {
    elements(&[
        DatasetId::ImageNet,
        DatasetId::Coco,
        DatasetId::Wmt17,
        DatasetId::MovieLens20M,
        DatasetId::Cifar10,
        DatasetId::Squad,
    ])
}

mlperf_testkit::properties! {
    /// Host batch time and H2D volume are exactly linear in batch size.
    #[test]
    fn pipeline_linear_in_batch(
        ds in arb_dataset(),
        sample_bytes in 1u64..1 << 22,
        batch in 1u64..4096
    ) {
        let p = InputPipeline::new(ds, Bytes::new(sample_bytes));
        let cpu = CpuModel::XeonGold6148.spec();
        let t1 = p.host_time_per_batch(&cpu, batch).as_secs();
        let t2 = p.host_time_per_batch(&cpu, 2 * batch).as_secs();
        prop_assert!((t2 - 2.0 * t1).abs() <= t1 * 1e-9 + 1e-15);
        prop_assert_eq!(
            p.h2d_bytes_per_batch(batch).as_u64(),
            batch * sample_bytes
        );
    }

    /// The cost multiplier scales host work proportionally and leaves the
    /// H2D volume untouched.
    #[test]
    fn multiplier_touches_only_host_work(
        ds in arb_dataset(),
        mult in 0.1f64..10.0,
        batch in 1u64..512
    ) {
        let base = InputPipeline::new(ds, Bytes::new(1024));
        let scaled = InputPipeline::new(ds, Bytes::new(1024)).with_host_cost_multiplier(mult);
        let ratio = scaled.host_core_secs_per_batch(batch) / base.host_core_secs_per_batch(batch);
        prop_assert!((ratio - mult).abs() < 1e-9);
        prop_assert_eq!(base.h2d_bytes_per_batch(batch), scaled.h2d_bytes_per_batch(batch));
    }

    /// Staging never exceeds the dataset and grows monotonically with
    /// prefetch depth until the cap.
    #[test]
    fn staging_bounded_and_monotone(
        ds in arb_dataset(),
        batch in 1u64..4096,
        depth in 1u64..16
    ) {
        let p = InputPipeline::new(ds, Bytes::new(4096));
        let a = p.staging_footprint(batch, depth);
        let b = p.staging_footprint(batch, depth + 1);
        prop_assert!(a <= b);
        prop_assert!(b <= ds.spec().on_disk());
    }
}
