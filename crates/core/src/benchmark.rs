//! The benchmark registry: every workload of Table II, with the
//! configuration and calibration needed to run it on the simulator.
//!
//! Calibration policy (see DESIGN.md): per-benchmark constants — batch
//! size, epochs-to-target, sustained-efficiency factors, host-cost
//! multipliers — are fitted against the paper's *single-GPU* anchors
//! (Table IV) and single-GPU utilization rows (Table V). Everything else
//! (scaling, topology sensitivity, bus traffic growth) is derived by the
//! engine.

use mlperf_data::{DatasetId, InputPipeline};
use mlperf_hw::units::{Bytes, Seconds};
use mlperf_models::zoo::{detection, drqa, ncf, resnet, translation};
use mlperf_models::{ModelGraph, Optimizer};
use mlperf_sim::{ConvergenceModel, Efficiency, TrainingJob};
use std::fmt;

/// Which suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Suite {
    /// MLPerf v0.5 training.
    MlPerf,
    /// Stanford DAWNBench.
    DawnBench,
    /// Baidu DeepBench.
    DeepBench,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Suite::MlPerf => "MLPerf",
            Suite::DawnBench => "DAWNBench",
            Suite::DeepBench => "DeepBench",
        };
        f.write_str(s)
    }
}

/// The trainable benchmarks of the study (Table II, top and middle).
///
/// DeepBench's kernel workloads are not end-to-end training jobs; they are
/// handled by the unified [`Ctx::workload`](crate::runner::Ctx::workload)
/// entry point under [`WorkloadSpec::DeepBench`](crate::workloads::WorkloadSpec).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BenchmarkId {
    /// ResNet-50 image classification, TensorFlow (Google submission).
    MlpfRes50Tf,
    /// ResNet-50 image classification, MXNet (NVIDIA submission).
    MlpfRes50Mx,
    /// SSD light-weight object detection, PyTorch.
    MlpfSsdPy,
    /// Mask R-CNN heavy-weight object detection, PyTorch.
    MlpfMrcnnPy,
    /// Transformer translation, PyTorch.
    MlpfXfmrPy,
    /// GNMT translation, PyTorch.
    MlpfGnmtPy,
    /// Neural collaborative filtering recommendation, PyTorch.
    MlpfNcfPy,
    /// DAWNBench CIFAR10 ResNet-18 (bkj submission).
    DawnRes18Py,
    /// DAWNBench SQuAD DrQA (Yang et al. submission).
    DawnDrqaPy,
}

impl BenchmarkId {
    /// All trainable benchmarks, in Table II order.
    pub const ALL: [BenchmarkId; 9] = [
        BenchmarkId::MlpfRes50Tf,
        BenchmarkId::MlpfRes50Mx,
        BenchmarkId::MlpfSsdPy,
        BenchmarkId::MlpfMrcnnPy,
        BenchmarkId::MlpfXfmrPy,
        BenchmarkId::MlpfGnmtPy,
        BenchmarkId::MlpfNcfPy,
        BenchmarkId::DawnRes18Py,
        BenchmarkId::DawnDrqaPy,
    ];

    /// The seven MLPerf workloads (the Fig. 4 scheduling mix).
    pub const MLPERF: [BenchmarkId; 7] = [
        BenchmarkId::MlpfRes50Tf,
        BenchmarkId::MlpfRes50Mx,
        BenchmarkId::MlpfSsdPy,
        BenchmarkId::MlpfMrcnnPy,
        BenchmarkId::MlpfXfmrPy,
        BenchmarkId::MlpfGnmtPy,
        BenchmarkId::MlpfNcfPy,
    ];

    /// The six MLPerf benchmarks of Table IV (GNMT is excluded there).
    pub const TABLE_IV: [BenchmarkId; 6] = [
        BenchmarkId::MlpfRes50Tf,
        BenchmarkId::MlpfRes50Mx,
        BenchmarkId::MlpfSsdPy,
        BenchmarkId::MlpfMrcnnPy,
        BenchmarkId::MlpfXfmrPy,
        BenchmarkId::MlpfNcfPy,
    ];

    /// The abbreviation used throughout the paper's tables and figures.
    pub fn abbreviation(self) -> &'static str {
        match self {
            BenchmarkId::MlpfRes50Tf => "MLPf_Res50_TF",
            BenchmarkId::MlpfRes50Mx => "MLPf_Res50_MX",
            BenchmarkId::MlpfSsdPy => "MLPf_SSD_Py",
            BenchmarkId::MlpfMrcnnPy => "MLPf_MRCNN_Py",
            BenchmarkId::MlpfXfmrPy => "MLPf_XFMR_Py",
            BenchmarkId::MlpfGnmtPy => "MLPf_GNMT_Py",
            BenchmarkId::MlpfNcfPy => "MLPf_NCF_Py",
            BenchmarkId::DawnRes18Py => "Dawn_Res18_Py",
            BenchmarkId::DawnDrqaPy => "Dawn_DrQA_Py",
        }
    }

    /// The inverse of [`BenchmarkId::abbreviation`]: the benchmark a
    /// paper-table abbreviation names, if any. This is the single
    /// workload vocabulary of the `repro serve` wire schema.
    pub fn from_abbreviation(s: &str) -> Option<BenchmarkId> {
        BenchmarkId::ALL.into_iter().find(|b| b.abbreviation() == s)
    }

    /// The suite this benchmark belongs to.
    pub fn suite(self) -> Suite {
        match self {
            BenchmarkId::DawnRes18Py | BenchmarkId::DawnDrqaPy => Suite::DawnBench,
            _ => Suite::MlPerf,
        }
    }

    /// The application domain (Table II column 2).
    pub fn domain(self) -> &'static str {
        match self {
            BenchmarkId::MlpfRes50Tf | BenchmarkId::MlpfRes50Mx => "Image Classification",
            BenchmarkId::MlpfSsdPy | BenchmarkId::MlpfMrcnnPy => "Object Detection",
            BenchmarkId::MlpfXfmrPy | BenchmarkId::MlpfGnmtPy => "Translation",
            BenchmarkId::MlpfNcfPy => "Recommendation",
            BenchmarkId::DawnRes18Py => "Image Classification",
            BenchmarkId::DawnDrqaPy => "Question Answering",
        }
    }

    /// The model name (Table II column 3).
    pub fn model_name(self) -> &'static str {
        match self {
            BenchmarkId::MlpfRes50Tf | BenchmarkId::MlpfRes50Mx => "ResNet-50",
            BenchmarkId::MlpfSsdPy => "SSD (light-weight)",
            BenchmarkId::MlpfMrcnnPy => "Mask RCNN (heavy-weight)",
            BenchmarkId::MlpfXfmrPy => "Transformer",
            BenchmarkId::MlpfGnmtPy => "RNN GNMT",
            BenchmarkId::MlpfNcfPy => "Neural Collaborative Filtering",
            BenchmarkId::DawnRes18Py => "ResNet-18 (modified)",
            BenchmarkId::DawnDrqaPy => "DrQA",
        }
    }

    /// The framework of the submitted implementation.
    pub fn framework(self) -> &'static str {
        match self {
            BenchmarkId::MlpfRes50Tf => "TensorFlow",
            BenchmarkId::MlpfRes50Mx => "MXNet",
            _ => "PyTorch",
        }
    }

    /// The submitter of the measured code.
    pub fn submitter(self) -> &'static str {
        match self {
            BenchmarkId::MlpfRes50Tf => "Google",
            BenchmarkId::DawnRes18Py => "bkj",
            BenchmarkId::DawnDrqaPy => "Yang et al.",
            _ => "NVIDIA",
        }
    }

    /// The training corpus.
    pub fn dataset(self) -> DatasetId {
        match self {
            BenchmarkId::MlpfRes50Tf | BenchmarkId::MlpfRes50Mx => DatasetId::ImageNet,
            BenchmarkId::MlpfSsdPy | BenchmarkId::MlpfMrcnnPy => DatasetId::Coco,
            BenchmarkId::MlpfXfmrPy | BenchmarkId::MlpfGnmtPy => DatasetId::Wmt17,
            BenchmarkId::MlpfNcfPy => DatasetId::MovieLens20M,
            BenchmarkId::DawnRes18Py => DatasetId::Cifar10,
            BenchmarkId::DawnDrqaPy => DatasetId::Squad,
        }
    }

    /// The quality target defining "trained" (Table II last column).
    pub fn quality_target(self) -> &'static str {
        match self {
            BenchmarkId::MlpfRes50Tf | BenchmarkId::MlpfRes50Mx => "Accuracy: 0.749",
            BenchmarkId::MlpfSsdPy => "mAP: 0.212",
            BenchmarkId::MlpfMrcnnPy => "Box mAP: 0.377, Mask mAP: 0.339",
            BenchmarkId::MlpfXfmrPy => "BLEU score (uncased): 25",
            BenchmarkId::MlpfGnmtPy => "Sacre BLEU score (uncased): 21.80",
            BenchmarkId::MlpfNcfPy => "Hit rate @ 10: 0.635",
            BenchmarkId::DawnRes18Py => "Test accuracy: 94%",
            BenchmarkId::DawnDrqaPy => "F1 score: 0.75",
        }
    }

    /// Build the operator graph for this benchmark's model.
    pub fn model(self) -> ModelGraph {
        match self {
            BenchmarkId::MlpfRes50Tf | BenchmarkId::MlpfRes50Mx => resnet::resnet50(),
            BenchmarkId::MlpfSsdPy => detection::ssd300(),
            BenchmarkId::MlpfMrcnnPy => detection::mask_rcnn(),
            BenchmarkId::MlpfXfmrPy => translation::transformer_big(),
            BenchmarkId::MlpfGnmtPy => translation::gnmt(),
            BenchmarkId::MlpfNcfPy => ncf::ncf(),
            BenchmarkId::DawnRes18Py => resnet::resnet18_cifar(),
            BenchmarkId::DawnDrqaPy => drqa::drqa(),
        }
    }

    /// Build the runnable training job, with per-benchmark calibration.
    pub fn job(self) -> TrainingJob {
        let cal = self.calibration();
        let pipeline = InputPipeline::new(self.dataset(), cal.device_bytes_per_sample)
            .with_host_cost_multiplier(cal.host_cost_multiplier);
        let mut builder = TrainingJob::builder(
            self.abbreviation(),
            self.model(),
            pipeline,
            cal.per_gpu_batch,
            ConvergenceModel::new(cal.epochs, cal.per_gpu_batch, cal.epoch_penalty),
        )
        .optimizer(cal.optimizer)
        .efficiency(cal.efficiency)
        .comm_overlap(cal.comm_overlap)
        .host_step_core_secs(cal.host_step_core_secs)
        .dram_base(cal.dram_base)
        .hbm_overhead(cal.hbm_overhead)
        .gpu_step_overhead(cal.gpu_step_overhead)
        .allreduce_period(cal.allreduce_period)
        .host_fixed_core_secs(cal.host_fixed_core_secs)
        .host_poll_cores(cal.host_poll_cores);
        if let Some(cap) = cal.max_global_batch {
            builder = builder.max_global_batch(cap);
        }
        builder.build()
    }

    /// The job as the *MLPerf reference implementation* would run it on the
    /// P100 reference machine: FP16 arithmetic (Pascal has no Tensor
    /// Cores), a smaller batch, and unoptimized-kernel efficiencies. This
    /// is what the paper's single-P100 anchors (Table IV) measure.
    pub fn reference_job(self) -> TrainingJob {
        let cal = self.calibration();
        let batch = (cal.per_gpu_batch / 2).max(1);
        self.job()
            .with_efficiency(cal.reference_efficiency)
            .with_per_gpu_batch(batch)
    }

    fn calibration(self) -> Calibration {
        match self {
            // Input: 224x224x3 FP16 tensors under AMP.
            BenchmarkId::MlpfRes50Tf => Calibration {
                per_gpu_batch: 256,
                epochs: 63.0,
                epoch_penalty: 0.04,
                max_global_batch: None,
                optimizer: Optimizer::SgdMomentum,
                device_bytes_per_sample: Bytes::new(224 * 224 * 3 * 2),
                host_cost_multiplier: 1.05, // TF's input pipeline is heavier
                host_step_core_secs: 0.055,
                efficiency: Efficiency::new(0.97, 0.40, 0.72),
                comm_overlap: 0.55,
                dram_base: Bytes::from_gib(14),
                hbm_overhead: Bytes::from_gib_f64(1.5),
                reference_efficiency: Efficiency::new(0.30, 0.22, 0.50),
                gpu_step_overhead: Seconds::new(0.004),
                allreduce_period: 2,
                host_fixed_core_secs: 0.86,
                host_poll_cores: 0.0,
            },
            BenchmarkId::MlpfRes50Mx => Calibration {
                per_gpu_batch: 256,
                epochs: 63.0,
                epoch_penalty: 0.09,
                max_global_batch: None,
                optimizer: Optimizer::SgdMomentum,
                device_bytes_per_sample: Bytes::new(224 * 224 * 3 * 2),
                host_cost_multiplier: 0.7, // DALI-style pipeline
                host_step_core_secs: 0.005,
                efficiency: Efficiency::new(1.00, 0.43, 0.75),
                comm_overlap: 0.45,
                dram_base: Bytes::from_gib(3),
                hbm_overhead: Bytes::from_gib(1),
                reference_efficiency: Efficiency::new(0.30, 0.22, 0.50),
                gpu_step_overhead: Seconds::new(0.002),
                allreduce_period: 2,
                host_fixed_core_secs: 0.0,
                host_poll_cores: 0.0,
            },
            BenchmarkId::MlpfSsdPy => Calibration {
                per_gpu_batch: 64,
                epochs: 55.0,
                epoch_penalty: 0.02,
                max_global_batch: None,
                optimizer: Optimizer::SgdMomentum,
                device_bytes_per_sample: Bytes::new(300 * 300 * 3 * 2),
                host_cost_multiplier: 0.78,
                host_step_core_secs: 0.006,
                efficiency: Efficiency::new(1.00, 0.52, 0.72),
                comm_overlap: 0.55,
                dram_base: Bytes::from_gib(3),
                hbm_overhead: Bytes::from_gib(1),
                reference_efficiency: Efficiency::new(0.70, 0.72, 0.75),
                gpu_step_overhead: Seconds::new(0.003),
                allreduce_period: 2,
                host_fixed_core_secs: 0.0,
                host_poll_cores: 0.0,
            },
            BenchmarkId::MlpfMrcnnPy => Calibration {
                per_gpu_batch: 4,
                epochs: 13.0,
                epoch_penalty: 0.17,
                max_global_batch: None,
                optimizer: Optimizer::SgdMomentum,
                device_bytes_per_sample: Bytes::new(800 * 1344 * 3 * 2),
                host_cost_multiplier: 1.2,
                host_step_core_secs: 0.600,
                efficiency: Efficiency::new(0.95, 0.29, 0.55),
                comm_overlap: 0.35,
                dram_base: Bytes::from_gib(6),
                hbm_overhead: Bytes::from_gib(2),
                reference_efficiency: Efficiency::new(0.55, 0.58, 0.70),
                gpu_step_overhead: Seconds::new(0.015),
                allreduce_period: 1,
                host_fixed_core_secs: 0.0,
                host_poll_cores: 0.0,
            },
            BenchmarkId::MlpfXfmrPy => Calibration {
                per_gpu_batch: 160, // sentence pairs (~5k tokens)
                epochs: 8.0,
                epoch_penalty: 0.06,
                max_global_batch: None,
                optimizer: Optimizer::Adam,
                device_bytes_per_sample: Bytes::new(2 * 32 * 4), // token ids
                host_cost_multiplier: 1.0,
                host_step_core_secs: 0.170,
                efficiency: Efficiency::new(0.90, 0.41, 0.70),
                comm_overlap: 0.15,
                dram_base: Bytes::from_gib(6),
                hbm_overhead: Bytes::from_gib(2),
                reference_efficiency: Efficiency::new(0.60, 0.78, 0.75),
                gpu_step_overhead: Seconds::new(0.004),
                allreduce_period: 2,
                host_fixed_core_secs: 0.0,
                host_poll_cores: 0.0,
            },
            BenchmarkId::MlpfGnmtPy => Calibration {
                per_gpu_batch: 128,
                epochs: 5.0,
                epoch_penalty: 0.08,
                max_global_batch: None,
                optimizer: Optimizer::AdamGnmt,
                device_bytes_per_sample: Bytes::new(2 * 32 * 4),
                host_cost_multiplier: 1.2,
                host_step_core_secs: 0.100,
                efficiency: Efficiency::new(0.90, 0.28, 0.65),
                comm_overlap: 0.30,
                dram_base: Bytes::from_gib(6),
                hbm_overhead: Bytes::from_gib(2),
                reference_efficiency: Efficiency::new(0.35, 0.35, 0.55),
                gpu_step_overhead: Seconds::new(0.006),
                allreduce_period: 10,
                host_fixed_core_secs: 0.0,
                host_poll_cores: 0.0,
            },
            BenchmarkId::MlpfNcfPy => Calibration {
                per_gpu_batch: 1 << 17,
                epochs: 13.0,
                epoch_penalty: 0.0,
                max_global_batch: Some(1 << 18), // the small-dataset cap
                optimizer: Optimizer::Adam,
                device_bytes_per_sample: Bytes::new(16), // two ids + label
                host_cost_multiplier: 1.0,
                host_step_core_secs: 0.023,
                efficiency: Efficiency::new(0.100, 0.044, 0.120),
                comm_overlap: 0.2,
                dram_base: Bytes::from_gib(2),
                hbm_overhead: Bytes::from_gib(1),
                reference_efficiency: Efficiency::new(0.0071, 0.0046, 0.0129),
                gpu_step_overhead: Seconds::new(0.030),
                allreduce_period: 1,
                host_fixed_core_secs: 0.0,
                host_poll_cores: 0.30,
            },
            BenchmarkId::DawnRes18Py => Calibration {
                per_gpu_batch: 512,
                epochs: 24.0,
                epoch_penalty: 0.05,
                max_global_batch: Some(2048),
                optimizer: Optimizer::SgdMomentum,
                device_bytes_per_sample: Bytes::new(32 * 32 * 3 * 2),
                host_cost_multiplier: 1.0,
                host_step_core_secs: 0.004,
                efficiency: Efficiency::new(0.45, 0.28, 0.60),
                comm_overlap: 0.50,
                dram_base: Bytes::from_gib(2),
                hbm_overhead: Bytes::from_gib(1),
                reference_efficiency: Efficiency::new(0.40, 0.40, 0.55),
                gpu_step_overhead: Seconds::new(0.002),
                allreduce_period: 1,
                host_fixed_core_secs: 0.0,
                host_poll_cores: 0.0,
            },
            BenchmarkId::DawnDrqaPy => Calibration {
                per_gpu_batch: 32,
                epochs: 20.0,
                epoch_penalty: 0.0,
                max_global_batch: Some(32), // single-GPU submission
                optimizer: Optimizer::Adam,
                device_bytes_per_sample: Bytes::new(430 * 4 * 4),
                host_cost_multiplier: 1.3,
                host_step_core_secs: 0.020,
                efficiency: Efficiency::new(0.30, 0.20, 0.45),
                comm_overlap: 0.20,
                dram_base: Bytes::from_gib(5),
                hbm_overhead: Bytes::from_gib(1),
                reference_efficiency: Efficiency::new(0.25, 0.25, 0.40),
                gpu_step_overhead: Seconds::new(0.080),
                allreduce_period: 1,
                host_fixed_core_secs: 0.0,
                host_poll_cores: 0.0,
            },
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbreviation())
    }
}

/// The per-benchmark calibration constants (see DESIGN.md §"Calibration
/// policy").
#[derive(Debug, Clone)]
struct Calibration {
    per_gpu_batch: u64,
    epochs: f64,
    epoch_penalty: f64,
    max_global_batch: Option<u64>,
    optimizer: Optimizer,
    device_bytes_per_sample: Bytes,
    host_cost_multiplier: f64,
    host_step_core_secs: f64,
    efficiency: Efficiency,
    comm_overlap: f64,
    dram_base: Bytes,
    hbm_overhead: Bytes,
    reference_efficiency: Efficiency,
    gpu_step_overhead: Seconds,
    allreduce_period: u64,
    host_fixed_core_secs: f64,
    host_poll_cores: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_consistent() {
        assert_eq!(BenchmarkId::ALL.len(), 9);
        for id in BenchmarkId::ALL {
            assert!(!id.abbreviation().is_empty());
            assert!(!id.quality_target().is_empty());
            let job = id.job();
            assert_eq!(job.name(), id.abbreviation());
            assert!(job.model().params() > 0);
        }
    }

    #[test]
    fn mlperf_subset_is_seven() {
        assert_eq!(BenchmarkId::MLPERF.len(), 7);
        assert!(BenchmarkId::MLPERF
            .iter()
            .all(|b| b.suite() == Suite::MlPerf));
        // Table IV drops GNMT.
        assert_eq!(BenchmarkId::TABLE_IV.len(), 6);
        assert!(!BenchmarkId::TABLE_IV.contains(&BenchmarkId::MlpfGnmtPy));
    }

    #[test]
    fn frameworks_match_table_ii() {
        assert_eq!(BenchmarkId::MlpfRes50Tf.framework(), "TensorFlow");
        assert_eq!(BenchmarkId::MlpfRes50Mx.framework(), "MXNet");
        assert_eq!(BenchmarkId::MlpfSsdPy.framework(), "PyTorch");
        assert_eq!(BenchmarkId::MlpfRes50Tf.submitter(), "Google");
        assert_eq!(BenchmarkId::MlpfRes50Mx.submitter(), "NVIDIA");
    }

    #[test]
    fn datasets_match_table_ii() {
        assert_eq!(BenchmarkId::MlpfNcfPy.dataset(), DatasetId::MovieLens20M);
        assert_eq!(BenchmarkId::MlpfXfmrPy.dataset(), DatasetId::Wmt17);
        assert_eq!(BenchmarkId::DawnDrqaPy.dataset(), DatasetId::Squad);
    }

    #[test]
    fn ncf_is_globally_capped() {
        let job = BenchmarkId::MlpfNcfPy.job();
        assert!(job.max_global_batch().is_some());
        assert!(job.effective_per_gpu_batch(8) < job.per_gpu_batch());
    }

    #[test]
    fn drqa_is_single_gpu() {
        let job = BenchmarkId::DawnDrqaPy.job();
        assert_eq!(job.max_global_batch(), Some(32));
    }
}
