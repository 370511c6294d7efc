//! Dataset models for every corpus the study trains on.
//!
//! Datasets enter the paper's measurements through four quantities:
//!
//! * **sample count** — with epochs-to-target, fixes total training volume;
//! * **on-disk size** — drives host DRAM staging footprints (§V-C notes
//!   ImageNet at ~300 GB cannot be GPU-resident);
//! * **per-sample host preprocessing cost** — drives CPU utilization (§V-A:
//!   image benchmarks "require CPU to perform more packaging of the data");
//! * **per-sample device bytes** — drives H2D PCIe traffic.
//!
//! We model exactly those attributes and generate no record bytes.

use mlperf_hw::units::Bytes;
use std::fmt;

/// The corpora of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetId {
    /// ImageNet ILSVRC-2012 classification training split.
    ImageNet,
    /// Microsoft COCO 2017 detection training split.
    Coco,
    /// WMT17 English-German parallel corpus.
    Wmt17,
    /// MovieLens 20-million ratings.
    MovieLens20M,
    /// CIFAR-10 training split.
    Cifar10,
    /// SQuAD v1.1 training split.
    Squad,
}

impl DatasetId {
    /// All datasets used in the study.
    pub const ALL: [DatasetId; 6] = [
        DatasetId::ImageNet,
        DatasetId::Coco,
        DatasetId::Wmt17,
        DatasetId::MovieLens20M,
        DatasetId::Cifar10,
        DatasetId::Squad,
    ];

    /// The full dataset specification.
    pub fn spec(self) -> DatasetSpec {
        match self {
            DatasetId::ImageNet => DatasetSpec {
                id: self,
                name: "ImageNet",
                samples: 1_281_167,
                // Raw JPEGs are ~140 GB; the paper's ~300 GB reflects the
                // packaged training copies (TFRecords + resized variants)
                // the submissions stage on disk.
                on_disk: Bytes::from_gib(300),
                // JPEG decode + crop + augment: the heaviest per-sample
                // host work of the suite (reference-core-seconds).
                host_cost_core_secs: 0.004,
            },
            DatasetId::Coco => DatasetSpec {
                id: self,
                name: "Microsoft COCO",
                samples: 118_287,
                on_disk: Bytes::from_gib(19),
                // Larger images plus annotation/mask handling.
                host_cost_core_secs: 0.008,
            },
            DatasetId::Wmt17 => DatasetSpec {
                id: self,
                name: "WMT17 En-De",
                samples: 4_500_000,
                on_disk: Bytes::from_gib_f64(1.4),
                // Tokenized text: trivial host work per pair.
                host_cost_core_secs: 0.0006,
            },
            DatasetId::MovieLens20M => DatasetSpec {
                id: self,
                name: "MovieLens 20-million",
                samples: 19_861_770, // positive interactions after filtering
                on_disk: Bytes::from_mib(500),
                // Negative sampling is a random-integer draw.
                host_cost_core_secs: 0.000_000_2,
            },
            DatasetId::Cifar10 => DatasetSpec {
                id: self,
                name: "CIFAR10",
                samples: 50_000,
                on_disk: Bytes::from_mib(150),
                host_cost_core_secs: 0.000_8,
            },
            DatasetId::Squad => DatasetSpec {
                id: self,
                name: "SQuAD",
                samples: 87_599,
                on_disk: Bytes::from_mib(35),
                // DrQA's host-side feature engineering (tokenize, TF,
                // exact-match, POS/NER) is why Table V shows it at ~49 %
                // CPU and ~20 % GPU.
                host_cost_core_secs: 0.10,
            },
        }
    }
}

impl fmt::Display for DatasetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

/// The measured attributes of one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    id: DatasetId,
    name: &'static str,
    samples: u64,
    on_disk: Bytes,
    host_cost_core_secs: f64,
}

impl DatasetSpec {
    /// Which dataset this is.
    pub fn id(&self) -> DatasetId {
        self.id
    }

    /// Human-readable name as printed in Table II.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of training samples.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Total staged on-disk size of the training copy.
    pub fn on_disk(&self) -> Bytes {
        self.on_disk
    }

    /// Average stored bytes per sample.
    pub fn bytes_per_sample(&self) -> Bytes {
        Bytes::new(self.on_disk.as_u64() / self.samples)
    }

    /// Host preprocessing cost per sample, in *reference-core-seconds*
    /// (seconds on one core of a 1 GHz reference; divide by a CPU's
    /// [`preprocess_capacity`](mlperf_hw::CpuSpec::preprocess_capacity)
    /// to get wall-clock seconds at full-socket parallelism).
    pub fn host_cost_core_secs(&self) -> f64 {
        self.host_cost_core_secs
    }
}

impl fmt::Display for DatasetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} samples, {})",
            self.name, self.samples, self.on_disk
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imagenet_matches_paper_scale() {
        let spec = DatasetId::ImageNet.spec();
        assert_eq!(spec.samples(), 1_281_167);
        // §V-A: "around 300GB".
        assert!((spec.on_disk().as_gib() - 300.0).abs() < 1.0);
    }

    #[test]
    fn movielens_is_the_small_dataset() {
        // §IV-D blames NCF's poor scaling on the small dataset.
        let ml = DatasetId::MovieLens20M.spec().on_disk();
        for other in [DatasetId::ImageNet, DatasetId::Coco, DatasetId::Wmt17] {
            assert!(ml < other.spec().on_disk(), "{other:?}");
        }
    }

    #[test]
    fn squad_has_the_heaviest_host_cost() {
        let squad = DatasetId::Squad.spec().host_cost_core_secs();
        for other in DatasetId::ALL {
            if other != DatasetId::Squad {
                assert!(squad > other.spec().host_cost_core_secs(), "{other:?}");
            }
        }
    }

    #[test]
    fn image_datasets_cost_more_host_work_than_text() {
        let imagenet = DatasetId::ImageNet.spec().host_cost_core_secs();
        assert!(imagenet > DatasetId::Wmt17.spec().host_cost_core_secs());
        assert!(imagenet > DatasetId::MovieLens20M.spec().host_cost_core_secs());
    }

    #[test]
    fn bytes_per_sample_is_consistent() {
        for id in DatasetId::ALL {
            let spec = id.spec();
            let implied = spec.bytes_per_sample().as_u64() * spec.samples();
            let slack = spec.on_disk().as_u64() / 100;
            assert!(
                implied.abs_diff(spec.on_disk().as_u64()) <= slack + spec.samples(),
                "{id:?}"
            );
        }
    }

    #[test]
    fn all_datasets_display() {
        for id in DatasetId::ALL {
            assert!(!id.to_string().is_empty());
        }
    }
}
