//! Discrete-event multi-GPU training simulator.
//!
//! This crate replaces the paper's physical testbed: it executes the
//! host-preprocess → H2D → forward/backward → all-reduce → update pipeline
//! of synchronous data-parallel training against the hardware models of
//! [`mlperf_hw`] and the analytical operator graphs of [`mlperf_models`].
//!
//! * [`des`] — deterministic event queue and FIFO resources;
//! * [`kernel`] — roofline-limited step pricing with calibrated efficiencies;
//! * [`allreduce`] — ring/tree/naive collective cost models over topology
//!   peer paths;
//! * [`job`] — training-job descriptions (batch policy, convergence,
//!   precision, calibration knobs);
//! * [`engine`] — the pipeline simulator producing steady-state
//!   [`StepReport`]s;
//! * [`cluster`] — an event-driven multi-GPU cluster under one of five
//!   online scheduling [`Policy`]s (the §IV-D "effective algorithm"
//!   extension);
//! * [`training`] — end-to-end time-to-quality runs;
//! * [`fault`] / [`checkpoint`] — seeded fault injection (GPU death, link
//!   flaps, stragglers, host stalls) that [`fault::replay`] walks
//!   deterministically over a steady-state [`StepReport`], against a
//!   checkpoint/restart cost model priced through the storage tier.
//!
//! # Examples
//!
//! ```
//! use mlperf_sim::{Simulator, TrainingJob, ConvergenceModel, training::train_on_first};
//! use mlperf_data::{DatasetId, InputPipeline};
//! use mlperf_hw::{systems::SystemId, units::Bytes};
//! use mlperf_models::zoo::resnet::resnet50;
//!
//! let system = SystemId::C4140K.spec();
//! let sim = Simulator::new(&system);
//! let job = TrainingJob::builder(
//!     "resnet50",
//!     resnet50(),
//!     InputPipeline::new(DatasetId::ImageNet, Bytes::new(224 * 224 * 3 * 2)),
//!     96,
//!     ConvergenceModel::new(63.0, 768, 0.0),
//! )
//! .build();
//! let outcome = train_on_first(&sim, &job, 4)?;
//! assert!(outcome.total_time.as_hours() > 0.0);
//! # Ok::<(), mlperf_sim::SimError>(())
//! ```

pub mod allreduce;
pub mod checkpoint;
pub mod cluster;
pub mod des;
pub mod engine;
pub mod fault;
pub mod job;
pub mod kernel;
pub mod training;

pub use allreduce::AllReduceAlgorithm;
pub use checkpoint::CheckpointSpec;
pub use cluster::{Cluster, ClusterJobSpec, ClusterTrace, NodeFailure, Policy, Submission};
pub use engine::{RunOutcome, RunSpec, SimError, Simulator, StepReport};
pub use fault::{
    FaultConfig, FaultEvent, FaultKind, FaultPlan, FaultStats, FaultTrace, RetryPolicy,
};
pub use job::{ConvergenceModel, TrainingJob, TrainingJobBuilder};
pub use kernel::{Efficiency, KernelTimer};
pub use training::{outcome_from_step, train, train_on_first, TrainingOutcome};
