//! Analytical deep-learning model substrate.
//!
//! Where the paper trained real networks in PyTorch/TensorFlow/MXNet, this
//! crate builds the same architectures as *operator graphs with closed-form
//! costs*: per-sample FLOPs, activation traffic, and parameter counts for
//! both passes ([`op`], [`graph`]), priced under single- or mixed-precision
//! policies ([`precision`]) and optimizer update rules ([`optimizer`]).
//! The [`zoo`] holds every network the study measures.
//!
//! # Examples
//!
//! ```
//! use mlperf_models::zoo::resnet::resnet50;
//! use mlperf_models::PrecisionPolicy;
//!
//! let g = resnet50();
//! let cost = g.pass_cost(32, PrecisionPolicy::Amp);
//! assert!(cost.tensor_flops.as_u64() > cost.simt_flops.as_u64());
//! ```

pub mod graph;
pub mod op;
pub mod optimizer;
pub mod passcost;
pub mod precision;
pub mod tensor;
pub mod zoo;

pub use graph::{IterationCost, ModelGraph};
pub use op::{Op, OpKind, RecurrentCell};
pub use optimizer::Optimizer;
pub use passcost::PassCostTable;
pub use precision::PrecisionPolicy;
pub use tensor::TensorShape;
