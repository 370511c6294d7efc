//! Analysis stack for the MLPerf-demystified reproduction.
//!
//! The paper's four analyses, each with the machinery it needs:
//!
//! * [`pca`] (over [`linalg`]'s Jacobi eigensolver) — the Fig. 1 workload
//!   similarity study;
//! * [`roofline`] — the Fig. 2 V100 roofline and workload placement;
//! * [`scheduling`] — the Fig. 4 naive-vs-optimal makespan search;
//! * [`scaling`] — the Table IV speedup/efficiency metrics;
//! * [`stats`] — shared statistics helpers.
//!
//! # Examples
//!
//! ```
//! use mlperf_analysis::scheduling::{naive_schedule, optimal_schedule, JobTimes};
//!
//! let jobs = vec![
//!     JobTimes::new("scales", [(1, 100.0), (2, 50.0), (4, 25.0)]),
//!     JobTimes::new("doesn't", [(1, 100.0), (2, 90.0), (4, 85.0)]),
//! ];
//! let naive = naive_schedule(&jobs, 4);
//! let best = optimal_schedule(&jobs, 4);
//! assert!(best.makespan <= naive.makespan);
//! ```

pub mod linalg;
pub mod pca;
pub mod roofline;
pub mod scaling;
pub mod scheduling;
pub mod stats;

pub use linalg::{symmetric_eigen, Matrix, SymmetricEigen};
pub use pca::Pca;
pub use roofline::{Boundedness, RooflineModel, RooflinePoint};
pub use scaling::{classify, ScalingClass, ScalingRow};
pub use scheduling::{
    lpt_schedule, naive_schedule, optimal_schedule, JobTimes, Placement, Schedule,
};
