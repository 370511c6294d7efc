//! Experiment runners: one module per table and figure of the paper.
//! Each declares itself once, as the [`runner::Decl`](crate::runner::Decl)
//! named `EXP` that `runner`'s registry lists in report order.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`table1`] | Table I — key insights, re-verified |
//! | [`table2`] | Table II — suite composition |
//! | [`table3`] | Table III — platform specifications |
//! | [`table4`] | Table IV — training time and scaling efficiency |
//! | [`table5`] | Table V — resource usage on the C4140 (K) |
//! | [`figure1`] | Fig. 1 — PCA of the workload space |
//! | [`figure2`] | Fig. 2 — V100 roofline placement |
//! | [`figure3`] | Fig. 3 — mixed-precision speedups |
//! | [`figure4`] | Fig. 4 — naive vs optimal scheduling |
//! | [`figure5`] | Fig. 5 — interconnect-topology impact |
//! | [`cluster_study`] | extension: online cluster scheduling (§IV-D's call) |
//! | [`batch_sweep`] | extension: batch-size sensitivity to the OOM wall |
//! | [`energy_cost`] | extension: kWh + USD to train (DAWNBench's 2nd metric) |
//! | [`storage_study`] | extension: disk-staging feasibility (§V-C's tier) |
//! | [`fault_study`] | extension: faults, checkpoint/restart, expected TTT |
//! | [`variance_decomposition`] | extension: run-to-run variance shares (seed/batch/precision) |
//! | [`partition_study`] | extension: suite throughput under k-way device partitioning |
//! | [`colocation_study`] | extension: training + inference co-location on slices |

pub mod batch_sweep;
pub mod cluster_study;
pub mod colocation_study;
pub mod energy_cost;
pub mod fault_study;
pub mod figure1;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod partition_study;
pub mod storage_study;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod variance_decomposition;
