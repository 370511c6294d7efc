//! Vectorized per-op cost accumulation.
//!
//! [`ModelGraph::pass_cost`](crate::ModelGraph::pass_cost) is the hottest
//! model-side loop in a sweep: it walks every [`Op`] — name
//! strings, enum matches and all — once per priced cell. A
//! [`PassCostTable`] hoists everything batch-independent out of that walk
//! into structure-of-arrays form at graph-build time (per-sample FLOP and
//! activation counts, backward factors, the Tensor-Core routing decision,
//! fusion and precision byte factors, and the fully batch-independent
//! weight-stream and gradient totals), leaving a tight numeric loop per
//! evaluation.
//!
//! The table is an *exact* transcription, not an approximation: every
//! per-op `u64` multiply and `f64 → round → u64` conversion happens in the
//! same order with the same operands as the scalar walk, so the result is
//! bit-identical — `mlperf-models/tests/properties.rs` pins
//! `PassCostTable::pass_cost == ModelGraph::pass_cost_scalar` over fuzzed
//! graphs, batches, and policies.

use crate::graph::IterationCost;
use crate::op::Op;
use crate::precision::PrecisionPolicy;
use mlperf_hw::units::{Bytes, Flops};

/// Batch-independent pass-cost coefficients for one (graph, policy) pair,
/// in structure-of-arrays form.
#[derive(Debug, Clone, PartialEq)]
pub struct PassCostTable {
    policy: PrecisionPolicy,
    /// Per-sample forward FLOPs, one entry per op.
    fwd_flops: Vec<u64>,
    /// Backward FLOPs as a multiple of forward.
    bwd_flop_factor: Vec<f64>,
    /// Whether this op's FLOPs route to the Tensor-Core accumulator.
    on_tensor: Vec<bool>,
    /// Per-sample forward activation elements.
    fwd_act: Vec<u64>,
    /// Backward activation traffic as a multiple of forward.
    bwd_mem_factor: Vec<f64>,
    /// Fusion survival factor for activation traffic.
    fused_traffic: Vec<f64>,
    /// Activation element width under the policy, pre-converted to f64.
    act_bytes: Vec<f64>,
    /// Σ 2 · params · activation_bytes — the weight/gradient streams,
    /// batch-independent and integer, so pre-summed exactly.
    weight_stream_bytes: u64,
    /// Σ params · gradient_bytes_per_param, likewise exact.
    gradient_bytes: u64,
}

impl PassCostTable {
    /// Extract the coefficients of `ops` under `policy`.
    pub fn build(ops: &[Op], policy: PrecisionPolicy) -> Self {
        let mut table = PassCostTable {
            policy,
            fwd_flops: Vec::with_capacity(ops.len()),
            bwd_flop_factor: Vec::with_capacity(ops.len()),
            on_tensor: Vec::with_capacity(ops.len()),
            fwd_act: Vec::with_capacity(ops.len()),
            bwd_mem_factor: Vec::with_capacity(ops.len()),
            fused_traffic: Vec::with_capacity(ops.len()),
            act_bytes: Vec::with_capacity(ops.len()),
            weight_stream_bytes: 0,
            gradient_bytes: 0,
        };
        for op in ops {
            let act_bytes = policy.activation_bytes(op.tensor_core_eligible());
            table.fwd_flops.push(op.fwd_flops_per_sample());
            table.bwd_flop_factor.push(op.bwd_flop_factor());
            table
                .on_tensor
                .push(policy == PrecisionPolicy::Amp && op.tensor_core_eligible());
            table.fwd_act.push(op.fwd_act_elems_per_sample());
            table.bwd_mem_factor.push(op.bwd_mem_factor());
            table.fused_traffic.push(op.fused_traffic_factor());
            table.act_bytes.push(act_bytes as f64);
            table.weight_stream_bytes += 2 * op.params() * act_bytes;
            table.gradient_bytes += op.params() * policy.gradient_bytes_per_param();
        }
        table
    }

    /// The policy the table was built under.
    pub fn policy(&self) -> PrecisionPolicy {
        self.policy
    }

    /// Number of operators the table covers.
    pub fn len(&self) -> usize {
        self.fwd_flops.len()
    }

    /// Whether the table covers no operators.
    pub fn is_empty(&self) -> bool {
        self.fwd_flops.is_empty()
    }

    /// The forward+backward pass cost at `batch` — bit-identical to the
    /// scalar op walk
    /// ([`ModelGraph::pass_cost_scalar`](crate::ModelGraph::pass_cost_scalar)):
    /// integer sums are associative, and every rounded f64 product keeps
    /// its original operand order.
    pub fn pass_cost(&self, batch: u64) -> IterationCost {
        let mut simt = 0u64;
        let mut tensor = 0u64;
        let mut mem_bytes = 0u64;
        for i in 0..self.fwd_flops.len() {
            let fwd = self.fwd_flops[i] * batch;
            let flops = fwd + (fwd as f64 * self.bwd_flop_factor[i]).round() as u64;
            if self.on_tensor[i] {
                tensor += flops;
            } else {
                simt += flops;
            }
            let fwd_act = self.fwd_act[i] * batch;
            let act_elems = fwd_act + (fwd_act as f64 * self.bwd_mem_factor[i]).round() as u64;
            mem_bytes +=
                (act_elems as f64 * self.fused_traffic[i] * self.act_bytes[i]).round() as u64;
        }
        IterationCost {
            simt_flops: Flops::new(simt),
            tensor_flops: Flops::new(tensor),
            mem_bytes: Bytes::new(mem_bytes + self.weight_stream_bytes),
            gradient_bytes: Bytes::new(self.gradient_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ModelGraph;

    fn graph() -> ModelGraph {
        let mut g = ModelGraph::new("t");
        g.push(Op::conv2d("c", 3, 16, 3, 1, 1, 32, 32));
        g.push(Op::batch_norm("bn", 16, 32 * 32));
        g.push(Op::activation("relu", 16 * 32 * 32));
        g.push(Op::dense("fc", 256, 10));
        g
    }

    #[test]
    fn table_matches_scalar_walk_exactly() {
        let g = graph();
        for policy in [PrecisionPolicy::Fp32, PrecisionPolicy::Amp] {
            let table = PassCostTable::build(g.ops(), policy);
            for batch in [1u64, 7, 128, 4096] {
                assert_eq!(table.pass_cost(batch), g.pass_cost_scalar(batch, policy));
            }
        }
    }

    #[test]
    fn weight_and_gradient_totals_are_batch_independent() {
        let g = graph();
        let table = PassCostTable::build(g.ops(), PrecisionPolicy::Fp32);
        assert_eq!(
            table.pass_cost(1).gradient_bytes,
            table.pass_cost(512).gradient_bytes
        );
    }

    #[test]
    fn empty_table_prices_zero() {
        let table = PassCostTable::build(&[], PrecisionPolicy::Amp);
        assert!(table.is_empty());
        let cost = table.pass_cost(64);
        assert_eq!(cost.mem_bytes, Bytes::ZERO);
        assert_eq!(cost.total_flops(), Flops::ZERO);
    }
}
