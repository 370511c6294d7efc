//! Operator graphs and per-step pass-cost assembly.
//!
//! A [`ModelGraph`] is an ordered collection of [`Op`]s — order is execution
//! order, which matters only for reporting. Its headline product is
//! [`ModelGraph::pass_cost`]: the FLOPs (split by SIMT vs Tensor Core),
//! device-memory traffic, and gradient volume of one training step's
//! forward and backward passes at a given batch size and
//! [`PrecisionPolicy`]. The simulator prices these against a GPU's roofline,
//! and the optimizer update separately, to get step time.

use crate::op::{Op, OpKind};
use crate::optimizer::Optimizer;
use crate::passcost::PassCostTable;
use crate::precision::PrecisionPolicy;
use mlperf_hw::units::{Bytes, Flops};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Cap on memoized batch sizes per (graph, policy) — a sweep's batch axis
/// fits comfortably; an adversarial caller cannot grow the memo without
/// bound (inserts stop at the cap, correctness is unaffected).
const PASS_MEMO_CAP: usize = 1 << 16;

/// The lazily-built cost tables of one graph, one per precision policy,
/// plus a per-batch result memo. Grid sweeps revisit the same batch from
/// many (system, gpus) cells; the memo turns every revisit into a map
/// hit instead of an op walk. Shared by clones through the `tables` Arc,
/// so every cell of a sweep that starts from one interned template feeds
/// the same memo.
#[derive(Debug)]
struct PassTables {
    fp32: PassCostTable,
    amp: PassCostTable,
    fp32_memo: Mutex<HashMap<u64, IterationCost>>,
    amp_memo: Mutex<HashMap<u64, IterationCost>>,
}

/// An ordered operator graph with a name.
///
/// The op list is `Arc`-shared: cloning a graph (and therefore cloning a
/// training job per sweep cell) is a reference bump, not a deep copy of
/// every operator's name string. Mutation goes through copy-on-write
/// (`Arc::make_mut`) and drops the cached cost tables.
#[derive(Debug, Clone)]
pub struct ModelGraph {
    name: String,
    ops: Arc<Vec<Op>>,
    /// Vectorized pass-cost coefficients, built on first pricing and
    /// shared by clones (a clone prices the same ops).
    tables: Arc<OnceLock<PassTables>>,
    /// Sum of every op's parameters, kept as ops are appended so the
    /// device-memory gate reads it without walking the graph.
    params: u64,
    /// Sum of every op's written forward activation elements per sample
    /// (half its forward traffic), kept like `params`.
    written_act_elems: u64,
}

impl PartialEq for ModelGraph {
    fn eq(&self, other: &Self) -> bool {
        // The tables and the sums are caches of `ops`, not state.
        self.name == other.name && self.ops == other.ops
    }
}

impl ModelGraph {
    /// Create an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        ModelGraph {
            name: name.into(),
            ops: Arc::new(Vec::new()),
            tables: Arc::new(OnceLock::new()),
            params: 0,
            written_act_elems: 0,
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append an operator.
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.extend([op]);
        self
    }

    /// The operators in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total trainable parameters.
    pub fn params(&self) -> u64 {
        self.params
    }

    /// Forward FLOPs for one batch.
    pub fn fwd_flops(&self, batch: u64) -> Flops {
        self.ops.iter().map(|op| op.fwd_flops(batch)).sum()
    }

    /// Forward + backward FLOPs for one batch.
    pub fn training_flops(&self, batch: u64) -> Flops {
        self.ops
            .iter()
            .map(|op| op.fwd_flops(batch) + op.bwd_flops(batch))
            .sum()
    }

    /// Fraction of training FLOPs eligible for Tensor Cores.
    pub fn tensor_core_fraction(&self, batch: u64) -> f64 {
        let total = self.training_flops(batch).as_f64();
        if total == 0.0 {
            return 0.0;
        }
        let eligible: f64 = self
            .ops
            .iter()
            .filter(|op| op.tensor_core_eligible())
            .map(|op| (op.fwd_flops(batch) + op.bwd_flops(batch)).as_f64())
            .sum();
        eligible / total
    }

    /// Training FLOPs broken down by operator kind.
    pub fn kind_breakdown(&self, batch: u64) -> BTreeMap<OpKind, Flops> {
        let mut map = BTreeMap::new();
        for op in self.ops.iter() {
            let entry = map.entry(op.kind()).or_insert(Flops::ZERO);
            *entry = *entry + op.fwd_flops(batch) + op.bwd_flops(batch);
        }
        map
    }

    /// Activation elements that must stay resident between forward and
    /// backward (the dominant term of per-sample activation memory).
    pub fn resident_activation_elems_per_sample(&self) -> u64 {
        /// Fraction of produced activations frameworks actually keep:
        /// in-place ops, fused kernels, and buffer reuse free the rest.
        const RESIDENT_FRACTION: f64 = 0.55;
        (self.written_act_elems as f64 * RESIDENT_FRACTION).round() as u64
    }

    /// The cost of the forward+backward passes alone (no optimizer step) —
    /// what the simulator prices as the "compute" phase, with the update
    /// priced separately so it can sit after the gradient all-reduce.
    ///
    /// Evaluated through the graph's cached [`PassCostTable`]s — bit-
    /// identical to the scalar walk
    /// ([`ModelGraph::pass_cost_scalar`]), just without re-touching every
    /// `Op` per call — and memoized per batch, since a grid sweep prices
    /// the same (template, policy, batch) from many cells. The memo
    /// stores exact results of the table walk, so hits are bit-identical
    /// by construction.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlperf_models::zoo::resnet::resnet18_cifar;
    /// use mlperf_models::PrecisionPolicy;
    ///
    /// let g = resnet18_cifar();
    /// let amp = g.pass_cost(128, PrecisionPolicy::Amp);
    /// let fp32 = g.pass_cost(128, PrecisionPolicy::Fp32);
    /// assert!(amp.tensor_flops.as_u64() > 0);
    /// assert!(amp.mem_bytes < fp32.mem_bytes);
    /// ```
    pub fn pass_cost(&self, batch: u64, policy: PrecisionPolicy) -> IterationCost {
        let tables = self.tables.get_or_init(|| PassTables {
            fp32: PassCostTable::build(&self.ops, PrecisionPolicy::Fp32),
            amp: PassCostTable::build(&self.ops, PrecisionPolicy::Amp),
            fp32_memo: Mutex::new(HashMap::new()),
            amp_memo: Mutex::new(HashMap::new()),
        });
        let (table, memo) = match policy {
            PrecisionPolicy::Fp32 => (&tables.fp32, &tables.fp32_memo),
            PrecisionPolicy::Amp => (&tables.amp, &tables.amp_memo),
        };
        if let Some(&hit) = memo.lock().expect("pass-cost memo poisoned").get(&batch) {
            return hit;
        }
        // Computed outside the lock: a racing duplicate computes the same
        // deterministic value, which beats holding the lock over the walk.
        let cost = table.pass_cost(batch);
        let mut memo = memo.lock().expect("pass-cost memo poisoned");
        if memo.len() < PASS_MEMO_CAP {
            memo.insert(batch, cost);
        }
        cost
    }

    /// The original per-op pass-cost walk, kept verbatim as the oracle for
    /// the vectorized table: the differential battery in
    /// `tests/properties.rs` demands `pass_cost == pass_cost_scalar` on
    /// fuzzed graphs, batches, and policies.
    pub fn pass_cost_scalar(&self, batch: u64, policy: PrecisionPolicy) -> IterationCost {
        let mut simt = 0u64;
        let mut tensor = 0u64;
        let mut mem_bytes = 0u64;
        for op in self.ops.iter() {
            let flops = op.fwd_flops(batch).as_u64() + op.bwd_flops(batch).as_u64();
            if policy == PrecisionPolicy::Amp && op.tensor_core_eligible() {
                tensor += flops;
            } else {
                simt += flops;
            }
            let act_elems = op.fwd_act_elems(batch) + op.bwd_act_elems(batch);
            let act_bytes = (act_elems as f64
                * op.fused_traffic_factor()
                * policy.activation_bytes(op.tensor_core_eligible()) as f64)
                .round() as u64;
            mem_bytes += act_bytes;
            mem_bytes += 2 * op.params() * policy.activation_bytes(op.tensor_core_eligible());
        }
        IterationCost {
            simt_flops: Flops::new(simt),
            tensor_flops: Flops::new(tensor),
            mem_bytes: Bytes::new(mem_bytes),
            gradient_bytes: Bytes::new(self.params() * policy.gradient_bytes_per_param()),
        }
    }

    /// Resident device-memory footprint of a training replica at the given
    /// per-GPU batch: weights + gradients + optimizer state + activations.
    /// Saturates at `u64::MAX` bytes, so a huge batch reads as out of
    /// memory instead of wrapping to a small footprint.
    pub fn replica_footprint(
        &self,
        batch: u64,
        policy: PrecisionPolicy,
        optimizer: Optimizer,
    ) -> Bytes {
        let params = self.params();
        let weights = params * policy.weight_bytes_per_param();
        let grads = params * policy.gradient_bytes_per_param();
        let opt_state = optimizer.state_bytes(params).as_u64();
        let act_elem_bytes = match policy {
            PrecisionPolicy::Fp32 => 4,
            PrecisionPolicy::Amp => 2,
        };
        let acts = self
            .resident_activation_elems_per_sample()
            .saturating_mul(batch)
            .saturating_mul(act_elem_bytes);
        Bytes::new((weights + grads + opt_state).saturating_add(acts))
    }
}

impl fmt::Display for ModelGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ops, {:.1} M params, {:.2} GFLOP/sample fwd",
            self.name,
            self.ops.len(),
            self.params() as f64 / 1e6,
            self.fwd_flops(1).as_gflops(),
        )
    }
}

impl Extend<Op> for ModelGraph {
    fn extend<T: IntoIterator<Item = Op>>(&mut self, iter: T) {
        let ops = Arc::make_mut(&mut self.ops);
        let start = ops.len();
        ops.extend(iter);
        for op in &ops[start..] {
            self.params += op.params();
            // Half of the fwd read+write traffic is the written (kept) half.
            self.written_act_elems += op.fwd_act_elems(1) / 2;
        }
        self.tables = Arc::new(OnceLock::new());
    }
}

/// The priced device work of one batch: the forward and backward passes
/// ([`ModelGraph::pass_cost`]) or, priced by the simulator, the optimizer
/// update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationCost {
    /// FLOPs executed on the regular FP32 SIMT pipeline.
    pub simt_flops: Flops,
    /// FLOPs executed on Tensor Cores (zero under [`PrecisionPolicy::Fp32`]).
    pub tensor_flops: Flops,
    /// Device-memory traffic (activations of both passes + weight streams,
    /// or the optimizer update's reads and writes).
    pub mem_bytes: Bytes,
    /// Gradient bytes exchanged by the data-parallel all-reduce.
    pub gradient_bytes: Bytes,
}

impl IterationCost {
    /// Total FLOPs across both pipelines.
    pub fn total_flops(&self) -> Flops {
        self.simt_flops + self.tensor_flops
    }

    /// The integrity violation this cost would inject into downstream f64
    /// pricing, if any.
    ///
    /// The cost fields themselves are integers (always finite), so the
    /// dangerous shapes are the *degenerate* ones: zero memory traffic
    /// makes the arithmetic intensity (FLOP per byte) and every roofline
    /// division non-finite, and an all-zero cost prices
    /// to a zero step time that later shows up as infinite throughput.
    /// The simulation engine checks this at the model boundary and turns a
    /// violation into a typed `NonFinite` error naming the offending
    /// point instead of letting NaN/Inf propagate into reports.
    pub fn finite_violation(&self) -> Option<&'static str> {
        if self.mem_bytes.as_u64() == 0 {
            return Some("zero device-memory traffic (arithmetic intensity diverges)");
        }
        if self.total_flops().as_u64() == 0 && self.gradient_bytes.as_u64() == 0 {
            return Some("all-zero iteration cost (degenerate model graph)");
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    fn tiny_graph() -> ModelGraph {
        let mut g = ModelGraph::new("tiny");
        g.push(Op::conv2d("c1", 3, 8, 3, 1, 1, 8, 8));
        g.push(Op::activation("relu", 8 * 8 * 8));
        g.push(Op::dense("fc", 512, 10));
        g
    }

    #[test]
    fn totals_are_sums() {
        let g = tiny_graph();
        let by_hand: u64 = g.ops().iter().map(|o| o.fwd_flops(4).as_u64()).sum();
        assert_eq!(g.fwd_flops(4).as_u64(), by_hand);
        assert_eq!(g.params(), g.ops()[0].params() + g.ops()[2].params());
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn training_flops_exceed_forward() {
        let g = tiny_graph();
        assert!(g.training_flops(1).as_u64() > g.fwd_flops(1).as_u64());
    }

    #[test]
    fn tensor_core_fraction_between_zero_and_one() {
        let g = tiny_graph();
        let f = g.tensor_core_fraction(1);
        assert!(f > 0.9 && f < 1.0, "conv+fc dominate: {f}");
        let empty = ModelGraph::new("empty");
        assert_eq!(empty.tensor_core_fraction(1), 0.0);
    }

    #[test]
    fn kind_breakdown_partitions_total() {
        let g = tiny_graph();
        let total: u64 = g.kind_breakdown(2).values().map(|f| f.as_u64()).sum();
        assert_eq!(total, g.training_flops(2).as_u64());
    }

    #[test]
    fn amp_moves_flops_to_tensor_cores_and_shrinks_traffic() {
        let g = tiny_graph();
        let fp32 = g.pass_cost(32, PrecisionPolicy::Fp32);
        let amp = g.pass_cost(32, PrecisionPolicy::Amp);
        assert_eq!(fp32.tensor_flops, Flops::ZERO);
        assert!(amp.tensor_flops.as_u64() > 0);
        assert_eq!(fp32.total_flops(), amp.total_flops());
        assert!(amp.mem_bytes < fp32.mem_bytes);
        assert!(amp.gradient_bytes < fp32.gradient_bytes);
    }

    #[test]
    fn gradient_bytes_track_params() {
        let g = tiny_graph();
        let cost = g.pass_cost(8, PrecisionPolicy::Fp32);
        assert_eq!(cost.gradient_bytes.as_u64(), g.params() * 4);
    }

    #[test]
    fn footprint_grows_with_batch() {
        let g = tiny_graph();
        let small = g.replica_footprint(8, PrecisionPolicy::Fp32, Optimizer::SgdMomentum);
        let large = g.replica_footprint(64, PrecisionPolicy::Fp32, Optimizer::SgdMomentum);
        assert!(large > small);
    }

    #[test]
    fn amp_footprint_never_exceeds_fp32() {
        // Per-param residency is equal (6+2 vs 4+4 bytes before optimizer
        // state) while activations halve, so AMP fits in less memory.
        let g = tiny_graph();
        for batch in [1, 64] {
            let amp = g.replica_footprint(batch, PrecisionPolicy::Amp, Optimizer::SgdMomentum);
            let fp32 = g.replica_footprint(batch, PrecisionPolicy::Fp32, Optimizer::SgdMomentum);
            assert!(amp <= fp32, "batch {batch}: {amp} > {fp32}");
        }
    }

    #[test]
    fn extend_appends_ops() {
        let mut g = ModelGraph::new("x");
        g.extend([Op::activation("a", 10), Op::activation("b", 10)]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn display_summary() {
        let s = tiny_graph().to_string();
        assert!(s.contains("tiny") && s.contains("3 ops"));
    }
}
