//! First-class parameter sweeps with a persistent result cache.
//!
//! The paper's conclusions all come from grids — batch sizes × systems,
//! GPU counts × workloads, MTBF × checkpoint interval — and until now
//! every experiment hand-rolled its own nested loops. A [`SweepSpec`]
//! declares the axes once and expands them *deterministically* (first
//! axis outermost, declaration order) into [`CellSpec`]s, each priced
//! through the shared memoized [`Ctx`] so overlapping sweeps share their
//! simulation points. Figure 4's scaling grid, the batch sweep, and the
//! fault study's MTBF × interval grid are all expressed this way (the
//! cluster study consumes Figure 4's grid).
//!
//! The second half is the persistence layer ([`cache`]): every cell (and,
//! one level up, every rendered report section and CSV file) is stored
//! under `fnv1a64(code_epoch ‖ canonical-spec-bytes)` in
//! `artifacts/cache/`, making a second `repro` run — or an overlapping
//! sweep — near-instant. A cell that fails is cached **as its error**,
//! never as a success; see [`cache`] for the full policy and the env
//! knobs (`MLPERF_CACHE`, `MLPERF_CACHE_DIR`).
//!
//! `repro sweep NAME` runs one registered sweep and emits a long-form CSV
//! (one row per cell, axes as columns); `repro sweep --list` enumerates
//! the registry.

pub mod cache;
pub mod replication;

pub use cache::{DiskCache, DiskStats};
pub use replication::{Replication, ReplicationScratch, RunStats, MAX_RUNS, REPLICATION_SEED};

use crate::benchmark::BenchmarkId;
use crate::report::CsvRecord;
use crate::runner::{Ctx, Lane, Pool, TrainPoint};
use mlperf_data::storage::StorageDevice;
use mlperf_hw::systems::SystemId;
use mlperf_hw::units::Seconds;
use mlperf_hw::{PartitionProfile, PartitionSpec};
use mlperf_models::PrecisionPolicy;
use mlperf_sim::checkpoint::{daly_interval, expected_runtime};
use mlperf_sim::{CheckpointSpec, SimError};
use std::ops::Range;

/// How a checkpoint interval is chosen in an expected-TTT cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntervalChoice {
    /// A fixed interval, minutes.
    FixedMin(f64),
    /// The Young/Daly-optimal interval for the cell's MTBF.
    Daly,
}

/// One value along one sweep axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisValue {
    /// The benchmark under test.
    Workload(BenchmarkId),
    /// The system it runs on.
    System(SystemId),
    /// GPUs of the system it uses.
    Gpus(u32),
    /// Per-GPU batch-size override.
    Batch(u64),
    /// Precision-policy override.
    Precision(PrecisionPolicy),
    /// Mean time between failures, hours (expected-TTT cells).
    MtbfHours(f64),
    /// Checkpoint-interval policy (expected-TTT cells).
    Interval(IntervalChoice),
    /// Fractional-device partition (`None` = the whole device).
    Partition(Option<PartitionSpec>),
}

/// What a cell computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// A training-simulation point: step time, throughput, memory,
    /// epochs, end-to-end minutes.
    Training,
    /// Daly's expected time-to-train under a checkpoint policy
    /// (checkpoints priced to [`CHECKPOINT_DEVICE`]).
    ExpectedTtt,
}

/// Checkpoint target of every [`CellKind::ExpectedTtt`] cell (part of the
/// cell's canonical identity; see [`CellSpec::canonical_bytes`]).
pub const CHECKPOINT_DEVICE: StorageDevice = StorageDevice::SataSsd;

impl CellKind {
    /// Stable token in canonical spec bytes.
    fn token(self) -> &'static str {
        match self {
            CellKind::Training => "training",
            CellKind::ExpectedTtt => "expected-ttt",
        }
    }

    /// The metric columns a cell of this kind produces, in order.
    pub fn columns(self) -> &'static [&'static str] {
        match self {
            CellKind::Training => &[
                "total_minutes",
                "step_ms",
                "throughput_sps",
                "hbm_gib",
                "epochs",
            ],
            CellKind::ExpectedTtt => &["interval_min", "expected_hours", "overhead_pct"],
        }
    }

    /// The extra distribution columns a cell of this kind appends when
    /// replication is on (more than one run). Training cells report the
    /// [`RunStats`] summary of their epochs-to-target draws; expected-TTT
    /// cells are already expectations and replicate to nothing.
    pub fn run_columns(self) -> &'static [&'static str] {
        match self {
            CellKind::Training => RunStats::COLUMNS,
            CellKind::ExpectedTtt => &[],
        }
    }
}

/// One fully-resolved cell of a sweep: the base point with every axis
/// value applied. Canonically comparable via [`CellSpec::canonical_bytes`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// What this cell computes.
    pub kind: CellKind,
    /// The benchmark (required to price anything).
    pub workload: Option<BenchmarkId>,
    /// The system (required to price anything).
    pub system: Option<SystemId>,
    /// GPU count (required to price anything).
    pub gpus: Option<u32>,
    /// Per-GPU batch override.
    pub batch: Option<u64>,
    /// Precision override.
    pub precision: Option<PrecisionPolicy>,
    /// MTBF, hours (expected-TTT cells).
    pub mtbf_hours: Option<f64>,
    /// Checkpoint-interval policy (expected-TTT cells).
    pub interval: Option<IntervalChoice>,
    /// Per-cell run-count override (> 1 turns replication on for this
    /// cell regardless of `MLPERF_RUNS`). `None` defers to the context.
    pub runs: Option<u32>,
    /// Fractional-device partition the cell's job runs inside. `None` —
    /// the whole device — spells and caches exactly as every
    /// pre-partition cell did.
    pub partition: Option<PartitionSpec>,
}

impl CellSpec {
    fn empty(kind: CellKind) -> CellSpec {
        CellSpec {
            kind,
            workload: None,
            system: None,
            gpus: None,
            batch: None,
            precision: None,
            mtbf_hours: None,
            interval: None,
            runs: None,
            partition: None,
        }
    }

    fn apply(&mut self, v: AxisValue) {
        match v {
            AxisValue::Workload(w) => self.workload = Some(w),
            AxisValue::System(s) => self.system = Some(s),
            AxisValue::Gpus(g) => self.gpus = Some(g),
            AxisValue::Batch(b) => self.batch = Some(b),
            AxisValue::Precision(p) => self.precision = Some(p),
            AxisValue::MtbfHours(m) => self.mtbf_hours = Some(m),
            AxisValue::Interval(i) => self.interval = Some(i),
            AxisValue::Partition(p) => self.partition = p,
        }
    }

    /// The cell's canonical identity: a stable, readable byte string in
    /// which floats are spelled as their IEEE-754 bit patterns, so two
    /// specs are canonically equal **iff** their bytes are equal. This is
    /// what the persistent cache hashes (together with the code epoch).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        fn f64_token(v: Option<f64>) -> String {
            v.map_or_else(|| "-".to_string(), |x| format!("{:016x}", x.to_bits()))
        }
        let interval = match self.interval {
            None => "-".to_string(),
            Some(IntervalChoice::Daly) => "daly".to_string(),
            Some(IntervalChoice::FixedMin(m)) => format!("fixed:{:016x}", m.to_bits()),
        };
        let mut s = format!(
            "cell.v1;kind={};wl={};sys={};gpus={};batch={};prec={};mtbf={};int={}",
            self.kind.token(),
            self.workload.map_or("-", BenchmarkId::abbreviation),
            self.system.map_or("-", SystemId::name),
            self.gpus.map_or_else(|| "-".to_string(), |g| g.to_string()),
            self.batch
                .map_or_else(|| "-".to_string(), |b| b.to_string()),
            self.precision.map_or("-", |p| match p {
                PrecisionPolicy::Fp32 => "fp32",
                PrecisionPolicy::Amp => "amp",
            }),
            f64_token(self.mtbf_hours),
            interval,
        );
        if self.kind == CellKind::ExpectedTtt {
            // The checkpoint device is fixed today but part of the cell's
            // physical identity; bake it in so a future device axis
            // cannot silently collide with old entries.
            s.push_str(";dev=SataSsd");
        }
        // Like `;trunc=`: only spelled when set, so a single-run cell's
        // identity (and cache entry) is exactly what it was before
        // replication existed.
        if let Some(r) = self.runs {
            s.push_str(&format!(";runs={r}"));
        }
        // Same only-when-set rule: a whole-device cell's identity (and
        // cache entry) is exactly what it was before partitioning existed.
        if let Some(p) = self.partition {
            s.push_str(&format!(";part={p}"));
        }
        s.into_bytes()
    }

    /// The training point this cell prices — the only `CellSpec` to
    /// [`TrainPoint`] conversion. Training cells apply their batch,
    /// precision and partition; expected-TTT cells price the tuned job
    /// (their batch and precision fields are not part of the job) inside
    /// their partition.
    ///
    /// # Errors
    ///
    /// An `invalid-spec` [`CellError`] when the workload, system or GPU
    /// count is missing.
    pub fn point(&self) -> Result<TrainPoint, CellError> {
        let workload = self
            .workload
            .ok_or_else(|| CellError::invalid("cell has no workload"))?;
        let system = self
            .system
            .ok_or_else(|| CellError::invalid("cell has no system"))?;
        let gpus = self
            .gpus
            .ok_or_else(|| CellError::invalid("cell has no gpu count"))?;
        let mut point = TrainPoint::new(workload, system, gpus).with_partition(self.partition);
        if self.kind == CellKind::Training {
            if let Some(b) = self.batch {
                point = point.with_per_gpu_batch(b);
            }
            if let Some(p) = self.precision {
                point = point.with_precision(p);
            }
        }
        Ok(point)
    }

    /// The cell's identity with the run count stripped: what the
    /// replication layer hashes to split per-run PRNG streams, so that
    /// 8-run and 16-run pricings of the same physical cell draw from the
    /// same streams (the former a prefix of the latter).
    pub fn replication_id(&self) -> Vec<u8> {
        if self.runs.is_none() {
            return self.canonical_bytes();
        }
        let mut stripped = self.clone();
        stripped.runs = None;
        stripped.canonical_bytes()
    }
}

/// Why one cell produced no value. `sim` carries the typed simulator
/// error when the cell was priced in-process; a cell deserialized from
/// the persistent cache keeps only the stable `kind` token and message.
#[derive(Debug, Clone, PartialEq)]
pub struct CellError {
    /// Stable short token (`oom`, `non-finite`, `bad-gpu-set`,
    /// `topology`, `invalid-spec`).
    pub kind: String,
    /// Human-readable message.
    pub message: String,
    /// The typed error, when priced in-process.
    pub sim: Option<SimError>,
}

/// The stable kind token of a simulator error.
fn sim_kind(e: &SimError) -> &'static str {
    match e {
        SimError::OutOfMemory { .. } => "oom",
        SimError::NonFinite { .. } => "non-finite",
        SimError::BadGpuSet(_) => "bad-gpu-set",
        SimError::Topology(_) => "topology",
        SimError::Partition(_) => "bad-partition",
    }
}

impl CellError {
    /// Wrap a typed simulator error as a cell outcome: stable kind
    /// token plus the formatted message rows and caches carry.
    pub fn from_sim(e: SimError) -> CellError {
        CellError {
            kind: sim_kind(&e).to_string(),
            message: e.to_string(),
            sim: Some(e),
        }
    }

    fn invalid(message: &str) -> CellError {
        CellError {
            kind: "invalid-spec".to_string(),
            message: message.to_string(),
            sim: None,
        }
    }

    /// Whether this is the out-of-memory wall.
    pub fn is_oom(&self) -> bool {
        self.kind == "oom"
    }

    /// Recover a [`SimError`] for callers with `SimError`-typed error
    /// paths. Lossless when priced in-process; a disk-loaded error is
    /// re-wrapped as [`SimError::NonFinite`] carrying the message.
    pub fn to_sim(&self) -> SimError {
        self.sim.clone().unwrap_or(SimError::NonFinite {
            context: self.message.clone(),
        })
    }
}

/// Why a cell produced no value, as the pricing lane leaves it: a
/// simulator error stays unformatted until something reads its message
/// (`price_cell`'s caller, a cache entry, a serve frame). A streamed CSV
/// row reads only the kind token, so a sweep without a cache never
/// formats one.
pub(crate) enum Failure {
    /// The simulator's typed verdict.
    Sim(SimError),
    /// An error that is already a [`CellError`]: an invalid spec, a
    /// replication fault, or an outcome loaded from the disk cache.
    Cell(CellError),
}

impl Failure {
    /// The stable kind token, without formatting the message.
    fn kind(&self) -> &str {
        match self {
            Failure::Sim(e) => sim_kind(e),
            Failure::Cell(e) => &e.kind,
        }
    }
}

impl From<SimError> for Failure {
    fn from(e: SimError) -> Failure {
        Failure::Sim(e)
    }
}

impl From<CellError> for Failure {
    fn from(e: CellError) -> Failure {
        Failure::Cell(e)
    }
}

impl From<Failure> for CellError {
    fn from(f: Failure) -> CellError {
        match f {
            Failure::Sim(e) => CellError::from_sim(e),
            Failure::Cell(e) => e,
        }
    }
}

/// One cell's metric values, aligned with [`CellKind::columns`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellValue {
    values: Vec<f64>,
}

impl CellValue {
    /// The value of a named column.
    ///
    /// # Panics
    ///
    /// Panics if `kind` does not have a column `name` (a programming
    /// error in the caller).
    pub fn get(&self, kind: CellKind, name: &str) -> f64 {
        let i = kind
            .columns()
            .iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("no column '{name}' in {kind:?}"));
        self.values[i]
    }

    /// All values, in column order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The value of a named column, searching the base columns and —
    /// when the cell was priced at `runs > 1` — the replication columns
    /// appended after them.
    ///
    /// # Panics
    ///
    /// Panics if the kind has no such column at that run count.
    pub fn get_named(&self, kind: CellKind, runs: u32, name: &str) -> f64 {
        let base = kind.columns();
        if let Some(i) = base.iter().position(|c| *c == name) {
            return self.values[i];
        }
        if runs > 1 {
            if let Some(i) = kind.run_columns().iter().position(|c| *c == name) {
                return self.values[base.len() + i];
            }
        }
        panic!("no column '{name}' in {kind:?} at runs={runs}")
    }
}

/// One named axis of a sweep.
#[derive(Debug, Clone)]
pub struct Axis {
    /// Display name (CSV column vocabulary).
    pub name: &'static str,
    /// The values, in declared order.
    pub values: Vec<AxisValue>,
}

/// A declarative parameter sweep: a base cell plus axes that expand into
/// the cartesian grid, first axis outermost. Expansion is deterministic:
/// same spec, same cell order, every time.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Stable name (cache vocabulary and output file stem).
    pub name: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// What each cell computes.
    pub kind: CellKind,
    base: CellSpec,
    axes: Vec<Axis>,
    /// Keep only the first N cells of the expansion (a CI-sized prefix
    /// of a huge grid). `None` — the default — means the full product.
    trunc: Option<usize>,
}

impl SweepSpec {
    /// A sweep with no axes yet.
    pub fn new(name: &'static str, title: &'static str, kind: CellKind) -> SweepSpec {
        SweepSpec {
            name,
            title,
            kind,
            base: CellSpec::empty(kind),
            axes: Vec::new(),
            trunc: None,
        }
    }

    /// Fix one dimension for every cell.
    #[must_use]
    pub fn fix(mut self, v: AxisValue) -> SweepSpec {
        self.base.apply(v);
        self
    }

    /// Add an axis; the grid is the cartesian product of all axes, first
    /// axis outermost.
    #[must_use]
    pub fn axis(mut self, name: &'static str, values: Vec<AxisValue>) -> SweepSpec {
        self.axes.push(Axis { name, values });
        self
    }

    /// The declared axes.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Whether any cell of this sweep can carry a partition (a partition
    /// axis or a partitioned base). Gates the CSV's `partition` column:
    /// partition-free sweeps emit exactly the bytes they always did.
    pub fn partitioned(&self) -> bool {
        self.base.partition.is_some()
            || self.axes.iter().any(|a| {
                a.values
                    .iter()
                    .any(|v| matches!(v, AxisValue::Partition(_)))
            })
    }

    /// Keep only the first `max_cells` cells of the deterministic
    /// expansion — the CI-sized prefix of a grid too large to run whole.
    /// Truncation is part of the sweep's canonical identity (the cache
    /// must not confuse a prefix with the full grid); an untruncated
    /// sweep spells its canonical bytes exactly as before.
    #[must_use]
    pub fn truncate(mut self, max_cells: usize) -> SweepSpec {
        self.trunc = Some(max_cells);
        self
    }

    /// Number of cells the sweep expands to, without materializing any
    /// of them (the product of the axis lengths, capped by
    /// [`SweepSpec::truncate`]).
    pub fn len(&self) -> usize {
        let full: usize = self.axes.iter().map(|a| a.values.len().max(1)).product();
        self.trunc.map_or(full, |t| full.min(t))
    }

    /// Whether the expansion is empty (only possible via `truncate(0)`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th cell of the deterministic expansion, decoded straight
    /// from the odometer (last axis fastest) — O(axes), independent of
    /// the grid size, so streaming runners never hold the grid.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn cell_at(&self, i: usize) -> CellSpec {
        assert!(i < self.len(), "cell index {i} out of range {}", self.len());
        self.decode(i).1
    }

    /// Index `i` decoded into one coordinate per axis, last fastest, and
    /// the cell those coordinates select.
    fn decode(&self, i: usize) -> (Vec<usize>, CellSpec) {
        let mut cell = self.base.clone();
        let mut coords = vec![0usize; self.axes.len()];
        let mut rest = i;
        for (k, axis) in self.axes.iter().enumerate().rev() {
            let n = axis.values.len().max(1);
            coords[k] = rest % n;
            rest /= n;
        }
        for (axis, &c) in self.axes.iter().zip(&coords) {
            if let Some(v) = axis.values.get(c) {
                cell.apply(*v);
            }
        }
        (coords, cell)
    }

    /// Cells `range` of the expansion, in order: the first decoded as
    /// [`SweepSpec::cell_at`] decodes it, each next one by stepping the
    /// last axis and carrying into the axes before it. A step applies only
    /// the axes it moved — one value per cell inside a run of the last axis
    /// — in declaration order from the outermost moved one, so later axes
    /// win exactly as they do in `cell_at`. An empty axis holds one
    /// coordinate and applies nothing, as in `cell_at`.
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and ends past [`SweepSpec::len`].
    pub fn walk(&self, range: Range<usize>) -> impl ExactSizeIterator<Item = CellSpec> + '_ {
        assert!(
            range.is_empty() || range.end <= self.len(),
            "cells {range:?} out of range {}",
            self.len()
        );
        let start = range.start;
        let (mut coords, mut cell) = self.decode(start);
        range.map(move |i| {
            if i > start {
                self.step(&mut coords, &mut cell);
            }
            cell.clone()
        })
    }

    /// Advance `coords` one cell, last axis fastest, and apply to `cell`
    /// the value of every axis that moved.
    fn step(&self, coords: &mut [usize], cell: &mut CellSpec) {
        let mut k = self.axes.len();
        while k > 0 {
            k -= 1;
            coords[k] += 1;
            if coords[k] < self.axes[k].values.len().max(1) {
                break;
            }
            coords[k] = 0;
        }
        for (axis, &c) in self.axes[k..].iter().zip(&coords[k..]) {
            if let Some(v) = axis.values.get(c) {
                cell.apply(*v);
            }
        }
    }

    /// Deterministic expansion into cells (odometer over the axes,
    /// last axis fastest — exactly the nested-loop order the experiments
    /// used to hand-roll). Materializes the whole grid; million-cell
    /// sweeps should [`SweepSpec::walk`] it in ranges instead.
    pub fn cells(&self) -> Vec<CellSpec> {
        self.walk(0..self.len()).collect()
    }

    /// The sweep's canonical identity: name, kind, and every axis value
    /// (via the same float-bit spelling as [`CellSpec::canonical_bytes`]).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut s = format!("sweep.v1;name={};kind={}", self.name, self.kind.token());
        s.push_str(";base=");
        s.push_str(&String::from_utf8_lossy(&self.base.canonical_bytes()));
        for axis in &self.axes {
            s.push_str(&format!(";axis={}[", axis.name));
            for (i, v) in axis.values.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let mut probe = CellSpec::empty(self.kind);
                probe.apply(*v);
                s.push_str(&String::from_utf8_lossy(&probe.canonical_bytes()));
            }
            s.push(']');
        }
        if let Some(t) = self.trunc {
            s.push_str(&format!(";trunc={t}"));
        }
        s.into_bytes()
    }
}

/// One priced cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's resolved spec.
    pub spec: CellSpec,
    /// Its metrics, or why it degraded.
    pub outcome: Result<CellValue, CellError>,
    /// Whether the persistent cache answered this cell.
    pub from_disk: bool,
}

/// A fully-executed sweep, held in memory (the experiments' path; the
/// CSV path is [`run_streamed`]).
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The sweep's stable name.
    pub name: &'static str,
    /// Its display title.
    pub title: &'static str,
    /// What the cells computed.
    pub kind: CellKind,
    /// Every cell, in deterministic expansion order.
    pub cells: Vec<CellResult>,
}

impl SweepRun {
    /// Cells answered by the persistent cache.
    pub fn disk_hits(&self) -> usize {
        self.cells.iter().filter(|c| c.from_disk).count()
    }

    /// Cells that degraded to an error.
    pub fn errors(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.is_err()).count()
    }
}

/// The run count a cell is actually priced at: its own `runs` override
/// when set, otherwise the context's `MLPERF_RUNS` resolution. Always
/// ≥ 1; `1` means replication is off and the cell prices exactly as it
/// did before the replication layer existed.
pub fn effective_runs(ctx: &Ctx, spec: &CellSpec) -> u32 {
    spec.runs.unwrap_or_else(|| ctx.runs()).max(1)
}

/// Price one cell through the shared memoized context. Pure function of
/// `(ctx-model, spec)`: every run of the same spec produces the same
/// value or the same error. At an effective run count above one,
/// Training cells append the [`RunStats`] columns — seeded
/// epochs-to-target replication around the convergence calibration
/// point — after their base metric columns.
///
/// # Errors
///
/// A [`CellError`]: `invalid-spec` when a required dimension is missing,
/// otherwise the simulator's verdict (`oom`, `non-finite`, ...).
pub fn price_cell(ctx: &Ctx, spec: &CellSpec) -> Result<CellValue, CellError> {
    price(&mut Lane::new(ctx), spec).map_err(CellError::from)
}

/// The one pricing body behind [`price_cell`], [`run_serial`],
/// [`run_streamed`] and the query server, with its error unformatted.
fn price(lane: &mut Lane, spec: &CellSpec) -> Result<CellValue, Failure> {
    let ctx = lane.ctx();
    let point = spec.point()?;
    match spec.kind {
        CellKind::Training => {
            let (step, outcome) = lane.step_and_outcome(&point)?;
            // Epochs are charged by the *base* job's convergence model at
            // the cell's effective global batch (matching the batch
            // sweep's original accounting). The interned template stands
            // in for rebuilding the job from the zoo per cell; the batch
            // override wins over the template default exactly as
            // `with_per_gpu_batch` would.
            let base = ctx.base_job(point.benchmark, false);
            let per_gpu = spec.batch.unwrap_or_else(|| base.per_gpu_batch());
            let global_batch = per_gpu * u64::from(point.gpus);
            let epochs = base.convergence().epochs_at(global_batch);
            let mut values = vec![
                outcome.total_time.as_minutes(),
                step.step_time.as_secs() * 1e3,
                step.throughput_samples_per_sec(),
                step.hbm_per_gpu.as_gib(),
                epochs,
            ];
            let runs = effective_runs(ctx, spec);
            if runs > 1 {
                let rep = Replication::new(runs);
                let mut scratch = ReplicationScratch::new();
                let stats = rep
                    .epochs_stats(
                        &spec.replication_id(),
                        &base.convergence(),
                        global_batch,
                        &mut scratch,
                    )
                    .map_err(|e| CellError {
                        kind: "non-finite".to_string(),
                        message: format!("replication stats: {e}"),
                        sim: None,
                    })?;
                values.extend_from_slice(&stats.values());
            }
            Ok(CellValue { values })
        }
        CellKind::ExpectedTtt => {
            let mtbf_hours = spec
                .mtbf_hours
                .ok_or_else(|| CellError::invalid("expected-TTT cell has no MTBF"))?;
            let choice = spec
                .interval
                .ok_or_else(|| CellError::invalid("expected-TTT cell has no interval"))?;
            let outcome = lane.outcome(&point)?;
            let work = outcome.total_time;
            let job = ctx.base_job(point.benchmark, false);
            let probe = CheckpointSpec::new(Seconds::from_minutes(10.0), CHECKPOINT_DEVICE);
            let write_cost = probe.write_cost(job);
            let restart_cost = probe.restart_cost(job);
            let mtbf = Seconds::from_hours(mtbf_hours);
            let tau = match choice {
                IntervalChoice::FixedMin(m) => Seconds::from_minutes(m),
                IntervalChoice::Daly => daly_interval(write_cost, mtbf)?,
            };
            let expected = expected_runtime(work, tau, write_cost, restart_cost, mtbf)?;
            Ok(CellValue {
                values: vec![
                    tau.as_minutes(),
                    expected.as_hours(),
                    (expected.as_secs() / work.as_secs() - 1.0) * 100.0,
                ],
            })
        }
    }
}

/// Serialize one cell outcome for the persistent cache (floats as IEEE
/// bit patterns, so the round trip is exact).
pub(crate) fn encode_outcome(outcome: &Result<CellValue, CellError>) -> Vec<u8> {
    let mut s = String::new();
    match outcome {
        Ok(v) => {
            s.push_str("ok v1\n");
            for x in &v.values {
                s.push_str(&format!("{:016x}\n", x.to_bits()));
            }
        }
        Err(e) => {
            s.push_str("err v1\n");
            s.push_str(&format!("{}\n", e.kind));
            s.push_str(&format!("{}\n", e.message.replace('\n', " ")));
        }
    }
    s.into_bytes()
}

/// Parse a cached cell outcome; `None` (treated as a miss) on any
/// malformed payload. `runs` is the effective run count the cell was
/// priced at: above one, the kind's replication columns are part of the
/// expected payload width.
pub(crate) fn decode_outcome(
    kind: CellKind,
    runs: u32,
    bytes: &[u8],
) -> Option<Result<CellValue, CellError>> {
    let expected = kind.columns().len()
        + if runs > 1 {
            kind.run_columns().len()
        } else {
            0
        };
    let text = std::str::from_utf8(bytes).ok()?;
    let mut lines = text.lines();
    match lines.next()? {
        "ok v1" => {
            let values: Option<Vec<f64>> = lines
                .map(|l| u64::from_str_radix(l, 16).ok().map(f64::from_bits))
                .collect();
            let values = values?;
            (values.len() == expected).then_some(Ok(CellValue { values }))
        }
        "err v1" => {
            let kind_token = lines.next()?.to_string();
            let message = lines.next()?.to_string();
            Some(Err(CellError {
                kind: kind_token,
                message,
                sim: None,
            }))
        }
        _ => None,
    }
}

/// Price one cell, answering from (and filling) the persistent cache
/// when one is supplied; the flag says whether the cache answered.
/// Degraded cells are stored **as their error** — a warm run reproduces
/// the same degraded row, never a fake success. The cache store is the
/// only step here that formats an error message.
pub(crate) fn run_cell(
    lane: &mut Lane,
    spec: &CellSpec,
    cache: Option<&DiskCache>,
) -> (Result<CellValue, Failure>, bool) {
    let Some(cache) = cache else {
        return (price(lane, spec), false);
    };
    // The cache entry is keyed by the *effective* run count (spelled only
    // when replication is on): a context-level MLPERF_RUNS=8 and an
    // explicit runs=8 override are the same computation and share an
    // entry, while a single-run cell keys exactly as it did before
    // replication existed.
    let runs = effective_runs(lane.ctx(), spec);
    let mut keyed = spec.clone();
    keyed.runs = (runs > 1).then_some(runs);
    let mut entry = b"cell:".to_vec();
    entry.extend_from_slice(&keyed.canonical_bytes());
    if let Some(outcome) = cache
        .load(&entry)
        .and_then(|b| decode_outcome(spec.kind, runs, &b))
    {
        return (outcome.map_err(Failure::Cell), true);
    }
    let outcome = price(lane, spec).map_err(CellError::from);
    cache.store(&entry, &encode_outcome(&outcome));
    (outcome.map_err(Failure::Cell), false)
}

/// Run a sweep serially on the calling thread (what the experiments do —
/// they already execute inside a pool worker), walking its cells through
/// one pricing lane.
pub fn run_serial(ctx: &Ctx, spec: &SweepSpec, cache: Option<&DiskCache>) -> SweepRun {
    let mut lane = Lane::new(ctx);
    SweepRun {
        name: spec.name,
        title: spec.title,
        kind: spec.kind,
        cells: spec
            .walk(0..spec.len())
            .map(|cell| {
                let (outcome, from_disk) = run_cell(&mut lane, &cell, cache);
                CellResult {
                    spec: cell,
                    outcome: outcome.map_err(CellError::from),
                    from_disk,
                }
            })
            .collect(),
    }
}

/// The CSV header vocabulary for one cell kind: spec columns (plus the
/// `partition` column when the sweep carries one), a status column, the
/// kind's metric columns (plus the replication columns when `runs > 1`),
/// and the error token.
pub(crate) fn csv_headers(kind: CellKind, runs: u32, partitioned: bool) -> Vec<&'static str> {
    let mut headers = vec![
        "workload",
        "system",
        "gpus",
        "batch",
        "precision",
        "mtbf_hours",
        "interval",
    ];
    if partitioned {
        headers.push("partition");
    }
    headers.push("status");
    headers.extend_from_slice(kind.columns());
    if runs > 1 {
        headers.extend_from_slice(kind.run_columns());
    }
    headers.push("error");
    headers
}

/// One chunk of rendered CSV rows and what they counted: the unit a
/// [`run_streamed`] worker fills and the caller appends. Reused chunk
/// after chunk, so rendering allocates nothing per cell.
#[derive(Default)]
struct Rows {
    csv: Vec<u8>,
    cells: usize,
    errors: usize,
    disk_hits: usize,
}

impl Rows {
    fn clear(&mut self) {
        self.csv.clear();
        self.cells = 0;
        self.errors = 0;
        self.disk_hits = 0;
    }

    /// Append one cell's row: its spec, and its values or its error's
    /// kind token. `runs` must match the header the row goes under: it
    /// sizes the dash padding of degraded rows; `partitioned` likewise
    /// gates the partition cell.
    fn push(
        &mut self,
        kind: CellKind,
        runs: u32,
        partitioned: bool,
        s: &CellSpec,
        outcome: Result<&CellValue, &str>,
        from_disk: bool,
    ) {
        let mut row = CsvRecord::new(&mut self.csv);
        row.field(s.workload.map_or("-", BenchmarkId::abbreviation));
        match s.system {
            Some(x) => row.field_with(|buf| {
                buf.extend(x.name().bytes().map(|b| if b == b' ' { b'_' } else { b }));
            }),
            None => row.field("-"),
        }
        match s.gpus {
            Some(g) => row.field_u64(g.into()),
            None => row.field("-"),
        }
        match s.batch {
            Some(b) => row.field_u64(b),
            None => row.field("-"),
        }
        row.field(s.precision.map_or("-", |p| match p {
            PrecisionPolicy::Fp32 => "fp32",
            PrecisionPolicy::Amp => "amp",
        }));
        match s.mtbf_hours {
            Some(m) => row.field_fmt(format_args!("{m:.1}")),
            None => row.field("-"),
        }
        match s.interval {
            None => row.field("-"),
            Some(IntervalChoice::Daly) => row.field("daly"),
            Some(IntervalChoice::FixedMin(m)) => row.field_fmt(format_args!("{m:.1}min")),
        }
        if partitioned {
            match s.partition {
                Some(p) => row.field_fmt(format_args!("{p}")),
                None => row.field("full"),
            }
        }
        match outcome {
            Ok(v) => {
                row.field("ok");
                for &x in v.values() {
                    row.field_fixed4(x);
                }
                row.field("-");
            }
            Err(error_kind) => {
                row.field("error");
                let width = kind.columns().len()
                    + if runs > 1 {
                        kind.run_columns().len()
                    } else {
                        0
                    };
                for _ in 0..width {
                    row.field("-");
                }
                row.field(error_kind);
            }
        }
        row.end();
        self.cells += 1;
        self.errors += usize::from(outcome.is_err());
        self.disk_hits += usize::from(from_disk);
    }
}

/// What a streamed sweep did (the rows themselves went to the writer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total cells priced and written.
    pub cells: usize,
    /// Cells that degraded to an error (still written, `status=error`).
    pub errors: usize,
    /// Cells answered by the persistent cache.
    pub disk_hits: usize,
    /// Peak number of cells claimed for pricing but not yet written —
    /// bounded by the shard size, never by the grid. The proof that
    /// streaming buffering stayed bounded.
    pub peak_resident: usize,
}

/// Run a sweep as one streaming pipeline and write its long-form CSV to
/// `out`: header first, then one row per cell in expansion order. Pool
/// workers claim contiguous chunks of cells, walk each chunk
/// ([`SweepSpec::walk`]), price it through one pricing lane and render its
/// rows into reused buffers; the calling thread only appends finished
/// chunks in order. At
/// most `shard` cells are claimed but not yet written, so a 10⁶-cell sweep
/// runs in memory bounded by the shard, never by the grid. The bytes are
/// the same for every worker count and shard size.
///
/// # Errors
///
/// Propagates write errors from `out`, which stop further pricing; pricing
/// itself never fails (degraded cells become `status=error` rows, counted
/// in the summary).
pub fn run_streamed(
    pool: &Pool,
    ctx: &Ctx,
    spec: &SweepSpec,
    cache: Option<&DiskCache>,
    out: &mut dyn std::io::Write,
    shard: usize,
) -> std::io::Result<StreamSummary> {
    let runs = ctx.runs();
    let partitioned = spec.partitioned();
    out.write_all(crate::report::csv_line(csv_headers(spec.kind, runs, partitioned)).as_bytes())?;
    let mut summary = StreamSummary {
        cells: 0,
        errors: 0,
        disk_hits: 0,
        peak_resident: 0,
    };
    let peak = pool.stream_ordered(
        spec.len(),
        shard,
        |cells, rows: &mut Rows| {
            rows.clear();
            let mut lane = Lane::new(ctx);
            for cell in spec.walk(cells) {
                let (outcome, from_disk) = run_cell(&mut lane, &cell, cache);
                let outcome = outcome.as_ref().map_err(Failure::kind);
                rows.push(spec.kind, runs, partitioned, &cell, outcome, from_disk);
            }
        },
        |rows| {
            summary.cells += rows.cells;
            summary.errors += rows.errors;
            summary.disk_hits += rows.disk_hits;
            out.write_all(&rows.csv)
        },
    )?;
    summary.peak_resident = peak;
    Ok(summary)
}

/// Figure 4's input grid: every MLPerf benchmark at 1/2/4/8 GPUs on the
/// DSS 8440 (also consumed by Table IV's memo hits, the cluster study,
/// and the fault study's elastic part).
pub fn figure4_scaling() -> SweepSpec {
    SweepSpec::new(
        "figure4_scaling",
        "MLPerf workloads x GPU count on the DSS 8440",
        CellKind::Training,
    )
    .fix(AxisValue::System(SystemId::Dss8440))
    .axis(
        "workload",
        BenchmarkId::MLPERF
            .iter()
            .copied()
            .map(AxisValue::Workload)
            .collect(),
    )
    .axis(
        "gpus",
        [1u32, 2, 4, 8]
            .iter()
            .map(|&g| AxisValue::Gpus(g))
            .collect(),
    )
}

/// The batch sweep: one benchmark on a single V100 of the C4140 (K),
/// per-GPU batch doubling from 16 until past the OOM wall.
pub fn batch_wall(id: BenchmarkId) -> SweepSpec {
    let batches: Vec<AxisValue> = (0..)
        .map(|i| 16u64 << i)
        .take_while(|&b| b <= 1 << 14)
        .map(AxisValue::Batch)
        .collect();
    SweepSpec::new(
        "batch_wall",
        "Per-GPU batch size to the OOM wall (C4140 K, 1 GPU)",
        CellKind::Training,
    )
    .fix(AxisValue::Workload(id))
    .fix(AxisValue::System(SystemId::C4140K))
    .fix(AxisValue::Gpus(1))
    .axis("batch", batches)
}

/// The fault study's analytic grid: MTBF x checkpoint interval (four
/// fixed intervals plus the Daly-optimal one) for the Transformer on 4
/// GPUs of the DSS 8440.
pub fn fault_ttt() -> SweepSpec {
    SweepSpec::new(
        "fault_ttt",
        "Expected time-to-train vs MTBF and checkpoint interval",
        CellKind::ExpectedTtt,
    )
    .fix(AxisValue::Workload(BenchmarkId::MlpfXfmrPy))
    .fix(AxisValue::System(SystemId::Dss8440))
    .fix(AxisValue::Gpus(4))
    .axis(
        "mtbf_hours",
        [1.0, 4.0, 24.0]
            .iter()
            .map(|&m| AxisValue::MtbfHours(m))
            .collect(),
    )
    .axis(
        "interval",
        vec![
            AxisValue::Interval(IntervalChoice::FixedMin(1.0)),
            AxisValue::Interval(IntervalChoice::FixedMin(10.0)),
            AxisValue::Interval(IntervalChoice::FixedMin(60.0)),
            AxisValue::Interval(IntervalChoice::FixedMin(240.0)),
            AxisValue::Interval(IntervalChoice::Daly),
        ],
    )
}

/// The partition-scaling grid: every MLPerf benchmark on one V100 of the
/// C4140 (K), whole-device and at the packed 2-/4-/7-way slice layouts
/// (every co-tenant busy — the worst-case interference point). This is
/// the input grid of the partition study; per-device throughput is k ×
/// the per-slice rate the cells price.
pub fn partition_scaling() -> SweepSpec {
    SweepSpec::new(
        "partition_scaling",
        "MLPerf workloads x k-way device partitioning (C4140 K, 1 GPU)",
        CellKind::Training,
    )
    .fix(AxisValue::System(SystemId::C4140K))
    .fix(AxisValue::Gpus(1))
    .axis(
        "workload",
        BenchmarkId::MLPERF
            .iter()
            .copied()
            .map(AxisValue::Workload)
            .collect(),
    )
    .axis(
        "partition",
        vec![
            AxisValue::Partition(None),
            AxisValue::Partition(Some(PartitionSpec::packed(PartitionProfile::Half))),
            AxisValue::Partition(Some(PartitionSpec::packed(PartitionProfile::Quarter))),
            AxisValue::Partition(Some(PartitionSpec::packed(PartitionProfile::Seventh))),
        ],
    )
}

/// How many cells of [`million_cell`] the registry (and CI) actually
/// runs; the full grid is the bench harness's stress load.
pub const MILLION_CELL_CI_PREFIX: usize = 512;

/// The scale stress grid: every MLPerf benchmark × three systems ×
/// 1/2/4/8 GPUs × both precisions × every per-GPU batch size from 1 to
/// 5952 — 999,936 cells. Exists to prove the streaming runner holds a
/// ~10⁶-cell sweep in shard-bounded memory; the registry carries it
/// truncated to [`MILLION_CELL_CI_PREFIX`] cells so `repro sweep` and
/// the conformance fingerprints stay CI-sized.
pub fn million_cell() -> SweepSpec {
    SweepSpec::new(
        "million_cell",
        "Scale stress grid: workload x system x GPUs x precision x batch",
        CellKind::Training,
    )
    .axis(
        "workload",
        BenchmarkId::MLPERF
            .iter()
            .copied()
            .map(AxisValue::Workload)
            .collect(),
    )
    .axis(
        "system",
        [SystemId::Dss8440, SystemId::C4140K, SystemId::T640]
            .iter()
            .map(|&s| AxisValue::System(s))
            .collect(),
    )
    .axis(
        "gpus",
        [1u32, 2, 4, 8]
            .iter()
            .map(|&g| AxisValue::Gpus(g))
            .collect(),
    )
    .axis(
        "precision",
        vec![
            AxisValue::Precision(PrecisionPolicy::Amp),
            AxisValue::Precision(PrecisionPolicy::Fp32),
        ],
    )
    .axis("batch", (1u64..=5952).map(AxisValue::Batch).collect())
}

/// Every sweep `repro sweep` can run, by name.
pub fn registry() -> Vec<SweepSpec> {
    vec![
        figure4_scaling(),
        batch_wall(BenchmarkId::MlpfRes50Mx),
        fault_ttt(),
        million_cell().truncate(MILLION_CELL_CI_PREFIX),
        partition_scaling(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The streamed CSV of `spec` and its summary.
    fn streamed(
        workers: usize,
        ctx: &Ctx,
        spec: &SweepSpec,
        cache: Option<&DiskCache>,
        shard: usize,
    ) -> (String, StreamSummary) {
        let mut out = Vec::new();
        let summary = run_streamed(
            &Pool::with_workers(workers),
            ctx,
            spec,
            cache,
            &mut out,
            shard,
        )
        .unwrap();
        (String::from_utf8(out).unwrap(), summary)
    }

    /// An in-memory run rendered through the streamed path's row writer.
    fn render(run: &SweepRun, runs: u32, partitioned: bool) -> String {
        let mut rows = Rows::default();
        for cell in &run.cells {
            let outcome = cell.outcome.as_ref().map_err(|e| e.kind.as_str());
            rows.push(
                run.kind,
                runs,
                partitioned,
                &cell.spec,
                outcome,
                cell.from_disk,
            );
        }
        let header = crate::report::csv_line(csv_headers(run.kind, runs, partitioned));
        header + std::str::from_utf8(&rows.csv).unwrap()
    }

    #[test]
    fn expansion_is_first_axis_outermost() {
        let spec = figure4_scaling();
        let cells = spec.cells();
        assert_eq!(cells.len(), 28);
        // First four cells: first workload at 1/2/4/8 GPUs.
        for (i, g) in [1u32, 2, 4, 8].iter().enumerate() {
            assert_eq!(cells[i].workload, Some(BenchmarkId::MlpfRes50Tf));
            assert_eq!(cells[i].gpus, Some(*g));
        }
        assert_eq!(cells[4].workload, Some(BenchmarkId::MlpfRes50Mx));
    }

    #[test]
    fn cell_at_matches_materialized_expansion() {
        for spec in registry() {
            let cells = spec.cells();
            assert_eq!(cells.len(), spec.len());
            for (i, cell) in cells.iter().enumerate() {
                assert_eq!(spec.cell_at(i), *cell, "{} cell {i}", spec.name);
            }
        }
    }

    #[test]
    fn truncation_caps_expansion_and_changes_identity() {
        let full = figure4_scaling();
        let cut = figure4_scaling().truncate(5);
        assert_eq!(full.len(), 28);
        assert_eq!(cut.len(), 5);
        assert_eq!(cut.cells(), full.cells()[..5].to_vec());
        // Truncation is part of the canonical identity...
        assert_ne!(full.canonical_bytes(), cut.canonical_bytes());
        // ...but an untruncated sweep spells exactly as before.
        assert!(!String::from_utf8(full.canonical_bytes())
            .unwrap()
            .contains(";trunc="));
        assert!(String::from_utf8(cut.canonical_bytes())
            .unwrap()
            .ends_with(";trunc=5"));
        // A cap wider than the grid is a no-op on the expansion.
        assert_eq!(figure4_scaling().truncate(1000).len(), 28);
    }

    #[test]
    fn million_cell_grid_is_million_scale() {
        let spec = million_cell();
        assert_eq!(spec.len(), 999_936);
        assert!(spec.len() >= 100_000, "the stress grid must be 10^5+ cells");
        // Decoding the far corner touches no other cell.
        let last = spec.cell_at(spec.len() - 1);
        assert_eq!(last.batch, Some(5952));
        assert_eq!(last.precision, Some(PrecisionPolicy::Fp32));
        assert_eq!(last.system, Some(SystemId::T640));
    }

    #[test]
    fn streamed_run_matches_in_memory_bytes() {
        let ctx = Ctx::new();
        let spec = fault_ttt();
        let expected = render(&run_serial(&ctx, &spec, None), 1, false);
        let (out, summary) = streamed(2, &Ctx::new(), &spec, None, 4);
        assert_eq!(out, expected);
        assert_eq!(summary.cells, spec.len());
        assert_eq!(summary.errors, 0);
        assert!(summary.peak_resident <= 4, "buffering exceeded the shard");
    }

    #[test]
    fn canonical_bytes_equal_iff_specs_equal() {
        let a = figure4_scaling().cells();
        for (i, x) in a.iter().enumerate() {
            for (j, y) in a.iter().enumerate() {
                assert_eq!(
                    x.canonical_bytes() == y.canonical_bytes(),
                    i == j,
                    "cells {i} and {j}"
                );
            }
        }
    }

    #[test]
    fn float_axes_canonicalize_by_bits() {
        let mut a = CellSpec::empty(CellKind::ExpectedTtt);
        a.apply(AxisValue::MtbfHours(1.0));
        let mut b = CellSpec::empty(CellKind::ExpectedTtt);
        b.apply(AxisValue::MtbfHours(1.0 + f64::EPSILON));
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn outcome_encoding_round_trips_exactly() {
        let v = CellValue {
            values: vec![1.0 / 3.0, -0.0, 6.25e-3, f64::MAX, 42.0],
        };
        let ok: Result<CellValue, CellError> = Ok(v);
        assert_eq!(
            decode_outcome(CellKind::Training, 1, &encode_outcome(&ok)),
            Some(ok.clone())
        );
        let err: Result<CellValue, CellError> = Err(CellError {
            kind: "oom".to_string(),
            message: "replica needs 32 GiB but device has 16 GiB".to_string(),
            sim: None,
        });
        assert_eq!(
            decode_outcome(CellKind::Training, 1, &encode_outcome(&err)),
            Some(err)
        );
        assert_eq!(decode_outcome(CellKind::Training, 1, b"garbage"), None);
        // A replicated payload is 5 base + 6 run columns wide: it decodes
        // only at runs > 1, and a point payload only at runs == 1 — a
        // mismatched width is a cache miss, never a misread.
        let wide = CellValue {
            values: (0..11).map(f64::from).collect(),
        };
        let wide: Result<CellValue, CellError> = Ok(wide);
        let bytes = encode_outcome(&wide);
        assert_eq!(decode_outcome(CellKind::Training, 8, &bytes), Some(wide));
        assert_eq!(decode_outcome(CellKind::Training, 1, &bytes), None);
        assert_eq!(
            decode_outcome(CellKind::Training, 8, &encode_outcome(&ok)),
            None
        );
    }

    #[test]
    fn runs_knob_is_spelled_only_when_set() {
        let mut cell = figure4_scaling().cell_at(0);
        let plain = cell.canonical_bytes();
        assert!(!String::from_utf8(plain.clone()).unwrap().contains(";runs="));
        cell.runs = Some(8);
        let replicated = cell.canonical_bytes();
        assert!(String::from_utf8(replicated.clone())
            .unwrap()
            .ends_with(";runs=8"));
        assert_ne!(plain, replicated, "run count is part of the cache identity");
        // The replication id strips the knob: the PRNG streams of a cell
        // are shared across run counts.
        assert_eq!(cell.replication_id(), plain);
    }

    #[test]
    fn replicated_training_cell_appends_run_stats_columns() {
        let ctx = Ctx::new().with_runs(8);
        let spec = figure4_scaling().cell_at(0);
        assert_eq!(effective_runs(&ctx, &spec), 8);
        let v = price_cell(&ctx, &spec).unwrap();
        let kind = CellKind::Training;
        assert_eq!(
            v.values().len(),
            kind.columns().len() + kind.run_columns().len()
        );
        // Base columns are byte-identical to the single-run pricing.
        let point = price_cell(&Ctx::new(), &spec).unwrap();
        assert_eq!(&v.values()[..point.values().len()], point.values());
        let n = v.get_named(kind, 8, "runs");
        let median = v.get_named(kind, 8, "epochs_median");
        let p5 = v.get_named(kind, 8, "epochs_p5");
        let p95 = v.get_named(kind, 8, "epochs_p95");
        assert_eq!(n, 8.0);
        assert!(p5 <= median && median <= p95);
        assert!(
            v.get_named(kind, 8, "epochs_ci_lo") <= median
                && median <= v.get_named(kind, 8, "epochs_ci_hi")
        );
    }

    #[test]
    fn replicated_sweep_is_worker_invariant_and_replays_bitwise() {
        let spec = figure4_scaling();
        let a = render(&run_serial(&Ctx::new().with_runs(8), &spec, None), 8, false);
        let (b, _) = streamed(4, &Ctx::new().with_runs(8), &spec, None, 3);
        assert_eq!(a, b, "replication draws are scheduling-invariant");
        assert!(a
            .lines()
            .next()
            .unwrap()
            .ends_with(",runs,epochs_median,epochs_p5,epochs_p95,epochs_ci_lo,epochs_ci_hi,error"));
    }

    #[test]
    fn serial_and_pooled_runs_agree() {
        let ctx = Ctx::new();
        let spec = fault_ttt();
        let a = run_serial(&ctx, &spec, None);
        let (b, _) = streamed(4, &Ctx::new(), &spec, None, 1024);
        assert_eq!(render(&a, 1, false), b);
        assert_eq!(a.errors(), 0);
    }

    #[test]
    fn degraded_cell_caches_as_error_never_as_success() {
        let dir = std::env::temp_dir().join("mlperf_sweep_err_cache");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open_with_epoch(&dir, 0xE).unwrap();
        let ctx = Ctx::new();
        let spec = batch_wall(BenchmarkId::MlpfRes50Mx);
        let cold = run_serial(&ctx, &spec, Some(&cache));
        assert!(cold.errors() > 0, "the batch wall must be hit");
        let warm = run_serial(&Ctx::new(), &spec, Some(&cache));
        assert_eq!(warm.disk_hits(), warm.cells.len(), "fully warm");
        for (c, w) in cold.cells.iter().zip(&warm.cells) {
            match (&c.outcome, &w.outcome) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!((&a.kind, &a.message), (&b.kind, &b.message)),
                _ => panic!("warm outcome changed status"),
            }
        }
        assert_eq!(
            render(&cold, 1, false),
            render(&warm, 1, false),
            "CSV bytes identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
