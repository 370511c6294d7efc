//! An event-driven multi-GPU cluster executing a stream of training jobs.
//!
//! §IV-D closes with: "system administrators associated with super
//! computing clusters might be interested in finding an effective
//! algorithm to schedule various machine learning training jobs". This
//! module provides that substrate as an extension: jobs (with measured
//! per-width durations) *arrive over time*, one of five online [`Policy`]s
//! decides placements, and the cluster executes everything on the
//! [`EventQueue`] — non-preemptive, work-conserving at the policy's
//! discretion.
//!
//! # Examples
//!
//! ```
//! use mlperf_sim::cluster::{Cluster, ClusterJobSpec, Policy, Submission};
//! use mlperf_hw::Seconds;
//!
//! let jobs = vec![
//!     Submission::at_start(ClusterJobSpec::new("a", [(1, 100.0), (2, 55.0), (4, 30.0)])),
//!     Submission::at_start(ClusterJobSpec::new("b", [(1, 80.0), (2, 70.0), (4, 65.0)])),
//! ];
//! let trace = Cluster::new(4).run(jobs, Policy::GreedyBestFinish);
//! assert!(trace.makespan > Seconds::ZERO);
//! assert_eq!(trace.completions.len(), 2);
//! ```

use crate::des::EventQueue;
use mlperf_hw::units::Seconds;
use std::collections::BTreeMap;
use std::fmt;

/// A job the cluster can run: a name plus its measured duration at every
/// feasible GPU width (minutes, as Table IV reports them).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterJobSpec {
    name: String,
    durations: BTreeMap<u64, f64>,
}

impl ClusterJobSpec {
    /// Build from `(width, minutes)` pairs.
    ///
    /// # Panics
    ///
    /// Panics on an empty set, zero widths, or non-positive durations.
    pub fn new(name: impl Into<String>, durations: impl IntoIterator<Item = (u64, f64)>) -> Self {
        let durations: BTreeMap<u64, f64> = durations.into_iter().collect();
        assert!(!durations.is_empty(), "job needs at least one width");
        for (&w, &d) in &durations {
            assert!(w > 0, "width must be positive");
            assert!(
                d.is_finite() && d > 0.0,
                "duration must be finite and positive"
            );
        }
        ClusterJobSpec {
            name: name.into(),
            durations,
        }
    }

    /// The job's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Duration in minutes at a width, if feasible.
    pub fn minutes_at(&self, width: u64) -> Option<f64> {
        self.durations.get(&width).copied()
    }

    /// Feasible widths, ascending.
    pub fn widths(&self) -> impl Iterator<Item = u64> + '_ {
        self.durations.keys().copied()
    }
}

/// The slot geometry of a partitioned pool: `gpus` devices each carved
/// into `slices_per_gpu` MIG-style slices.
///
/// The cluster's capacity unit generalizes from whole GPUs to *slots*:
/// width 1 in a [`ClusterJobSpec`] duration map is one fractional slice,
/// width `slices_per_gpu` a whole device, and wider placements span
/// devices. Everything else — policies, arrivals, node failures, the
/// elastic preemption machinery — is unchanged, which is exactly the
/// point: "requeue at a narrower width" becomes "requeue at a smaller
/// partition" with no new event machinery. The per-slot durations
/// themselves come from the engine pricing jobs on
/// [`PartitionSpec`](mlperf_hw::partition::PartitionSpec) slices, so the
/// slowdown of running fractional is the priced one, not a guess.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionLayout {
    gpus: u64,
    slices_per_gpu: u64,
}

impl PartitionLayout {
    /// A pool of `gpus` devices each split into `slices_per_gpu` slices.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(gpus: u64, slices_per_gpu: u64) -> Self {
        assert!(gpus > 0, "pool needs at least one GPU");
        assert!(slices_per_gpu > 0, "a device has at least one slice");
        PartitionLayout {
            gpus,
            slices_per_gpu,
        }
    }

    /// An unpartitioned pool (one slot per device) — the classic cluster.
    pub fn whole_devices(gpus: u64) -> Self {
        PartitionLayout::new(gpus, 1)
    }

    /// Devices in the pool.
    pub fn gpus(&self) -> u64 {
        self.gpus
    }

    /// Slices each device is carved into.
    pub fn slices_per_gpu(&self) -> u64 {
        self.slices_per_gpu
    }

    /// Total schedulable slots (`gpus × slices_per_gpu`).
    pub fn slots(&self) -> u64 {
        self.gpus * self.slices_per_gpu
    }

    /// Slots a placement spanning `devices` whole GPUs occupies.
    pub fn device_slots(&self, devices: u64) -> u64 {
        devices * self.slices_per_gpu
    }
}

/// A job plus its arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// The job.
    pub job: ClusterJobSpec,
    /// When it enters the queue.
    pub arrival: Seconds,
}

impl Submission {
    /// A job present from time zero (offline batch).
    pub fn at_start(job: ClusterJobSpec) -> Self {
        Submission {
            job,
            arrival: Seconds::ZERO,
        }
    }

    /// A job arriving after `minutes`.
    pub fn after_minutes(job: ClusterJobSpec, minutes: f64) -> Self {
        Submission {
            job,
            arrival: Seconds::from_minutes(minutes),
        }
    }
}

/// A queued job as the policy sees it.
struct PendingJob<'a> {
    /// Index into the submission list (stable job identity).
    id: usize,
    /// The job description.
    job: &'a ClusterJobSpec,
    /// When it arrived.
    arrival: Seconds,
}

/// A placement decision: run pending job `id` at `width` GPUs, now.
struct Decision {
    id: usize,
    width: u64,
}

/// An online scheduling policy: consulted whenever GPUs free up, jobs
/// arrive, or nodes fail, it names the next job to start immediately, or
/// none to wait.
///
/// The cluster re-consults the policy after applying each decision, so a
/// policy can start several jobs at one instant. Policies see the *live*
/// pool size — node failures shrink it mid-run, which is how every policy
/// sees an elastic cluster (a preempted job reappears in the queue and can
/// be re-placed at a narrower width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The paper's naive baseline, online: wait until the *whole*
    /// surviving cluster is idle, then run the oldest job at its widest
    /// feasible width.
    NaiveWidest,
    /// Greedy best-finish: among queued jobs and feasible widths on the
    /// idle GPUs, start the (job, width) whose *finish time* is earliest,
    /// breaking ties toward narrower placements (leaving room for others).
    GreedyBestFinish,
    /// Area-efficient packing: start the (job, width) minimizing
    /// GPU-minutes *area* (width × duration) — i.e. run every job at its
    /// most efficient width and co-schedule the rest. This is the policy
    /// that exploits the paper's scaling-diversity observation:
    /// poorly-scaling jobs go narrow.
    AreaEfficient,
    /// Shortest-job-first: among queued jobs, start the one whose *best
    /// feasible* runtime is shortest, at that width. Minimizes mean wait on
    /// bursty queues at the cost of starving long jobs.
    ShortestJobFirst,
    /// Widest-fit FCFS: start the oldest queued job as wide as the idle
    /// GPUs allow (no waiting for the full pool).
    FcfsWidestFit,
}

impl Policy {
    /// Every policy, in display order.
    pub const ALL: [Policy; 5] = [
        Policy::NaiveWidest,
        Policy::GreedyBestFinish,
        Policy::AreaEfficient,
        Policy::ShortestJobFirst,
        Policy::FcfsWidestFit,
    ];

    /// The policy's display name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::NaiveWidest => "naive-widest",
            Policy::GreedyBestFinish => "greedy-best-finish",
            Policy::AreaEfficient => "area-efficient",
            Policy::ShortestJobFirst => "shortest-job-first",
            Policy::FcfsWidestFit => "fcfs-widest-fit",
        }
    }

    /// Pick a job to start now on `idle` of the `capacity` surviving GPUs,
    /// or `None` to leave them idle until the next event. Decisions are
    /// feasible: `width <= idle` and a measured width of the chosen job.
    fn select(self, pending: &[PendingJob<'_>], idle: u64, capacity: u64) -> Option<Decision> {
        match self {
            // Exclusive use: wait for the full pool.
            Policy::NaiveWidest if idle < capacity => None,
            Policy::NaiveWidest | Policy::FcfsWidestFit => {
                let oldest = pending.iter().min_by(|a, b| {
                    a.arrival
                        .partial_cmp(&b.arrival)
                        .expect("arrivals are finite")
                        .then(a.id.cmp(&b.id))
                })?;
                let width = oldest.job.widths().filter(|&w| w <= idle).max()?;
                Some(Decision {
                    id: oldest.id,
                    width,
                })
            }
            Policy::GreedyBestFinish => min_placement(pending, idle, |_, minutes| minutes),
            Policy::AreaEfficient => {
                min_placement(pending, idle, |width, minutes| width as f64 * minutes)
            }
            Policy::ShortestJobFirst => {
                let mut best: Option<(f64, usize, u64)> = None; // (minutes, id, width)
                for p in pending {
                    let Some((minutes, width)) = p
                        .job
                        .widths()
                        .filter(|&w| w <= idle)
                        .map(|w| (p.job.minutes_at(w).expect("width from map"), w))
                        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
                    else {
                        continue;
                    };
                    let cand = (minutes, p.id, width);
                    if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                        best = Some(cand);
                    }
                }
                best.map(|(_, id, width)| Decision { id, width })
            }
        }
    }
}

/// The feasible (job, width) placement minimizing `cost(width, minutes)`,
/// ties broken toward the narrower width, then the lower job id.
fn min_placement(
    pending: &[PendingJob<'_>],
    idle: u64,
    cost: impl Fn(u64, f64) -> f64,
) -> Option<Decision> {
    let mut best: Option<(f64, u64, usize)> = None; // (cost, width, id)
    for p in pending {
        for w in p.job.widths().filter(|&w| w <= idle) {
            let d = p.job.minutes_at(w).expect("width from map");
            let cand = (cost(w, d), w, p.id);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
    }
    best.map(|(_, width, id)| Decision { id, width })
}

/// One completed execution in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Submission index.
    pub id: usize,
    /// Job name.
    pub name: String,
    /// GPUs used.
    pub width: u64,
    /// Start time.
    pub start: Seconds,
    /// End time.
    pub end: Seconds,
    /// Queueing delay (start − arrival).
    pub wait: Seconds,
}

/// Permanent loss of GPUs at a point in time (a node dies and never
/// rejoins). The cluster reclaims idle GPUs first; if those don't cover
/// the loss it preempts running jobs — widest first, ties to the lowest
/// id — and requeues them, where the policy may re-place them narrower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailure {
    /// When the node dies.
    pub at: Seconds,
    /// GPUs it takes with it.
    pub gpus: u64,
}

impl NodeFailure {
    /// A failure of `gpus` GPUs after `minutes`.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero.
    pub fn after_minutes(minutes: f64, gpus: u64) -> Self {
        assert!(gpus > 0, "a failure must take at least one GPU");
        NodeFailure {
            at: Seconds::from_minutes(minutes),
            gpus,
        }
    }

    /// A failure of `devices` whole GPUs in a partitioned pool: every
    /// slice of a dead device dies with it, so the loss is counted in
    /// slots.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn of_devices_after_minutes(minutes: f64, devices: u64, layout: PartitionLayout) -> Self {
        assert!(devices > 0, "a failure must take at least one device");
        NodeFailure {
            at: Seconds::from_minutes(minutes),
            gpus: layout.device_slots(devices),
        }
    }
}

/// The full execution record of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTrace {
    /// Completions in start order.
    pub completions: Vec<Completion>,
    /// Time the last job finished.
    pub makespan: Seconds,
    /// GPUs in the pool at the start (node failures only shrink it).
    pub gpu_count: u64,
    /// Jobs killed by node failures and requeued (their wasted partial
    /// executions are not in `completions`).
    pub preemptions: u32,
    /// Submission ids that became unplaceable (every feasible width
    /// exceeds the surviving capacity) and were dropped.
    pub abandoned: Vec<usize>,
}

impl ClusterTrace {
    /// Mean queueing delay across jobs.
    pub fn mean_wait(&self) -> Seconds {
        if self.completions.is_empty() {
            return Seconds::ZERO;
        }
        let total: f64 = self.completions.iter().map(|c| c.wait.as_secs()).sum();
        Seconds::new(total / self.completions.len() as f64)
    }

    /// GPU-time utilization: busy GPU-seconds / (makespan × pool size).
    pub fn utilization(&self) -> f64 {
        if self.makespan == Seconds::ZERO {
            return 0.0;
        }
        let busy: f64 = self
            .completions
            .iter()
            .map(|c| (c.end.as_secs() - c.start.as_secs()) * c.width as f64)
            .sum();
        busy / (self.makespan.as_secs() * self.gpu_count as f64)
    }
}

impl fmt::Display for ClusterTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs on {} GPUs: makespan {}, mean wait {}, utilization {:.0}%",
            self.completions.len(),
            self.gpu_count,
            self.makespan,
            self.mean_wait(),
            self.utilization() * 100.0
        )?;
        if self.preemptions > 0 || !self.abandoned.is_empty() {
            write!(
                f,
                " ({} preempted, {} abandoned)",
                self.preemptions,
                self.abandoned.len()
            )?;
        }
        Ok(())
    }
}

/// The events driving the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(usize),
    Completion { id: usize, width: u64, run: u64 },
    NodeLoss { gpus: u64 },
}

/// A job currently executing.
#[derive(Debug, Clone, Copy)]
struct Running {
    id: usize,
    width: u64,
    run: u64,
}

/// A non-preemptive multi-GPU cluster.
#[derive(Debug, Clone, Copy)]
pub struct Cluster {
    gpu_count: u64,
}

impl Cluster {
    /// A cluster with `gpu_count` identical GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_count` is zero.
    pub fn new(gpu_count: u64) -> Self {
        assert!(gpu_count > 0, "cluster needs at least one GPU");
        Cluster { gpu_count }
    }

    /// A cluster over a partitioned pool: capacity is `layout.slots()`
    /// and every width in job duration maps counts slots, so policies
    /// place fractional-device slices with the same machinery they place
    /// whole GPUs with.
    pub fn partitioned(layout: PartitionLayout) -> Self {
        Cluster::new(layout.slots())
    }

    /// Execute the submissions under a policy and return the trace.
    ///
    /// # Panics
    ///
    /// Panics if the policy returns an infeasible decision (unknown job,
    /// width exceeding idle GPUs, or a width the job has no time for), or
    /// if some job can never be placed (width larger than the pool).
    pub fn run(&self, submissions: Vec<Submission>, policy: Policy) -> ClusterTrace {
        self.run_with_faults(submissions, policy, &[])
    }

    /// As [`Cluster::run`], with permanent node failures injected: each
    /// [`NodeFailure`] removes GPUs from the pool at its instant,
    /// reclaiming idle GPUs first and preempting running jobs (widest
    /// first, ties to the lowest id) when it must. Preempted jobs restart
    /// from scratch — they requeue and the policy re-places them on
    /// whatever capacity survives. Jobs whose narrowest width no longer
    /// fits are dropped into [`ClusterTrace::abandoned`].
    ///
    /// # Panics
    ///
    /// As [`Cluster::run`]; feasibility is checked against the *initial*
    /// pool.
    pub fn run_with_faults(
        &self,
        submissions: Vec<Submission>,
        policy: Policy,
        failures: &[NodeFailure],
    ) -> ClusterTrace {
        for s in &submissions {
            assert!(
                s.job.widths().any(|w| w <= self.gpu_count),
                "{} cannot run within {} GPUs",
                s.job.name(),
                self.gpu_count
            );
        }

        let mut queue: EventQueue<Event> = EventQueue::new();
        for (id, s) in submissions.iter().enumerate() {
            queue.schedule(s.arrival, Event::Arrival(id));
        }
        for f in failures {
            assert!(f.gpus > 0, "a failure must take at least one GPU");
            queue.schedule(f.at, Event::NodeLoss { gpus: f.gpus });
        }

        let mut capacity = self.gpu_count;
        let mut idle = self.gpu_count;
        let mut pending_ids: Vec<usize> = Vec::new();
        let mut running: Vec<Running> = Vec::new();
        // Current run number per submission; bumped on preemption so the
        // stale completion event of a killed run is ignored.
        let mut run_of: Vec<u64> = vec![0; submissions.len()];
        let mut start_of: Vec<Seconds> = vec![Seconds::ZERO; submissions.len()];
        let mut completions: Vec<Completion> = Vec::new();
        let mut preemptions: u32 = 0;
        let mut abandoned: Vec<usize> = Vec::new();
        let mut makespan = Seconds::ZERO;

        while let Some((now, first)) = queue.pop() {
            // Drain all simultaneous events before consulting the policy,
            // so same-instant arrivals/releases/failures are seen together.
            let mut batch = vec![first];
            while queue
                .next_time()
                .is_some_and(|t| (t.as_secs() - now.as_secs()).abs() < 1e-12)
            {
                batch.push(queue.pop().expect("peeked event exists").1);
            }
            for event in batch {
                match event {
                    Event::Arrival(id) => pending_ids.push(id),
                    Event::Completion { id, width, run } => {
                        if run != run_of[id] {
                            continue; // this run was preempted; GPUs already reclaimed
                        }
                        let pos = running
                            .iter()
                            .position(|r| r.id == id && r.run == run)
                            .expect("live completion matches a running job");
                        running.swap_remove(pos);
                        idle += width;
                        let sub = &submissions[id];
                        completions.push(Completion {
                            id,
                            name: sub.job.name().to_string(),
                            width,
                            start: start_of[id],
                            end: now,
                            wait: start_of[id] - sub.arrival,
                        });
                        makespan = makespan.max(now);
                    }
                    Event::NodeLoss { gpus } => {
                        let lost = gpus.min(capacity);
                        capacity -= lost;
                        let reclaimed = lost.min(idle);
                        idle -= reclaimed;
                        let mut remaining = lost - reclaimed;
                        while remaining > 0 {
                            // Deterministic victim: widest running job,
                            // ties to the lowest submission id.
                            let victim_pos = running
                                .iter()
                                .enumerate()
                                .max_by(|(_, a), (_, b)| {
                                    a.width.cmp(&b.width).then(b.id.cmp(&a.id))
                                })
                                .map(|(i, _)| i)
                                .expect("loss exceeds idle GPUs only with jobs running");
                            let victim = running.swap_remove(victim_pos);
                            run_of[victim.id] += 1;
                            preemptions += 1;
                            pending_ids.push(victim.id);
                            if victim.width > remaining {
                                idle += victim.width - remaining;
                                remaining = 0;
                            } else {
                                remaining -= victim.width;
                            }
                        }
                    }
                }
            }
            // Jobs that can no longer fit the surviving pool are dropped —
            // the cluster cannot promise them anything.
            pending_ids.retain(|&id| {
                let fits = submissions[id].job.widths().any(|w| w <= capacity);
                if !fits {
                    abandoned.push(id);
                }
                fits
            });
            // Let the policy fill the idle GPUs.
            loop {
                let pending: Vec<PendingJob<'_>> = pending_ids
                    .iter()
                    .map(|&id| PendingJob {
                        id,
                        job: &submissions[id].job,
                        arrival: submissions[id].arrival,
                    })
                    .collect();
                let Some(decision) = policy.select(&pending, idle, capacity) else {
                    break;
                };
                let pos = pending_ids
                    .iter()
                    .position(|&id| id == decision.id)
                    .unwrap_or_else(|| panic!("policy chose job {} not in queue", decision.id));
                assert!(
                    decision.width <= idle,
                    "policy placed {} GPUs with only {idle} idle",
                    decision.width
                );
                let sub = &submissions[decision.id];
                let minutes = sub.job.minutes_at(decision.width).unwrap_or_else(|| {
                    panic!("{} has no time at width {}", sub.job.name(), decision.width)
                });
                pending_ids.swap_remove(pos);
                idle -= decision.width;
                start_of[decision.id] = now;
                running.push(Running {
                    id: decision.id,
                    width: decision.width,
                    run: run_of[decision.id],
                });
                let end = now + Seconds::from_minutes(minutes);
                queue.schedule(
                    end,
                    Event::Completion {
                        id: decision.id,
                        width: decision.width,
                        run: run_of[decision.id],
                    },
                );
            }
        }
        assert!(
            pending_ids.is_empty() && running.is_empty(),
            "every feasible job must eventually run"
        );
        completions.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .expect("starts are finite")
                .then(a.id.cmp(&b.id))
        });
        abandoned.sort_unstable();
        ClusterTrace {
            completions,
            makespan,
            gpu_count: self.gpu_count,
            preemptions,
            abandoned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> Vec<Submission> {
        vec![
            Submission::at_start(ClusterJobSpec::new(
                "scales",
                [(1, 100.0), (2, 52.0), (4, 27.0)],
            )),
            Submission::at_start(ClusterJobSpec::new(
                "stubborn",
                [(1, 90.0), (2, 80.0), (4, 76.0)],
            )),
            Submission::at_start(ClusterJobSpec::new(
                "quick",
                [(1, 10.0), (2, 6.0), (4, 4.0)],
            )),
        ]
    }

    #[test]
    fn naive_serializes_at_full_width() {
        let trace = Cluster::new(4).run(batch(), Policy::NaiveWidest);
        // All three at width 4, back to back: 27 + 76 + 4.
        assert!((trace.makespan.as_minutes() - 107.0).abs() < 1e-9);
        assert!(trace.completions.iter().all(|c| c.width == 4));
    }

    #[test]
    fn area_efficient_beats_naive_on_mixed_batch() {
        let naive = Cluster::new(4).run(batch(), Policy::NaiveWidest);
        let packed = Cluster::new(4).run(batch(), Policy::AreaEfficient);
        assert!(
            packed.makespan < naive.makespan,
            "packed {} vs naive {}",
            packed.makespan,
            naive.makespan
        );
        assert!(packed.utilization() > 0.3);
        // Greedy-best-finish degenerates to naive on an all-at-once batch
        // (earliest finish is always the widest placement) — never worse.
        let greedy = Cluster::new(4).run(batch(), Policy::GreedyBestFinish);
        assert!(greedy.makespan <= naive.makespan + Seconds::new(1e-9));
    }

    #[test]
    fn online_arrivals_respect_causality() {
        let subs = vec![
            Submission::at_start(ClusterJobSpec::new("first", [(2, 30.0)])),
            Submission::after_minutes(ClusterJobSpec::new("late", [(2, 10.0)]), 60.0),
        ];
        let trace = Cluster::new(2).run(subs, Policy::GreedyBestFinish);
        let late = trace
            .completions
            .iter()
            .find(|c| c.name == "late")
            .expect("late job ran");
        assert!(late.start.as_minutes() >= 60.0 - 1e-9);
        // First finished long before: the late job starts immediately.
        assert!(late.wait.as_secs() < 1e-9);
    }

    #[test]
    fn fcfs_starts_narrow_when_pool_is_fragmented() {
        // One long 1-GPU job occupies the pool partially; FCFS places the
        // next arrival on the remaining GPU instead of waiting.
        let subs = vec![
            Submission::at_start(ClusterJobSpec::new("long", [(1, 100.0)])),
            Submission::at_start(ClusterJobSpec::new("next", [(1, 50.0), (2, 30.0)])),
        ];
        let trace = Cluster::new(2).run(subs, Policy::FcfsWidestFit);
        let next = trace
            .completions
            .iter()
            .find(|c| c.name == "next")
            .expect("ran");
        assert_eq!(next.width, 1);
        assert_eq!(next.start, Seconds::ZERO);
    }

    #[test]
    fn naive_waits_for_the_whole_pool() {
        let subs = vec![
            Submission::at_start(ClusterJobSpec::new("long", [(1, 100.0)])),
            Submission::at_start(ClusterJobSpec::new("next", [(1, 50.0), (2, 30.0)])),
        ];
        let trace = Cluster::new(2).run(subs, Policy::NaiveWidest);
        let next = trace
            .completions
            .iter()
            .find(|c| c.name == "next")
            .expect("ran");
        // Exclusive use: `next` waits for `long` to release the pool...
        assert!(next.start.as_minutes() >= 100.0 - 1e-9);
        // ...and the first job runs at its only width even though it
        // cannot fill the pool.
        let long = trace
            .completions
            .iter()
            .find(|c| c.name == "long")
            .expect("ran");
        assert_eq!(long.width, 1);
    }

    #[test]
    fn sjf_runs_the_quick_job_first() {
        let subs = vec![
            Submission::at_start(ClusterJobSpec::new("long", [(2, 100.0)])),
            Submission::at_start(ClusterJobSpec::new("quick", [(2, 5.0)])),
        ];
        let trace = Cluster::new(2).run(subs, Policy::ShortestJobFirst);
        assert_eq!(trace.completions[0].name, "quick");
        assert_eq!(trace.completions[0].start, Seconds::ZERO);
    }

    #[test]
    fn trace_statistics_are_consistent() {
        let trace = Cluster::new(4).run(batch(), Policy::GreedyBestFinish);
        assert_eq!(trace.completions.len(), 3);
        assert!(trace.utilization() > 0.0 && trace.utilization() <= 1.0);
        assert!(trace.mean_wait().as_secs() >= 0.0);
        let s = trace.to_string();
        assert!(s.contains("3 jobs on 4 GPUs"));
    }

    #[test]
    #[should_panic(expected = "cannot run within")]
    fn oversized_job_rejected() {
        let subs = vec![Submission::at_start(ClusterJobSpec::new(
            "wide",
            [(8, 10.0)],
        ))];
        let _ = Cluster::new(4).run(subs, Policy::GreedyBestFinish);
    }

    #[test]
    fn fault_free_runs_report_no_preemptions() {
        let trace = Cluster::new(4).run(batch(), Policy::AreaEfficient);
        assert_eq!(trace.preemptions, 0);
        assert!(trace.abandoned.is_empty());
    }

    #[test]
    fn every_policy_survives_a_node_failure() {
        let failure = [NodeFailure::after_minutes(10.0, 2)];
        for policy in Policy::ALL {
            let trace = Cluster::new(4).run_with_faults(batch(), policy, &failure);
            assert_eq!(
                trace.completions.len(),
                3,
                "{} lost a job to the failure",
                policy.name()
            );
            assert!(trace.abandoned.is_empty(), "{}", policy.name());
            // Half the pool died: nothing may run wider than 2 afterwards.
            for c in &trace.completions {
                assert!(
                    c.start.as_minutes() < 10.0 || c.width <= 2,
                    "{} placed width {} on a 2-GPU pool",
                    policy.name(),
                    c.width
                );
            }
        }
    }

    #[test]
    fn preempted_job_is_replaced_narrower() {
        let subs = vec![Submission::at_start(ClusterJobSpec::new(
            "elastic",
            [(2, 20.0), (4, 10.0)],
        ))];
        let trace = Cluster::new(4).run_with_faults(
            subs,
            Policy::GreedyBestFinish,
            &[NodeFailure::after_minutes(5.0, 2)],
        );
        assert_eq!(trace.preemptions, 1);
        assert_eq!(trace.completions.len(), 1);
        let c = &trace.completions[0];
        // Killed at minute 5 while running at width 4, restarted from
        // scratch at width 2: finishes at 5 + 20 minutes.
        assert_eq!(c.width, 2);
        assert!((c.start.as_minutes() - 5.0).abs() < 1e-9);
        assert!((trace.makespan.as_minutes() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn idle_gpus_absorb_a_loss_without_preemption() {
        let subs = vec![Submission::at_start(ClusterJobSpec::new(
            "narrow",
            [(1, 30.0)],
        ))];
        let trace = Cluster::new(4).run_with_faults(
            subs,
            Policy::FcfsWidestFit,
            &[NodeFailure::after_minutes(5.0, 2)],
        );
        assert_eq!(trace.preemptions, 0);
        assert_eq!(trace.completions.len(), 1);
        assert!((trace.makespan.as_minutes() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn preempted_job_requeues_at_a_smaller_partition() {
        // One V100 carved into 4 slices. The job can run on the whole
        // device (4 slots, 10 min) or one quarter slice (1 slot, 44 min
        // — slower than 4×, as the priced interference model makes it).
        let layout = PartitionLayout::new(1, 4);
        let subs = vec![Submission::at_start(ClusterJobSpec::new(
            "elastic",
            [(1, 44.0), (4, 10.0)],
        ))];
        // Three of the four slices die at minute 5 (partial device loss:
        // the survivor keeps one healthy slice).
        let trace = Cluster::partitioned(layout).run_with_faults(
            subs,
            Policy::GreedyBestFinish,
            &[NodeFailure::after_minutes(5.0, 3)],
        );
        assert_eq!(trace.preemptions, 1);
        assert_eq!(trace.completions.len(), 1);
        let c = &trace.completions[0];
        // Killed mid-run on the whole device, restarted from scratch on
        // the one surviving quarter slice: 5 + 44 minutes.
        assert_eq!(c.width, 1);
        assert!((c.start.as_minutes() - 5.0).abs() < 1e-9);
        assert!((trace.makespan.as_minutes() - 49.0).abs() < 1e-9);
    }

    #[test]
    fn whole_device_failure_takes_all_its_slices() {
        let layout = PartitionLayout::new(2, 7);
        assert_eq!(layout.slots(), 14);
        let f = NodeFailure::of_devices_after_minutes(5.0, 1, layout);
        assert_eq!(f.gpus, 7);
        // A 7-slot job preempted by the device loss fits the surviving
        // device exactly.
        let subs = vec![Submission::at_start(ClusterJobSpec::new(
            "suite",
            [(7, 30.0), (14, 18.0)],
        ))];
        let trace = Cluster::partitioned(layout).run_with_faults(subs, Policy::FcfsWidestFit, &[f]);
        assert_eq!(trace.preemptions, 1);
        assert_eq!(trace.completions[0].width, 7);
        assert!((trace.makespan.as_minutes() - 35.0).abs() < 1e-9);
    }

    #[test]
    fn every_policy_places_fractional_slices() {
        // A packed 2-GPU × 2-slice pool with slice-only jobs: every
        // policy must fill slots with fractional placements.
        let layout = PartitionLayout::new(2, 2);
        let subs = || {
            (0..4)
                .map(|i| {
                    Submission::at_start(ClusterJobSpec::new(
                        format!("slice-{i}"),
                        [(1, 20.0 + i as f64)],
                    ))
                })
                .collect::<Vec<_>>()
        };
        for policy in Policy::ALL {
            let trace = Cluster::partitioned(layout).run(subs(), policy);
            assert_eq!(trace.completions.len(), 4, "{}", policy.name());
            assert!(
                trace.completions.iter().all(|c| c.width == 1),
                "{} placed a non-slice width",
                policy.name()
            );
            // Naive waits for the whole pool between placements; the
            // work-conserving policies co-schedule all four at once.
            if policy != Policy::NaiveWidest {
                assert!(
                    (trace.makespan.as_minutes() - 23.0).abs() < 1e-9,
                    "{}: {}",
                    policy.name(),
                    trace.makespan.as_minutes()
                );
            }
        }
    }

    #[test]
    fn whole_device_layout_matches_the_classic_cluster() {
        let classic = Cluster::new(4).run(batch(), Policy::AreaEfficient);
        let layered = Cluster::partitioned(PartitionLayout::whole_devices(4))
            .run(batch(), Policy::AreaEfficient);
        assert_eq!(classic, layered);
    }

    #[test]
    fn job_too_wide_for_surviving_pool_is_abandoned() {
        let subs = vec![Submission::at_start(ClusterJobSpec::new(
            "wide-only",
            [(4, 50.0)],
        ))];
        let trace = Cluster::new(4).run_with_faults(
            subs,
            Policy::GreedyBestFinish,
            &[NodeFailure::after_minutes(10.0, 3)],
        );
        assert_eq!(trace.preemptions, 1);
        assert_eq!(trace.abandoned, vec![0]);
        assert!(trace.completions.is_empty());
        let s = trace.to_string();
        assert!(s.contains("1 preempted, 1 abandoned"), "{s}");
    }
}
