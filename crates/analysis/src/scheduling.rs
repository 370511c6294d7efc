//! Multi-GPU job-scheduling search (Fig. 4).
//!
//! Given each benchmark's training time at every GPU width, §IV-D compares
//! the *naive* schedule (run every job one-by-one across all GPUs) against
//! the optimum found by searching the schedule space, reporting ~3 h saved
//! on 4 GPUs for the 7 MLPerf workloads. This module implements both: the
//! naive baseline, an LPT heuristic, and an exact branch-and-bound search
//! over (job order × width) choices on identical GPUs.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// One benchmark's training time (minutes) at each GPU width it can run at.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTimes {
    name: String,
    times: BTreeMap<u64, f64>,
}

impl JobTimes {
    /// Construct from `(width, minutes)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if no widths are given, or any width is zero, or any time is
    /// not finite and positive.
    pub fn new(name: impl Into<String>, times: impl IntoIterator<Item = (u64, f64)>) -> Self {
        let times: BTreeMap<u64, f64> = times.into_iter().collect();
        assert!(!times.is_empty(), "job needs at least one width");
        for (&w, &t) in &times {
            assert!(w > 0, "width must be positive");
            assert!(t.is_finite() && t > 0.0, "time must be finite and positive");
        }
        JobTimes {
            name: name.into(),
            times,
        }
    }

    /// The benchmark name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Training time at a width, if that width was measured.
    pub fn time_at(&self, width: u64) -> Option<f64> {
        self.times.get(&width).copied()
    }

    /// Widths available, ascending.
    pub fn widths(&self) -> impl Iterator<Item = u64> + '_ {
        self.times.keys().copied()
    }

    /// The smallest GPU-minutes area over available widths `<= max_width`
    /// (the best-case resource consumption, used for lower bounds).
    fn min_area(&self, max_width: u64) -> f64 {
        self.times
            .iter()
            .filter(|(&w, _)| w <= max_width)
            .map(|(&w, &t)| w as f64 * t)
            .fold(f64::INFINITY, f64::min)
    }
}

/// One scheduled execution: a job on a set of GPUs at a start time.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Index into the job list.
    pub job: usize,
    /// GPU indices the job occupies.
    pub gpus: Vec<usize>,
    /// Start time (minutes from schedule start).
    pub start: f64,
    /// Duration (minutes).
    pub duration: f64,
}

impl Placement {
    /// The completion time of this placement.
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }
}

/// A complete schedule of all jobs on `gpu_count` identical GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The placements, in start order.
    pub placements: Vec<Placement>,
    /// Number of GPUs in the pool.
    pub gpu_count: usize,
    /// The schedule's completion time (minutes).
    pub makespan: f64,
}

impl Schedule {
    /// Minutes saved versus another schedule of the same jobs.
    pub fn savings_vs(&self, other: &Schedule) -> f64 {
        other.makespan - self.makespan
    }

    /// Per-GPU timeline: for each GPU, `(job, start, end)` triples sorted by
    /// start (the Fig. 4 Gantt rows).
    pub fn gantt(&self) -> Vec<Vec<(usize, f64, f64)>> {
        let mut rows = vec![Vec::new(); self.gpu_count];
        for p in &self.placements {
            for &g in &p.gpus {
                rows[g].push((p.job, p.start, p.end()));
            }
        }
        for row in &mut rows {
            row.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("starts are finite"));
        }
        rows
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} placements on {} GPUs, makespan {:.1} min",
            self.placements.len(),
            self.gpu_count,
            self.makespan
        )
    }
}

/// The naive schedule: every job runs across the whole pool, one after
/// another (the paper's baseline — no fragmentation, no idling). A job
/// without a measurement at exactly `gpu_count` runs at its widest
/// feasible width, still holding the pool exclusively.
///
/// # Panics
///
/// Panics if `gpu_count` is zero, `jobs` is empty, or some job has no
/// feasible width at all.
pub fn naive_schedule(jobs: &[JobTimes], gpu_count: u64) -> Schedule {
    assert!(gpu_count > 0, "need at least one GPU");
    assert!(!jobs.is_empty(), "need at least one job");
    let mut t = 0.0;
    let mut placements = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let width = job
            .widths()
            .filter(|&w| w <= gpu_count)
            .max()
            .unwrap_or_else(|| panic!("{} cannot run within {gpu_count} GPUs", job.name()));
        let d = job.time_at(width).expect("width came from the map");
        placements.push(Placement {
            job: i,
            gpus: (0..width as usize).collect(),
            start: t,
            duration: d,
        });
        t += d;
    }
    Schedule {
        placements,
        gpu_count: gpu_count as usize,
        makespan: t,
    }
}

/// Longest-processing-time heuristic: jobs descending by single-GPU time,
/// each greedily assigned the width and start minimizing its completion.
///
/// # Panics
///
/// Panics if `gpu_count` is zero or `jobs` is empty.
pub fn lpt_schedule(jobs: &[JobTimes], gpu_count: u64) -> Schedule {
    assert!(gpu_count > 0, "need at least one GPU");
    assert!(!jobs.is_empty(), "need at least one job");
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        let ta = jobs[a].min_area(gpu_count);
        let tb = jobs[b].min_area(gpu_count);
        tb.partial_cmp(&ta).expect("times are finite")
    });
    let mut free = vec![0.0f64; gpu_count as usize];
    let mut placements = Vec::with_capacity(jobs.len());
    for &j in &order {
        let mut best: Option<(f64, u64, Vec<usize>, f64)> = None; // (end, w, gpus, start)
        for w in jobs[j].widths().filter(|&w| w <= gpu_count) {
            let d = jobs[j].time_at(w).expect("width iterated from map");
            let (gpus, start) = earliest_gpus(&free, w as usize);
            let end = start + d;
            if best.as_ref().is_none_or(|b| end < b.0) {
                best = Some((end, w, gpus, start));
            }
        }
        let (end, w, gpus, start) = best.expect("every job has at least one feasible width");
        for &g in &gpus {
            free[g] = end;
        }
        placements.push(Placement {
            job: j,
            gpus,
            start,
            duration: jobs[j].time_at(w).expect("width validated"),
        });
    }
    let makespan = free.iter().cloned().fold(0.0, f64::max);
    placements.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("starts are finite"));
    Schedule {
        placements,
        gpu_count: gpu_count as usize,
        makespan,
    }
}

/// The `w` earliest-free GPUs and the time they are all free.
fn earliest_gpus(free: &[f64], w: usize) -> (Vec<usize>, f64) {
    let mut idx: Vec<usize> = (0..free.len()).collect();
    idx.sort_by(|&a, &b| {
        free[a]
            .partial_cmp(&free[b])
            .expect("times are finite")
            .then(a.cmp(&b))
    });
    let chosen: Vec<usize> = idx.into_iter().take(w).collect();
    let start = chosen.iter().map(|&g| free[g]).fold(0.0f64, f64::max);
    (chosen, start)
}

/// Exact optimum by depth-first branch-and-bound over (next job, width)
/// decisions on identical GPUs.
///
/// # Examples
///
/// ```
/// use mlperf_analysis::scheduling::{naive_schedule, optimal_schedule, JobTimes};
///
/// let jobs = vec![
///     JobTimes::new("scales", [(1, 100.0), (2, 50.0), (4, 25.0)]),
///     JobTimes::new("stubborn", [(1, 100.0), (2, 90.0), (4, 85.0)]),
/// ];
/// let best = optimal_schedule(&jobs, 4);
/// assert!(best.makespan < naive_schedule(&jobs, 4).makespan);
/// ```
///
/// Every decision packs the job onto the earliest-free GPUs — optimal
/// among identical GPUs for this placement discipline. The search branches
/// over jobs in descending best-case GPU-minutes area (ties to the lower
/// index) and, per job, over its widths widest first; when every GPU frees
/// up at the same instant only the first unplaced job is tried.
///
/// The result is the *first* least-makespan leaf in that branching order:
/// a leaf replaces the incumbent only when strictly shorter, and every
/// prune (the area, committed-work and per-job earliest-end lower bounds,
/// and skipping a revisited (placed set, free-time profile) state) only
/// drops leaves that cannot be strictly shorter. The winning decisions are
/// replayed onto GPU indices, lowest index first among equally free GPUs,
/// so the schedule (the Figure 4 Gantt) depends on nothing but the inputs.
///
/// # Panics
///
/// Panics if `gpu_count` is zero or `jobs` is empty or some job has no
/// feasible width `<= gpu_count`.
pub fn optimal_schedule(jobs: &[JobTimes], gpu_count: u64) -> Schedule {
    assert!(gpu_count > 0, "need at least one GPU");
    assert!(!jobs.is_empty(), "need at least one job");
    for j in jobs {
        assert!(
            j.widths().any(|w| w <= gpu_count),
            "{} cannot run within {gpu_count} GPUs",
            j.name()
        );
    }

    struct Search<'a> {
        /// Per job: its (width, minutes) choices within the pool, widest
        /// first — wide placements finish the big jobs early, so the first
        /// incumbents are strong and the bounds prune most of the
        /// permutation space.
        choices: &'a [Vec<(usize, f64)>],
        /// Per job: its best-case GPU-minutes area.
        areas: &'a [f64],
        /// Branching order: jobs descending by best-case GPU-minutes area,
        /// so the biggest commitments are decided (and pruned) first.
        order: &'a [usize],
        g: usize,
        /// The sorted free-time profile of each depth on the current path,
        /// depth `d` at `profiles[d * g..(d + 1) * g]`. The GPUs are
        /// identical, so the multiset of free times is all the search
        /// reads: a width-`w` job takes the `w` earliest entries.
        profiles: Vec<f64>,
        best_makespan: f64,
        best: Vec<(usize, u64)>, // (job, width) in placement order
        current: Vec<(usize, u64)>,
        /// States already expanded, keyed by the placed set followed by
        /// the free-time profile. Two decision sequences reaching the same
        /// placed set with the same profile lead to identical futures, and
        /// the incumbent only tightens over time — so a revisit can never
        /// improve on the first visit and is pruned. This collapses the
        /// permutation symmetry of independent placements.
        seen: HashSet<Vec<u64>>,
    }

    impl Search<'_> {
        fn dfs(&mut self, placed_mask: u64, remaining_area: f64) {
            let (g, depth) = (self.g, self.current.len());
            let (choices, order) = (self.choices, self.order);
            let profile = &self.profiles[depth * g..(depth + 1) * g];
            let latest = profile[g - 1];
            if depth == choices.len() {
                if latest < self.best_makespan {
                    self.best_makespan = latest;
                    self.best = self.current.clone();
                }
                return;
            }
            // Lower bounds: area argument + furthest committed completion,
            // then each unplaced job's earliest possible end (the profile
            // only rises, so a width-`w` job starts at `profile[w - 1]` or
            // later).
            let committed: f64 = profile.iter().sum();
            let lb_area = (committed + remaining_area) / g as f64;
            if lb_area.max(latest) >= self.best_makespan {
                return;
            }
            let unplaced = order.iter().filter(|&&j| placed_mask & (1 << j) == 0);
            for &j in unplaced.clone() {
                let earliest_end = choices[j]
                    .iter()
                    .map(|&(w, t)| profile[w - 1] + t)
                    .fold(f64::INFINITY, f64::min);
                if earliest_end >= self.best_makespan {
                    return;
                }
            }
            let key = std::iter::once(placed_mask)
                .chain(profile.iter().map(|f| f.to_bits()))
                .collect();
            if !self.seen.insert(key) {
                return;
            }
            // Symmetry break: when all GPUs are idle at the same time,
            // which unplaced job goes first is symmetric — fix it.
            let all_idle_together = profile[0] == latest;
            for &j in unplaced {
                for &(w, t) in &choices[j] {
                    // The child profile: the parent's `g - w` latest
                    // entries merged with `w` copies of the job's end.
                    let (head, tail) = self.profiles.split_at_mut((depth + 1) * g);
                    let rest = &head[depth * g + w..];
                    let end = head[depth * g + w - 1] + t;
                    let before = rest.partition_point(|&f| f <= end);
                    let child = &mut tail[..g];
                    child[..before].copy_from_slice(&rest[..before]);
                    child[before..before + w].fill(end);
                    child[before + w..].copy_from_slice(&rest[before..]);
                    self.current.push((j, w as u64));
                    self.dfs(placed_mask | (1 << j), remaining_area - self.areas[j]);
                    self.current.pop();
                }
                if all_idle_together {
                    break;
                }
            }
        }
    }

    assert!(jobs.len() <= 64, "branch-and-bound supports up to 64 jobs");
    // Seed with LPT so pruning bites immediately.
    let seed = lpt_schedule(jobs, gpu_count);
    let g = gpu_count as usize;
    let areas: Vec<f64> = jobs.iter().map(|j| j.min_area(gpu_count)).collect();
    let choices: Vec<Vec<(usize, f64)>> = jobs
        .iter()
        .map(|j| {
            let fits = j.times.iter().filter(|(&w, _)| w <= gpu_count);
            fits.rev().map(|(&w, &t)| (w as usize, t)).collect()
        })
        .collect();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        areas[b]
            .partial_cmp(&areas[a])
            .expect("areas are finite")
            .then(a.cmp(&b))
    });
    let mut search = Search {
        choices: &choices,
        areas: &areas,
        order: &order,
        g,
        profiles: vec![0.0; (jobs.len() + 1) * g],
        best_makespan: seed.makespan + 1e-9,
        best: Vec::new(),
        current: Vec::new(),
        seen: HashSet::new(),
    };
    search.dfs(0, areas.iter().sum());

    let decisions = if search.best.is_empty() {
        // Seed was already optimal: reconstruct its decisions.
        seed.placements
            .iter()
            .map(|p| (p.job, p.gpus.len() as u64))
            .collect()
    } else {
        search.best
    };

    // Replay the decisions to build placements.
    let mut free = vec![0.0f64; gpu_count as usize];
    let mut placements = Vec::with_capacity(jobs.len());
    for (j, w) in decisions {
        let d = jobs[j].time_at(w).expect("decision uses a recorded width");
        let (gpus, start) = earliest_gpus(&free, w as usize);
        let end = start + d;
        for &g in &gpus {
            free[g] = end;
        }
        placements.push(Placement {
            job: j,
            gpus,
            start,
            duration: d,
        });
    }
    let makespan = free.iter().cloned().fold(0.0, f64::max);
    placements.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("starts are finite"));
    Schedule {
        placements,
        gpu_count: gpu_count as usize,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_jobs() -> Vec<JobTimes> {
        vec![
            // Scales perfectly.
            JobTimes::new("scalable", [(1, 100.0), (2, 50.0), (4, 25.0)]),
            // Barely scales.
            JobTimes::new("stubborn", [(1, 100.0), (2, 90.0), (4, 85.0)]),
        ]
    }

    #[test]
    fn naive_serializes_at_full_width() {
        let s = naive_schedule(&two_jobs(), 4);
        assert_eq!(s.placements.len(), 2);
        assert!((s.makespan - (25.0 + 85.0)).abs() < 1e-9);
        assert!(s.placements.iter().all(|p| p.gpus.len() == 4));
    }

    #[test]
    fn optimal_beats_naive_on_mixed_scalability() {
        let jobs = two_jobs();
        let naive = naive_schedule(&jobs, 4);
        let opt = optimal_schedule(&jobs, 4);
        // Optimal: both at width 2, side by side — stubborn@2 (90) ||
        // scalable@2 (50) -> makespan 90 < naive's 110.
        assert!(
            opt.makespan < naive.makespan,
            "{} vs {}",
            opt.makespan,
            naive.makespan
        );
        assert!(
            (opt.makespan - 90.0).abs() < 1e-9,
            "makespan {}",
            opt.makespan
        );
        assert!((opt.savings_vs(&naive) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn optimal_never_worse_than_lpt() {
        let jobs = vec![
            JobTimes::new("a", [(1, 60.0), (2, 35.0), (4, 20.0)]),
            JobTimes::new("b", [(1, 50.0), (2, 30.0), (4, 25.0)]),
            JobTimes::new("c", [(1, 10.0), (2, 9.0), (4, 8.5)]),
            JobTimes::new("d", [(1, 200.0), (2, 105.0), (4, 55.0)]),
        ];
        for g in [2u64, 4] {
            let lpt = lpt_schedule(&jobs, g);
            let opt = optimal_schedule(&jobs, g);
            assert!(opt.makespan <= lpt.makespan + 1e-9, "g={g}");
        }
    }

    #[test]
    fn single_gpu_pool_serializes_everything() {
        let jobs = two_jobs();
        let opt = optimal_schedule(&jobs, 1);
        assert!((opt.makespan - 200.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_gantt_covers_all_gpus_used() {
        let jobs = two_jobs();
        let opt = optimal_schedule(&jobs, 4);
        let gantt = opt.gantt();
        assert_eq!(gantt.len(), 4);
        let total: usize = gantt.iter().map(|r| r.len()).sum();
        let expected: usize = opt.placements.iter().map(|p| p.gpus.len()).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn placements_never_overlap_on_a_gpu() {
        let jobs = vec![
            JobTimes::new("a", [(1, 30.0), (2, 16.0), (4, 9.0)]),
            JobTimes::new("b", [(1, 25.0), (2, 14.0), (4, 8.0)]),
            JobTimes::new("c", [(1, 40.0), (2, 22.0), (4, 12.0)]),
        ];
        for sched in [lpt_schedule(&jobs, 4), optimal_schedule(&jobs, 4)] {
            for row in sched.gantt() {
                for w in row.windows(2) {
                    assert!(w[0].2 <= w[1].1 + 1e-9, "overlap: {w:?}");
                }
            }
        }
    }

    #[test]
    fn seven_job_search_completes() {
        // The paper's actual setting: 7 jobs, widths 1/2/4.
        let jobs: Vec<JobTimes> = (0..7)
            .map(|i| {
                let base = 60.0 + 37.0 * i as f64;
                JobTimes::new(
                    format!("job{i}"),
                    [
                        (1, base),
                        (2, base / (1.4 + 0.08 * i as f64)),
                        (4, base / (1.9 + 0.2 * i as f64)),
                    ],
                )
            })
            .collect();
        let naive = naive_schedule(&jobs, 4);
        let opt = optimal_schedule(&jobs, 4);
        assert!(opt.makespan <= naive.makespan);
    }

    #[test]
    #[should_panic(expected = "cannot run within")]
    fn infeasible_job_rejected() {
        let jobs = vec![JobTimes::new("wide-only", [(8, 10.0)])];
        let _ = optimal_schedule(&jobs, 4);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nonpositive_time_rejected() {
        let _ = JobTimes::new("bad", [(1, 0.0)]);
    }
}
