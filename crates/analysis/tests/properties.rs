//! Property-based tests for the analysis stack.

use mlperf_analysis::linalg::{symmetric_eigen, Matrix};
use mlperf_analysis::pca::Pca;
use mlperf_analysis::scheduling::{
    lpt_schedule, naive_schedule, optimal_schedule, JobTimes, Placement, Schedule,
};
use mlperf_analysis::stats;
use mlperf_testkit::prop::*;

/// Random symmetric matrices of size 2..=6.
fn arb_symmetric() -> impl Gen<Value = Matrix> {
    (2usize..=6).prop_flat_map(|n| {
        vec_of(-10.0f64..10.0, just(n * (n + 1) / 2)).prop_map(move |vals| {
            let mut m = Matrix::zeros(n, n);
            let mut it = vals.into_iter();
            for i in 0..n {
                for j in i..n {
                    let v = it.next().expect("enough values");
                    m[(i, j)] = v;
                    m[(j, i)] = v;
                }
            }
            m
        })
    })
}

/// Random well-formed job sets: 2..6 jobs, each with times at widths
/// 1/2/4, weakly improving with width.
fn arb_jobs() -> impl Gen<Value = Vec<JobTimes>> {
    vec_of(
        (10.0f64..500.0, 0.5f64..1.0, 0.5f64..1.0)
            .prop_map(|(t1, f2, f4)| (t1, t1 * f2, t1 * f2 * f4)),
        2usize..6,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (t1, t2, t4))| JobTimes::new(format!("job{i}"), [(1, t1), (2, t2), (4, t4)]))
            .collect()
    })
}

/// Small instances on a coarse time grid, so that many schedules tie on
/// makespan: 1..=5 jobs, each measured at a non-empty subset of the widths
/// {1, 2, 4, 8}, every time a multiple of 7.5 minutes (sums stay exact).
/// The pool is at least as wide as every job's narrowest width.
fn arb_tied_instance() -> impl Gen<Value = (Vec<JobTimes>, u64)> {
    let job = (1u32..16, vec_of(1u32..=12, just(4))).prop_map(|(mask, steps)| {
        [1u64, 2, 4, 8]
            .into_iter()
            .zip(steps)
            .enumerate()
            .filter(|(bit, _)| mask & (1 << bit) != 0)
            .map(|(_, (w, k))| (w, f64::from(k) * 7.5))
            .collect::<Vec<_>>()
    });
    (vec_of(job, 1usize..=5), 1u64..=8).prop_map(|(specs, g)| {
        let narrowest = specs.iter().map(|s| s[0].0).max().expect("one job");
        let jobs = specs
            .into_iter()
            .enumerate()
            .map(|(i, times)| JobTimes::new(format!("job{i}"), times))
            .collect();
        (jobs, g.max(narrowest))
    })
}

/// The `w` earliest-free GPUs (ties to the lower index) and the time the
/// last of them frees up.
fn earliest_free(free: &[f64], w: usize) -> (Vec<usize>, f64) {
    let mut idx: Vec<usize> = (0..free.len()).collect();
    idx.sort_by(|&a, &b| free[a].total_cmp(&free[b]).then(a.cmp(&b)));
    idx.truncate(w);
    let start = idx.iter().map(|&i| free[i]).fold(0.0, f64::max);
    (idx, start)
}

/// Exhaustive reference for `optimal_schedule`: the same branching order
/// (jobs by best-case GPU-minutes, largest first, ties to the lower index;
/// widths widest first) and the same all-idle symmetry break, with no
/// bound and no dedupe. Returns the first leaf in branching order of least
/// makespan, its decisions replayed onto the earliest-free GPUs.
fn exhaustive_schedule(jobs: &[JobTimes], g: u64) -> Schedule {
    struct Walk<'a> {
        jobs: &'a [JobTimes],
        order: Vec<usize>,
        g: u64,
        path: Vec<(usize, u64)>,
        best: Option<(f64, Vec<(usize, u64)>)>,
    }
    impl Walk<'_> {
        fn dfs(&mut self, free: &mut Vec<f64>) {
            if self.path.len() == self.jobs.len() {
                let makespan = free.iter().copied().fold(0.0, f64::max);
                if self.best.as_ref().is_none_or(|(m, _)| makespan < *m) {
                    self.best = Some((makespan, self.path.clone()));
                }
                return;
            }
            for k in 0..self.order.len() {
                let j = self.order[k];
                if self.path.iter().any(|&(p, _)| p == j) {
                    continue;
                }
                let widths: Vec<u64> = self.jobs[j].widths().filter(|&w| w <= self.g).collect();
                for &w in widths.iter().rev() {
                    let (gpus, start) = earliest_free(free, w as usize);
                    let end = start + self.jobs[j].time_at(w).expect("listed width");
                    let saved = free.clone();
                    for &i in &gpus {
                        free[i] = end;
                    }
                    self.path.push((j, w));
                    self.dfs(free);
                    self.path.pop();
                    *free = saved;
                }
                if free.iter().all(|&f| f == free[0]) {
                    break;
                }
            }
        }
    }
    let min_area = |j: &JobTimes| {
        j.widths()
            .filter(|&w| w <= g)
            .map(|w| w as f64 * j.time_at(w).expect("listed width"))
            .fold(f64::INFINITY, f64::min)
    };
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        min_area(&jobs[b])
            .total_cmp(&min_area(&jobs[a]))
            .then(a.cmp(&b))
    });
    let mut walk = Walk {
        jobs,
        order,
        g,
        path: Vec::new(),
        best: None,
    };
    walk.dfs(&mut vec![0.0; g as usize]);
    let (_, decisions) = walk.best.expect("every instance has a leaf");

    let mut free = vec![0.0; g as usize];
    let mut placements = Vec::new();
    for (job, w) in decisions {
        let duration = jobs[job].time_at(w).expect("listed width");
        let (gpus, start) = earliest_free(&free, w as usize);
        for &i in &gpus {
            free[i] = start + duration;
        }
        placements.push(Placement {
            job,
            gpus,
            start,
            duration,
        });
    }
    placements.sort_by(|a, b| a.start.total_cmp(&b.start));
    Schedule {
        placements,
        gpu_count: g as usize,
        makespan: free.iter().copied().fold(0.0, f64::max),
    }
}

/// Shared checker for `scheduling_invariants`, so the pinned regression
/// case below re-runs exactly the property's logic.
fn check_scheduling_invariants(jobs: &[JobTimes], g: u64) -> Result<(), String> {
    let naive = naive_schedule(jobs, g);
    let lpt = lpt_schedule(jobs, g);
    let best = optimal_schedule(jobs, g);

    prop_assert!(best.makespan <= lpt.makespan + 1e-9);
    prop_assert!(best.makespan <= naive.makespan + 1e-9);

    for sched in [&naive, &lpt, &best] {
        // Every job exactly once.
        let mut seen = vec![false; jobs.len()];
        for p in &sched.placements {
            prop_assert!(!seen[p.job], "job {} placed twice", p.job);
            seen[p.job] = true;
            prop_assert!(!p.gpus.is_empty());
            prop_assert!(p.gpus.len() <= g as usize);
        }
        prop_assert!(seen.iter().all(|&s| s));
        // No overlap on any GPU.
        for row in sched.gantt() {
            for w in row.windows(2) {
                prop_assert!(w[0].2 <= w[1].1 + 1e-9, "overlap {w:?}");
            }
        }
        // Makespan equals the max completion.
        let max_end = sched
            .placements
            .iter()
            .map(|p| p.end())
            .fold(0.0f64, f64::max);
        prop_assert!((sched.makespan - max_end).abs() < 1e-9);
    }

    // Area bound: makespan >= total best-case GPU-minutes / G.
    let area: f64 = jobs
        .iter()
        .map(|j| {
            j.widths()
                .filter(|&w| w <= g)
                .map(|w| w as f64 * j.time_at(w).expect("width present"))
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    prop_assert!(best.makespan >= area / g as f64 - 1e-9);

    // And >= the longest single job at its best feasible width.
    let longest: f64 = jobs
        .iter()
        .map(|j| {
            j.widths()
                .filter(|&w| w <= g)
                .map(|w| j.time_at(w).expect("width present"))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0f64, f64::max);
    prop_assert!(best.makespan >= longest - 1e-9);
    Ok(())
}

/// Pinned counterexample from the proptest era (the old
/// `properties.proptest-regressions` seed shrank to two identical jobs
/// with times {1: 10.0, 2: 5.0, 4: 2.5} on g = 3): perfectly-scaling
/// twins on an odd GPU count stress the width-choice tie-breaking.
#[test]
fn regression_scheduling_two_identical_jobs_on_three_gpus() {
    let jobs = vec![
        JobTimes::new("job0", [(1, 10.0), (2, 5.0), (4, 2.5)]),
        JobTimes::new("job1", [(1, 10.0), (2, 5.0), (4, 2.5)]),
    ];
    check_scheduling_invariants(&jobs, 3).unwrap();
}

mlperf_testkit::properties! {
    /// Jacobi: eigenvalues sum to the trace and V·Λ·Vᵀ reconstructs A.
    #[test]
    fn jacobi_reconstructs(m in arb_symmetric()) {
        let n = m.rows();
        let e = symmetric_eigen(&m);
        let trace: f64 = (0..n).map(|i| m[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((sum - trace).abs() < 1e-8, "trace {trace} vs sum {sum}");

        let mut d = Matrix::zeros(n, n);
        for i in 0..n {
            d[(i, i)] = e.values[i];
        }
        let recon = e.vectors.matmul(&d).matmul(&e.vectors.transpose());
        for i in 0..n {
            for j in 0..n {
                prop_assert!((recon[(i, j)] - m[(i, j)]).abs() < 1e-7);
            }
        }
    }

    /// Jacobi eigenvectors are orthonormal.
    #[test]
    fn jacobi_orthonormal(m in arb_symmetric()) {
        let n = m.rows();
        let e = symmetric_eigen(&m);
        let gram = e.vectors.transpose().matmul(&e.vectors);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((gram[(i, j)] - expect).abs() < 1e-8);
            }
        }
    }

    /// PCA variance ratios are a descending probability distribution, and
    /// projecting the fitted rows reproduces the component variances.
    #[test]
    fn pca_variance_laws(
        rows in vec_of(vec_of(-100.0f64..100.0, just(4)), 3usize..10)
    ) {
        let pca = Pca::fit(&rows);
        let r = pca.explained_variance_ratio();
        let sum: f64 = r.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9 || sum == 0.0);
        prop_assert!(r.windows(2).all(|w| w[0] >= w[1] - 1e-9));

        // Projected coordinates along PC1 have variance == eigenvalue 1.
        let coords: Vec<f64> = rows.iter().map(|row| pca.project(row, 1)[0]).collect();
        let var = stats::variance(&coords);
        prop_assert!((var - pca.eigenvalues()[0]).abs() < 1e-6 * (1.0 + var));
    }

    /// Scheduling: optimal ≤ LPT ≤-ish naive; all schedules place every
    /// job exactly once with no per-GPU overlap; and the optimum respects
    /// the area lower bound.
    #[test]
    fn scheduling_invariants(jobs in arb_jobs(), g in 1u64..=4) {
        check_scheduling_invariants(&jobs, g)?;
    }

    /// The search returns exactly the schedule the exhaustive reference
    /// does: the first least-makespan leaf in branching order, so a
    /// tighter bound can never move the Figure 4 Gantt.
    #[test]
    fn optimal_schedule_is_the_first_least_makespan_leaf(instance in arb_tied_instance()) {
        let (jobs, g) = instance;
        prop_assert_eq!(optimal_schedule(&jobs, g), exhaustive_schedule(&jobs, g));
    }
}
