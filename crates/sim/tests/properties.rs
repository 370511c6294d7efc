//! Property-based tests for the simulation engine.

use mlperf_data::{DatasetId, InputPipeline};
use mlperf_hw::systems::SystemId;
use mlperf_hw::topology::{P2pClass, Path, PeerPath};
use mlperf_hw::units::{Bandwidth, Bytes, Seconds};
use mlperf_models::zoo::resnet::resnet18_cifar;
use mlperf_models::Optimizer;
use mlperf_sim::allreduce::{allreduce_time, ring_wire_bytes_per_gpu, AllReduceAlgorithm};
use mlperf_sim::des::{EventQueue, FifoResource};
use mlperf_sim::{train_on_first, ConvergenceModel, RunSpec, Simulator, TrainingJob};
use mlperf_testkit::prop::*;

fn peer(gb: f64) -> PeerPath {
    PeerPath {
        class: P2pClass::NvLinkDirect,
        bandwidth: Bandwidth::from_gb_per_sec(gb),
        latency: Seconds::from_micros(2.0),
        path: Path {
            nodes: Vec::new(),
            links: Vec::new(),
        },
    }
}

mlperf_testkit::properties! {
    /// All-reduce time is monotone in payload and antitone in bandwidth,
    /// for every algorithm.
    #[test]
    fn allreduce_monotone(
        bytes in 1u64..1 << 32,
        extra in 0u64..1 << 32,
        n in 2u64..=16,
        bw in 1.0f64..200.0
    ) {
        for alg in [AllReduceAlgorithm::Ring, AllReduceAlgorithm::Tree, AllReduceAlgorithm::Naive] {
            let t_small = allreduce_time(alg, Bytes::new(bytes), n, &peer(bw));
            let t_big = allreduce_time(alg, Bytes::new(bytes + extra), n, &peer(bw));
            prop_assert!(t_big.as_secs() >= t_small.as_secs(), "{alg}");
            let t_fast = allreduce_time(alg, Bytes::new(bytes), n, &peer(bw * 2.0));
            prop_assert!(t_fast.as_secs() <= t_small.as_secs(), "{alg}");
        }
    }

    /// Ring wire bytes are bounded by 2B and increase with N.
    #[test]
    fn ring_wire_bounds(bytes in 1u64..1 << 40, n in 2u64..=64) {
        let w = ring_wire_bytes_per_gpu(Bytes::new(bytes), n);
        prop_assert!(w.as_u64() <= 2 * bytes);
        prop_assert!(w.as_u64() >= bytes, "ring moves at least B for n >= 2");
        let w_next = ring_wire_bytes_per_gpu(Bytes::new(bytes), n + 1);
        prop_assert!(w_next >= w);
    }

    /// The event queue is a stable priority queue: events pop in
    /// non-decreasing time order and same-time events keep insertion order.
    #[test]
    fn event_queue_ordering(times in vec_of(0u32..1000, 1usize..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Seconds::new(t as f64), i);
        }
        let mut last_t = -1.0;
        let mut last_seq_at_t: i64 = -1;
        while let Some((t, seq)) = q.pop() {
            let tv = t.as_secs();
            prop_assert!(tv >= last_t);
            if (tv - last_t).abs() < f64::EPSILON {
                prop_assert!((seq as i64) > last_seq_at_t, "FIFO violated at t={tv}");
            }
            last_t = tv;
            last_seq_at_t = seq as i64;
        }
    }

    /// A FIFO resource's busy time equals the sum of service times, and
    /// completions are non-decreasing for non-decreasing requests.
    #[test]
    fn fifo_resource_conservation(
        reqs in vec_of((0.0f64..100.0, 0.01f64..10.0), 1usize..50)
    ) {
        let mut sorted = reqs.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let mut r = FifoResource::new();
        let mut total = 0.0;
        let mut last_done = 0.0;
        for (at, dur) in sorted {
            let done = r.serve(Seconds::new(at), Seconds::new(dur));
            prop_assert!(done.as_secs() >= at + dur - 1e-12);
            prop_assert!(done.as_secs() >= last_done);
            last_done = done.as_secs();
            total += dur;
        }
        prop_assert!((r.busy().as_secs() - total).abs() < 1e-9);
    }

    /// Engine sanity across random batch sizes: step time positive,
    /// throughput increases weakly with batch (fixed overhead amortizes).
    #[test]
    fn engine_batch_monotonicity(batch_exp in 4u32..10) {
        let system = SystemId::C4140K.spec();
        let sim = Simulator::new(&system);
        let job = |b: u64| {
            TrainingJob::builder(
                "cifar",
                resnet18_cifar(),
                InputPipeline::new(DatasetId::Cifar10, Bytes::new(32 * 32 * 3 * 2)),
                b,
                ConvergenceModel::new(24.0, 512, 0.0),
            )
            .optimizer(Optimizer::SgdMomentum)
            .build()
        };
        let small = sim
            .execute(&RunSpec::on_first(job(1 << batch_exp), 1))
            .expect("run succeeds")
            .report;
        let big = sim
            .execute(&RunSpec::on_first(job(1 << (batch_exp + 1)), 1))
            .expect("run succeeds")
            .report;
        prop_assert!(small.step_time.as_secs() > 0.0);
        prop_assert!(big.step_time.as_secs() > small.step_time.as_secs());
        prop_assert!(
            big.throughput_samples_per_sec() >= small.throughput_samples_per_sec() * 0.99
        );
    }

    /// Training time decreases (weakly) when epochs decrease.
    #[test]
    fn time_monotone_in_epochs(e1 in 1.0f64..50.0, shrink in 0.1f64..1.0) {
        let system = SystemId::C4140K.spec();
        let sim = Simulator::new(&system);
        let job = |epochs: f64| {
            TrainingJob::builder(
                "cifar",
                resnet18_cifar(),
                InputPipeline::new(DatasetId::Cifar10, Bytes::new(32 * 32 * 3 * 2)),
                256,
                ConvergenceModel::new(epochs, 256, 0.0),
            )
            .build()
        };
        let full = train_on_first(&sim, &job(e1), 1).expect("run").total_time;
        let less = train_on_first(&sim, &job(e1 * shrink), 1).expect("run").total_time;
        prop_assert!(less.as_secs() <= full.as_secs() + 1e-9);
    }
}

/// The FIFO contract at one instant across interleaved pops: same-time
/// payloads pop in global insertion order even when the schedule
/// alternates with pops.
#[test]
fn regression_interleaved_ties_pop_in_insertion_order() {
    let mut q = EventQueue::new();
    let t = Seconds::new(9.0);
    q.schedule(t, "a");
    q.schedule(t, "b");
    q.schedule(Seconds::new(1.0), "early");
    assert_eq!(q.pop().unwrap().1, "early");
    q.schedule(t, "c");
    let rest: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(rest, ["a", "b", "c"]);
}

mod cluster_properties {
    use mlperf_sim::cluster::{Cluster, ClusterJobSpec, Policy, Submission};
    use mlperf_testkit::prop::*;

    /// Random job batches: 1..6 jobs with times at widths 1/2/4, weakly
    /// improving, plus staggered arrivals.
    fn arb_submissions() -> impl Gen<Value = Vec<Submission>> {
        vec_of(
            (5.0f64..300.0, 0.5f64..1.0, 0.5f64..1.0, 0.0f64..120.0),
            1usize..6,
        )
        .prop_map(|specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (t1, f2, f4, arrival))| {
                    let job = ClusterJobSpec::new(
                        format!("job{i}"),
                        [(1, t1), (2, t1 * f2), (4, t1 * f2 * f4)],
                    );
                    Submission::after_minutes(job, arrival)
                })
                .collect()
        })
    }

    mlperf_testkit::properties! {
        /// Every policy completes every job, never overlaps capacity, and
        /// never starts a job before it arrives.
        #[test]
        fn cluster_invariants_hold(subs in arb_submissions(), g in 1u64..=4) {
            let n_jobs = subs.len();
            for p in Policy::ALL {
                let trace = Cluster::new(g).run(subs.clone(), p);
                prop_assert_eq!(trace.completions.len(), n_jobs, "{}", p.name());
                // Arrival causality.
                for c in &trace.completions {
                    prop_assert!(
                        c.start.as_secs() + 1e-9 >= subs[c.id].arrival.as_secs(),
                        "{} started before arriving under {}", c.name, p.name()
                    );
                    prop_assert!(c.end.as_secs() > c.start.as_secs());
                    prop_assert!(c.width >= 1 && c.width <= g);
                }
                // Capacity: at every start instant, concurrent widths fit.
                for c in &trace.completions {
                    let concurrent: u64 = trace
                        .completions
                        .iter()
                        .filter(|o| {
                            o.start.as_secs() <= c.start.as_secs() + 1e-12
                                && o.end.as_secs() > c.start.as_secs() + 1e-12
                        })
                        .map(|o| o.width)
                        .sum();
                    prop_assert!(
                        concurrent <= g,
                        "{} GPUs busy of {g} under {}", concurrent, p.name()
                    );
                }
                prop_assert!(trace.utilization() <= 1.0 + 1e-9);
            }
        }
    }
}

mod fault_properties {
    use mlperf_data::storage::StorageDevice;
    use mlperf_data::{DatasetId, InputPipeline};
    use mlperf_hw::systems::SystemId;
    use mlperf_hw::units::{Bytes, Seconds};
    use mlperf_models::zoo::resnet::resnet18_cifar;
    use mlperf_sim::checkpoint::{daly_interval, expected_runtime, failure_free_overhead};
    use mlperf_sim::fault::{replay, FaultConfig, FaultPlan, RetryPolicy};
    use mlperf_sim::{
        CheckpointSpec, ConvergenceModel, RunSpec, Simulator, StepReport, TrainingJob,
    };
    use mlperf_testkit::prop::*;
    use std::sync::OnceLock;

    fn cifar_job() -> TrainingJob {
        TrainingJob::builder(
            "cifar",
            resnet18_cifar(),
            InputPipeline::new(DatasetId::Cifar10, Bytes::new(32 * 32 * 3 * 2)),
            256,
            ConvergenceModel::new(24.0, 512, 0.0),
        )
        .build()
    }

    /// One steady-state report shared across property cases (the replay
    /// input is deterministic; re-simulating per case is pure waste).
    fn step() -> &'static StepReport {
        static STEP: OnceLock<StepReport> = OnceLock::new();
        STEP.get_or_init(|| {
            let system = SystemId::C4140K.spec();
            Simulator::new(&system)
                .execute(&RunSpec::on_first(cifar_job(), 4))
                .expect("run succeeds")
                .report
        })
    }

    /// Named regression for the DES tie-break contract the cluster replay
    /// leans on: events scheduled at the *same* instant pop in insertion
    /// order, so a completion landing on a node loss's timestamp resolves
    /// the same way on every run.
    #[test]
    fn regression_equal_timestamps_pop_fifo() {
        use mlperf_sim::des::EventQueue;
        let mut q = EventQueue::new();
        let t = Seconds::new(42.0);
        for label in ["first", "second", "third", "fourth"] {
            q.schedule(t, label);
        }
        q.schedule(Seconds::new(41.0), "earlier");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["earlier", "first", "second", "third", "fourth"]);
    }

    mlperf_testkit::properties! {
        /// The seeded-replay contract: equal seeds yield byte-identical
        /// fault plans, draw logs, and replay traces. Failures shrink on
        /// the seed, i.e. on the fault-plan draw stream behind it.
        #[test]
        fn equal_seeds_replay_byte_identically(
            seed in 0u64..1 << 48,
            mtbf_min in 3.0f64..30.0
        ) {
            let horizon = Seconds::from_minutes(30.0);
            let mtbf = Seconds::from_minutes(mtbf_min);
            let a = FaultPlan::generate(seed, horizon, mtbf, 4);
            let b = FaultPlan::generate(seed, horizon, mtbf, 4);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.script_trace(), b.script_trace());
            let cfg = FaultConfig {
                plan: a,
                checkpoint: CheckpointSpec::new(
                    Seconds::from_minutes(2.0),
                    StorageDevice::NvmeSsd,
                ),
                retry: RetryPolicy::default(),
            };
            let job = cifar_job();
            let (s1, t1) = replay(&cfg, &job, step(), 2_000);
            let (s2, t2) = replay(&cfg, &job, step(), 2_000);
            prop_assert_eq!(s1, s2);
            prop_assert_eq!(t1.to_bytes(), t2.to_bytes());
        }

        /// Failure-free checkpoint overhead is strictly monotone in
        /// checkpoint *frequency*: halving the interval doubles the tax.
        #[test]
        fn checkpoint_overhead_monotone_in_frequency(
            tau_min in 1.0f64..120.0,
            c_secs in 0.5f64..60.0,
            halvings in 1u32..6
        ) {
            let work = Seconds::from_hours(10.0);
            let c = Seconds::new(c_secs);
            let mut tau = Seconds::from_minutes(tau_min);
            let mut last = failure_free_overhead(work, tau, c);
            for _ in 0..halvings {
                tau = tau.scale(0.5);
                let next = failure_free_overhead(work, tau, c);
                prop_assert!(
                    next.as_secs() > last.as_secs(),
                    "overhead fell as checkpoints got more frequent"
                );
                prop_assert!((next.as_secs() - 2.0 * last.as_secs()).abs() < 1e-6);
                last = next;
            }
        }

        /// Daly's expected runtime is quasi-convex in the interval: on a
        /// geometric grid it falls to a single minimum and rises after.
        #[test]
        fn expected_ttt_quasi_convex_in_interval(
            c_secs in 1.0f64..120.0,
            mtbf_hours in 0.5f64..24.0
        ) {
            let work = Seconds::from_hours(20.0);
            let c = Seconds::new(c_secs);
            let r = Seconds::new(2.0 * c_secs + 30.0);
            let m = Seconds::from_hours(mtbf_hours);
            let grid: Vec<f64> = (0..40)
                .map(|i| 10.0 * 1.35f64.powi(i)) // ~10 s … ~1.7 e5 s
                .collect();
            let times: Vec<f64> = grid
                .iter()
                .map(|&tau| expected_runtime(work, Seconds::new(tau), c, r, m).unwrap().as_secs())
                .collect();
            let min_idx = times
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .expect("grid nonempty");
            for w in times[..=min_idx].windows(2) {
                prop_assert!(w[1] <= w[0] * (1.0 + 1e-9), "rise before the minimum");
            }
            for w in times[min_idx..].windows(2) {
                prop_assert!(w[1] >= w[0] * (1.0 - 1e-9), "dip after the minimum");
            }
        }

        /// The Daly-optimal interval is never worse than the endpoints of
        /// any sweep bracketing it.
        #[test]
        fn daly_interval_beats_sweep_endpoints(
            c_secs in 1.0f64..120.0,
            mtbf_hours in 0.5f64..24.0,
            spread in 2.0f64..64.0
        ) {
            let work = Seconds::from_hours(20.0);
            let c = Seconds::new(c_secs);
            let r = Seconds::new(2.0 * c_secs + 30.0);
            let m = Seconds::from_hours(mtbf_hours);
            let opt = daly_interval(c, m).unwrap();
            prop_assert!(opt.as_secs() > 0.0);
            let at = |tau: Seconds| expected_runtime(work, tau, c, r, m).unwrap().as_secs();
            let best = at(opt);
            prop_assert!(best <= at(opt.scale(1.0 / spread)) * (1.0 + 1e-6));
            prop_assert!(best <= at(opt.scale(spread)) * (1.0 + 1e-6));
        }
    }
}

/// Tree beats ring on latency-dominated payloads for large N; ring beats
/// tree on bandwidth-dominated payloads — the crossover exists.
#[test]
fn algorithm_crossover_exists() {
    let p = peer(45.0);
    let tiny = Bytes::from_kib(1);
    let huge = Bytes::from_mib(512);
    assert!(
        allreduce_time(AllReduceAlgorithm::Tree, tiny, 16, &p).as_secs()
            < allreduce_time(AllReduceAlgorithm::Ring, tiny, 16, &p).as_secs()
    );
    assert!(
        allreduce_time(AllReduceAlgorithm::Ring, huge, 16, &p).as_secs()
            < allreduce_time(AllReduceAlgorithm::Tree, huge, 16, &p).as_secs()
    );
}

/// The allocation-free all-reduce planner against the implementation it
/// replaced, kept here verbatim as the oracle: pairs collected into a
/// `Vec`, union-find in a `Vec`, domain sizes in a `HashMap`.
mod planner_oracle {
    use mlperf_hw::gpu::GpuModel;
    use mlperf_hw::interconnect::Link;
    use mlperf_hw::systems::SystemId;
    use mlperf_hw::topology::{P2pClass, PeerPath, Topology};
    use mlperf_hw::units::{Bytes, Seconds};
    use mlperf_hw::TopologyError;
    use mlperf_sim::allreduce::{
        allreduce_time, plan_allreduce, ring_wire_bytes_per_gpu, AllReduceAlgorithm, CollectivePlan,
    };
    use mlperf_testkit::prop::*;
    use std::sync::OnceLock;

    fn plan_allreduce_reference(
        topo: &Topology,
        gpus: &[u32],
        alg: AllReduceAlgorithm,
        bytes: Bytes,
    ) -> Result<CollectivePlan, TopologyError> {
        assert!(gpus.len() >= 2, "collective needs at least two GPUs");
        let n = gpus.len() as u64;
        if alg == AllReduceAlgorithm::ParameterServer {
            let mut worst_host = f64::INFINITY;
            let mut latency = Seconds::ZERO;
            for &g in gpus {
                let path = topo.gpu_host_path(g)?;
                worst_host = worst_host.min(path.bottleneck_bandwidth().as_bytes_per_sec());
                latency = latency.max(path.latency());
            }
            let per_worker = mlperf_hw::Bandwidth::new(worst_host / n as f64);
            let time = (bytes / per_worker).scale(2.0) + latency.scale(2.0);
            return Ok(CollectivePlan {
                time,
                worst_class: P2pClass::ThroughCpu,
                wire_bytes_per_gpu: bytes.scale(2.0),
            });
        }
        let mut parent: Vec<usize> = (0..gpus.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        let mut worst_intra: Option<&PeerPath> = None;
        let mut worst_inter: Option<&PeerPath> = None;
        let mut pairs = Vec::new();
        for (i, &a) in gpus.iter().enumerate() {
            for (j, &b) in gpus.iter().enumerate().skip(i + 1) {
                let p = topo.gpu_peer_path(a, b)?;
                if p.class.supports_p2p() {
                    let (ra, rb) = (find(&mut parent, i), find(&mut parent, j));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
                pairs.push((i, j, p));
            }
        }
        for (i, j, p) in pairs {
            let same = find(&mut parent, i) == find(&mut parent, j);
            let slot = if same {
                &mut worst_intra
            } else {
                &mut worst_inter
            };
            if slot.is_none_or(|w| p.is_worse_than(w)) {
                *slot = Some(p);
            }
        }
        let wire = ring_wire_bytes_per_gpu(bytes, n);
        match worst_inter {
            None => {
                let peer = worst_intra.expect("n >= 2 implies at least one pair");
                Ok(CollectivePlan {
                    time: allreduce_time(alg, bytes, n, peer),
                    worst_class: peer.class,
                    wire_bytes_per_gpu: wire,
                })
            }
            Some(inter) => {
                let mut domain_sizes = std::collections::HashMap::new();
                for i in 0..gpus.len() {
                    *domain_sizes.entry(find(&mut parent, i)).or_insert(0u64) += 1;
                }
                let groups = domain_sizes.len() as u64;
                let max_domain = domain_sizes.values().copied().max().expect("non-empty");
                let min_domain = domain_sizes.values().copied().min().expect("non-empty");
                let intra_time = match (worst_intra, max_domain) {
                    (Some(peer), k) if k > 1 => allreduce_time(alg, bytes, k, peer),
                    _ => Seconds::ZERO,
                };
                let shard = bytes.scale(1.0 / min_domain.max(1) as f64);
                let inter_time = allreduce_time(alg, shard, groups, inter);
                Ok(CollectivePlan {
                    time: intra_time + inter_time,
                    worst_class: inter.class,
                    wire_bytes_per_gpu: wire,
                })
            }
        }
    }

    const ALGORITHMS: [AllReduceAlgorithm; 4] = [
        AllReduceAlgorithm::Ring,
        AllReduceAlgorithm::Tree,
        AllReduceAlgorithm::Naive,
        AllReduceAlgorithm::ParameterServer,
    ];

    /// Every platform the suite models, the extension chassis included.
    fn systems() -> &'static [Topology] {
        static SYSTEMS: OnceLock<Vec<Topology>> = OnceLock::new();
        SYSTEMS.get_or_init(|| {
            SystemId::ALL
                .iter()
                .chain([&SystemId::Dgx1V])
                .map(|id| id.spec().topology().clone())
                .collect()
        })
    }

    /// A 72-GPU chassis, past the planner's 64-GPU stack buffer: two
    /// sockets joined by UPI, three PCIe switches of 12 GPUs per socket,
    /// and NVLink between neighbouring GPUs of a switch. Peer paths of
    /// every class, and P2P domains of every size a subset can cut.
    fn wide() -> &'static Topology {
        static WIDE: OnceLock<Topology> = OnceLock::new();
        WIDE.get_or_init(|| {
            let mut t = Topology::new("wide-72");
            let cpus = [t.add_cpu(), t.add_cpu()];
            t.connect(cpus[0], cpus[1], Link::UPI_X1);
            for cpu in cpus {
                for _ in 0..3 {
                    let switch = t.add_switch();
                    t.connect(cpu, switch, Link::PCIE3_X16);
                    let mut prev = None;
                    for g in 0..12 {
                        let gpu = t.add_gpu(GpuModel::TeslaV100Pcie16);
                        t.connect(switch, gpu, Link::PCIE3_X16);
                        if g % 2 == 1 {
                            t.connect(
                                prev.expect("odd GPUs follow one"),
                                gpu,
                                Link::NvLink { lanes: 2 },
                            );
                        }
                        prev = Some(gpu);
                    }
                }
            }
            t
        })
    }

    /// The first `len` ordinals of `0..count` in the random order `keys`
    /// sorts them into.
    fn subset(count: usize, keys: &[u32], len: usize) -> Vec<u32> {
        let mut gpus: Vec<u32> = (0..count as u32).collect();
        gpus.sort_by_key(|&g| (keys[g as usize % keys.len()], g));
        gpus.truncate(len);
        gpus
    }

    /// Both planners on one input: the same plan, `time` compared by its
    /// bits, or the same error.
    fn agree(
        topo: &Topology,
        gpus: &[u32],
        alg: AllReduceAlgorithm,
        bytes: Bytes,
    ) -> Result<(), String> {
        let got = plan_allreduce(topo, gpus, alg, bytes);
        let want = plan_allreduce_reference(topo, gpus, alg, bytes);
        let same = match (&got, &want) {
            (Ok(a), Ok(b)) => {
                a.time.as_secs().to_bits() == b.time.as_secs().to_bits()
                    && a.worst_class == b.worst_class
                    && a.wire_bytes_per_gpu == b.wire_bytes_per_gpu
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        prop_assert!(
            same,
            "{alg} over {gpus:?} of {}: {got:?} vs {want:?}",
            topo.name()
        );
        Ok(())
    }

    mlperf_testkit::properties! {
        /// On every platform and algorithm, over random ordered GPU subsets
        /// and payloads, the planner returns the oracle's plan; with an
        /// absent ordinal spliced in, it returns the oracle's error.
        #[test]
        fn plan_allreduce_matches_its_oracle(
            sys in 0usize..8,
            keys in vec_of(0u32..1_000_000, 8usize..=8),
            len in 2usize..=8,
            bytes in 0u64..1 << 36,
            absent in (0u32..4, 0usize..8)
        ) {
            let topo = &systems()[sys];
            let count = topo.gpu_count();
            for alg in ALGORITHMS {
                if count >= 2 {
                    let gpus = subset(count, &keys, 2 + (len - 2) % (count - 1));
                    agree(topo, &gpus, alg, Bytes::new(bytes))?;
                }
                let mut gpus = subset(count, &keys, len.min(count));
                gpus.insert(absent.1 % (gpus.len() + 1), count as u32 + absent.0);
                agree(topo, &gpus, alg, Bytes::new(bytes))?;
            }
        }

        /// The same past 64 GPUs, where the planner's scratch moves to
        /// the heap.
        #[test]
        fn plan_allreduce_matches_its_oracle_past_the_stack(
            keys in vec_of(0u32..1_000_000, 72usize..=72),
            len in 2usize..=72,
            bytes in 0u64..1 << 36
        ) {
            let gpus = subset(wide().gpu_count(), &keys, len);
            for alg in ALGORITHMS {
                agree(wide(), &gpus, alg, Bytes::new(bytes))?;
            }
        }
    }
}
