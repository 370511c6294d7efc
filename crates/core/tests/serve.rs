//! Load-test battery for `repro serve` (DESIGN.md §2f).
//!
//! The service contract under test:
//!
//! (a) **replay determinism** — a seeded workload of ≥1000 concurrent
//!     queries produces per-client transcripts that are byte-identical
//!     across two replays *and* across servers built at 1 vs 4 workers;
//! (b) **coalescing** — identical cells asked by many clients are priced
//!     once: the request-layer cache's hit/miss split equals
//!     `priced draws − unique cells / unique cells` exactly;
//! (c) **budgets** — per-connection step budgets trip deterministically,
//!     as typed `deadline-exceeded` frames, and replay identically;
//! (d) **degradation** — malformed and invalid queries get typed error
//!     frames and the server keeps answering;
//! (e) **sweep streaming** — a streamed sweep's frames carry exactly the
//!     bytes `repro sweep` would write for the same grid;
//! (f) **shared disk cache** — a warm server and a concurrent batch sweep
//!     hammering one `MLPERF_CACHE_DIR` never corrupt an entry and never
//!     cache an error as a success.

use mlperf_suite::serve::{self, protocol, ServeOptions, Server};
use mlperf_suite::sweep::{self, DiskCache};
use mlperf_suite::{
    runner::{Ctx, Pool},
    Config,
};
use mlperf_testkit::loadgen::LoadSpec;
use std::io::Cursor;
use std::path::{Path, PathBuf};

/// How each scripted query must be treated by the server (drives the
/// exact coalescing arithmetic in the load test).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Reaches the coalescing cache and is priced (ok or typed error).
    Priced,
    /// Rejected by the engine preflight before the coalescing layer.
    Rejected,
    /// Control-plane query; never touches the executor.
    Ping,
}

/// The seeded query vocabulary: valid training cells, OOM and bad-GPU
/// cells, expected-TTT cells (valid and invalid), and a ping.
fn vocabulary() -> Vec<(String, Expect)> {
    let mut v: Vec<(String, Expect)> = Vec::new();
    for workload in [
        "MLPf_Res50_MX",
        "MLPf_SSD_Py",
        "MLPf_XFMR_Py",
        "MLPf_GNMT_Py",
    ] {
        for gpus in [1u32, 2, 4] {
            v.push((
                format!(
                    r#"{{"v":1,"kind":"cell","workload":"{workload}","system":"DSS_8440","gpus":{gpus}}}"#
                ),
                Expect::Priced,
            ));
        }
    }
    // Past the OOM wall (the batch_wall sweep's last doublings): the
    // preflight memory gate rejects these before pricing.
    for batch in [8192u64, 16384] {
        v.push((
            format!(
                r#"{{"v":1,"kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1,"batch":{batch}}}"#
            ),
            Expect::Rejected,
        ));
    }
    // Bad GPU sets: more ordinals than the chassis has, and none at all.
    v.push((
        r#"{"v":1,"kind":"cell","workload":"MLPf_SSD_Py","system":"DSS_8440","gpus":16}"#.into(),
        Expect::Rejected,
    ));
    v.push((
        r#"{"v":1,"kind":"cell","workload":"MLPf_SSD_Py","system":"DSS_8440","gpus":0}"#.into(),
        Expect::Rejected,
    ));
    // Expected-TTT cells price through the analytic path (no preflight:
    // their own invalid-spec checks come first, and the third one proves
    // an invalid spec is a *priced, cacheable* typed error).
    v.push((
        r#"{"v":1,"kind":"cell","workload":"MLPf_XFMR_Py","system":"DSS_8440","gpus":4,"cell_kind":"expected-ttt","mtbf_hours":4,"interval":"daly"}"#.into(),
        Expect::Priced,
    ));
    v.push((
        r#"{"v":1,"kind":"cell","workload":"MLPf_XFMR_Py","system":"DSS_8440","gpus":4,"cell_kind":"expected-ttt","mtbf_hours":24,"interval":10}"#.into(),
        Expect::Priced,
    ));
    v.push((
        r#"{"v":1,"kind":"cell","workload":"MLPf_XFMR_Py","system":"DSS_8440","gpus":4,"cell_kind":"expected-ttt"}"#.into(),
        Expect::Priced,
    ));
    v.push((r#"{"v":1,"kind":"ping"}"#.into(), Expect::Ping));
    v
}

fn test_config(jobs: usize) -> Config {
    Config {
        jobs,
        cache_enabled: false,
        ..Config::default()
    }
}

fn sock(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("mlperf_serve_{name}.sock"));
    let _ = std::fs::remove_file(&p);
    p
}

fn replay(socket: &Path, lines: &[String]) -> Vec<u8> {
    let mut input = Cursor::new(lines.join("\n").into_bytes());
    let mut out = Vec::new();
    serve::replay_client(socket, &mut input, &mut out).expect("replay");
    out
}

fn shut_down(socket: &Path) {
    let mut input = Cursor::new(br#"{"v":1,"kind":"shutdown"}"#.to_vec());
    let mut out = Vec::new();
    serve::replay_client(socket, &mut input, &mut out).expect("shutdown");
}

/// Serve `client_lines` (one Vec per concurrent client) and return
/// `(per-client transcripts, stats)`.
fn serve_workload(
    cfg: &Config,
    opts: &ServeOptions,
    client_lines: &[Vec<String>],
) -> (Vec<Vec<u8>>, serve::ServeStats) {
    let server = Server::bind(opts, cfg).expect("bind");
    let transcripts = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run().expect("serve"));
        let clients: Vec<_> = client_lines
            .iter()
            .map(|lines| scope.spawn(|| replay(server.socket(), lines)))
            .collect();
        let transcripts: Vec<Vec<u8>> = clients
            .into_iter()
            .map(|c| c.join().expect("client"))
            .collect();
        shut_down(server.socket());
        daemon.join().expect("daemon");
        transcripts
    });
    (transcripts, server.stats())
}

#[test]
fn seeded_load_replays_byte_identical_and_coalesces() {
    let vocab = vocabulary();
    let spec = LoadSpec {
        vocab: vocab.len(),
        hot: 6,
        hot_pct: 70,
        queries: 140,
    };
    const CLIENTS: u64 = 8;
    let plans = spec.plans(0x4D4C_5045, CLIENTS);
    let total: usize = plans.iter().map(Vec::len).sum();
    assert!(
        total >= 1000,
        "the load-test floor is 1000 queries, got {total}"
    );
    let workload: Vec<Vec<String>> = plans
        .iter()
        .map(|plan| plan.iter().map(|&i| vocab[i].0.clone()).collect())
        .collect();

    // The exact coalescing arithmetic this workload must produce: every
    // draw that reaches the pricing layer either founds a cache slot
    // (unique cell) or coalesces onto one.
    let drawn: std::collections::BTreeSet<usize> = plans.iter().flatten().copied().collect();
    let unique_priced = drawn
        .iter()
        .filter(|&&i| vocab[i].1 == Expect::Priced)
        .count() as u64;
    let priced_draws = plans
        .iter()
        .flatten()
        .filter(|&&i| vocab[i].1 == Expect::Priced)
        .count() as u64;

    let opts = ServeOptions {
        socket: sock("load_a"),
        ..ServeOptions::default()
    };
    let (first, stats) = serve_workload(&test_config(4), &opts, &workload);

    assert_eq!(
        stats.queries as usize,
        total + 1,
        "every line parsed (plus shutdown)"
    );
    assert_eq!(
        stats.busy_responses, 0,
        "the default queue must absorb 8 clients"
    );
    assert_eq!(
        (stats.coalesce_misses, stats.coalesce_hits),
        (unique_priced, priced_draws - unique_priced),
        "coalescing must price each unique cell exactly once"
    );
    assert!(
        stats.coalesce_hits > 500,
        "the hot-set skew must actually collide"
    );

    // Replay determinism: same seed, fresh server -> same bytes; and the
    // worker count (the classic nondeterminism lever) must not leak into
    // any transcript.
    let opts_b = ServeOptions {
        socket: sock("load_b"),
        ..ServeOptions::default()
    };
    let (second, _) = serve_workload(&test_config(4), &opts_b, &workload);
    assert_eq!(first, second, "replay produced different bytes");
    let opts_c = ServeOptions {
        socket: sock("load_c"),
        ..ServeOptions::default()
    };
    let (serial, _) = serve_workload(&test_config(1), &opts_c, &workload);
    assert_eq!(
        first, serial,
        "MLPERF_JOBS=1 vs 4 leaked into response bytes"
    );
}

#[test]
fn per_connection_budgets_trip_deterministically() {
    // Four *distinct* cells, each charged one step against a two-step
    // budget: the third and fourth answers must be typed
    // deadline-exceeded errors with the exact meter readings.
    let lines: Vec<String> = [1u32, 2, 4, 8]
        .iter()
        .map(|gpus| {
            format!(
                r#"{{"v":1,"id":"b{gpus}","kind":"cell","workload":"MLPf_NCF_Py","system":"DSS_8440","gpus":{gpus},"budget":2}}"#
            )
        })
        .collect();
    let run = |name: &str| {
        let opts = ServeOptions {
            socket: sock(name),
            ..ServeOptions::default()
        };
        let (transcripts, _) = serve_workload(&test_config(2), &opts, std::slice::from_ref(&lines));
        String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap()
    };
    let text = run("budget_a");
    let frames: Vec<&str> = text.lines().collect();
    assert_eq!(frames.len(), 4, "{text}");
    assert!(frames[0].contains("\"status\":\"ok\""), "{text}");
    assert!(frames[1].contains("\"status\":\"ok\""), "{text}");
    assert_eq!(
        frames[2],
        protocol::error_frame(
            "b4",
            "deadline-exceeded",
            "step budget exceeded: 3 of 2 simulation requests"
        )
        .trim_end(),
    );
    assert_eq!(
        frames[3],
        protocol::error_frame(
            "b8",
            "deadline-exceeded",
            "step budget exceeded: 4 of 2 simulation requests"
        )
        .trim_end(),
    );
    assert_eq!(text, run("budget_b"), "budget verdicts must replay");

    // Another connection of the same server is a fresh meter: the same
    // first query answers ok, unaffected by this connection's spent meter.
    let opts = ServeOptions {
        socket: sock("budget_c"),
        ..ServeOptions::default()
    };
    let (transcripts, _) = serve_workload(
        &test_config(2),
        &opts,
        &[lines.clone(), vec![lines[0].clone()]],
    );
    let solo = String::from_utf8(transcripts[1].clone()).unwrap();
    assert!(solo.trim_end().contains("\"status\":\"ok\""), "{solo}");
}

#[test]
fn a_connection_meter_charges_each_query_up_front_and_keeps_its_spend() {
    const CELL: &str = r#""kind":"cell","workload":"MLPf_NCF_Py","system":"DSS_8440","gpus":1"#;
    let cell = |id: &str, budget: Option<u64>| match budget {
        Some(b) => format!(r#"{{"v":1,"id":"{id}",{CELL},"budget":{b}}}"#),
        None => format!(r#"{{"v":1,"id":"{id}",{CELL}}}"#),
    };
    let sweep = |id: &str, name: &str, budget: u64| {
        format!(r#"{{"v":1,"id":"{id}","kind":"sweep","sweep":"{name}","budget":{budget}}}"#)
    };
    let ping = |id: &str| format!(r#"{{"v":1,"id":"{id}","kind":"ping"}}"#);
    let exceeded = |id: &str, used: u64, budget: u64| {
        protocol::error_frame(
            id,
            "deadline-exceeded",
            &format!("step budget exceeded: {used} of {budget} simulation requests"),
        )
        .trim_end()
        .to_string()
    };
    // One connection per client, all on one server.
    let clients = [
        // The 15-cell fault_ttt sweep fits a budget of 15 exactly ...
        vec![sweep("fit", "fault_ttt", 15)],
        // ... and trips a budget of 14 before any row is streamed.
        vec![sweep("over", "fault_ttt", 14)],
        // An unknown sweep is refused before it is charged, so the next
        // cell still fits the budget of one it armed.
        vec![sweep("nope", "nope", 1), cell("after-nope", None)],
        // A re-limit keeps what the connection spent, and a query without
        // a budget keeps the last limit.
        vec![
            cell("a", Some(2)),
            cell("b", Some(2)),
            cell("c", Some(5)),
            cell("d", None),
            cell("e", None),
            cell("f", None),
        ],
        // A ping charges nothing.
        vec![
            cell("g", Some(2)),
            ping("p1"),
            ping("p2"),
            cell("h", None),
            cell("i", None),
        ],
    ];
    let opts = ServeOptions {
        socket: sock("budget_meter"),
        ..ServeOptions::default()
    };
    let (transcripts, _) = serve_workload(&test_config(2), &opts, &clients);
    let frames: Vec<Vec<String>> = transcripts
        .into_iter()
        .map(|t| {
            let text = String::from_utf8(t).unwrap();
            text.lines().map(str::to_string).collect()
        })
        .collect();
    let ok = |frame: &str| frame.contains("\"status\":\"ok\"");

    let fit = &frames[0];
    assert!(fit[0].contains("\"status\":\"stream\""), "{fit:?}");
    assert_eq!(
        fit.last().unwrap(),
        protocol::done_frame("fit", 15, 0).trim_end(),
        "{fit:?}"
    );
    assert_eq!(frames[1], [exceeded("over", 15, 14)]);
    let nope = &frames[2];
    assert!(nope[0].contains("\"kind\":\"bad-request\""), "{nope:?}");
    assert!(ok(&nope[1]), "{nope:?}");
    let relimited = &frames[3];
    assert!(relimited[..5].iter().all(|f| ok(f)), "{relimited:?}");
    assert_eq!(relimited[5], exceeded("f", 6, 5));
    let pinged = &frames[4];
    assert!(ok(&pinged[0]) && ok(&pinged[3]), "{pinged:?}");
    assert_eq!(pinged[1], protocol::pong_frame("p1").trim_end());
    assert_eq!(pinged[4], exceeded("i", 3, 2));
}

#[test]
fn partition_queries_price_normalize_and_reject_through_the_server() {
    // Batch 16 fits the quarter slice (the default batch OOMs it).
    const CELL: &str =
        r#""kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1,"batch":16"#;
    let lines: Vec<String> = vec![
        // A sliced cell prices like any other (a distinct coalescing slot).
        format!(r#"{{"v":1,"id":"sliced",{CELL},"partition":"1of4x2"}}"#),
        // `partition:"full"` normalizes to the whole device, so it must
        // coalesce with the partition-free spelling of the same cell …
        format!(r#"{{"v":1,"id":"spelled",{CELL},"partition":"full"}}"#),
        format!(r#"{{"v":1,"id":"bare",{CELL}}}"#),
        // … and a malformed token is a typed bad-request, not a crash.
        format!(r#"{{"v":1,"id":"bad",{CELL},"partition":"1of3"}}"#),
        r#"{"v":1,"id":"alive","kind":"ping"}"#.into(),
    ];
    let opts = ServeOptions {
        socket: sock("partition"),
        ..ServeOptions::default()
    };
    let (transcripts, stats) = serve_workload(&test_config(2), &opts, std::slice::from_ref(&lines));
    let text = String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap();
    let frames: Vec<&str> = text.lines().collect();
    assert_eq!(frames.len(), lines.len(), "{text}");
    for ok in &frames[..3] {
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
    }
    // The quarter slice runs slower than the whole device: the sliced
    // frame must carry its own numbers, not the full-device ones.
    assert_ne!(frames[0].replace("sliced", "bare"), frames[2], "{text}");
    assert_eq!(
        frames[1].replace("spelled", "bare"),
        frames[2],
        "'full' must normalize"
    );
    assert!(
        frames[3].contains("bad-request") && frames[3].contains("partition"),
        "{text}"
    );
    assert_eq!(
        frames[4],
        protocol::pong_frame("alive").trim_end(),
        "{text}"
    );
    // Two unique physical cells (sliced, whole); the normalized spelling
    // coalesces onto the whole-device slot.
    assert_eq!(
        (stats.coalesce_misses, stats.coalesce_hits),
        (2, 1),
        "{text}"
    );
    assert_eq!(stats.error_responses, 1);

    let opts_b = ServeOptions {
        socket: sock("partition_b"),
        ..ServeOptions::default()
    };
    let (second, _) = serve_workload(&test_config(2), &opts_b, &[lines]);
    assert_eq!(
        text.as_bytes(),
        &second[0][..],
        "partition frames must replay"
    );
}

#[test]
fn malformed_queries_get_typed_errors_and_the_server_survives() {
    let lines: Vec<String> = vec![
        "not json".into(),
        r#"{"v":2,"id":"vv","kind":"ping"}"#.into(),
        r#"{"v":1,"kind":"cell","workload":"resnet","system":"DSS_8440","gpus":4}"#.into(),
        r#"{"v":1,"kind":"ping","extra":true}"#.into(),
        r#"{"v":1,"kind":"sweep","sweep":"nope"}"#.into(),
        r#"{"v":1,"id":"alive","kind":"ping"}"#.into(),
    ];
    let opts = ServeOptions {
        socket: sock("malformed"),
        ..ServeOptions::default()
    };
    let (transcripts, stats) = serve_workload(&test_config(2), &opts, std::slice::from_ref(&lines));
    let text = String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap();
    let frames: Vec<&str> = text.lines().collect();
    assert_eq!(frames.len(), lines.len(), "{text}");
    for bad in &frames[..5] {
        assert!(
            bad.contains("\"status\":\"error\"") && bad.contains("bad-request"),
            "{bad}"
        );
    }
    assert_eq!(
        frames[5],
        protocol::pong_frame("alive").trim_end(),
        "{text}"
    );
    assert_eq!(stats.error_responses, 5);

    let opts_b = ServeOptions {
        socket: sock("malformed_b"),
        ..ServeOptions::default()
    };
    let (second, _) = serve_workload(&test_config(2), &opts_b, &[lines]);
    assert_eq!(text.as_bytes(), &second[0][..], "error frames must replay");
}

#[test]
fn streamed_sweep_frames_carry_the_batch_csv_bytes() {
    // What `repro sweep` would write for this grid, computed in-process.
    let grid = sweep::fault_ttt();
    let mut csv = Vec::new();
    let run = sweep::run_streamed(
        &Pool::with_workers(2),
        &Ctx::without_memo(),
        &grid,
        None,
        &mut csv,
        1024,
    )
    .expect("in-memory sink");
    let csv = String::from_utf8(csv).expect("CSV is UTF-8");
    let mut lines = csv.lines();
    let columns: Vec<&str> = lines.next().expect("header").split(',').collect();
    let rows: Vec<String> = lines.map(str::to_string).collect();
    assert_eq!(rows.len(), grid.len());

    // The expected transcript, frame by frame, at a 4-cell shard.
    let mut expected = protocol::stream_header_frame("s1", "fault_ttt", grid.len(), &columns);
    for chunk in rows.chunks(4) {
        expected.push_str(&protocol::rows_frame("s1", chunk));
    }
    expected.push_str(&protocol::done_frame("s1", grid.len(), run.errors));

    let opts = ServeOptions {
        socket: sock("sweep_stream"),
        shard: 4,
        ..ServeOptions::default()
    };
    let query = vec![r#"{"v":1,"id":"s1","kind":"sweep","sweep":"fault_ttt"}"#.to_string()];
    let (transcripts, stats) = serve_workload(&test_config(2), &opts, &[query]);
    assert_eq!(
        String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap(),
        expected,
        "streamed frames must carry exactly the batch CSV bytes"
    );
    assert_eq!(stats.ok_responses, 2, "sweep + shutdown");

    let unknown = vec![r#"{"v":1,"kind":"sweep","sweep":"nope"}"#.to_string()];
    let opts_b = ServeOptions {
        socket: sock("sweep_unknown"),
        ..ServeOptions::default()
    };
    let (transcripts, _) = serve_workload(&test_config(2), &opts_b, &[unknown]);
    let text = String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap();
    assert!(
        text.contains("unknown sweep 'nope'") && text.contains("figure4_scaling"),
        "{text}"
    );
}

#[test]
fn replicated_cell_queries_answer_distributions_and_bad_runs_get_typed_errors() {
    const CELL: &str = r#""kind":"cell","workload":"MLPf_Res50_MX","system":"DSS_8440","gpus":4"#;
    let lines: Vec<String> = vec![
        format!(r#"{{"v":1,"id":"r8",{CELL},"runs":8}}"#),
        // runs:1 spells the point estimate: the frame must be bytes-equal
        // to the runs-free query below (same id on purpose).
        format!(r#"{{"v":1,"id":"pt",{CELL},"runs":1}}"#),
        format!(r#"{{"v":1,"id":"pt",{CELL}}}"#),
        // Out-of-range run counts are typed bad-requests, never clamps.
        format!(r#"{{"v":1,"id":"z",{CELL},"runs":0}}"#),
        format!(r#"{{"v":1,"id":"n",{CELL},"runs":-3}}"#),
        format!(r#"{{"v":1,"id":"h",{CELL},"runs":513}}"#),
        format!(r#"{{"v":1,"id":"g",{CELL},"runs":1000000000000}}"#),
    ];
    let opts = ServeOptions {
        socket: sock("runs"),
        ..ServeOptions::default()
    };
    let (transcripts, stats) = serve_workload(&test_config(2), &opts, std::slice::from_ref(&lines));
    let text = String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap();
    let frames: Vec<&str> = text.lines().collect();
    assert_eq!(frames.len(), lines.len(), "{text}");

    // The replicated frame names every distribution column; the point
    // frames name none of them.
    assert!(frames[0].contains("\"status\":\"ok\""), "{text}");
    for col in [
        "runs",
        "epochs_median",
        "epochs_p5",
        "epochs_p95",
        "epochs_ci_lo",
        "epochs_ci_hi",
    ] {
        assert!(
            frames[0].contains(col),
            "replicated frame misses '{col}': {}",
            frames[0]
        );
        if col != "runs" {
            assert!(
                !frames[1].contains(col),
                "point frame leaked '{col}': {}",
                frames[1]
            );
        }
    }
    assert_eq!(
        frames[1], frames[2],
        "runs:1 must normalize to the runs-free spelling"
    );

    for bad in &frames[3..] {
        assert!(
            bad.contains("\"status\":\"error\"")
                && bad.contains("bad-request")
                && bad.contains("runs"),
            "{bad}"
        );
    }
    assert_eq!(stats.error_responses, 4);

    let opts_b = ServeOptions {
        socket: sock("runs_b"),
        ..ServeOptions::default()
    };
    let (second, _) = serve_workload(&test_config(2), &opts_b, &[lines]);
    assert_eq!(
        text.as_bytes(),
        &second[0][..],
        "replicated frames must replay"
    );
}

#[test]
fn warm_server_and_batch_sweep_share_one_disk_cache_safely() {
    let dir = std::env::temp_dir().join("mlperf_serve_shared_cache");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = test_config(2);
    cfg.cache_enabled = true;
    cfg.cache_dir = dir.clone();

    let grid = sweep::batch_wall(mlperf_suite::BenchmarkId::MlpfRes50Mx);
    // The server-side view of the same grid: identical canonical cells,
    // so the daemon and the batch runner contend on the same entries
    // (including the OOM cells past the wall, which must round-trip as
    // errors, never as successes).
    let cell_queries: Vec<String> = (0..grid.len())
        .map(|i| {
            let cell = grid.cell_at(i);
            format!(
                r#"{{"v":1,"kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1,"batch":{}}}"#,
                cell.batch.expect("batch axis")
            )
        })
        .collect();

    // Phase 1: a warm server and a concurrent batch `run_streamed` hammer
    // the same cache directory from many threads at once.
    let opts = ServeOptions {
        socket: sock("shared_cache"),
        ..ServeOptions::default()
    };
    let server = Server::bind(&opts, &cfg).expect("bind");
    let streamed = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run().expect("serve"));
        let clients: Vec<_> = (0..3)
            .map(|_| scope.spawn(|| replay(server.socket(), &cell_queries)))
            .collect();
        let batch = scope.spawn(|| {
            let cache = DiskCache::from_config(&cfg).expect("cache enabled");
            let mut out = Vec::new();
            sweep::run_streamed(
                &Pool::from_config(&cfg),
                &Ctx::without_memo(),
                &grid,
                Some(&cache),
                &mut out,
                4,
            )
            .expect("batch sweep");
            out
        });
        let transcripts: Vec<Vec<u8>> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let streamed = batch.join().unwrap();
        assert!(
            transcripts.windows(2).all(|w| w[0] == w[1]),
            "client transcripts diverged"
        );
        shut_down(server.socket());
        daemon.join().unwrap();
        streamed
    });

    // Phase 2: the ground truth is a cache-free run. Every byte the
    // contended runs produced — and a warm re-run answered purely from
    // the shared directory — must match it exactly: no corrupted entry,
    // no error cached as a success.
    let reference = {
        let mut out = Vec::new();
        sweep::run_streamed(
            &Pool::with_workers(1),
            &Ctx::without_memo(),
            &grid,
            None,
            &mut out,
            4,
        )
        .expect("reference sweep");
        out
    };
    assert_eq!(streamed, reference, "contended batch sweep bytes drifted");
    let warm = {
        let cache = DiskCache::from_config(&cfg).expect("cache enabled");
        let mut out = Vec::new();
        let summary = sweep::run_streamed(
            &Pool::with_workers(1),
            &Ctx::without_memo(),
            &grid,
            Some(&cache),
            &mut out,
            4,
        )
        .expect("warm sweep");
        assert!(summary.errors > 0, "the grid must cross the OOM wall");
        out
    };
    assert_eq!(
        warm, reference,
        "warm bytes drifted after concurrent access"
    );
    let warm_csv = String::from_utf8(warm).unwrap();
    assert!(
        warm_csv.contains(",error,"),
        "OOM cells must stay typed errors when cached"
    );

    // Phase 3: a fresh server over the now-warm directory answers with
    // the same bytes a cache-free server produces (cache state is
    // invisible in responses).
    let opts_warm = ServeOptions {
        socket: sock("shared_cache_warm"),
        ..ServeOptions::default()
    };
    let (warm_t, _) = serve_workload(&cfg, &opts_warm, std::slice::from_ref(&cell_queries));
    let opts_cold = ServeOptions {
        socket: sock("shared_cache_cold"),
        ..ServeOptions::default()
    };
    let (cold_t, _) = serve_workload(&test_config(2), &opts_cold, &[cell_queries]);
    assert_eq!(
        warm_t, cold_t,
        "a warm disk cache leaked into response bytes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// One connection's answers to `lines` on a fresh 2-worker server.
fn answers(name: &str, lines: &[String]) -> Vec<String> {
    let opts = ServeOptions {
        socket: sock(name),
        ..ServeOptions::default()
    };
    let (transcripts, _) = serve_workload(&test_config(2), &opts, &[lines.to_vec()]);
    let text = String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap();
    text.lines().map(str::to_string).collect()
}

#[test]
fn unbounded_gpu_counts_answer_bad_gpu_set_and_the_connection_lives() {
    // A GPU count of u32::MAX, as a training and as an expected-TTT cell:
    // the GPU set is cut after the first absent ordinal, so neither query
    // builds (or memoizes) a four-billion-entry ordinal list.
    const CELL: &str =
        r#""kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":4294967295"#;
    let lines = vec![
        format!(r#"{{"v":1,"id":"train",{CELL}}}"#),
        format!(
            r#"{{"v":1,"id":"ttt",{CELL},"cell_kind":"expected-ttt","mtbf_hours":4,"interval":"daly"}}"#
        ),
        r#"{"v":1,"id":"alive","kind":"ping"}"#.to_string(),
    ];
    let frames = answers("huge_gpus", &lines);
    let refusal = "bad GPU set: GPU 4 not present (system has 4)";
    assert_eq!(
        frames,
        [
            protocol::error_frame("train", "bad-gpu-set", refusal),
            protocol::error_frame("ttt", "bad-gpu-set", refusal),
            protocol::pong_frame("alive"),
        ]
        .map(|f| f.trim_end().to_string())
    );
}

#[test]
fn sliced_cells_over_the_whole_device_wall_answer_like_price_cell() {
    // Every cell is past the whole device's memory wall or on a device
    // that cannot be sliced: the answer must be the slice's verdict, the
    // one the batch path gives, never the whole device's.
    let lines: Vec<String> = [
        ("q256", "MLPf_Res50_MX", "C4140_(K)", "1of4x2", 256),
        ("q512", "MLPf_Res50_MX", "C4140_(K)", "1of4x2", 512),
        ("p8", "MLPf_Res50_MX", "MLPerf_reference_(P100)", "1of2", 8),
        ("p16k", "MLPf_Res50_MX", "MLPerf_reference_(P100)", "1of2", 16384),
    ]
    .iter()
    .map(|(id, workload, system, partition, batch)| {
        format!(
            r#"{{"v":1,"id":"{id}","kind":"cell","workload":"{workload}","system":"{system}","gpus":1,"batch":{batch},"partition":"{partition}"}}"#
        )
    })
    .collect();
    let frames = answers("sliced_wall", &lines);
    assert_eq!(frames.len(), lines.len(), "{frames:?}");
    let ctx = Ctx::new();
    for (line, frame) in lines.iter().zip(&frames) {
        let req = protocol::parse_request(line).expect("valid query");
        let protocol::QueryV1::Cell(spec) = &req.query else {
            panic!("cell query expected")
        };
        let want = match sweep::price_cell(&ctx, spec) {
            Ok(v) => protocol::cell_ok_frame(&req.id, spec.kind, v.values()),
            Err(e) => protocol::error_frame(&req.id, &e.kind, &e.message),
        };
        assert_eq!(frame, want.trim_end(), "{line}");
    }
    for frame in &frames[..2] {
        assert!(frame.contains("but device has 4.00 GiB"), "{frame}");
    }
    for frame in &frames[2..] {
        assert!(frame.contains("\"kind\":\"bad-partition\""), "{frame}");
    }
}

#[test]
fn zero_and_overflowing_batches_get_typed_answers() {
    const CELL: &str = r#""kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1"#;
    let lines = vec![
        format!(r#"{{"v":1,"id":"zero",{CELL},"batch":0}}"#),
        // The footprint of this batch does not fit in u64: the memory
        // gate saturates, so it is out of memory, never a wrapped fit.
        format!(r#"{{"v":1,"id":"max",{CELL},"batch":18446744073709551615}}"#),
        format!(
            r#"{{"v":1,"id":"max-sliced",{CELL},"batch":18446744073709551615,"partition":"1of2"}}"#
        ),
    ];
    let frames = answers("batch_edges", &lines);
    assert_eq!(frames.len(), lines.len(), "{frames:?}");
    assert_eq!(
        frames[0],
        protocol::error_frame(
            "zero",
            "bad-request",
            "field 'batch' must be at least 1 (got 0)"
        )
        .trim_end()
    );
    for frame in &frames[1..] {
        assert!(
            frame.contains("\"status\":\"error\",\"kind\":\"oom\""),
            "{frame}"
        );
    }
}

/// Expected-TTT durations that used to panic the pricing thread. Each
/// now answers a typed error: a bad request naming the field when the
/// value is not positive or overflows on conversion to seconds, and
/// `non-finite` when Daly's model leaves `f64` range. The connection
/// keeps answering after it.
macro_rules! ttt_regressions {
    ($($test:ident: ($mtbf:literal, $interval:literal) => $kind:literal, $message:literal;)+) => {
        $(
            #[test]
            fn $test() {
                let lines = vec![
                    format!(
                        r#"{{"v":1,"id":"ttt","kind":"cell","workload":"MLPf_XFMR_Py","system":"DSS_8440","gpus":4,"cell_kind":"expected-ttt","mtbf_hours":{},"interval":{}}}"#,
                        $mtbf, $interval
                    ),
                    r#"{"v":1,"id":"alive","kind":"ping"}"#.to_string(),
                ];
                let frames = answers(stringify!($test), &lines);
                let want = format!(r#"{{"v":1,"id":"ttt","status":"error","kind":"{}","message":"{}"#, $kind, $message);
                assert!(frames[0].starts_with(&want), "{}", frames[0]);
                assert_eq!(frames[1], protocol::pong_frame("alive").trim_end());
            }
        )+
    };
}

ttt_regressions! {
    regression_ttt_zero_mtbf: ("0", r#""daly""#)
        => "bad-request", "field 'mtbf_hours' must be positive and finite in seconds";
    regression_ttt_negative_mtbf: ("-3", r#""daly""#)
        => "bad-request", "field 'mtbf_hours' must be positive and finite in seconds";
    regression_ttt_mtbf_overflowing_seconds: ("1e308", r#""daly""#)
        => "bad-request", "field 'mtbf_hours' must be positive and finite in seconds";
    regression_ttt_vanishing_mtbf: ("1e-300", r#""daly""#)
        => "non-finite", "non-finite output: expected runtime inf s";
    regression_ttt_mtbf_cancelling_failures: ("1e300", r#""daly""#)
        => "non-finite", "non-finite output: expected runtime 0e0 s";
    regression_ttt_zero_interval: ("4", "0")
        => "bad-request", "field 'interval' must be positive and finite in seconds";
    regression_ttt_negative_interval: ("4", "-5")
        => "bad-request", "field 'interval' must be positive and finite in seconds";
    regression_ttt_interval_overflowing_seconds: ("4", "1e308")
        => "bad-request", "field 'interval' must be positive and finite in seconds";
    regression_ttt_interval_overflowing_model: ("4", "1e300")
        => "non-finite", "non-finite output: expected runtime inf s";
    regression_ttt_mtbf_overflowing_daly_interval: ("4.99e304", r#""daly""#)
        => "non-finite", "non-finite output: Daly interval for write cost";
}
