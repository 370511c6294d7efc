//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro              # Tables I–V and Figures 1–5
//! repro --table 4        # one table
//! repro --figure 5       # one figure
//! repro --figure fault   # the seeded fault-injection study
//! repro sweep --list     # declarative parameter sweeps
//! repro serve            # long-lived what-if query server (Unix socket)
//! repro query            # client: replay NDJSON queries from stdin
//! repro --list           # what's available
//! ```

use mlperf_suite::runner::{self, Ctx, Pool, ResilienceConfig};
use mlperf_suite::serve::{self, ServeOptions, Server};
use mlperf_suite::sweep::{self, DiskCache};
use mlperf_suite::Config;
use std::process::ExitCode;

/// Exit code for a degraded-but-complete run: every requested output was
/// written, but one or more experiments failed (see the failure appendix
/// or the `# degraded:` CSV placeholders). `MLPERF_STRICT=1` turns these
/// into hard failures (exit 1) instead.
const EXIT_DEGRADED: u8 = 2;

fn usage() -> &'static str {
    "usage: repro [--table N | --figure N | --extra NAME | --csv DIR | --report FILE | --list]\n\
     \u{20}      repro sweep [--list | NAME... | --all] [--out DIR]   (long-form CSV per sweep)\n\
     \u{20}      repro serve [--socket PATH] [--max-active N] [--queue N] [--shard N]\n\
     \u{20}                  [--read-timeout-ms N] [--write-timeout-ms N] [--max-frame BYTES]\n\
     \u{20}      repro query [--socket PATH]   (NDJSON requests on stdin, responses on stdout)\n\
     tables: 1 (insights) 2 (suites) 3 (systems) 4 (scaling) 5 (resources)\n\
     figures: 1 (PCA) 2 (roofline) 3 (mixed precision) 4 (scheduling) 5 (topology)\n\
              fault (seeded fault injection, checkpoint/restart, expected TTT)\n\
     extras: cluster (online scheduling study beyond the paper)\n\
             fault   (alias for --figure fault)\n\
             validate (per-cell error metrics vs the published numbers)\n\
             batch    (batch-size sweep of ResNet-50 to the OOM wall)\n\
             energy   (kWh and USD to train, DAWNBench's second metric)\n\
             storage  (disk-staging feasibility per benchmark and device)\n\
             sensitivity (derived-output elasticity to calibration knobs)\n\
             variance (run-to-run variance decomposition: seed vs batch vs precision)\n\
     cache: --report/--csv/sweep answer from the persistent result cache in\n\
            artifacts/cache/ when warm; disable with --no-cache or MLPERF_CACHE=off,\n\
            relocate with MLPERF_CACHE_DIR=DIR\n\
     env: MLPERF_JOBS=N (workers), MLPERF_STRICT=1 (fail fast, no degraded mode),\n\
          MLPERF_STEP_BUDGET=N (simulation requests per experiment),\n\
          MLPERF_CHAOS=ID (panic one experiment, to exercise degraded mode),\n\
          MLPERF_RUNS=N (seeded replications per training cell, 1..512; 1 = point estimate),\n\
          MLPERF_PARTITION=TOKEN (run sweeps on a fractional device, e.g. 1of4x3;\n\
          'full' = whole device; pinned report sections ignore it),\n\
          MLPERF_IO_CHAOS=SPEC (seeded cache I/O fault injection, e.g.\n\
          seed=7,bit_flip=0.25 — see DESIGN.md §2h); a malformed knob exits 1\n\
     exit: 0 healthy, 1 error, 2 degraded-but-complete (--report/--csv only)"
}

/// `repro serve ...`: bind the Unix socket and answer typed what-if
/// queries until a `shutdown` query arrives. The daemon keeps the startup
/// [`Config`] — per-request variation happens through the request API
/// (e.g. `budget`), not by mutating the daemon's environment.
fn run_serve(args: &[String], cfg: &Config) -> Result<ExitCode, String> {
    let mut opts = ServeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                opts.socket = it.next().ok_or("--socket needs a path")?.into();
            }
            "--max-active" => {
                let n: usize = it
                    .next()
                    .ok_or("--max-active needs a count")?
                    .parse()
                    .map_err(|e| format!("--max-active: {e}"))?;
                opts.max_active = Some(n.max(1));
            }
            "--queue" => {
                opts.queue = it
                    .next()
                    .ok_or("--queue needs a depth")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?;
            }
            "--shard" => {
                let n: usize = it
                    .next()
                    .ok_or("--shard needs a cell count")?
                    .parse()
                    .map_err(|e| format!("--shard: {e}"))?;
                opts.shard = n.max(1);
            }
            "--read-timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--read-timeout-ms needs milliseconds (0 = none)")?
                    .parse()
                    .map_err(|e| format!("--read-timeout-ms: {e}"))?;
                opts.read_timeout_ms = ms;
            }
            "--write-timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--write-timeout-ms needs milliseconds (0 = none)")?
                    .parse()
                    .map_err(|e| format!("--write-timeout-ms: {e}"))?;
                opts.write_timeout_ms = ms;
            }
            "--max-frame" => {
                let bytes: usize = it
                    .next()
                    .ok_or("--max-frame needs bytes (0 = unbounded)")?
                    .parse()
                    .map_err(|e| format!("--max-frame: {e}"))?;
                opts.max_frame = bytes;
            }
            other => return Err(format!("unknown serve flag '{other}'; {}", usage())),
        }
    }
    let server =
        Server::bind(&opts, cfg).map_err(|e| format!("binding {}: {e}", opts.socket.display()))?;
    eprintln!("serve: listening on {}", opts.socket.display());
    server.run().map_err(|e| format!("serve: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// `repro query ...`: replay newline-delimited requests from stdin
/// against a running server, echoing response frames to stdout.
fn run_query(args: &[String]) -> Result<ExitCode, String> {
    let mut socket = std::path::PathBuf::from(serve::DEFAULT_SOCKET);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                socket = it.next().ok_or("--socket needs a path")?.into();
            }
            other => return Err(format!("unknown query flag '{other}'; {}", usage())),
        }
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut out = stdout.lock();
    serve::replay_client(&socket, &mut input, &mut out)
        .map_err(|e| format!("query ({}): {e}", socket.display()))?;
    Ok(ExitCode::SUCCESS)
}

/// `repro sweep ...`: run registered sweeps and write one long-form CSV
/// each (a cell that degrades is a data row with `status=error`, not a
/// process failure — the grid shape is part of the output contract).
fn run_sweeps(args: &[String], cfg: &Config) -> Result<ExitCode, String> {
    let registry = sweep::registry();
    let mut out_dir = String::from("artifacts/sweeps");
    let mut names: Vec<&str> = Vec::new();
    let mut all = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for s in &registry {
                    println!("{:<18} {} ({} cells)", s.name, s.title, s.len());
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--all" => all = true,
            "--out" => {
                out_dir = it.next().ok_or("--out needs a directory")?.clone();
            }
            name if !name.starts_with('-') => names.push(name),
            other => return Err(format!("unknown sweep flag '{other}'; {}", usage())),
        }
    }
    let selected: Vec<sweep::SweepSpec> = if all {
        registry.clone()
    } else {
        names
            .iter()
            .map(|n| {
                registry
                    .iter()
                    .find(|s| s.name == *n)
                    .cloned()
                    .ok_or_else(|| format!("no sweep '{n}' (try: repro sweep --list)"))
            })
            .collect::<Result<_, _>>()?
    };
    if selected.is_empty() {
        return Err(format!("no sweep named; {}", usage()));
    }
    // MLPERF_PARTITION re-bases every selected sweep onto a fractional
    // device. A sweep with its own partition axis overrides the base per
    // cell, so the knob never fights an explicit grid; unset, the specs
    // are untouched and the output bytes are exactly the historical ones.
    let selected: Vec<sweep::SweepSpec> = match cfg.partition {
        Some(p) => selected
            .into_iter()
            .map(|s| s.fix(sweep::AxisValue::Partition(Some(p))))
            .collect(),
        None => selected,
    };
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
    let pool = Pool::from_config(cfg);
    let cache = DiskCache::from_config(cfg);
    // Memo-free context: sweep cells are pairwise distinct, so the step
    // memo would only grow O(grid) without ever hitting — the disk cache
    // (content-addressed, batched) is the persistence layer here.
    let ctx = Ctx::without_memo().with_runs(cfg.runs);
    // Pool workers price and render chunks of rows that this thread
    // appends in order; at most one shard of cells is in flight, so memory
    // is bounded by the shard regardless of the grid (the million-cell
    // sweep never materializes). Bytes are identical for every worker count.
    const SHARD: usize = 1024;
    for spec in &selected {
        let path = format!("{out_dir}/{}.csv", spec.name);
        let file = std::fs::File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        let summary = sweep::run_streamed(&pool, &ctx, spec, cache.as_ref(), &mut out, SHARD)
            .and_then(|s| std::io::Write::flush(&mut out).map(|()| s))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote {path} ({} cells, {} degraded, {} from cache)",
            summary.cells, summary.errors, summary.disk_hits,
        );
    }
    let (attempts, hits) = ctx.fast_stats();
    if attempts > 0 {
        eprintln!("fast path: {hits}/{attempts} cells priced analytically");
    }
    if let Some(c) = &cache {
        eprint!("{}", c.summary());
    }
    Ok(ExitCode::SUCCESS)
}

/// Every single-artifact CLI name and the registry id it prints. The
/// first ten, Tables I–V then Figures 1–5, are what a bare `repro` prints.
const ARTIFACTS: [(&str, &str, &str); 19] = [
    ("--table", "1", "table1"),
    ("--table", "2", "table2"),
    ("--table", "3", "table3"),
    ("--table", "4", "table4"),
    ("--table", "5", "table5"),
    ("--figure", "1", "figure1"),
    ("--figure", "2", "figure2"),
    ("--figure", "3", "figure3"),
    ("--figure", "4", "figure4"),
    ("--figure", "5", "figure5"),
    ("--figure", "fault", "fault_study"),
    ("--extra", "cluster", "cluster_study"),
    ("--extra", "fault", "fault_study"),
    ("--extra", "validate", "validation"),
    ("--extra", "batch", "batch_sweep"),
    ("--extra", "energy", "energy_cost"),
    ("--extra", "storage", "storage_study"),
    ("--extra", "sensitivity", "sensitivity"),
    ("--extra", "variance", "variance_decomposition"),
];

/// Run one registered experiment on `ctx` and render its section.
fn run_artifact(ctx: &Ctx, id: &str) -> Result<String, String> {
    let e = runner::experiment(id).expect("every CLI name maps to a registered id");
    e.run(ctx)
        .map(|a| e.render(&a))
        .map_err(|err| err.to_string())
}

/// Report the failed experiments on stderr (degraded-mode diagnostics).
fn report_failures(execution: &mlperf_suite::runner::Execution) {
    for f in &execution.failures {
        eprintln!("degraded: {} ({}) failed: {}", f.id, f.title, f.error);
    }
}

fn main() -> ExitCode {
    // Every knob is resolved here, once and strictly: a malformed one
    // aborts before any output is written, instead of silently running
    // with a default that would make the configured scenario vacuous.
    let mut cfg = match Config::try_from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--no-cache` is positionless and composes with every mode; it (or
    // MLPERF_CACHE=off, or active chaos injection) disables the
    // persistent result cache for this invocation. The cache is opened
    // only by the modes that read it, since opening it hashes the
    // executable for the code epoch.
    if args.iter().any(|a| a == "--no-cache") {
        cfg.cache_enabled = false;
    }
    args.retain(|a| a != "--no-cache");
    let result: Result<ExitCode, String> = match args.as_slice() {
        [] => {
            // One memoized context: the tables and figures share their
            // overlapping simulation points instead of re-pricing them.
            let ctx = Ctx::from_config(&cfg);
            let mut out = String::new();
            for (_, _, id) in &ARTIFACTS[..10] {
                match run_artifact(&ctx, id) {
                    Ok(s) => out.push_str(&format!("{s}\n")),
                    Err(e) => {
                        eprintln!("{id} failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            print!("{out}");
            Ok(ExitCode::SUCCESS)
        }
        [flag] if flag == "--list" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        [cmd, rest @ ..] if cmd == "sweep" => run_sweeps(rest, &cfg),
        [cmd, rest @ ..] if cmd == "serve" => run_serve(rest, &cfg),
        [cmd, rest @ ..] if cmd == "query" => run_query(rest),
        [flag, name] if matches!(flag.as_str(), "--table" | "--figure" | "--extra") => ARTIFACTS
            .iter()
            .find(|(f, n, _)| f == flag && n == name)
            .ok_or_else(|| format!("no {} '{name}'; {}", &flag[2..], usage()))
            .and_then(|(_, _, id)| run_artifact(&Ctx::from_config(&cfg), id))
            .map(|s| {
                print!("{s}");
                ExitCode::SUCCESS
            }),
        [flag, file] if flag == "--report" => {
            let policy = ResilienceConfig::from_config(&cfg);
            // Strict mode (CI) bypasses the persistent cache and fails
            // fast: the first root-cause failure aborts the run before
            // anything is written. The strict config still honors chaos
            // injection and step budgets, so the gate itself is testable.
            // Otherwise the run is degraded-but-complete: failed
            // experiments become placeholder sections + a failure
            // appendix, exit 2 tells callers the document is incomplete,
            // and a warm cache answers every section from disk.
            let cache = if policy.strict {
                None
            } else {
                DiskCache::from_config(&cfg)
            };
            let (md, execution) = mlperf_suite::report_gen::build_cached(
                &Pool::from_config(&cfg),
                &Ctx::from_config(&cfg),
                &policy,
                cache.as_ref(),
            );
            match execution.root_cause() {
                Some(f) if policy.strict => Err(f.error.to_string()),
                _ => {
                    eprint!("{}", execution.stats.summary());
                    if let Some(c) = &cache {
                        eprint!("{}", c.summary());
                    }
                    report_failures(&execution);
                    std::fs::write(file, md)
                        .map(|()| {
                            println!("wrote {file}");
                            if execution.degraded() {
                                ExitCode::from(EXIT_DEGRADED)
                            } else {
                                ExitCode::SUCCESS
                            }
                        })
                        .map_err(|e| e.to_string())
                }
            }
        }
        [flag, dir] if flag == "--csv" => {
            let policy = ResilienceConfig::from_config(&cfg);
            // As for --report: strict mode bypasses the cache, and its
            // root cause aborts the export before any file is written.
            let cache = if policy.strict {
                None
            } else {
                DiskCache::from_config(&cfg)
            };
            let path = std::path::Path::new(dir);
            match mlperf_suite::csv_export::write_all_cached(path, &policy, cache.as_ref()) {
                Ok((written, execution)) => {
                    for path in written {
                        println!("wrote {path}");
                    }
                    if let Some(c) = &cache {
                        eprint!("{}", c.summary());
                    }
                    report_failures(&execution);
                    Ok(if execution.degraded() {
                        ExitCode::from(EXIT_DEGRADED)
                    } else {
                        ExitCode::SUCCESS
                    })
                }
                Err(e) => Err(e.to_string()),
            }
        }
        _ => Err(usage().to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
