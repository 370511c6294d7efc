//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro              # everything
//! repro --table 4        # one table
//! repro --figure 5       # one figure
//! repro --figure fault   # the seeded fault-injection study
//! repro sweep --list     # declarative parameter sweeps
//! repro serve            # long-lived what-if query server (Unix socket)
//! repro query            # client: replay NDJSON queries from stdin
//! repro --list           # what's available
//! ```

use mlperf_suite::experiments as exp;
use mlperf_suite::runner::{Ctx, Pool, ResilienceConfig};
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
          MLPERF_RETRIES=N, MLPERF_STEP_BUDGET=N, MLPERF_FASTPATH=off (force the\n\
          full DES engine; output bytes are identical either way — see README),\n\
          MLPERF_RUNS=N (seeded replications per training cell; 1 = point estimate),\n\
          MLPERF_PARTITION=TOKEN (run sweeps on a fractional device, e.g. 1of4x3;\n\
          'full' = whole device; pinned report sections ignore it),\n\
          MLPERF_IO_CHAOS=SPEC (seeded cache I/O fault injection, e.g.\n\
          seed=7,bit_flip=0.25 — see DESIGN.md §2h), MLPERF_SERVE_READ_TIMEOUT_MS,\n\
          MLPERF_SERVE_WRITE_TIMEOUT_MS, MLPERF_SERVE_MAX_FRAME (serve hardening)\n\
     exit: 0 healthy, 1 error, 2 degraded-but-complete (--report/--csv only)"
}

/// `repro serve ...`: bind the Unix socket and answer typed what-if
/// queries until a `shutdown` query arrives. The environment is resolved
/// into one typed [`Config`] here, once, at startup — per-request
/// variation happens through the request API (e.g. `budget`), not by
/// mutating the daemon's environment.
fn run_serve(args: &[String], no_cache: bool) -> Result<ExitCode, String> {
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
                opts.read_timeout_ms = Some(ms);
            }
            "--write-timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--write-timeout-ms needs milliseconds (0 = none)")?
                    .parse()
                    .map_err(|e| format!("--write-timeout-ms: {e}"))?;
                opts.write_timeout_ms = Some(ms);
            }
            "--max-frame" => {
                let bytes: usize = it
                    .next()
                    .ok_or("--max-frame needs bytes (0 = unbounded)")?
                    .parse()
                    .map_err(|e| format!("--max-frame: {e}"))?;
                opts.max_frame = Some(bytes);
            }
            other => return Err(format!("unknown serve flag '{other}'; {}", usage())),
        }
    }
    let mut cfg = Config::from_env();
    if no_cache {
        cfg.cache_enabled = false;
    }
    let server =
        Server::bind(&opts, &cfg).map_err(|e| format!("binding {}: {e}", opts.socket.display()))?;
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
fn run_sweeps(args: &[String], cache: Option<&DiskCache>) -> Result<ExitCode, String> {
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
    let selected: Vec<sweep::SweepSpec> = match Config::from_env().partition {
        Some(p) => selected
            .into_iter()
            .map(|s| s.fix(sweep::AxisValue::Partition(Some(p))))
            .collect(),
        None => selected,
    };
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
    let pool = Pool::from_env();
    // Memo-free context: sweep cells are pairwise distinct, so the step
    // memo would only grow O(grid) without ever hitting — the disk cache
    // (content-addressed, batched) is the persistence layer here.
    let ctx = Ctx::without_memo();
    // Rows are streamed to disk one shard at a time, so memory is bounded
    // by the shard regardless of the grid (the million-cell sweep never
    // materializes). Bytes are identical to the in-memory rendering.
    const SHARD: usize = 1024;
    for spec in &selected {
        let path = format!("{out_dir}/{}.csv", spec.name);
        let file =
            std::fs::File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        let summary = sweep::run_streamed(&pool, &ctx, spec, cache, &mut out, SHARD)
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
    if let Some(c) = cache {
        eprint!("{}", c.summary());
    }
    Ok(ExitCode::SUCCESS)
}

fn run_extra(ctx: &Ctx, name: &str) -> Result<String, String> {
    match name {
        "cluster" => exp::cluster_study::run_ctx(ctx)
            .map(|s| exp::cluster_study::render(&s))
            .map_err(|e| e.to_string()),
        "fault" => exp::fault_study::run_ctx(ctx)
            .map(|s| exp::fault_study::render(&s))
            .map_err(|e| e.to_string()),
        "sensitivity" => mlperf_suite::sensitivity::run_ctx(ctx)
            .map(|s| mlperf_suite::sensitivity::render(&s))
            .map_err(|e| e.to_string()),
        "storage" => exp::storage_study::run_ctx(ctx)
            .map(|rows| exp::storage_study::render(&rows))
            .map_err(|e| e.to_string()),
        "energy" => exp::energy_cost::run_on_ctx(ctx, mlperf_hw::SystemId::Dss8440, 8)
            .map(|e| exp::energy_cost::render(&e))
            .map_err(|e| e.to_string()),
        "batch" => exp::batch_sweep::run_ctx(ctx, mlperf_suite::BenchmarkId::MlpfRes50Mx)
            .map(|s| exp::batch_sweep::render(&s))
            .map_err(|e| e.to_string()),
        "validate" => mlperf_suite::validation::run_ctx(ctx)
            .map(|v| mlperf_suite::validation::render(&v))
            .map_err(|e| e.to_string()),
        "variance" => exp::variance_decomposition::run_ctx(ctx)
            .map(|v| exp::variance_decomposition::render(&v))
            .map_err(|e| e.to_string()),
        _ => Err(format!("no extra '{name}'; {}", usage())),
    }
}

fn run_table(ctx: &Ctx, n: u32) -> Result<String, String> {
    match n {
        1 => exp::table1::run_ctx(ctx)
            .map(|t| exp::table1::render(&t))
            .map_err(|e| e.to_string()),
        2 => Ok(exp::table2::render()),
        3 => Ok(exp::table3::render()),
        4 => exp::table4::run_ctx(ctx)
            .map(|t| exp::table4::render(&t))
            .map_err(|e| e.to_string()),
        5 => exp::table5::run_ctx(ctx)
            .map(|t| exp::table5::render(&t))
            .map_err(|e| e.to_string()),
        _ => Err(format!("no table {n}; {}", usage())),
    }
}

fn run_figure(ctx: &Ctx, n: u32) -> Result<String, String> {
    match n {
        1 => exp::figure1::run_ctx(ctx)
            .map(|f| exp::figure1::render(&f))
            .map_err(|e| e.to_string()),
        2 => exp::figure2::run_ctx(ctx)
            .map(|f| exp::figure2::render(&f))
            .map_err(|e| e.to_string()),
        3 => exp::figure3::run_ctx(ctx)
            .map(|f| exp::figure3::render(&f))
            .map_err(|e| e.to_string()),
        4 => exp::figure4::run_ctx(ctx)
            .map(|f| exp::figure4::render(&f))
            .map_err(|e| e.to_string()),
        5 => exp::figure5::run_ctx(ctx)
            .map(|f| exp::figure5::render(&f))
            .map_err(|e| e.to_string()),
        _ => Err(format!("no figure {n}; {}", usage())),
    }
}

/// Report the failed experiments on stderr (degraded-mode diagnostics).
fn report_failures(execution: &mlperf_suite::runner::Execution) {
    for f in &execution.failures {
        eprintln!(
            "degraded: {} ({}) failed after {} retries: {}",
            f.id,
            f.title,
            f.retries.len(),
            f.error
        );
    }
}

fn main() -> ExitCode {
    // Strict knob check up front: a typo'd MLPERF_IO_CHAOS or serve knob
    // aborts before any output is written, instead of silently running
    // with a default that would make the configured scenario vacuous.
    if let Err(e) = Config::try_from_env() {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--no-cache` is positionless and composes with every mode; it (or
    // MLPERF_CACHE=off, or active chaos injection) disables the
    // persistent result cache for this invocation.
    let no_cache = args.iter().any(|a| a == "--no-cache");
    args.retain(|a| a != "--no-cache");
    let cache = if no_cache { None } else { DiskCache::from_env() };
    // One memoized context per invocation: tables and figures share their
    // overlapping simulation points instead of re-pricing them.
    let ctx = Ctx::new();
    let result: Result<ExitCode, String> = match args.as_slice() {
        [] => {
            let mut out = String::new();
            for n in 1..=5u32 {
                match run_table(&ctx, n) {
                    Ok(s) => out.push_str(&format!("{s}\n")),
                    Err(e) => {
                        eprintln!("table {n} failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            for n in 1..=5u32 {
                match run_figure(&ctx, n) {
                    Ok(s) => out.push_str(&format!("{s}\n")),
                    Err(e) => {
                        eprintln!("figure {n} failed: {e}");
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
        [cmd, rest @ ..] if cmd == "sweep" => run_sweeps(rest, cache.as_ref()),
        [cmd, rest @ ..] if cmd == "serve" => run_serve(rest, no_cache),
        [cmd, rest @ ..] if cmd == "query" => run_query(rest),
        [flag, n] if flag == "--table" => n
            .parse::<u32>()
            .map_err(|e| e.to_string())
            .and_then(|n| run_table(&ctx, n))
            .map(|s| {
                print!("{s}");
                ExitCode::SUCCESS
            }),
        [flag, name] if flag == "--extra" => run_extra(&ctx, name).map(|s| {
            print!("{s}");
            ExitCode::SUCCESS
        }),
        [flag, file] if flag == "--report" => {
            let cfg = ResilienceConfig::from_env();
            // Strict mode (CI) bypasses the persistent cache and fails
            // fast: the first root-cause failure aborts the run before
            // anything is written. The strict config still honors chaos
            // injection and step budgets, so the gate itself is testable.
            // Otherwise the run is degraded-but-complete: failed
            // experiments become placeholder sections + a failure
            // appendix, exit 2 tells callers the document is incomplete,
            // and a warm cache answers every section from disk.
            let cache = if cfg.strict { None } else { cache.as_ref() };
            let (md, execution) =
                mlperf_suite::report_gen::build_cached(&Pool::from_env(), &ctx, &cfg, cache);
            match execution.root_cause() {
                Some(f) if cfg.strict => Err(f.error.to_string()),
                _ => {
                    eprint!("{}", execution.stats.summary());
                    if let Some(c) = cache {
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
            let cfg = ResilienceConfig::from_env();
            // As for --report: strict mode bypasses the cache, and its
            // root cause aborts the export before any file is written.
            let cache = if cfg.strict { None } else { cache.as_ref() };
            match mlperf_suite::csv_export::write_all_cached(std::path::Path::new(dir), &cfg, cache)
            {
                Ok((written, execution)) => {
                    for path in written {
                        println!("wrote {path}");
                    }
                    if let Some(c) = cache {
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
        // `--figure fault` names the extension study; numbers name the
        // paper's figures.
        [flag, n] if flag == "--figure" && n == "fault" => {
            run_extra(&ctx, "fault").map(|s| {
                print!("{s}");
                ExitCode::SUCCESS
            })
        }
        [flag, n] if flag == "--figure" => n
            .parse::<u32>()
            .map_err(|e| e.to_string())
            .and_then(|n| run_figure(&ctx, n))
            .map(|s| {
                print!("{s}");
                ExitCode::SUCCESS
            }),
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
