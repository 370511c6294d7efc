#!/usr/bin/env bash
# Tier-1 gate. Everything runs with --offline: the workspace has zero
# crates.io dependencies (see "Offline build & determinism policy" in
# DESIGN.md), so a network-less, registry-less container must be able to
# build, test, and lint from a bare checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt: every workspace crate, test and example is formatted =="
# perfbench/ is not a workspace member, so --all leaves it out.
cargo fmt --all -- --check

echo "== build (release, offline) =="
cargo build --release --offline

echo "== test (offline) =="
cargo test -q --offline

echo "== clippy (all targets, deny warnings) =="
cargo clippy --all-targets --offline -- -D warnings

echo "== rustdoc: every workspace crate documents without a warning =="
# Catches intra-doc links that break, or that point public docs at
# private items and so render dead.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== examples: every library-API example runs to completion (release) =="
# Clippy only compiles the examples; run each one so a panic or an error
# exit on that surface fails the gate too. Each file under examples/ is
# declared as an [[example]] of the same name in crates/core/Cargo.toml.
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    cargo run -q --release --offline --example "$name" >/dev/null \
        || { echo "example $name exited non-zero" >&2; exit 1; }
done

echo "== clippy: the benchmark harness builds against this API =="
# perfbench/ is a separate package the end-to-end benchmark builds from
# this checkout; a public-API change that breaks it must fail here.
cargo clippy --offline --manifest-path perfbench/Cargo.toml -- -D warnings

echo "== executor determinism: golden artifacts at MLPERF_JOBS=1 and 4 =="
# The executor contract (DESIGN.md "Execution model"): report and CSV
# bytes may depend only on the simulated numbers, never on the worker
# count or schedule. Run the golden-file tests serial and oversubscribed,
# then diff a full report built both ways.
MLPERF_JOBS=1 cargo test -q --offline -p mlperf-suite --test golden_artifacts
MLPERF_JOBS=4 cargo test -q --offline -p mlperf-suite --test golden_artifacts

echo "== conformance & cache batteries at MLPERF_JOBS=1 and 4 =="
# Per-section FNV fingerprints and the persistent-cache properties must
# hold serial and oversubscribed.
MLPERF_JOBS=1 cargo test -q --offline -p mlperf-suite --test conformance
MLPERF_JOBS=4 cargo test -q --offline -p mlperf-suite --test conformance
MLPERF_JOBS=1 cargo test -q --offline -p mlperf-suite --test sweep_cache
MLPERF_JOBS=4 cargo test -q --offline -p mlperf-suite --test sweep_cache
MLPERF_JOBS=1 cargo test -q --offline -p mlperf-suite --test sweep_stream
MLPERF_JOBS=4 cargo test -q --offline -p mlperf-suite --test sweep_stream

echo "== durability & hostile-client batteries at MLPERF_JOBS=1 and 4 =="
# The durability model (DESIGN.md "Durability model"): fuzzed cache
# tampering and seeded I/O chaos must never change output bytes, and the
# query server must survive transport-layer abuse with typed frames.
MLPERF_JOBS=1 cargo test -q --offline -p mlperf-suite --test cache_durability
MLPERF_JOBS=4 cargo test -q --offline -p mlperf-suite --test cache_durability
MLPERF_JOBS=1 cargo test -q --offline -p mlperf-suite --test serve_hostile
MLPERF_JOBS=4 cargo test -q --offline -p mlperf-suite --test serve_hostile

echo "== replication battery: MLPERF_RUNS contract at MLPERF_JOBS=1 and 4 =="
# The replication layer (DESIGN.md "Variance model"): MLPERF_RUNS=1 is
# byte-invisible, MLPERF_RUNS=8 replays bitwise at any worker count, and
# disk-cache keys are run-count-aware.
MLPERF_JOBS=1 cargo test -q --offline -p mlperf-suite --test replication
MLPERF_JOBS=4 cargo test -q --offline -p mlperf-suite --test replication
# Library contexts read no environment: the point-estimate fingerprints
# and the runs=1 cache keys hold with MLPERF_RUNS=8 exported.
MLPERF_RUNS=8 cargo test -q --offline -p mlperf-suite --test conformance --test replication

echo "== fault injection: suite serial and oversubscribed =="
# The fault subsystem's determinism contract: seeded plans, DES replay,
# and elastic rescheduling behave identically at any worker count.
MLPERF_JOBS=1 cargo test -q --offline -p mlperf-suite --test failure_injection
MLPERF_JOBS=4 cargo test -q --offline -p mlperf-suite --test failure_injection
MLPERF_JOBS=4 cargo test -q --offline -p mlperf-sim fault

echo "== same-schedule, bit-identical-bootstrap, odometer and planner contracts, 2000 cases =="
# optimal_schedule must return the exhaustive reference's schedule, the
# bootstrap must equal sorting every resample, the sweep's odometer walk
# must yield what cell_at decodes, and the allocation-free all-reduce
# planner must equal the implementation it replaced, far past tier-1's 96
# property cases.
MLPERF_PROP_CASES=2000 cargo test -q --release --offline -p mlperf-analysis \
    --test properties --test stats_props
MLPERF_PROP_CASES=2000 cargo test -q --release --offline -p mlperf-suite \
    --test properties sweep_walk
MLPERF_PROP_CASES=2000 cargo test -q --release --offline -p mlperf-sim \
    --test properties planner_oracle

echo "== sweep row kernel: byte-identical to core::fmt's {:.4}, 200000 cases =="
# The fixed-point writer that spells every streamed sweep metric must
# match format!("{x:.4}") on random bit patterns, near-ties, exact ties
# and the fallback threshold, far past tier-1's 96 property cases.
MLPERF_PROP_CASES=200000 cargo test -q --release --offline -p mlperf-suite \
    --lib report::tests::fixed4

report_tmp="$(mktemp -d)"
trap 'rm -rf "$report_tmp"' EXIT
# Hermetic persistent cache for everything below: never read or pollute
# the checkout's artifacts/cache/. The worker-parity runs additionally
# pass --no-cache so each one demonstrably recomputes from scratch.
export MLPERF_CACHE_DIR="$report_tmp/cache"
MLPERF_JOBS=1 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --no-cache --report "$report_tmp/serial.md" >/dev/null
MLPERF_JOBS=3 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --no-cache --report "$report_tmp/three.md" >/dev/null
MLPERF_JOBS=4 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --no-cache --report "$report_tmp/pooled.md" >/dev/null
diff -u "$report_tmp/serial.md" "$report_tmp/pooled.md" \
    || { echo "report bytes depend on MLPERF_JOBS" >&2; exit 1; }
diff -u "$report_tmp/serial.md" "$report_tmp/three.md" \
    || { echo "report bytes depend on MLPERF_JOBS (3 workers)" >&2; exit 1; }
diff -u REPORT.md "$report_tmp/serial.md" \
    || { echo "committed REPORT.md is stale; regenerate with repro --report REPORT.md" >&2; exit 1; }
# The same contract for every registered sweep: workers price and render
# their own chunks, the caller only appends them in order.
for jobs in 1 3 4; do
    MLPERF_JOBS=$jobs cargo run -q --release --offline -p mlperf-suite --bin repro -- \
        --no-cache sweep --all --out "$report_tmp/sweeps_j$jobs" >/dev/null
done
diff -r "$report_tmp/sweeps_j1" "$report_tmp/sweeps_j3" \
    || { echo "sweep CSV bytes depend on MLPERF_JOBS (3 workers)" >&2; exit 1; }
diff -r "$report_tmp/sweeps_j1" "$report_tmp/sweeps_j4" \
    || { echo "sweep CSV bytes depend on MLPERF_JOBS (4 workers)" >&2; exit 1; }

echo "== cache gate: warm repro is 100% hits and byte-identical =="
# The persistent result cache (DESIGN.md "Sweep & cache model"): a second
# `repro --report` run must answer every section from artifacts/cache/
# (100% hit rate, zero experiment recomputation) and write byte-identical
# output; likewise the sweep CSVs.
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --report "$report_tmp/cold.md" >/dev/null 2>/dev/null
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --report "$report_tmp/warm.md" >/dev/null 2>"$report_tmp/warm.log"
diff -u "$report_tmp/cold.md" "$report_tmp/warm.md" \
    || { echo "warm cached report bytes differ from cold" >&2; exit 1; }
diff -u REPORT.md "$report_tmp/warm.md" \
    || { echo "warm cached report differs from committed REPORT.md" >&2; exit 1; }
grep -q "100% hit rate" "$report_tmp/warm.log" \
    || { echo "warm report run did not report a 100% cache hit rate" >&2; \
         cat "$report_tmp/warm.log" >&2; exit 1; }
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    sweep --all --out "$report_tmp/sweeps_cold" >/dev/null 2>/dev/null
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    sweep --all --out "$report_tmp/sweeps_warm" >/dev/null 2>"$report_tmp/sweep_warm.log"
diff -ur "$report_tmp/sweeps_cold" "$report_tmp/sweeps_warm" \
    || { echo "warm sweep CSV bytes differ from cold" >&2; exit 1; }
grep -q "100% hit rate" "$report_tmp/sweep_warm.log" \
    || { echo "warm sweep run did not report a 100% cache hit rate" >&2; exit 1; }
# The cached lane formats each error for its entry; the uncached lane
# prints only the kind token. Both must write the same rows.
diff -r "$report_tmp/sweeps_j1" "$report_tmp/sweeps_cold" \
    || { echo "cold cached sweep CSV bytes differ from the --no-cache sweep" >&2; exit 1; }
diff -r "$report_tmp/sweeps_j1" "$report_tmp/sweeps_warm" \
    || { echo "warm cached sweep CSV bytes differ from the --no-cache sweep" >&2; exit 1; }

echo "== epoch gate: the cache keys on the executable's bytes, not its path =="
# The code epoch (DESIGN.md §2d "Persistent cache") hashes every byte of
# the running executable. A byte-identical copy of repro at another path
# must hit every entry of the warm cache; the same copy with one byte
# appended (the ELF still runs) must hit none, invalidate every entry,
# and still write the committed report. Both run on a copy of the warm
# cache, so the corruption gate below still sees this build's entries.
epoch_dir="$report_tmp/epoch"
mkdir -p "$epoch_dir"
cp "${CARGO_TARGET_DIR:-target}/release/repro" "$epoch_dir/repro"
cp -r "$MLPERF_CACHE_DIR" "$epoch_dir/cache"
MLPERF_CACHE_DIR="$epoch_dir/cache" "$epoch_dir/repro" \
    --report "$epoch_dir/copy.md" >/dev/null 2>"$epoch_dir/copy.log"
grep -q "100% hit rate" "$epoch_dir/copy.log" \
    || { echo "a byte-identical copy of repro did not hit the whole warm cache" >&2; \
         cat "$epoch_dir/copy.log" >&2; exit 1; }
diff -u REPORT.md "$epoch_dir/copy.md" \
    || { echo "a byte-identical copy of repro changed report bytes" >&2; exit 1; }
entries="$(find "$epoch_dir/cache" -name '*.art' | wc -l)"
printf '\0' >> "$epoch_dir/repro"
MLPERF_CACHE_DIR="$epoch_dir/cache" "$epoch_dir/repro" \
    --report "$epoch_dir/grown.md" >/dev/null 2>"$epoch_dir/grown.log"
grep -Eq ": 0 hits / [0-9]+ misses .*, $entries invalidated," "$epoch_dir/grown.log" \
    || { echo "a repro one byte longer did not miss and invalidate all $entries entries" >&2; \
         cat "$epoch_dir/grown.log" >&2; exit 1; }
diff -u REPORT.md "$epoch_dir/grown.md" \
    || { echo "a repro one byte longer changed report bytes" >&2; exit 1; }

echo "== corruption gate: tampered cache heals to byte-identical output =="
# The durability model (DESIGN.md "Durability model"): mutilate a
# deterministic subset of the warm cache's entries (append garbage to
# every 3rd, truncate every 7th), plant crash debris and foreign junk,
# then re-run. Every output byte must still match the committed
# artifacts, the tampering must be quarantined loudly on stderr, the
# orphan temp file must be swept, and the junk left alone.
i=0
for f in "$MLPERF_CACHE_DIR"/*.art; do
    i=$((i + 1))
    if [ $((i % 3)) -eq 0 ]; then
        printf 'Z' >> "$f"
    elif [ $((i % 7)) -eq 0 ]; then
        truncate -s 20 "$f"
    fi
done
[ "$i" -ge 20 ] || { echo "warm cache has suspiciously few entries ($i)" >&2; exit 1; }
orphan="$MLPERF_CACHE_DIR/00000000000000ff-00000000000000ff.tmp.12345"
printf 'half a store' > "$orphan"
printf 'hands off' > "$MLPERF_CACHE_DIR/README.txt"
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --report "$report_tmp/healed.md" >/dev/null 2>"$report_tmp/healed.log"
diff -u REPORT.md "$report_tmp/healed.md" \
    || { echo "tampered cache changed report bytes" >&2; exit 1; }
grep -Eq '[1-9][0-9]* corrupt quarantined' "$report_tmp/healed.log" \
    || { echo "tampered entries were not quarantined (or not reported)" >&2; \
         cat "$report_tmp/healed.log" >&2; exit 1; }
[ ! -e "$orphan" ] \
    || { echo "orphan tmp file survived the open sweep" >&2; exit 1; }
[ -f "$MLPERF_CACHE_DIR/README.txt" ] \
    || { echo "the cache sweep deleted a non-cache file" >&2; exit 1; }
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    sweep --all --out "$report_tmp/sweeps_healed" >/dev/null 2>"$report_tmp/sweeps_healed.log"
diff -ur "$report_tmp/sweeps_cold" "$report_tmp/sweeps_healed" \
    || { echo "tampered cache changed sweep CSV bytes" >&2; exit 1; }

echo "== io-chaos gate: seeded store faults degrade loudly, output intact =="
# Seeded fault injection at the cache's I/O seam (MLPERF_IO_CHAOS): short
# writes land torn frames, torn renames strand temp files, ENOSPC fails
# stores outright. The run must still produce the committed report except
# for the one appendix line that reports the degradation, and a clean
# re-run over the same directory must heal back to the exact artifact.
chaos_cache="$report_tmp/io_chaos_cache"
MLPERF_CACHE_DIR="$chaos_cache" \
MLPERF_IO_CHAOS="seed=7,short_write=0.3,torn_rename=0.2,enospc=0.2" \
    cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --report "$report_tmp/io_chaos.md" >/dev/null 2>"$report_tmp/io_chaos.log"
grep -q '^persistent-cache degradation:' "$report_tmp/io_chaos.md" \
    || { echo "io-chaos run did not surface store failures in the appendix" >&2; \
         cat "$report_tmp/io_chaos.log" >&2; exit 1; }
grep -v '^persistent-cache degradation:' "$report_tmp/io_chaos.md" > "$report_tmp/io_chaos_stripped.md"
diff -u REPORT.md "$report_tmp/io_chaos_stripped.md" \
    || { echo "io-chaos changed report bytes beyond the degradation note" >&2; exit 1; }
MLPERF_CACHE_DIR="$chaos_cache" \
    cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --report "$report_tmp/io_chaos_healed.md" >/dev/null 2>"$report_tmp/io_chaos_healed.log"
diff -u REPORT.md "$report_tmp/io_chaos_healed.md" \
    || { echo "cache did not heal after io-chaos" >&2; exit 1; }

echo "== chaos gate: injected panic degrades one section, nothing else =="
# The executor failure model (DESIGN.md "Executor failure model"): an
# injected panic in one experiment must (a) exit 2 (degraded but
# complete), (b) name the victim in the failure appendix, (c) leave every
# CSV outside the victim's blast radius byte-identical to a healthy run,
# and (d) replay byte-identically.
mkdir -p "$report_tmp/csv_healthy" "$report_tmp/csv_chaos"
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --csv "$report_tmp/csv_healthy" >/dev/null
# The same warm-cache contract for the CSV export: the run above stored
# every file, so a second one on the same cache must load all of them
# (100% hit rate, zero experiment recomputation) and write the committed
# artifacts/ bytes.
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --csv "$report_tmp/csv_warm" >/dev/null 2>"$report_tmp/csv_warm.log"
grep -q "100% hit rate" "$report_tmp/csv_warm.log" \
    || { echo "warm csv run did not report a 100% cache hit rate" >&2; \
         cat "$report_tmp/csv_warm.log" >&2; exit 1; }
diff -r -x cache -x sweeps artifacts "$report_tmp/csv_warm" \
    || { echo "warm cached CSV export differs from the committed artifacts/" >&2; exit 1; }
set +e
MLPERF_CHAOS=figure3 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --report "$report_tmp/chaos_a.md" >/dev/null 2>"$report_tmp/chaos_a.log"
chaos_status=$?
set -e
[ "$chaos_status" -eq 2 ] \
    || { echo "chaos report run must exit 2 (degraded), got $chaos_status" >&2; exit 1; }
grep -q "Failure appendix" "$report_tmp/chaos_a.md" \
    || { echo "degraded report is missing the failure appendix" >&2; exit 1; }
grep -q "figure3" "$report_tmp/chaos_a.md" \
    || { echo "failure appendix does not name the sabotaged experiment" >&2; exit 1; }
set +e
MLPERF_CHAOS=figure3 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --report "$report_tmp/chaos_b.md" >/dev/null 2>/dev/null
set -e
diff -u "$report_tmp/chaos_a.md" "$report_tmp/chaos_b.md" \
    || { echo "degraded report (failure appendix included) is not replayable" >&2; exit 1; }
set +e
MLPERF_CHAOS=figure3 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --csv "$report_tmp/csv_chaos" >/dev/null 2>/dev/null
chaos_status=$?
set -e
[ "$chaos_status" -eq 2 ] \
    || { echo "chaos csv run must exit 2 (degraded), got $chaos_status" >&2; exit 1; }
for f in "$report_tmp"/csv_healthy/*.csv; do
    name="$(basename "$f")"
    case "$name" in
    figure3*)
        grep -q "# degraded: figure3" "$report_tmp/csv_chaos/$name" \
            || { echo "$name: expected a degraded placeholder" >&2; exit 1; }
        ;;
    *)
        cmp -s "$f" "$report_tmp/csv_chaos/$name" \
            || { echo "$name: bytes changed under chaos in an unrelated experiment" >&2; exit 1; }
        ;;
    esac
done
set +e
MLPERF_STRICT=1 MLPERF_CHAOS=figure3 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --report "$report_tmp/strict.md" >/dev/null 2>/dev/null
strict_status=$?
set -e
[ "$strict_status" -eq 1 ] \
    || { echo "MLPERF_STRICT=1 must fail fast (exit 1), got $strict_status" >&2; exit 1; }
[ ! -s "$report_tmp/strict.md" ] \
    || { echo "strict mode must not write a degraded report" >&2; exit 1; }
set +e
MLPERF_STRICT=1 MLPERF_CHAOS=figure3 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --csv "$report_tmp/strict_csv_chaos" >/dev/null 2>/dev/null
strict_status=$?
set -e
[ "$strict_status" -eq 1 ] \
    || { echo "MLPERF_STRICT=1 --csv must fail fast (exit 1), got $strict_status" >&2; exit 1; }
[ ! -e "$report_tmp/strict_csv_chaos" ] \
    || { echo "strict mode must not write a degraded CSV export" >&2; exit 1; }

echo "== strict gate: fail-fast runs write the committed bytes =="
# MLPERF_STRICT=1 takes the same report/CSV entry points as every other
# run, with the cache off and the root cause turned into exit 1: a
# healthy strict run must reproduce REPORT.md and artifacts/ exactly.
MLPERF_STRICT=1 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --no-cache --report "$report_tmp/strict_ok.md" >/dev/null
diff -u REPORT.md "$report_tmp/strict_ok.md" \
    || { echo "strict report differs from the committed REPORT.md" >&2; exit 1; }
MLPERF_STRICT=1 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --no-cache --csv "$report_tmp/strict_csv" >/dev/null
diff -r -x cache -x sweeps artifacts "$report_tmp/strict_csv" \
    || { echo "strict CSV export differs from the committed artifacts/" >&2; exit 1; }

echo "== budget gate: step budgets trip typed, replay, and print no panic report =="
# MLPERF_STEP_BUDGET meters each experiment attempt (DESIGN.md "Executor
# failure model") and each serve connection ("Admission & budgets"). A
# trip is a typed verdict, not a bug: the report degrades exactly the
# experiments that overspend, at any worker count, and no trip writes a
# panic report to stderr.
for jobs in 1 4; do
    set +e
    MLPERF_JOBS=$jobs MLPERF_STEP_BUDGET=40 cargo run -q --release --offline -p mlperf-suite \
        --bin repro -- --no-cache --report "$report_tmp/budget_j$jobs.md" \
        >/dev/null 2>"$report_tmp/budget_j$jobs.log"
    budget_status=$?
    set -e
    [ "$budget_status" -eq 2 ] \
        || { echo "budgeted report (MLPERF_JOBS=$jobs) must exit 2 (degraded), got $budget_status" >&2; exit 1; }
    if grep -q "panicked at" "$report_tmp/budget_j$jobs.log"; then
        echo "a budget trip printed a panic report (MLPERF_JOBS=$jobs)" >&2
        cat "$report_tmp/budget_j$jobs.log" >&2
        exit 1
    fi
done
diff -u "$report_tmp/budget_j1.md" "$report_tmp/budget_j4.md" \
    || { echo "budgeted report bytes depend on MLPERF_JOBS" >&2; exit 1; }
for id in sensitivity fault_study; do
    grep -q "^| $id *| step budget exceeded: 41 of 40 simulation requests |" "$report_tmp/budget_j1.md" \
        || { echo "failure appendix lacks the $id budget trip (41 of 40)" >&2; exit 1; }
done
# A daemon with a two-request budget per connection: the meter charges
# every query up front (a cell 1, a sweep its 15 cells), keeps its spend
# across a per-request re-limit, and ignores pings.
budget_sock="$report_tmp/serve_budget.sock"
cat > "$report_tmp/budget_mix.ndjson" <<'EOF'
{"v":1,"id":"c1","kind":"cell","workload":"MLPf_NCF_Py","system":"DSS_8440","gpus":1}
{"v":1,"id":"c1","kind":"cell","workload":"MLPf_NCF_Py","system":"DSS_8440","gpus":1}
{"v":1,"id":"c2","kind":"cell","workload":"MLPf_NCF_Py","system":"DSS_8440","gpus":2}
{"v":1,"id":"sw","kind":"sweep","sweep":"fault_ttt"}
{"v":1,"id":"p","kind":"ping"}
{"v":1,"id":"sw100","kind":"sweep","sweep":"fault_ttt","budget":100}
EOF
MLPERF_STEP_BUDGET=2 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --no-cache serve --socket "$budget_sock" 2>"$report_tmp/serve_budget.log" &
budget_pid=$!
for _ in $(seq 1 100); do
    [ -S "$budget_sock" ] && break
    kill -0 "$budget_pid" 2>/dev/null \
        || { echo "budget daemon died before binding" >&2; cat "$report_tmp/serve_budget.log" >&2; exit 1; }
    sleep 0.1
done
[ -S "$budget_sock" ] || { echo "budget daemon never bound $budget_sock" >&2; exit 1; }
for run in a b; do
    cargo run -q --release --offline -p mlperf-suite --bin repro -- \
        query --socket "$budget_sock" < "$report_tmp/budget_mix.ndjson" > "$report_tmp/budget_$run.ndjson"
done
diff -u "$report_tmp/budget_a.ndjson" "$report_tmp/budget_b.ndjson" \
    || { echo "budgeted serve replay is not byte-identical" >&2; exit 1; }
budget_answers=(
    '"id":"c1","status":"ok"'
    '"id":"c1","status":"ok"'
    '"id":"c2","status":"error","kind":"deadline-exceeded","message":"step budget exceeded: 3 of 2 simulation requests"'
    '"id":"sw","status":"error","kind":"deadline-exceeded","message":"step budget exceeded: 18 of 2 simulation requests"'
    '"id":"p","status":"ok","kind":"pong"'
    '"id":"sw100","status":"stream"'
    '"id":"sw100","status":"rows"'
    '"id":"sw100","status":"done"'
)
[ "$(wc -l < "$report_tmp/budget_a.ndjson")" -eq "${#budget_answers[@]}" ] \
    || { echo "budgeted serve replay answered the wrong number of frames" >&2; \
         cat "$report_tmp/budget_a.ndjson" >&2; exit 1; }
n=0
for want in "${budget_answers[@]}"; do
    n=$((n + 1))
    sed -n "${n}p" "$report_tmp/budget_a.ndjson" | grep -qF "$want" \
        || { echo "budgeted serve frame $n lacks $want" >&2; cat "$report_tmp/budget_a.ndjson" >&2; exit 1; }
done
echo '{"v":1,"id":"q","kind":"shutdown"}' | cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    query --socket "$budget_sock" >/dev/null
wait "$budget_pid" \
    || { echo "budget daemon did not exit cleanly after shutdown" >&2; cat "$report_tmp/serve_budget.log" >&2; exit 1; }
if grep -q "panicked at" "$report_tmp/serve_budget.log"; then
    echo "a serve budget trip printed a panic report" >&2
    cat "$report_tmp/serve_budget.log" >&2
    exit 1
fi

echo "== fault replay smoke: fixed seed, byte-identical twice =="
# Two fresh processes replay the seeded fault study; the rendered trace
# fingerprint and every digit must match byte for byte.
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --figure fault > "$report_tmp/fault_a.txt"
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --figure fault > "$report_tmp/fault_b.txt"
diff -u "$report_tmp/fault_a.txt" "$report_tmp/fault_b.txt" \
    || { echo "fault replay is not reproducible across processes" >&2; exit 1; }

echo "== variance replay smoke: seeded decomposition byte-identical twice =="
# The variance decomposition draws every number from the fixed
# replication seed: two fresh processes must render identical bytes even
# when one sets MLPERF_RUNS (the study pins its own run count), and the
# exported CSV must match the committed golden artifact.
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --extra variance > "$report_tmp/variance_a.txt"
MLPERF_RUNS=8 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --extra variance > "$report_tmp/variance_b.txt"
diff -u "$report_tmp/variance_a.txt" "$report_tmp/variance_b.txt" \
    || { echo "variance decomposition is not reproducible across processes" >&2; exit 1; }
cmp -s "$report_tmp/csv_healthy/variance_decomposition.csv" artifacts/variance_decomposition.csv \
    || { echo "variance_decomposition.csv drifted from the committed artifact" >&2; exit 1; }

echo "== partition gate: sliced sweeps replay; knob scoped to sweeps only =="
# Multi-tenant partitioning (DESIGN.md §2i): the partition_scaling grid
# must emit byte-identical CSV across fresh processes and worker counts;
# MLPERF_PARTITION re-bases exploratory sweeps (the CSV grows the
# partition column and the sliced rows) but must never perturb one byte
# of the conformance-pinned report; and a malformed token must fail fast
# before any output is written.
MLPERF_JOBS=1 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --no-cache sweep partition_scaling --out "$report_tmp/part_j1" >/dev/null
MLPERF_JOBS=4 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --no-cache sweep partition_scaling --out "$report_tmp/part_j4" >/dev/null
MLPERF_JOBS=4 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --no-cache sweep partition_scaling --out "$report_tmp/part_j4b" >/dev/null
diff -u "$report_tmp/part_j1/partition_scaling.csv" "$report_tmp/part_j4/partition_scaling.csv" \
    || { echo "partition_scaling CSV depends on MLPERF_JOBS" >&2; exit 1; }
diff -u "$report_tmp/part_j4/partition_scaling.csv" "$report_tmp/part_j4b/partition_scaling.csv" \
    || { echo "partition_scaling CSV is not replayable" >&2; exit 1; }
head -1 "$report_tmp/part_j1/partition_scaling.csv" | grep -q "partition" \
    || { echo "partition_scaling CSV is missing the partition column" >&2; exit 1; }
MLPERF_PARTITION=1of2x2 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --no-cache sweep figure4_scaling --out "$report_tmp/part_knob" >/dev/null
grep -q "1of2x2" "$report_tmp/part_knob/figure4_scaling.csv" \
    || { echo "MLPERF_PARTITION did not re-base the sweep" >&2; exit 1; }
MLPERF_PARTITION=1of2x2 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --no-cache --report "$report_tmp/part_report.md" >/dev/null
diff -u REPORT.md "$report_tmp/part_report.md" \
    || { echo "MLPERF_PARTITION leaked into the conformance-pinned report" >&2; exit 1; }
set +e
MLPERF_PARTITION=half cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --list >/dev/null 2>"$report_tmp/part_bad.log"
part_status=$?
set -e
[ "$part_status" -eq 1 ] \
    || { echo "malformed MLPERF_PARTITION must fail fast (exit 1), got $part_status" >&2; exit 1; }
grep -q "MLPERF_PARTITION" "$report_tmp/part_bad.log" \
    || { echo "malformed-knob error does not name MLPERF_PARTITION" >&2; exit 1; }
# An out-of-range run count fails fast too, instead of silently pricing
# one run per cell.
set +e
MLPERF_RUNS=513 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --list >/dev/null 2>"$report_tmp/runs_bad.log"
runs_status=$?
set -e
[ "$runs_status" -eq 1 ] \
    || { echo "out-of-range MLPERF_RUNS must fail fast (exit 1), got $runs_status" >&2; exit 1; }
grep -q "MLPERF_RUNS" "$report_tmp/runs_bad.log" \
    || { echo "malformed-knob error does not name MLPERF_RUNS" >&2; exit 1; }
# A chaos target that names no experiment fails fast too, instead of
# injecting nothing and passing the chaos gate vacuously.
set +e
MLPERF_CHAOS=figure33 cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --list >/dev/null 2>"$report_tmp/chaos_bad.log"
chaos_bad_status=$?
set -e
[ "$chaos_bad_status" -eq 1 ] \
    || { echo "unknown MLPERF_CHAOS target must fail fast (exit 1), got $chaos_bad_status" >&2; exit 1; }
grep -q "MLPERF_CHAOS" "$report_tmp/chaos_bad.log" \
    || { echo "malformed-knob error does not name MLPERF_CHAOS" >&2; exit 1; }

echo "== serve smoke: daemon up, seeded replay byte-identical, clean shutdown =="
# The query server (DESIGN.md §2f): start the daemon on a scratch socket,
# replay a fixed query mix twice through `repro query`, require the two
# transcripts byte-identical (responses carry no live counters), then
# shut down with a typed query and require a clean exit.
serve_sock="$report_tmp/serve.sock"
cat > "$report_tmp/serve_mix.ndjson" <<'EOF'
{"v":1,"id":"p","kind":"ping"}
{"v":1,"id":"c1","kind":"cell","workload":"MLPf_Res50_MX","system":"DSS_8440","gpus":4}
{"v":1,"id":"c2","kind":"cell","workload":"MLPf_XFMR_Py","system":"DSS_8440","gpus":8,"precision":"amp"}
{"v":1,"id":"oom","kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1,"batch":16384}
{"v":1,"id":"bad","kind":"cell","workload":"MLPf_SSD_Py","system":"DSS_8440","gpus":16}
{"v":1,"id":"ttt","kind":"cell","workload":"MLPf_XFMR_Py","system":"DSS_8440","gpus":4,"cell_kind":"expected-ttt","mtbf_hours":4,"interval":"daly"}
{"v":1,"id":"slice","kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1,"batch":16,"partition":"1of4x2"}
{"v":1,"id":"badpart","kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1,"partition":"1of3"}
{"v":1,"id":"hugegpus","kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":4294967295}
{"v":1,"id":"hugettt","kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":4294967295,"cell_kind":"expected-ttt","mtbf_hours":4,"interval":"daly"}
{"v":1,"id":"slicewall","kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1,"batch":512,"partition":"1of4x2"}
{"v":1,"id":"batch0","kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1,"batch":0}
{"v":1,"id":"sw","kind":"sweep","sweep":"fault_ttt"}
EOF
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --no-cache serve --socket "$serve_sock" 2>"$report_tmp/serve.log" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$serve_sock" ] && break
    kill -0 "$serve_pid" 2>/dev/null \
        || { echo "serve daemon died before binding" >&2; cat "$report_tmp/serve.log" >&2; exit 1; }
    sleep 0.1
done
[ -S "$serve_sock" ] || { echo "serve daemon never bound $serve_sock" >&2; exit 1; }
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    query --socket "$serve_sock" < "$report_tmp/serve_mix.ndjson" > "$report_tmp/serve_a.ndjson"
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    query --socket "$serve_sock" < "$report_tmp/serve_mix.ndjson" > "$report_tmp/serve_b.ndjson"
diff -u "$report_tmp/serve_a.ndjson" "$report_tmp/serve_b.ndjson" \
    || { echo "serve replay is not byte-identical" >&2; exit 1; }
grep -q '"id":"oom","status":"error","kind":"oom"' "$report_tmp/serve_a.ndjson" \
    || { echo "serve did not answer the OOM cell with a typed error" >&2; exit 1; }
grep -q '"id":"slice","status":"ok"' "$report_tmp/serve_a.ndjson" \
    || { echo "serve did not price the sliced cell" >&2; exit 1; }
grep -q '"id":"badpart","status":"error","kind":"bad-request"' "$report_tmp/serve_a.ndjson" \
    || { echo "serve did not reject the malformed partition token" >&2; exit 1; }
for id in hugegpus hugettt; do
    grep -q "\"id\":\"$id\",\"status\":\"error\",\"kind\":\"bad-gpu-set\"" "$report_tmp/serve_a.ndjson" \
        || { echo "serve did not answer the u32::MAX GPU count ($id) with bad-gpu-set" >&2; exit 1; }
done
grep -q '"id":"slicewall","status":"error","kind":"oom","message":"[^"]*device has 4.00 GiB"' "$report_tmp/serve_a.ndjson" \
    || { echo "serve did not gate the sliced cell on the slice's memory" >&2; exit 1; }
grep -q '"id":"batch0","status":"error","kind":"bad-request"' "$report_tmp/serve_a.ndjson" \
    || { echo "serve did not reject batch 0 with a typed bad-request" >&2; exit 1; }
grep -q '"id":"sw","status":"done"' "$report_tmp/serve_a.ndjson" \
    || { echo "serve did not finish the streamed sweep" >&2; exit 1; }
echo '{"v":1,"id":"q","kind":"shutdown"}' | cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    query --socket "$serve_sock" >/dev/null
wait "$serve_pid" \
    || { echo "serve daemon did not exit cleanly after shutdown" >&2; cat "$report_tmp/serve.log" >&2; exit 1; }

echo "== serve hostile smoke: oversized frame typed, daemon survives =="
# Transport-layer hardening (DESIGN.md "Durability model"): a daemon with
# a small --max-frame must answer an oversized request line
# with the typed frame-too-large error, keep serving other clients, and
# still shut down cleanly. (Half-written frames and stalled readers need
# raw socket control — the serve_hostile test battery above covers them.)
hostile_sock="$report_tmp/serve_hostile.sock"
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    --no-cache serve --socket "$hostile_sock" --max-frame 200 2>"$report_tmp/serve_hostile.log" &
hostile_pid=$!
for _ in $(seq 1 100); do
    [ -S "$hostile_sock" ] && break
    kill -0 "$hostile_pid" 2>/dev/null \
        || { echo "hostile-smoke daemon died before binding" >&2; cat "$report_tmp/serve_hostile.log" >&2; exit 1; }
    sleep 0.1
done
[ -S "$hostile_sock" ] || { echo "hostile-smoke daemon never bound $hostile_sock" >&2; exit 1; }
printf '{"v":1,"id":"big","kind":"ping","pad":"%s"}\n' "$(printf 'x%.0s' $(seq 1 400))" \
    > "$report_tmp/oversized.ndjson"
cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    query --socket "$hostile_sock" < "$report_tmp/oversized.ndjson" > "$report_tmp/oversized_answer.ndjson"
grep -q '"status":"error","kind":"frame-too-large"' "$report_tmp/oversized_answer.ndjson" \
    || { echo "oversized frame did not get the typed frame-too-large error" >&2; \
         cat "$report_tmp/oversized_answer.ndjson" >&2; exit 1; }
echo '{"v":1,"id":"still-up","kind":"ping"}' | cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    query --socket "$hostile_sock" > "$report_tmp/still_up.ndjson"
grep -q '"id":"still-up","status":"ok"' "$report_tmp/still_up.ndjson" \
    || { echo "daemon stopped answering after the oversized frame" >&2; exit 1; }
echo '{"v":1,"id":"q","kind":"shutdown"}' | cargo run -q --release --offline -p mlperf-suite --bin repro -- \
    query --socket "$hostile_sock" >/dev/null
wait "$hostile_pid" \
    || { echo "hostile-smoke daemon did not exit cleanly" >&2; cat "$report_tmp/serve_hostile.log" >&2; exit 1; }

echo "tier-1 gate passed"
