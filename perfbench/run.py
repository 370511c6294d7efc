#!/usr/bin/env python3
"""Build the `repro` binary and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both builds are release builds into $CARGO_TARGET_DIR (default `.bench_build`);
they are no-ops when nothing changed. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

# What the benchmark builds and checks against; without them there is nothing
# to measure, so the run fails before printing a result.
REQUIRED = ["Cargo.toml", "crates/core/Cargo.toml", "REPORT.md", "artifacts", "perfbench/Cargo.toml"]


def main() -> int:
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(f"perfbench: run from the repository root (missing: {', '.join(missing)})", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "mlperf-suite", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    env["PERFBENCH_REPRO"] = os.path.join(target, "release", "repro")
    bench = os.path.join(target, "release", "perfbench")
    return subprocess.run([bench] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
