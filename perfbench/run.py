#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

The harness is a Rust package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It builds offline into
$CARGO_TARGET_DIR (default: .bench_build). The harness's standard output
passes through unchanged; its last line is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run measures for --seconds, plus set-up and checks; a run that is
# still going well past that has hung.
RUN_TIMEOUT_S = 175


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "crates", "incr", "Cargo.toml")):
        print("perfbench: the repository's crates are not next to perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
