#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 rupsbench/run.py --workload convoy_round --seed 1 \
        --seconds 30 --trace 0

The first call configures and builds rupsbench/ (the library sources under
src/ plus the benchmark driver, Release) into $CARGO_TARGET_DIR/rupsbench,
default .bench_build/rupsbench; later calls rebuild incrementally. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. Traced runs write their spans next to the build.
See rupsbench/README.md for workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # The Makefile exists only after a configure that succeeded.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "rupsbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("rupsbench: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "rupsbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "rupsbench")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)
    done = subprocess.run([binary] + sys.argv[1:] + ["--out-dir", build_dir])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
