#!/usr/bin/env python3
"""Builds and runs the controller benchmark.

    python3 perfbench/run.py --workload steady_mux|cold_grid|failover \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is a CMake package of its
own (perfbench/CMakeLists.txt) that compiles the checkout's library sources;
it is built into $CARGO_TARGET_DIR (default .bench_build) on first use and
brought up to date on every run. Build output goes to stderr, so the last
line of stdout is always the benchmark's JSON result. A failed build exits
non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    for cmd in (["cmake", "-S", HERE, "-B", build_dir],
                ["cmake", "--build", build_dir, "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([os.path.join(build_dir, "ldr_bench")]
                          + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
