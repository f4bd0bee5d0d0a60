#!/usr/bin/env python3
"""Build the perfbench harness from this checkout's sources and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-cold|sweep-warm|service-open \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The harness (perfbench/CMakeLists.txt) compiles ../src into a Release build
under .bench_build/perfbench. Build output goes to stderr; the harness's
stdout is passed through, and its last line is the JSON result. The exit
status is the harness's: 0 when every output check passed. When the build
fails, nothing is printed on stdout and the status is 2.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sweep-cold", "sweep-warm", "service-open")
# One run stays well inside the 180 s a benchmark run may take.
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run(command):
    """Runs the harness, relays its stdout, and returns its exit status."""
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness's own tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 2
        return run([os.path.join(BUILD, "perfbench_selftest")])
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build("perfbench"):
        return 2
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    return run([os.path.join(BUILD, "perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out-dir", work,
                "--golden", os.path.join(HERE, "golden.txt")])


if __name__ == "__main__":
    sys.exit(main())
