#!/usr/bin/env python3
"""Build and run the OBIWAN wall-clock benchmark.

    python3 perfbench/run.py --workload fault_walk --seed 1 --seconds 10 --trace 0

`--workload all` runs the three workloads one after another, one process
each, and fails if any of them fails.

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR, or
.bench_build when unset, and later runs reuse that build. Build output goes
to stderr; the benchmark's stdout is passed through, so its last line is the
JSON result. The exit code is the benchmark's (non-zero when a correctness
check fails) or non-zero when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rmi_invoke", "fault_walk", "put_push")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure once, then build incrementally. Returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    failed = 0
    for workload in workloads:
        command = [binary,
                   "--workload", workload,
                   "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--trace", str(args.trace),
                   "--trace-out",
                   os.path.join(build_dir, "trace_%s.json" % workload)]
        sys.stdout.flush()
        try:
            code = subprocess.run(command, cwd=ROOT,
                                  timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S))
        failed = failed or code
    sys.exit(failed)


if __name__ == "__main__":
    main()
