#!/usr/bin/env python3
"""Compare two checkouts on the wall-clock benchmark in alternating pairs.

Usage:
  tools/perf_pairs.py --parent DIR --change DIR [--pairs 10] [--seconds 20]
      [--seed0 1] [--workload NAME ...] [--claim WORKLOAD:METRIC ...]
      [--build-root DIR] [--json OUT]

Pair i runs `perfbench/run.py --workload W --seed (seed0 + i)` once in each
checkout, the parent first on even pairs and the change first on odd ones,
so a slow phase of the host lands on both sides alike. Each side builds
into its own CARGO_TARGET_DIR under --build-root (a first untimed run per
side does the build). The end-to-end metrics, their direction and their
bounds come from BENCHMARK.json in the change checkout; nothing under
perfbench/ is touched.

For every workload and end-to-end metric it prints both sides' median
[q1-q3], the change's delta against the parent's median and the pairs the
change won. It flags:
  - a --claim that misses the rule: the change wins at least 9 of every 10
    pairs, and its median is better than the parent's by more than the
    parent's interquartile range;
  - any metric whose change median is worse than the parent median by more
    than the metric's bound, and any workload where ops failed or a
    correctness check did not hold.
The exit code is 1 when anything is flagged.
"""
import argparse
import json
import math
import os
import subprocess
import sys


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def run_bench(checkout, build_dir, workload, seed, seconds):
    """One perfbench run; returns its result JSON (the last stdout line)."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        sys.exit("perf_pairs: no result from %s (%s), exit %d\n%s"
                 % (checkout, workload, proc.returncode, proc.stderr[-2000:]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("perf_pairs: unparsable result from %s (%s): %s"
                 % (checkout, workload, lines[-1][:200]))
    result["exit_code"] = proc.returncode
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed0", type=int, default=1,
                        help="seed of the first pair; pair i uses seed0 + i")
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable; default: all in "
                             "BENCHMARK.json)")
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC the change claims to improve "
                             "(repeatable)")
    parser.add_argument("--build-root", default=None,
                        help="CARGO_TARGET_DIR root, one subdirectory per "
                             "side (default: <change>/.bench_build/perf_pairs)")
    parser.add_argument("--json", default=None,
                        help="write every run's metrics to this file")
    args = parser.parse_args()

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    build_root = os.path.abspath(args.build_root or os.path.join(
        sides["change"], ".bench_build", "perf_pairs"))
    build_dirs = {side: os.path.join(build_root, side) for side in sides}

    for side, checkout in sides.items():
        print("building %s (%s)" % (side, checkout), file=sys.stderr)
        run_bench(checkout, build_dirs[side], workloads[0], 0, 0.5)

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result = run_bench(sides[side], build_dirs[side], workload,
                                   seed, args.seconds)
                runs[workload][side].append(result)
                p50 = result.get("metrics", {}).get("op_p50_us", {})
                print("pair %d seed %d %-10s %-6s op_p50_us %s" %
                      (i, seed, workload, side, p50.get("value")),
                      file=sys.stderr)

    claims = {tuple(c.split(":", 1)) for c in args.claim}
    flagged = []
    for workload in workloads:
        print("\n%s (%d pairs, %g s, seeds %d-%d)" %
              (workload, args.pairs, args.seconds, args.seed0,
               args.seed0 + args.pairs - 1))
        for side in sides:
            bad = [r for r in runs[workload][side]
                   if not r.get("correct") or r.get("failed", 0) != 0
                   or r["exit_code"] != 0]
            if bad:
                flagged.append("%s: %d %s run(s) failed or were incorrect"
                               % (workload, len(bad), side))
        rows = [("metric", "parent median [q1-q3]", "change median [q1-q3]",
                 "delta", "wins", "")]
        for metric in metrics:
            name = metric["name"]
            lower = metric["better"] == "lower"
            values = {}
            for side in sides:
                values[side] = [r["metrics"][name]["value"]
                                for r in runs[workload][side]
                                if name in r.get("metrics", {})]
            if len(values["parent"]) != args.pairs or \
                    len(values["change"]) != args.pairs:
                continue  # the workload does not report this metric
            stats = {side: (percentile(v, 0.5), percentile(v, 0.25),
                            percentile(v, 0.75))
                     for side, v in values.items()}
            base = stats["parent"][0]
            delta = (stats["change"][0] - base) / base if base else 0.0
            wins = sum(1 for p, c in zip(values["parent"], values["change"])
                       if (c < p if lower else c > p))
            notes = []
            worse = delta if lower else -delta
            if worse > metric["bound"]:
                notes.append("WORSE THAN BOUND %g" % metric["bound"])
                flagged.append("%s %s: %+.1f%% against a bound of %g"
                               % (workload, name, 100 * delta, metric["bound"]))
            if (workload, name) in claims:
                iqr = stats["parent"][2] - stats["parent"][1]
                gap = (base - stats["change"][0]) if lower \
                    else (stats["change"][0] - base)
                if wins * 10 < 9 * args.pairs or gap <= iqr:
                    notes.append("CLAIM MISSED")
                    flagged.append(
                        "%s %s: claim missed (%d/%d wins, gap %.4g vs parent "
                        "IQR %.4g)" % (workload, name, wins, args.pairs, gap, iqr))
                else:
                    notes.append("claim holds")
            rows.append((name, "%.4g [%.4g-%.4g]" % stats["parent"],
                         "%.4g [%.4g-%.4g]" % stats["change"],
                         "%+.1f%%" % (100 * delta),
                         "%d/%d" % (wins, args.pairs), " ".join(notes)))
        widths = [max(len(row[c]) for row in rows) for c in range(5)]
        for row in rows:
            print("  " + "  ".join(cell.ljust(width) for cell, width
                                   in zip(row, widths)) + "  " + row[5])

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"pairs": args.pairs, "seconds": args.seconds,
                       "seed0": args.seed0, "runs": runs}, f, indent=1)
    if flagged:
        print("\nflagged:")
        for line in flagged:
            print("  " + line)
        sys.exit(1)
    print("\nnothing flagged")


if __name__ == "__main__":
    main()
