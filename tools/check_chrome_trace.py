#!/usr/bin/env python3
"""Check a Chrome trace-event JSON file written by the span exporter.

The file must parse, every B event must have a matching E on the same
(pid, tid) in LIFO order, and the named span categories and "otherData"
entries must be present.

Usage:
  tools/check_chrome_trace.py TRACE.json [--category CAT ...]
      [--min-processes N] [--other-data KEY ...]
"""
import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    parser.add_argument("--category", action="append", default=[],
                        help="span category that must appear (repeatable)")
    parser.add_argument("--min-processes", type=int, default=1,
                        help="least number of pids that must record spans")
    parser.add_argument("--other-data", action="append", default=[],
                        help="key that must appear under otherData (repeatable)")
    args = parser.parse_args()

    with open(args.trace) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    assert events, "empty traceEvents"
    stacks = {}
    begins = ends = 0
    for ev in events:
        ph = ev["ph"]
        key = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            begins += 1
            stacks.setdefault(key, []).append(ev["name"])
            assert ev["ts"] >= 0, f"negative ts in {ev}"
        elif ph == "E":
            ends += 1
            stack = stacks.get(key)
            assert stack, f"E without open B on {key}: {ev}"
            top = stack.pop()
            assert top == ev["name"], \
                f"mismatched E on {key}: {ev['name']} != {top}"
    assert begins == ends, f"unbalanced: {begins} B vs {ends} E"
    for key, stack in stacks.items():
        assert not stack, f"unclosed spans on {key}: {stack}"
    cats = {ev.get("cat") for ev in events}
    for needed in args.category:
        assert needed in cats, f"missing span category {needed!r}"
    pids = {ev["pid"] for ev in events if ev["ph"] in "BE"}
    assert len(pids) >= args.min_processes, \
        f"expected spans from at least {args.min_processes} sites, got {pids}"
    other = doc.get("otherData", {})
    for needed in args.other_data:
        assert needed in other, f"missing otherData entry {needed!r}"
    print(f"{args.trace}: {begins} spans well-nested across {len(pids)} "
          f"processes, categories OK")


if __name__ == "__main__":
    sys.exit(main())
