#!/usr/bin/env python3
"""Diff two bench snapshot files (BENCH_<name>.json, written by a bench
run with --snapshot) and flag per-metric regressions.

Usage:
    bench_diff.py BASELINE.json CURRENT.json [--threshold PCT]
                  [--ignore GLOB]... [--quiet]

Prints a per-metric delta table and exits nonzero when any metric moved
by more than the threshold (default 10%) in either direction — a bench
that suddenly delivers more messages is as suspicious as one delivering
fewer.  Wall-clock keys (*wall_us, *us_per_event*) are noisy on shared
CI runners, so they are reported but never fail the diff; use --ignore
to mute other known-noisy keys (fnmatch globs, e.g. 'scale.*').

Timing-independent counters (delivered, transit, matches, ...) are the
contract: they are deterministic replays of the simulation, so any
drift is a real behaviour change, not noise.
"""

import argparse
import fnmatch
import json
import sys

# Keys matching these globs are informational: reported, never fatal.
# The profiler's busy_us keys are real wall-clock attribution, so they
# vary with runner load like wall_us.
# The codec.* and batch.* keys (C7 section e, C1 section f) are byte
# and packet counts from the deterministic simulator — deliberately
# absent here so the >=2x binary reduction and the batching
# packets-per-delivery win stay gated.
NOISY = ["*wall_us", "*us_per_event*", "*events_per_sec*", "*speedup*",
         "*busy_us", "*us_per_doc*"]


def load_counters(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        sys.exit(f"bench_diff: {path} has no 'counters' object")
    return counters


def matches_any(key, globs):
    return any(fnmatch.fnmatch(key, g) for g in globs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline BENCH_*.json")
    ap.add_argument("current", help="current BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="max allowed change in %% (default: 10)")
    ap.add_argument("--ignore", action="append", default=[],
                    help="fnmatch glob of keys to skip entirely (repeatable)")
    ap.add_argument("--quiet", action="store_true",
                    help="print only regressions and the summary line")
    args = ap.parse_args()

    base = load_counters(args.baseline)
    cur = load_counters(args.current)

    keys = sorted(set(base) | set(cur))
    rows = []          # (key, base, cur, delta_pct, status)
    regressions = []
    for key in keys:
        if matches_any(key, args.ignore):
            continue
        b, c = base.get(key), cur.get(key)
        if b is None or c is None:
            status = "added" if b is None else "removed"
            rows.append((key, b, c, None, status))
            # A vanished metric is a failed contract; a new one is fine.
            if status == "removed":
                regressions.append(key)
            continue
        if b == c:
            delta = 0.0
        elif b == 0:
            delta = float("inf")
        else:
            delta = (c - b) / b * 100.0
        noisy = matches_any(key, NOISY)
        over = delta != 0.0 and abs(delta) > args.threshold
        status = "ok"
        if over:
            status = "noisy" if noisy else "REGRESSION"
        if status == "REGRESSION":
            regressions.append(key)
        rows.append((key, b, c, delta, status))

    width = max([len(k) for k, *_ in rows], default=10)
    header = f"{'metric':<{width}}  {'baseline':>14}  {'current':>14}  {'delta':>9}  status"
    printed_header = False
    for key, b, c, delta, status in rows:
        if args.quiet and status in ("ok", "added"):
            continue
        if not printed_header:
            print(header)
            print("-" * len(header))
            printed_header = True
        fb = "-" if b is None else str(b)
        fc = "-" if c is None else str(c)
        fd = ("-" if delta is None
              else "inf%" if delta == float("inf")
              else f"{delta:+.1f}%")
        print(f"{key:<{width}}  {fb:>14}  {fc:>14}  {fd:>9}  {status}")

    compared = sum(1 for _, b, c, *_ in rows if b is not None and c is not None)
    print(f"\n{compared} metrics compared, threshold {args.threshold:.0f}%: "
          f"{len(regressions)} regression(s)")
    if regressions:
        for key in regressions:
            print(f"  FAIL {key}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
