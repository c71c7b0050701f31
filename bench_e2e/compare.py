#!/usr/bin/env python3
"""Runs sets of bench_e2e runs and compares them.

    python3 bench_e2e/compare.py sweep DIR [--seeds 1-10] [--workloads heat,store]
                                           [--trace 0|1] [--seconds S]
        Runs bench_e2e/run.py for every workload x seed and keeps each run's
        output as DIR/<workload>.<seed>.t<trace>.log, then prints the spread
        report below.

    python3 bench_e2e/compare.py spread DIR
        Per workload x metric: the median, the quartiles, and the distance
        between the quartiles as a share of the median, next to the metric's
        bound in BENCHMARK.json.  A set is steady when every spread (except
        setup_s, which is compared by median only) is well inside its bound.

    python3 bench_e2e/compare.py diff BASE NEW
        Per workload x metric: both medians and quartiles and a verdict.
        "worse" means the new median is worse than the base median by more
        than the bound; "better" means the new run beats the base run on at
        least 9 of 10 seeds and the medians differ by more than the base
        runs' own interquartile distance; "unresolved" means the base spread
        is wider than the bound, so neither can be told apart.  Metrics
        without a bound (the per-layer ones) get only their change.  The
        delivery digests of runs with the same seed must be identical.

Run from the repository root.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_runs(directory):
    """{(workload, trace): {seed: (result, digest)}} from a sweep directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.log"))):
        workload, seed, trace = os.path.basename(path)[:-len(".log")].split(".")
        with open(path) as f:
            lines = f.read().rstrip("\n").split("\n")
        digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
        runs.setdefault((workload, trace), {})[int(seed)] = (json.loads(lines[-1]), digest)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(runs, name):
    return {seed: r["metrics"][name]["value"] for seed, (r, _) in runs.items()
            if name in r["metrics"]}


def spread(directory):
    _, metrics = load_spec()
    ok = True
    for (workload, trace), runs in sorted(load_runs(directory).items()):
        bad = [s for s, (r, _) in runs.items() if not r["correct"] or r["failed"]]
        print(f"\n{workload} (trace {trace}): {len(runs)} runs"
              + (f", INCORRECT seeds {bad}" if bad else ", all correct"))
        ok &= not bad
        print(f"  {'metric':38} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>7}")
        names = next(iter(runs.values()))[0]["metrics"].keys()
        for name in names:
            vals = list(values_of(runs, name).values())
            q1, med, q3 = quartiles(vals)
            share = (q3 - q1) / abs(med) if med else float("nan")
            bound = metrics.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                flag = "  > bound/3"
                ok &= share <= bound
            print(f"  {name:38} {med:14.6g} {q1:14.6g} {q3:14.6g} {share:8.2%} "
                  f"{'' if bound is None else f'{bound:.0%}':>7}{flag}")
    return ok


def verdict(base, new, bound, lower_better):
    """Base and new are {seed: value} over the same seeds."""
    seeds = sorted(set(base) & set(new))
    b = [base[s] for s in seeds]
    n = [new[s] for s in seeds]
    if b == n:
        return "same"
    sign = 1 if lower_better else -1
    b_q1, b_med, b_q3 = quartiles(b)
    _, n_med, _ = quartiles(n)
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) < 0)
    if wins >= 0.9 * len(seeds) and abs(n_med - b_med) > b_q3 - b_q1:
        return "better"
    if bound is None:
        return ""
    worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    base_spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    if base_spread > bound and not all(sign * (x - y) < 0 for x in n for y in b):
        return "unresolved"
    return "worse" if worse > bound else "same"


def diff(base_dir, new_dir):
    _, metrics = load_spec()
    base_runs, new_runs = load_runs(base_dir), load_runs(new_dir)
    ok = True
    for key in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[key], new_runs[key]
        seeds = sorted(set(base) & set(new))
        digests = [s for s in seeds if base[s][1] != new[s][1]]
        print(f"\n{key[0]} (trace {key[1]}): {len(seeds)} paired seeds, digests "
              + ("identical" if not digests else f"DIFFER for seeds {digests}"))
        ok &= not digests
        print(f"  {'metric':38} {'base median':>14} {'new median':>14} {'change':>8}  verdict")
        for name in base[seeds[0]][0]["metrics"]:
            b = {s: v for s, v in values_of(base, name).items() if s in seeds}
            n = {s: v for s, v in values_of(new, name).items() if s in seeds}
            if not b or set(b) != set(n):
                continue
            spec = metrics.get(name, {})
            v = verdict(b, n, spec.get("bound"), spec.get("better", "lower") == "lower")
            ok &= v != "worse"
            b_med, n_med = statistics.median(b.values()), statistics.median(n.values())
            change = (n_med - b_med) / abs(b_med) if b_med else 0.0
            print(f"  {name:38} {b_med:14.6g} {n_med:14.6g} {change:+8.2%}  {v}")
    return ok


def sweep(directory, seeds, workloads, trace, seconds):
    os.makedirs(directory, exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            path = os.path.join(directory, f"{workload}.{seed}.t{trace}.log")
            if out.returncode != 0:
                sys.exit(f"compare.py: {' '.join(cmd)} exited {out.returncode}")
            with open(path, "w") as f:
                f.write(out.stdout)
            print(f"{workload} seed {seed}: {out.stdout.rstrip().splitlines()[-1][:100]}...",
                  flush=True)
    return spread(directory)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("dir")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=None)
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args()

    if args.command == "sweep":
        spec, _ = load_spec()
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in spec["workloads"]])
        ok = sweep(args.dir, parse_seeds(args.seeds), workloads, args.trace,
                   args.seconds or spec["run_seconds"])
    elif args.command == "spread":
        ok = spread(args.dir)
    else:
        ok = diff(args.base, args.new)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
