#!/usr/bin/env python3
"""Compares two sets of benchmark runs; stdlib only.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

A set is a directory of run.py outputs named <workload>-<anything>.out (the
result JSON is each file's last line).  For every workload and end-to-end
metric of BENCHMARK.json the tool prints each set's median and quartiles
and its spread (quartile distance over median, against the metric's bound).
Given two sets it adds, per metric:

  verdict  better / worse / unresolved, by the rule for claiming a gain:
           runs are paired in file-name order; one side must win at least
           nine tenths of the pairs (ties count for neither) and the medians
           must differ by more than the base set's quartile distance.
  bound    ok when the change's median is not worse than the base median by
           more than the metric's bound; otherwise REGRESSED.

Exit status 1 when any metric regressed or a spread exceeds its bound.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(directory):
    """{workload: {metric: [values in file-name order]}}."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        workload = os.path.basename(path).rsplit("-", 1)[0]
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines or not lines[-1].startswith("{"):
            print(f"skipping {path}: no result line", file=sys.stderr)
            continue
        values = {name: metric["value"]
                  for name, metric in json.loads(lines[-1])["metrics"].items()}
        for line in lines:
            if line.startswith("WALLCLOCK "):
                values.update(json.loads(line.split(" ", 1)[1]))
        for name, value in values.items():
            runs.setdefault(workload, {}).setdefault(name, []).append(value)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def worse(change, base, better):
    """How much worse `change` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    delta = (change - base) / abs(base)
    return -delta if better == "higher" else delta


def verdict(base, change, better):
    pairs = list(zip(base, change))
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    q1, median_b, q3 = quartiles(base)
    gap = abs(statistics.median(change) - median_b)
    if gap <= q3 - q1:
        return "unresolved"
    if wins >= 0.9 * len(pairs):
        return "better"
    if losses >= 0.9 * len(pairs):
        return "worse"
    return "unresolved"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    # Printed by run.py but not gated: reported here without a bound.
    for name, better in (("p50_ms", "lower"), ("tail_ms", "lower"),
                         ("sat_rps", "higher")):
        metrics.setdefault(name, {"name": name, "better": better,
                                  "bound": None})
    sets = [load_set(args.base)] + ([load_set(args.change)]
                                    if args.change else [])
    status = 0
    for workload in sorted(sets[0]):
        print(f"== {workload}")
        for name, metric in metrics.items():
            row = [f"  {name:<15}"]
            columns = []
            for runs in sets:
                values = runs.get(workload, {}).get(name)
                if not values:
                    row.append("(missing)")
                    status = 1
                    continue
                q1, median, q3 = quartiles(values)
                spread = (q3 - q1) / abs(median) if median else 0.0
                bound = metric["bound"]
                flag = ""
                if bound is None:
                    flag = " (not gated)"
                elif name != "setup_s" and spread > bound:
                    flag, status = " SPREAD>BOUND", 1
                row.append(f"n={len(values)} median={median:.6g} "
                           f"q1={q1:.6g} q3={q3:.6g} "
                           f"spread={spread:.3f}/{bound}{flag}")
                columns.append(values)
            if len(columns) == 2:
                base, change = columns
                drift = worse(statistics.median(change),
                              statistics.median(base), metric["better"])
                text = (f"verdict={verdict(base, change, metric['better'])}"
                        f" worse_by={drift:+.3f}")
                if metric["bound"] is not None:
                    ok = drift <= metric["bound"]
                    status |= 0 if ok else 1
                    text += f" bound={'ok' if ok else 'REGRESSED'}"
                row.append(text)
            print(" | ".join(row))
    return status


if __name__ == "__main__":
    sys.exit(main())
