#!/usr/bin/env python3
"""Do two sets of runs agree within the benchmark's own bounds?

    python3 benchmarks/perf/compare.py A.jsonl B.jsonl

A and B are files written by ``run.py --out`` (one JSON line per workload
run; untraced runs only are read).  For every workload x end-to-end metric
this prints both medians, how much worse B is than A as a share of A, the
spread (first to third quartile over the median, the wider of the two
sides) and the bound from BENCHMARK.json, and marks the pair

    ok          B is not worse than A by more than the bound
    worse       it is
    unresolved  the spread is wider than the bound, so the runs cannot tell
                (unless every B sample is better than every A sample)

``setup_s`` is never ``unresolved``: it is measured once per repetition, so
its spread is printed but, as in the driver's own check, only its median is
held to the bound.

With four or more runs of a workload in a file the samples are the runs'
reported values; with fewer they are the per-repetition values, so two
single back-to-back runs can still be compared.  Exit code 1 unless every
pair is ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from run import load_contract, rep_metrics


def load(path: str) -> dict:
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            result = json.loads(line)
            if "end_to_end" in result:
                runs[result["workload"]].append(result)
    return runs


def samples(runs: list, metric: str) -> list:
    if len(runs) >= 4:
        return [run["end_to_end"][metric] for run in runs]
    return [rep_metrics(rep)[metric] for run in runs for rep in run["reps"]]


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0  # a single smoke repetition: nothing to spread
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(a: list, b: list, metric: dict) -> tuple:
    """(how much worse B's median is, as a share of A's; spread; mark)."""
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base = statistics.median(a)
    worse = sign * (statistics.median(b) - base) / base
    wide = max(spread(a), spread(b))
    if wide > bound and metric["name"] != "setup_s":
        b_wins = max(sign * v for v in b) < min(sign * v for v in a)
        return worse, wide, "ok" if b_wins else "unresolved"
    return worse, wide, "worse" if worse > bound else "ok"


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    contract = load_contract()
    left, right = load(argv[1]), load(argv[2])
    disagreements = 0
    print(
        f"{'workload':<16}{'metric':<13}{'A median':>12}{'B median':>12}"
        f"{'B worse by':>12}{'spread':>9}{'bound':>8}  verdict"
    )
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in left or workload not in right:
            continue
        for metric in contract["end_to_end"]:
            a = samples(left[workload], metric["name"])
            b = samples(right[workload], metric["name"])
            worse, wide, mark = verdict(a, b, metric)
            disagreements += mark != "ok"
            print(
                f"{workload:<16}{metric['name']:<13}{statistics.median(a):>12.4f}"
                f"{statistics.median(b):>12.4f}{worse:>+12.2%}{wide:>9.2%}"
                f"{metric['bound']:>8.0%}  {mark}  (n={len(a)},{len(b)} {metric['unit']})"
            )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
