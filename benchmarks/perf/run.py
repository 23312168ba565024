#!/usr/bin/env python3
"""The repo's benchmark: whole-pipeline sim runs, loopback real-stack runs,
and a per-layer stack table.  README.md beside this file says what every
workload and metric means; BENCHMARK.json at the repo root names them.

    python3 benchmarks/perf/run.py                       # all workloads, gated metrics
    python3 benchmarks/perf/run.py --workload live-harvest --seed 7
    python3 benchmarks/perf/run.py --traced              # per-layer metrics
    python3 benchmarks/perf/run.py --out runs.jsonl      # append full results

This process only generates load and adds up: every repetition runs in a
fresh child (``--child``), one at a time, so ``setup_s`` and ``peak_rss_mb``
are clean.  The last line printed for a workload is its result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is
non-zero when any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import self_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: journals, appended-to temp files; inside the checkout, ignored by git,
#: emptied when the run ends
WORK = ROOT / ".bench_work"

#: repetitions behind every gated number; more run when --seconds allows
MIN_REPS = 3

#: the smoke-scale workload that stands in for a family of layers when a
#: traced run of another family must still report those layers
STAND_INS = {
    "sim": "sim-crawl-1k5",
    "live-harvest": "live-harvest",
    "live-discovery": "live-discovery",
}

#: pooled p90 of the operation latency: with ~160 samples in a traced run
#: it is the highest percentile that keeps ten samples beyond it
P90_METRICS = {
    "live-harvest": "wire.harvest_p90_ms",
    "live-discovery": "discovery.lookup_p90_ms",
}


def family_of(workload: str) -> str:
    return "sim" if workload.startswith("sim-") else workload


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1]


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- children -------------------------------------------------------------------


def child_main(spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    if spec["kind"] == "stack":
        from stack import run_stack

        result = run_stack(spec)
    else:
        from workloads import run_rep

        result = run_rep(spec)
    print(json.dumps(result))
    return 0


def spawn(spec: dict) -> dict:
    """Run one child to completion and return the result it printed."""
    spec = dict(spec, spawned_at=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec)],
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {spec} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


# -- one workload ---------------------------------------------------------------


def rep_metrics(rep: dict) -> dict:
    """One repetition's own value of every gated metric."""
    return {
        "setup_s": rep["setup_s"],
        "op_p50_ms": statistics.median(rep["ops_ms"]),
        "ops_per_s": len(rep["ops_ms"]) / rep["timed_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def end_to_end(reps: list, contract: dict) -> dict:
    """The gated metrics: each one's best value over the repetitions.

    Best, not median: on a shared host interference only ever slows a
    repetition (measured here: the same seed's pipeline took 5.9 s and, a
    minute later, 8.5 s), so the quietest repetition is the closest to what
    the program costs, and ten runs of it spread half as wide.
    """
    per_rep = [rep_metrics(rep) for rep in reps]
    return {
        metric["name"]: (min if metric["better"] == "lower" else max)(
            values[metric["name"]] for values in per_rep
        )
        for metric in contract["end_to_end"]
    }


def check(reps: list) -> tuple:
    """(attempted, failures) over the repetitions' correctness checks."""
    attempted = sum(rep["attempted"] for rep in reps)
    failures = [
        f"rep {rep['rep']}: {failure}" for rep in reps for failure in rep["failures"]
    ]
    for rep in reps:
        # a deterministic simulator must produce the same journals and
        # report on every repetition of one seed
        if "fingerprint" in rep:
            attempted += 1
            if rep["fingerprint"] != reps[0]["fingerprint"]:
                failures.append(f"rep {rep['rep']}: sim_fingerprint differs from rep 0")
    return attempted, failures


def run_workload(name: str, args: argparse.Namespace, contract: dict, workdir: str) -> dict:
    scale = "smoke" if args.smoke else "full"
    base = {
        "kind": "rep",
        "workload": name,
        "scale": scale,
        "seed": args.seed,
        # a live repetition measures for its share of the run; a sim
        # repetition is one pipeline however long that takes
        "seconds": args.seconds / MIN_REPS,
        "workdir": workdir,
        "corrupt_journal": args.corrupt_journal,
    }
    result = {
        "workload": name,
        "scale": scale,
        "seed": args.seed,
        "trace": args.trace,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "load_1m": os.getloadavg()[0],
        },
    }
    if args.trace:
        reps = [
            spawn(dict(base, traced=False, rep=0)),
            spawn(dict(base, traced=True, rep=1)),
        ]
        others = [
            spawn(dict(base, workload=stand_in, scale="smoke", traced=True, rep=0))
            for family, stand_in in STAND_INS.items()
            if family != family_of(name)
        ]
        stack = spawn({"kind": "stack", "scale": scale, "workdir": workdir})
        layers, sources = {}, {}
        for part in (*others, reps[1], stack):
            layers.update(part["layers"])
            sources.update(dict.fromkeys(part["layers"], f"{part['workload']}@{part['scale']}"))
        pools = {part["workload"]: [part] for part in others}
        pools[name] = reps
        for workload, metric in P90_METRICS.items():
            pooled = pools[workload]
            layers[metric] = p90([ms for rep in pooled for ms in rep["ops_ms"]])
            sources[metric] = f"{workload}@{pooled[0]['scale']}"
        layers["telemetry.profiler_overhead_share"] = (
            statistics.median(reps[1]["ops_ms"]) / statistics.median(reps[0]["ops_ms"]) - 1
        )
        sources["telemetry.profiler_overhead_share"] = f"{name}@{scale}"
        result.update(layers=layers, sources=sources, parts=[*others, stack])
    else:
        reps = []
        started = time.monotonic()
        while len(reps) < (1 if args.smoke else MIN_REPS) or (
            not args.smoke
            and (time.monotonic() - started) * (1 + 1 / len(reps)) <= args.seconds
        ):
            reps.append(spawn(dict(base, traced=False, rep=len(reps))))
        result["end_to_end"] = end_to_end(reps, contract)
    attempted, failures = check(reps)
    result.update(reps=reps, attempted=attempted, failures=failures)
    return result


# -- reporting ------------------------------------------------------------------


def report(result: dict, contract: dict) -> dict:
    """Print a workload's result for a reader; return its contract object."""
    name = result["workload"]
    why = next(w["why"] for w in contract["workloads"] if w["name"] == name)
    host = result["host"]
    reps = result["reps"]
    print(f"== {name}  seed={result['seed']} scale={result['scale']} trace={result['trace']}")
    print(f"   why: {why}")
    print(
        f"   host: nproc={host['nproc']} python={host['python']} "
        f"load_1m={host['load_1m']:.2f} {host['platform']}"
    )
    for rep in reps:
        print(
            f"   rep {rep['rep']}{' traced' if rep['traced'] else ''}: "
            f"setup_s={rep['setup_s']:.3f} ops={len(rep['ops_ms'])} "
            f"timed_s={rep['timed_s']:.3f} peak_rss_mb={rep['peak_rss_mb']:.1f} "
            f"load_1m={rep['load_1m']:.2f}{' NOISY' if rep['noisy'] else ''}"
        )
    if result["trace"]:
        section, values = "per_layer", result["layers"]
        print("   per-layer metrics (host time; source workload@scale):")
    else:
        section, values = "end_to_end", result["end_to_end"]
        print("   end-to-end metrics (host wall time, untraced, best repetition):")
    metrics = {}
    for metric in contract[section]:
        value = values[metric["name"]]  # KeyError: a named metric was not measured
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        source = f"  <- {result['sources'][metric['name']]}" if result["trace"] else ""
        print(f"     {metric['name']:<38} {value:>14.4f} {metric['unit']}{source}")
    if result["trace"]:
        own = ", ".join(f"{k}={v:.3f}" for k, v in self_seconds(reps[1]["spans"]).items())
        print(f"   span self seconds (traced rep, span minus children): {own}")
    ops = [ms for rep in reps for ms in rep["ops_ms"]]
    if len(ops) >= 100:
        print(f"     op_p90_ms (n={len(ops)}) {p90(ops):.4f} ms")
    failed = len(result["failures"])
    print(f"   ops_failed_share {failed / result['attempted']:.4f} ({failed}/{result['attempted']})")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    if "fingerprint" in reps[0]:
        print(f"   sim_fingerprint {json.dumps(reps[0]['fingerprint'], sort_keys=True)}")
    return {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, help="measuring time per workload (default: run_seconds)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one repetition")
    parser.add_argument("--out", help="append each workload's full result as a JSON line")
    parser.add_argument(
        "--corrupt-journal",
        action="store_true",
        help="self-test: tear a journal line before replay; the run must fail",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child_main(json.loads(args.child))
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    failed = 0
    try:
        for name in [args.workload] if args.workload else names:
            result = run_workload(name, args, contract, workdir)
            summary = report(result, contract)
            failed += summary["failed"]
            if args.out:
                with open(args.out, "a", encoding="utf-8") as stream:
                    stream.write(json.dumps(result) + "\n")
            print(json.dumps(summary), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
