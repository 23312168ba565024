"""Crawl-throughput snapshot: the ROADMAP perf-trajectory pin.

Runs the standard simnet crawl at three population scales (N = 1k, 10k
and 100k), measures wall-clock throughput, and writes
``BENCH_crawl.json`` at the repo root.  Commit the refreshed snapshot
whenever crawl-path performance changes materially; successive snapshots
are the perf trajectory.

    PYTHONPATH=src python benchmarks/bench_crawl.py [--out PATH]
    PYTHONPATH=src python benchmarks/bench_crawl.py --check [--tolerance 0.25]

Reported per scale (all per wall-clock second):

* ``nodes_per_sec``   — distinct NodeDB entries harvested
* ``dials_per_sec``   — dial attempts completed
* ``events_per_sec``  — journal events written (dial + companion records)
* ``phases``          — per-subsystem wall-time attribution from the
  hot-path profiler (self seconds, calls, share of attributed time), so
  the event-core rework optimizes measured hot paths, not guesses

Every scale crawls with ``enable_gc_hygiene()``: the fully-built world is
frozen into the permanent GC generation and collections run as scheduled
clock events, so the measurement prices the crawl, not ambient collector
rescans of a static population (essential at N = 100k).

``--check`` re-runs the gated workloads (1k and 10k — 100k is a
snapshot-only scale, too slow for a CI gate) and compares against the
committed snapshot instead of overwriting it: a >25% (``--tolerance``)
drop in ``nodes_per_sec`` at any gated scale exits nonzero.  The
workload itself is deterministic (seeded world, seeded crawler, fixed
sim-day budget); only the wall-clock denominators vary by machine, so
the ratios between snapshots on one machine are comparable.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry.journal import iter_events
from repro.telemetry.profiler import Profiler

#: (label, world size, simulated crawl days); 100k runs a shorter sim-day
#: budget — the point is wall-cost per node at fleet scale, not replaying
#: a quarter day against 100k nodes in CI
SCALES = (("1k", 1_000, 0.25), ("10k", 10_000, 0.25), ("100k", 100_000, 0.05))

#: scales --check gates; 100k stays snapshot-only
CHECK_SCALES = ("1k", "10k")

#: regression gate for --check: fail on a >25% nodes/sec drop
DEFAULT_TOLERANCE = 0.25


def bench_scale(total_nodes: int, days: float) -> dict:
    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=total_nodes, seed=2018, measurement_days=1.0
            ),
            seed=7,
        )
    )
    # measured configuration: frozen world + scheduled collections, so the
    # timer prices the crawl rather than ambient GC rescans of the build
    world.enable_gc_hygiene()
    config = NodeFinderConfig(seed=1)
    profiler = Profiler()  # wall clock by reference: real time attribution
    try:
        with tempfile.TemporaryDirectory() as telemetry_dir:
            started = time.perf_counter()
            fleet = run_fleet(
                world,
                instance_count=1,
                days=days,
                config=config,
                telemetry_dir=telemetry_dir,
                profiler=profiler,
            )
            elapsed = time.perf_counter() - started
            events = sum(
                1
                for path in sorted(Path(telemetry_dir).glob("*.jsonl"))
                for _ in iter_events(path)
            )
    finally:
        # un-freeze between scales so one world's pinned objects don't
        # linger in the permanent generation for the next measurement
        gc.unfreeze()
        gc.collect()
    db = fleet.merged_db
    stats = fleet.merged_stats
    dials = int(
        stats.total("dynamic_dial_attempts") + stats.total("static_dial_attempts")
    )
    attributed = sum(stat.self_time for stat in profiler.stats.values()) or 1.0
    phases = {
        name: {
            "calls": stat.calls,
            "self_seconds": round(stat.self_time, 4),
            "share": round(stat.self_time / attributed, 4),
        }
        for name, stat in sorted(profiler.stats.items())
    }
    return {
        "world_nodes": total_nodes,
        "sim_days": days,
        "wall_seconds": round(elapsed, 3),
        "db_entries": len(db),
        "dial_attempts": dials,
        "journal_events": events,
        "nodes_per_sec": round(len(db) / elapsed, 1),
        "dials_per_sec": round(dials / elapsed, 1),
        "events_per_sec": round(events / elapsed, 1),
        "phases": phases,
    }


def run_scales(labels: tuple = ()) -> dict:
    """Run every scale (default) or just the ``labels`` subset."""
    snapshot = {
        "benchmark": "simnet-crawl-throughput",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scales": {},
    }
    for label, total_nodes, days in SCALES:
        if labels and label not in labels:
            continue
        print(f"[bench] N={label}: crawling {days} sim-days ...", flush=True)
        snapshot["scales"][label] = bench_scale(total_nodes, days)
        print(f"[bench] N={label}: {snapshot['scales'][label]}", flush=True)
    return snapshot


def check_against(snapshot: dict, committed: dict, tolerance: float) -> int:
    """Compare fresh nodes/sec against the committed pin; 0 = within band.

    Only the ``CHECK_SCALES`` labels gate — the 100k scale is pinned for
    the trajectory but not re-run on every check.
    """
    failures = []
    for label in committed.get("scales", {}):
        if label not in CHECK_SCALES:
            continue
        pinned = committed["scales"][label].get("nodes_per_sec", 0.0)
        fresh = snapshot["scales"].get(label, {}).get("nodes_per_sec", 0.0)
        floor = pinned * (1.0 - tolerance)
        verdict = "ok" if fresh >= floor else "REGRESSION"
        print(
            f"[check] N={label}: {fresh:.1f} nodes/sec vs pinned {pinned:.1f} "
            f"(floor {floor:.1f}) -> {verdict}"
        )
        if fresh < floor:
            failures.append(label)
    if failures:
        print(
            f"[check] FAILED: >{tolerance:.0%} nodes/sec regression at "
            f"{', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print(f"[check] within the {tolerance:.0%} tolerance band at every scale")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_crawl.json"),
        help="snapshot path (default: repo-root BENCH_crawl.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh run against the committed snapshot instead of "
        "overwriting it; exit 1 on a nodes/sec regression beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional nodes/sec drop for --check (default 0.25)",
    )
    args = parser.parse_args()
    out = Path(args.out)
    if args.check:
        if not out.exists():
            print(f"[check] no committed snapshot at {out}", file=sys.stderr)
            return 2
        committed = json.loads(out.read_text(encoding="utf-8"))
        return check_against(run_scales(CHECK_SCALES), committed, args.tolerance)
    snapshot = run_scales()
    out.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    print(f"[bench] wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
