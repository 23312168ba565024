"""One repetition of one workload, run inside a fresh child process.

Imported only by the child (``run.py --child``): importing it imports
``repro``, whose cost is part of ``setup_s``.  Every repetition returns the
same dict shape (see :func:`run_rep`); ``run.py`` turns repetitions into
metrics.

All times are host wall time; the simulated statistics a ``sim-*``
repetition produces are exact counts and go into its ``fingerprint``.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import os
import random
import resource
import statistics
import tempfile
import time
from pathlib import Path

from repro.analysis.ingest import replay_journal, replay_journals
from repro.analysis.report import render_crawl_report
from repro.crypto import PrivateKey
from repro.discovery.protocol import DiscoveryService
from repro.errors import ReproError
from repro.fullnode import start_localhost_network
from repro.nodefinder.database import NodeDB
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.nodefinder.shard import NodeDBWriter
from repro.nodefinder.wire import harvest
from repro.simnet.clock import SECONDS_PER_DAY
from repro.simnet.node import DialOutcome
from repro.simnet.population import PopulationConfig, generate_population
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry.hub import Telemetry
from repro.telemetry.journal import EventJournal, read_events
from repro.telemetry.profiler import Profiler

from spans import NullTracer, Tracer

#: closed-loop clients of ``live-harvest``; the host has 2 cores and both
#: ends of every connection share the one event loop
HARVEST_CLIENTS = 2

#: workload -> scale -> inputs.  ``smoke`` exists for the smoke test and as
#: the stand-in that lets a traced run report the layers its own workload
#: never enters; only ``full`` numbers are comparable between commits.
SCALES = {
    "sim-build-5k": {
        "full": {"nodes": 5000, "days": 0.25, "shards": 1},
        "smoke": {"nodes": 300, "days": 0.05, "shards": 1},
    },
    "sim-crawl-1k5": {
        "full": {"nodes": 1500, "days": 0.75, "shards": 4},
        "smoke": {"nodes": 300, "days": 0.05, "shards": 4},
    },
    "live-harvest": {
        "full": {"nodes": 8, "warmup": 10, "max_ops": None},
        "smoke": {"nodes": 2, "warmup": 1, "max_ops": 6},
    },
    "live-discovery": {
        "full": {"nodes": 8, "warmup": 10, "max_ops": None},
        "smoke": {"nodes": 2, "warmup": 1, "max_ops": 6},
    },
}

#: traced-run layer metric <- hot-path profiler phase (self seconds)
PROFILER_PHASES = {
    "simnet.deliver_incoming_self_s": "world.deliver_incoming",
    "simnet.grow_chain_self_s": "world.grow_chain",
    "simnet.deliver_abusive_self_s": "world.deliver_abusive",
    "nodefinder.lookup_self_s": "scanner.lookup",
    "nodefinder.dial_self_s": "scanner.dial",
    "nodefinder.static_tick_self_s": "scanner.static_tick",
    "nodefinder.fold_self_s": "writer.fold",
}

HARVEST_STAGES = ("connect", "rlpx", "hello", "status", "dao")

#: The simulated network is a fixed dataset, as the live one is (its node
#: keys are fixed): ``bench_crawl``'s population and world seeds.  ``--seed``
#: drives the crawler only -- its identity and lookup targets -- so
#: ``--seed 1`` is ``bench_crawl``'s (2018, 7, 1).  Varying all three made
#: the build-side work itself differ by 8% between seeds, wider than most
#: changes this benchmark has to resolve.
SIM_POPULATION_SEED, SIM_WORLD_SEED = 2018, 7


def _total_days(db: NodeDB) -> float:
    # the derivation `nodefinder analyze` uses, so both reports match
    last = max((entry.last_attempt for entry in db), default=0.0)
    return last / SECONDS_PER_DAY


def _same_db(left: NodeDB, right: NodeDB) -> bool:
    return len(left) == len(right) and all(
        left.get(entry.node_id) == entry for entry in right
    )


def _sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _tear_middle_line(path: Path) -> None:
    """Self-test fault: cut one mid-file journal record in half."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    victim = len(lines) // 2
    lines[victim] = lines[victim][: len(lines[victim]) // 2] + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def sim_rep(spec: dict, params: dict, tracer: Tracer) -> dict:
    """World build -> crawl -> journal replay -> report, then the checks."""
    population = PopulationConfig(
        total_nodes=params["nodes"], seed=SIM_POPULATION_SEED, measurement_days=1.0
    )
    if tracer.enabled:
        # priced alone only in the traced repetition, before the pipeline;
        # the untraced repetitions behind the end-to-end numbers never run it
        with tracer.span("simnet.population"):
            generate_population(population)
    telemetry_dir = Path(tempfile.mkdtemp(dir=spec["workdir"]))
    profiler = Profiler() if tracer.enabled else None
    failures = []
    replayed = report = None
    setup_s = time.monotonic() - spec["spawned_at"]
    started = time.perf_counter()
    with tracer.span("pipeline"):
        with tracer.span("simnet.build"):
            world = SimWorld(WorldConfig(population=population, seed=SIM_WORLD_SEED))
            world.enable_gc_hygiene()
        with tracer.span("nodefinder.crawl"):
            fleet = run_fleet(
                world,
                instance_count=1,
                days=params["days"],
                config=NodeFinderConfig(seed=spec["seed"], shards=params["shards"]),
                telemetry_dir=telemetry_dir,
                profiler=profiler,
            )
        if spec.get("corrupt_journal"):
            _tear_middle_line(fleet.journal_paths[0])
        try:
            with tracer.span("analysis.replay"):
                replayed = replay_journals(fleet.journal_paths)
            with tracer.span("analysis.render"):
                report = render_crawl_report(
                    replayed.db, total_days=_total_days(replayed.db)
                )
        except ReproError as exc:
            failures.append(f"replay raised {type(exc).__name__}: {exc}")
    pipeline_s = time.perf_counter() - started

    live_db = fleet.merged_db
    stats = fleet.merged_stats
    dials = int(
        stats.total("dynamic_dial_attempts") + stats.total("static_dial_attempts")
    )
    if replayed is None:
        failures.append("report not rendered: replay failed")
    else:
        if replayed.skipped or not _same_db(replayed.db, live_db):
            failures.append("replayed NodeDB differs from the live NodeDB")
        if report != render_crawl_report(live_db, total_days=_total_days(live_db)):
            failures.append("report from journals differs from report from live db")
    journal_bytes = sum(path.stat().st_size for path in fleet.journal_paths)
    events = replayed.events_replayed if replayed is not None else 0
    result = {
        "setup_s": setup_s,
        "ops_ms": [pipeline_s * 1000.0],
        "timed_s": pipeline_s,
        "attempted": 2,
        "failures": failures,
        "fingerprint": {
            "db_entries": len(live_db),
            "dial_attempts": dials,
            "journal_events": events,
            "journal_sha256": _sha256_files(fleet.journal_paths),
            "report_sha256": hashlib.sha256((report or "").encode()).hexdigest(),
        },
    }
    if tracer.enabled and replayed is not None:
        with tracer.span("telemetry.journal_read"):
            for path in fleet.journal_paths:
                read_events(path)
        crawl_s = tracer.seconds("nodefinder.crawl")
        replay_s = tracer.seconds("analysis.replay")
        layers = {
            "simnet.population_s": tracer.seconds("simnet.population"),
            "simnet.build_s": tracer.seconds("simnet.build"),
            "nodefinder.crawl_s": crawl_s,
            "nodefinder.crawl_nodes_per_s": len(live_db) / crawl_s,
            "nodefinder.dials_per_s": dials / crawl_s,
            "telemetry.journal_bytes_per_event": journal_bytes / events,
            "telemetry.journal_read_us_per_event": tracer.seconds(
                "telemetry.journal_read"
            )
            / events
            * 1e6,
            "analysis.replay_s": replay_s,
            "analysis.replay_events_per_s": events / replay_s,
            "analysis.render_ms": tracer.seconds("analysis.render") * 1000.0,
        }
        for metric, phase in PROFILER_PHASES.items():
            stat = profiler.stats.get(phase)
            layers[metric] = stat.self_time if stat is not None else 0.0
        result["layers"] = layers
    return result


def _budget(max_ops, seconds):
    """``take()`` grants one more operation until the count or the clock
    runs out; shared by the concurrent clients of one phase."""
    issued = 0
    deadline = None if seconds is None else time.perf_counter() + seconds

    def take() -> bool:
        nonlocal issued
        if max_ops is not None and issued >= max_ops:
            return False
        if deadline is not None and time.perf_counter() >= deadline:
            return False
        issued += 1
        return True

    return take


async def harvest_rep(spec: dict, params: dict, tracer: Tracer) -> dict:
    """Two closed-loop clients harvesting a loopback network round-robin."""
    rng = random.Random(spec["seed"])
    workdir = Path(tempfile.mkdtemp(dir=spec["workdir"]))
    journal = EventJournal.open(workdir / "harvest.jsonl")
    nodes = []
    try:
        with tracer.span("fullnode.start"):
            nodes = await start_localhost_network(params["nodes"])
        telemetry = Telemetry(journal=journal)
        writer = NodeDBWriter(NodeDB(), telemetry=telemetry)
        targets = [node.enode for node in nodes]
        rng.shuffle(targets)
        turn = itertools.cycle(targets)
        keys = [PrivateKey.from_bytes(rng.randbytes(32)) for _ in range(HARVEST_CLIENTS)]
        genesis = nodes[0].chain.genesis_hash
        ops = []  # (latency seconds, ok)

        async def client(key, take, parent) -> None:
            while take():
                target = next(turn)
                began = time.perf_counter()
                result = await harvest(target, key, telemetry=telemetry)
                ended = time.perf_counter()
                tracer.add("wire.harvest", began, ended, parent)
                writer.submit(result)
                ok = (
                    result.outcome is DialOutcome.FULL_HARVEST
                    and result.node_id == target.node_id
                    and result.genesis_hash == genesis
                )
                ops.append((ended - began, ok))

        async def phase(max_ops, seconds, parent) -> None:
            take = _budget(max_ops, seconds)
            await asyncio.gather(*(client(key, take, parent) for key in keys))

        await phase(params["warmup"], None, None)
        del ops[:]
        setup_s = time.monotonic() - spec["spawned_at"]
        started = time.perf_counter()
        with tracer.span("timed") as timed:
            await phase(params["max_ops"], spec["seconds"], timed)
        timed_s = time.perf_counter() - started
    finally:
        journal.close()
        for node in nodes:
            await node.stop()

    failures = [
        f"harvest {i} was not a full harvest"
        for i, (_, ok) in enumerate(ops)
        if not ok
    ]
    # the journal the harvests wrote must fold back into the writer's NodeDB
    if not _same_db(replay_journal(workdir / "harvest.jsonl").db, writer.db):
        failures.append("replayed harvest journal differs from the folded NodeDB")
    result = {
        "setup_s": setup_s,
        "ops_ms": [latency * 1000.0 for latency, _ in ops],
        "timed_s": timed_s,
        "attempted": len(ops) + 1,
        "failures": failures,
    }
    if tracer.enabled:
        dials = [
            event.fields.get("stages") or {}
            for event in read_events(workdir / "harvest.jsonl")
            if event.type == "dial"
        ][params["warmup"] :]
        layers = {"fullnode.start_s": tracer.seconds("fullnode.start")}
        for stage in HARVEST_STAGES:
            layers[f"wire.stage_{stage}_p50_ms"] = (
                statistics.median(d.get(stage, 0.0) for d in dials) * 1000.0
            )
        result["layers"] = layers
    return result


async def discovery_rep(spec: dict, params: dict, tracer: Tracer) -> dict:
    """One bonded discv4 client doing sequential lookups of seeded targets."""
    rng = random.Random(spec["seed"])
    service = DiscoveryService(PrivateKey.from_bytes(rng.randbytes(32)))
    nodes = []
    try:
        with tracer.span("fullnode.start"):
            nodes = await start_localhost_network(params["nodes"])
        service.bootstrap_nodes.append(nodes[0].enode)
        await service.listen()
        await service.bond(nodes[0].enode)
        await service.self_lookup()
        live_ids = {node.node_id for node in nodes}
        ops = []

        async def lookups(max_ops, seconds, parent) -> None:
            take = _budget(max_ops, seconds)
            while take():
                target = rng.randbytes(64)
                began = time.perf_counter()
                found = await service.lookup(target)
                ended = time.perf_counter()
                tracer.add("discovery.lookup", began, ended, parent)
                ops.append((ended - began, {e.node_id for e in found} == live_ids))

        await lookups(params["warmup"], None, None)
        del ops[:]
        datagrams_before = sum(service.stats.values())
        setup_s = time.monotonic() - spec["spawned_at"]
        started = time.perf_counter()
        with tracer.span("timed") as timed:
            await lookups(params["max_ops"], spec["seconds"], timed)
        timed_s = time.perf_counter() - started
        datagrams = sum(service.stats.values()) - datagrams_before
    finally:
        service.close()
        for node in nodes:
            await node.stop()

    result = {
        "setup_s": setup_s,
        "ops_ms": [latency * 1000.0 for latency, _ in ops],
        "timed_s": timed_s,
        "attempted": len(ops),
        "failures": [
            f"lookup {i} did not return the {len(nodes)} live nodes"
            for i, (_, ok) in enumerate(ops)
            if not ok
        ],
    }
    if tracer.enabled:
        result["layers"] = {
            "fullnode.start_s": tracer.seconds("fullnode.start"),
            "discovery.packets_per_lookup": datagrams / len(ops),
        }
    return result


def run_rep(spec: dict) -> dict:
    """Run the repetition ``spec`` describes and return its result dict:
    ``setup_s``, ``ops_ms`` (one latency per timed operation), ``timed_s``,
    ``attempted``/``failures`` (correctness checks), ``peak_rss_mb``, the
    load average it started under, and for a traced repetition ``layers``
    and ``spans``."""
    load_1m = os.getloadavg()[0]
    workload = spec["workload"]
    params = SCALES[workload][spec["scale"]]
    tracer = Tracer(f"{workload}#{spec['rep']}") if spec["traced"] else NullTracer()
    if workload.startswith("sim-"):
        result = sim_rep(spec, params, tracer)
    elif workload == "live-harvest":
        result = asyncio.run(harvest_rep(spec, params, tracer))
    else:
        result = asyncio.run(discovery_rep(spec, params, tracer))
    result.update(
        workload=workload,
        scale=spec["scale"],
        traced=bool(spec["traced"]),
        rep=spec["rep"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        load_1m=load_1m,
        noisy=load_1m > (os.cpu_count() or 1),
        spans=tracer.rows,
    )
    return result
