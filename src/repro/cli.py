"""Command-line entry points: ``nodefinder <command>``.

Commands:

* ``demo``      — start a localhost network of live nodes and crawl it with
  the live NodeFinder (the real discv4/RLPx/DEVp2p/eth stack) for
  ``DEMO_CRAWL_SECONDS``;
* ``simulate``  — crawl a simulated ecosystem and print the headline
  measurements (services, clients, networks, sanitisation);
* ``casestudy`` — reproduce the §3 instrumented-client week (Table 1);
* ``distance``  — reproduce the Figure 11 distance-metric comparison;
* ``analyze``   — render the paper's tables/figures (Table 1, Table 3,
  Figure 9, Table 4, Figure 14, churn, and ``--sightings`` for the
  Figure 12 intervals) from a crawl's measurement journals (``--journal``,
  repeatable for a fleet's per-instance or per-shard files) — a live
  crawl's journal replays into exactly its own node database;
* ``crawl``     — run a live crawl against real bootstrap enodes,
  journaling to one file;
* ``profile``   — run an instrumented simulated crawl and print the
  per-subsystem hot-path attribution table (deterministic virtual clock
  by default, so output is byte-stable per seed; ``--wall`` for real
  wall-clock attribution);
* ``top``       — the one-page health view of a crawl, folded from its
  measurement journals (``--journal``, repeatable for every shard or
  instance file): per-file rows, dial funnel, stage latencies, breakers,
  supervisor and discovery health.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.errors import ReproError

#: how long ``demo`` crawls its localhost network: every node is a
#: bootstrap static, dialed at once, so a few seconds harvest them all
DEMO_CRAWL_SECONDS = 2.0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.fullnode import start_localhost_network
    from repro.nodefinder.live import LiveNodeFinder
    from repro.telemetry import EventJournal

    journal = EventJournal.open(args.journal) if args.journal else None

    async def run() -> int:
        nodes = await start_localhost_network(args.nodes, blocks=args.blocks)
        print(f"started {len(nodes)} live nodes on 127.0.0.1")
        finder = LiveNodeFinder(
            journal_opener=(lambda shard: journal) if journal is not None else None
        )
        try:
            await finder.start([node.enode for node in nodes])
            db = await finder.crawl_for(DEMO_CRAWL_SECONDS)
        finally:
            await finder.stop()
            for node in nodes:
                await node.stop()
        for entry in db:
            print(
                f"  {entry.node_id.hex()[:8]}  {entry.client_id}  "
                f"network={entry.network_id}  dao={entry.dao_side}  "
                f"rtt={entry.median_latency or 0:.4f}s"
            )
        print(f"harvested {len(db.nodes_with_status())} STATUS messages")
        return 0

    try:
        return asyncio.run(run())
    finally:
        if journal is not None:
            journal.close()
            print(f"measurement journal: {args.journal} ({journal.events_written} events)")


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.ingest import replay_journals
    from repro.analysis.report import render_crawl_report, render_sightings
    from repro.units import SECONDS_PER_DAY

    if not args.journal:
        print("analyze: pass --journal crawl.jsonl (repeatable)", file=sys.stderr)
        return 2
    replayed = replay_journals(args.journal)
    db = replayed.db
    print(
        f"replayed {replayed.events_replayed} events "
        f"({replayed.dials_replayed} dials, {len(db)} peers) from "
        f"{len(args.journal)} journal(s); skipped {len(replayed.skipped)}",
        file=sys.stderr,
    )
    total_days = args.days
    if total_days is None:
        # the window opens at the crawl's first record: a live clock is
        # the host's, and does not start at 0 as the simnet's does
        started = replayed.started
        last = max((entry.last_attempt for entry in db), default=started)
        total_days = (last - started) / SECONDS_PER_DAY
    print(render_crawl_report(db, head_height=args.head_height,
                              total_days=total_days))
    if args.sightings:
        print()
        print(render_sightings(replayed.timelines.values()))
    if args.eclipse:
        from repro.analysis.eclipse import detect_eclipse
        from repro.analysis.report import render_eclipse

        print()
        print(render_eclipse(detect_eclipse(replayed)))
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    from repro.crypto.keys import PrivateKey
    from repro.discovery.enode import parse_enode_url
    from repro.errors import DiscoveryError
    from repro.nodefinder.live import LiveConfig, LiveNodeFinder
    from repro.nodefinder.shard import SegmentFiles

    try:
        bootstrap = [parse_enode_url(uri) for uri in args.enode]
    except DiscoveryError as exc:
        print(f"crawl: bad --enode: {exc}", file=sys.stderr)
        return 2
    config = LiveConfig(
        lookup_interval=args.lookup_interval,
        static_dial_interval=args.static_dial_interval,
    )
    files = None
    if args.journal_dir:
        files = SegmentFiles(args.journal_dir, "crawl", 1)

    async def run() -> int:
        finder = LiveNodeFinder(
            PrivateKey.generate(),
            config=config,
            journal_opener=files,
        )
        await finder.start(bootstrap)
        try:
            await finder.crawl_for(args.seconds)
        finally:
            await finder.stop()
        stats = finder.stats
        print(
            f"crawled for {args.seconds:.0f}s: "
            f"{len(finder.db)} node IDs, {stats['dynamic_dials']} dynamic + "
            f"{stats['static_dials']} static dials, "
            f"{finder.writer.folds} writer folds"
        )
        return 0

    try:
        return asyncio.run(run())
    finally:
        if files is not None:
            files.close()
            journals = " ".join(f"--journal {path}" for path in sorted(files.paths))
            print(f"measurement journals: replay with `nodefinder analyze {journals}`, "
                  f"health with `nodefinder top {journals}`")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.clients import client_share_table
    from repro.analysis.ecosystem import network_stats, service_table, useless_fraction
    from repro.nodefinder.fleet import run_fleet
    from repro.nodefinder.sanitize import sanitize
    from repro.nodefinder.scanner import NodeFinderConfig
    from repro.render import format_table
    from repro.simnet.adversary import SUBNET, AdversaryCampaign, AdversaryConfig
    from repro.simnet.population import PopulationConfig
    from repro.simnet.world import SimWorld, WorldConfig

    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=args.nodes, measurement_days=args.days, seed=args.seed
            )
        )
    )
    adversary = None
    if args.adversary:
        adversary = AdversaryCampaign(
            AdversaryConfig(sybil_count=args.sybils, seed=args.seed ^ 0xEC)
        )
    profiler = None
    if args.profile:
        from repro.telemetry import Profiler, TickClock

        profiler = Profiler(clock=TickClock())
    fleet = run_fleet(
        world,
        instance_count=args.instances,
        days=args.days,
        config=NodeFinderConfig(
            discovery_interval=args.discovery_interval,
            shards=args.shards,
            defended=args.defenses,
        ),
        telemetry_dir=args.telemetry_dir,
        adversary=adversary,
        profiler=profiler,
    )
    if profiler is not None:
        from repro.telemetry import render_profile

        print(render_profile(profiler))
        print()
    if args.telemetry_dir:
        journals = " ".join(f"--journal {path}" for path in fleet.journal_paths)
        print(f"fleet telemetry: {args.telemetry_dir}; replay with "
              f"`nodefinder analyze {journals}`, health with `nodefinder top "
              f"{journals}`")
    db, report = sanitize(fleet.merged_db, fleet.own_node_ids())
    print(
        f"crawled {report.total_nodes} node IDs over {args.days} sim-days; "
        f"{len(report.abusive_node_ids)} abusive ({report.abusive_fraction:.1%}) "
        f"on {len(report.abusive_ips)} IPs removed"
    )
    print()
    print(format_table("DEVp2p services (Table 3)", ["service", "count", "share"],
                       service_table(db)))
    print()
    print(format_table("Mainnet clients (Table 4)", ["client", "count", "share"],
                       client_share_table(db.mainnet_nodes())))
    print()
    stats = network_stats(db)
    print(f"networks: {stats.distinct_network_ids} ids, "
          f"{stats.distinct_genesis_hashes} genesis hashes, "
          f"{stats.single_peer_networks} single-peer, "
          f"mainnet share {stats.mainnet_share:.1%}")
    print(f"useless-peer fraction (§6.1): {useless_fraction(db):.1%}")
    if adversary is not None:
        victim = fleet.instances[0]
        print()
        print(
            f"adversary: {len(adversary.attackers)} sybils in "
            f"{SUBNET} + {len(adversary.phantoms)} phantoms, "
            f"{adversary.answers_served} poisoned NEIGHBORS served"
        )
        print(
            f"victim table: {len(victim.table)} entries, attacker share "
            f"{adversary.table_share(victim.table):.1%}"
        )
        defense = victim.defense_snapshot()
        if args.defenses:
            print(f"defences: {defense.summary()}; "
                  f"anomaly={'yes' if defense.anomaly_detected else 'no'}")
        else:
            print("defences: off (run with --defenses to harden)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import tempfile
    import time

    from repro.nodefinder.fleet import run_fleet
    from repro.nodefinder.scanner import NodeFinderConfig
    from repro.simnet.population import PopulationConfig
    from repro.simnet.world import SimWorld, WorldConfig
    from repro.telemetry import Profiler, TickClock, render_profile

    # the default virtual clock makes "duration" count instrumented
    # operations — exactly reproducible per seed; --wall swaps in real
    # time (by reference) for machine-local hot-path hunting
    profiler = Profiler(clock=time.perf_counter if args.wall else TickClock())
    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=args.nodes, measurement_days=args.days, seed=args.seed
            ),
            seed=7,
        )
    )
    config = NodeFinderConfig(
        seed=1, discovery_interval=args.discovery_interval, shards=args.shards
    )
    # journal into a scratch dir so journal.append shows up in the table
    with tempfile.TemporaryDirectory() as telemetry_dir:
        fleet = run_fleet(
            world,
            instance_count=args.instances,
            days=args.days,
            config=config,
            telemetry_dir=telemetry_dir,
            profiler=profiler,
        )
    clock_kind = "wall" if args.wall else "virtual (1 tick = 1 instrumented op)"
    print(
        f"profiled {args.instances} instance(s) x {args.days} sim-day(s) over "
        f"N={args.nodes} (seed {args.seed}, {args.shards} shard(s)); "
        f"clock: {clock_kind}"
    )
    print(f"crawl products: {len(fleet.merged_db)} NodeDB entries")
    print()
    print(render_profile(profiler))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.telemetry import iter_events, render_top

    print(render_top((path, iter_events(path)) for path in args.journal))
    return 0


def _cmd_casestudy(args: argparse.Namespace) -> int:
    from repro.render import format_table
    from repro.simnet.casestudy import GETH_PROFILE, PARITY_PROFILE, run_case_study

    for profile in (GETH_PROFILE, PARITY_PROFILE):
        result = run_case_study(profile, days=args.days)
        print(
            f"{profile.name}: reached {profile.max_peers} peers in "
            f"{result.minutes_to_max:.0f} min; at max {result.time_at_max_fraction:.1%} of the time"
        )
        print(format_table(
            f"Disconnect reasons ({profile.name})",
            ["reason", "received", "sent"],
            result.table1_rows(),
        ))
        print()
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    from repro.analysis.distance import simulate_distance_distribution, simulate_friction

    dist = simulate_distance_distribution(trials=args.trials, hash_ids=not args.fast)
    print(f"{dist.trials} random node-ID pairs:")
    print(f"  Geth   mode distance: {dist.geth_mode()}  (paper: 256)")
    print(f"  Parity mode distance: {dist.parity_mode()}  (paper: ~224)")
    print("  distance   Geth     Parity")
    parity = dict(dist.parity.items())
    for distance in range(200, 257, 4):
        print(
            f"  {distance:>8}   {dist.geth.get(distance, 0) / dist.trials:6.3f}"
            f"   {parity.get(distance, 0) / dist.trials:6.3f}"
        )
    friction = simulate_friction()
    print(
        f"FIND_NODE usefulness: geth-table mean improvement "
        f"{friction.geth_mean_improvement:.2f} bits vs parity-table "
        f"{friction.parity_mean_improvement:.2f} bits"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodefinder",
        description="Reproduction of 'Measuring Ethereum Network Peers' (IMC 2018)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="crawl a live localhost network")
    demo.add_argument("--nodes", type=int, default=4)
    demo.add_argument("--blocks", type=int, default=16)
    demo.add_argument("--journal", metavar="PATH",
                      help="write a JSONL measurement journal of the crawl")
    demo.set_defaults(func=_cmd_demo)

    simulate = commands.add_parser("simulate", help="crawl a simulated ecosystem")
    simulate.add_argument("--nodes", type=int, default=1000)
    simulate.add_argument("--days", type=float, default=3.0)
    simulate.add_argument("--instances", type=int, default=2)
    simulate.add_argument("--seed", type=int, default=2018)
    simulate.add_argument("--discovery-interval", type=float, default=60.0)
    simulate.add_argument("--shards", type=int, default=1,
                          help="journal shards partitioning the enode keyspace")
    simulate.add_argument("--telemetry-dir", metavar="DIR",
                          help="write per-instance journals here "
                               "(one journal per shard when --shards > 1)")
    simulate.add_argument("--adversary", action="store_true",
                          help="launch an eclipse/Sybil campaign against the "
                               "first crawler instance")
    simulate.add_argument("--sybils", type=int, default=48,
                          help="attacker identities for --adversary")
    simulate.add_argument("--defenses", action="store_true",
                          help="harden the crawlers (table admission, subnet "
                               "breakers, dial budget)")
    simulate.add_argument("--profile", action="store_true",
                          help="attribute the run per subsystem (deterministic "
                               "virtual clock) and print the profile table")
    simulate.set_defaults(func=_cmd_simulate)

    casestudy = commands.add_parser("casestudy", help="reproduce the §3 case study")
    casestudy.add_argument("--days", type=float, default=7.0)
    casestudy.set_defaults(func=_cmd_casestudy)

    distance = commands.add_parser("distance", help="reproduce Figure 11")
    distance.add_argument("--trials", type=int, default=20000)
    distance.add_argument("--fast", action="store_true",
                          help="sample hashes directly instead of hashing IDs")
    distance.set_defaults(func=_cmd_distance)

    analyze = commands.add_parser(
        "analyze", help="render the paper's tables/figures from a crawl's journals"
    )
    analyze.add_argument("--journal", metavar="PATH", action="append", default=[],
                         help="measurement journal to replay (repeat for a fleet)")
    analyze.add_argument("--head-height", type=int, default=0,
                         help="fallback chain head for the freshness CDF")
    analyze.add_argument("--days", type=float, default=None,
                         help="crawl window in days for churn (default: derived)")
    analyze.add_argument("--sightings", action="store_true",
                         help="append the Figure 12 sighting-interval section")
    analyze.add_argument("--eclipse", action="store_true",
                         help="append the eclipse-detection section")
    analyze.set_defaults(func=_cmd_analyze)

    crawl = commands.add_parser(
        "crawl", help="run a live crawl against real enodes"
    )
    crawl.add_argument("--enode", metavar="URL", action="append", default=[],
                       required=True,
                       help="bootstrap enode:// URL (repeatable)")
    crawl.add_argument("--seconds", type=float, default=60.0,
                       help="crawl duration")
    crawl.add_argument("--lookup-interval", type=float, default=4.0)
    crawl.add_argument("--static-dial-interval", type=float, default=30 * 60.0)
    crawl.add_argument("--journal-dir", metavar="DIR",
                       help="write the measurement journal here")
    crawl.set_defaults(func=_cmd_crawl)

    profile = commands.add_parser(
        "profile", help="hot-path attribution of a simulated crawl"
    )
    profile.add_argument("--nodes", type=int, default=300)
    profile.add_argument("--days", type=float, default=1.0)
    profile.add_argument("--seed", type=int, default=2018)
    profile.add_argument("--instances", type=int, default=1)
    profile.add_argument("--discovery-interval", type=float, default=60.0)
    profile.add_argument("--shards", type=int, default=1,
                         help="journal shards partitioning the enode keyspace")
    profile.add_argument("--wall", action="store_true",
                         help="time with the real wall clock instead of the "
                              "deterministic virtual clock")
    profile.set_defaults(func=_cmd_profile)

    top = commands.add_parser(
        "top", help="one-page health view of a crawl's measurement journals"
    )
    top.add_argument("--journal", metavar="PATH", action="append", required=True,
                     help="measurement journal written by a crawl (repeat "
                          "for every shard or instance file)")
    top.set_defaults(func=_cmd_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        # a corrupt journal, a missing or unreadable file: the message
        # already names what and where — no traceback on top of it
        print(f"nodefinder: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
