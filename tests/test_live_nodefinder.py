"""End-to-end live crawl: LiveNodeFinder against a real localhost network."""

import asyncio
import time

from repro.analysis.ingest import replay_journals
from repro.analysis.report import render_crawl_report
from repro.cli import main
from repro.crypto.keys import PrivateKey
from repro.discovery.enode import ENode
from repro.discovery.packets import NeighborRecord
from repro.discovery.protocol import DiscoveryService
from repro.fullnode import start_localhost_network
from repro.nodefinder.live import LiveConfig, LiveNodeFinder
from repro.nodefinder.records import DialOutcome, DialResult
from repro.nodefinder.shard import SegmentFiles
from repro.resilience import BreakerState, RetryPolicy
from repro.telemetry import read_events
from repro.units import SECONDS_PER_DAY

from tests.helpers import plant_static


def test_live_crawl_discovers_and_harvests():
    async def scenario():
        nodes = await start_localhost_network(5, blocks=12)
        finder = LiveNodeFinder(
            config=LiveConfig(
                lookup_interval=0.3,
                static_dial_interval=1.5,
                dial_timeout=3.0,
            )
        )
        try:
            await finder.start(bootstrap=[nodes[0].enode])
            db = await finder.crawl_for(6.0)
            # every live node found, connected, and fully harvested
            for node in nodes:
                entry = db.get(node.node_id)
                assert entry is not None, f"missed node {node.enode.short_id()}"
                assert entry.got_hello and entry.got_status
                assert entry.genesis_hash == nodes[0].chain.genesis_hash
            # static re-dials happened (interval 1.5s over a 6s crawl)
            assert finder.stats["static_dials"] >= len(nodes)
            redialed = [entry for entry in db if entry.sessions >= 2]
            assert redialed, "static re-dials never reached a node"
            assert finder.stats["lookups"] >= 2
        finally:
            await finder.stop()
            for node in nodes:
                await node.stop()

    asyncio.run(scenario())


def test_live_crawl_handles_dead_bootstrap():
    async def scenario():
        nodes = await start_localhost_network(2, blocks=4)
        dead = nodes[1].enode
        await nodes[1].stop()
        finder = LiveNodeFinder(
            config=LiveConfig(lookup_interval=0.3, static_dial_interval=5.0,
                              dial_timeout=1.0)
        )
        try:
            await finder.start(bootstrap=[nodes[0].enode])
            db = await finder.crawl_for(3.0)
            live_entry = db.get(nodes[0].node_id)
            assert live_entry is not None and live_entry.got_status
            dead_entry = db.get(dead.node_id)
            if dead_entry is not None:  # discovered through stale tables
                assert not dead_entry.got_hello
        finally:
            await finder.stop()
            await nodes[0].stop()

    asyncio.run(scenario())


def test_stale_addresses_pruned_with_injected_clock():
    """The 24h stale-address rule is testable without sleeping: the finder's
    clock is injected, so advancing fake time expires a StaticNodes entry."""
    fake_now = [0.0]
    finder = LiveNodeFinder(clock=lambda: fake_now[0])
    target = ENode(b"\x42" * 64, "127.0.0.1", 30303, 30303)
    # the completed dial that put it on StaticNodes is its last success
    finder.core.dial_done(
        target,
        DialResult(
            timestamp=fake_now[0],
            node_id=target.node_id,
            ip=target.ip,
            tcp_port=target.tcp_port,
            connection_type="dynamic-dial",
            outcome=DialOutcome.FULL_HARVEST,
        ),
        fake_now[0],
    )
    assert target.node_id in finder.static_nodes and len(finder.core.gate) == 1

    fake_now[0] = 23 * 3600.0  # not yet stale
    finder.core.prune(finder.clock())
    assert target.node_id in finder.static_nodes

    fake_now[0] = 25 * 3600.0  # a successful dial 25h ago: stale, drop it
    finder.core.prune(finder.clock())
    assert target.node_id not in finder.static_nodes
    assert len(finder.core.gate) == 0  # its breaker went with it


def dead_enode(seed=91):
    """An enode pointing at a closed localhost port: dials are refused."""
    return ENode(PrivateKey(seed).public_key.to_bytes(), "127.0.0.1", 1, 1)


def test_stop_returns_promptly_with_inflight_stalled_dial():
    """stop() must not wait out a dial's deadline: a dial stalled in flight
    (a listener that accepts and never answers, under a 60 s dial timeout)
    is cancelled with everything else."""

    async def scenario():
        accepted = asyncio.Event()
        held = []

        async def silent(reader, writer):
            held.append(writer)
            accepted.set()

        server = await asyncio.start_server(silent, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        finder = LiveNodeFinder(
            config=LiveConfig(
                lookup_interval=0.1,
                static_dial_interval=600.0,
                dial_timeout=60.0,
            )
        )
        try:
            await finder.start(bootstrap=[])
            # a due static at the silent listener: the dial connects and
            # then waits on an RLPx ack that never comes
            target = ENode(PrivateKey(92).public_key.to_bytes(), "127.0.0.1", port, port)
            plant_static(finder, target, 0.0)
            await asyncio.wait_for(accepted.wait(), timeout=5.0)
            await asyncio.sleep(0.2)  # the dial is now parked in the handshake
            started = time.monotonic()
            await finder.stop()
            assert time.monotonic() - started < 2.0
            assert finder.stats["static_dials"] == 0  # it never finished
        finally:
            for writer in held:
                writer.close()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_crashed_discovery_loop_is_restarted_and_counted():
    async def scenario():
        finder = LiveNodeFinder(
            config=LiveConfig(
                lookup_interval=0.05,
                static_dial_interval=600.0,
                supervisor_policy=RetryPolicy(max_attempts=5, base_delay=0.05),
            )
        )
        await finder.start(bootstrap=[])
        crashes = [0]

        async def flaky_lookup(target):
            if crashes[0] == 0:
                crashes[0] += 1
                raise RuntimeError("injected lookup crash")
            return []

        finder.discovery.lookup_all = flaky_lookup
        try:
            for _ in range(60):
                await asyncio.sleep(0.05)
                if (
                    finder.stats["loop_restarts"] >= 1
                    and finder.stats["lookups"] >= 1
                ):
                    break
            assert finder.stats["loop_crashes"] >= 1
            assert finder.stats["loop_restarts"] >= 1
            # the restarted loop kept crawling after the crash
            assert finder.stats["lookups"] >= 1
        finally:
            await finder.stop()

    asyncio.run(scenario())


def test_lookup_targets_are_random_bytes_from_the_injected_rng():
    """Targets are 64 random bytes, as in the sim driver — seedable through
    ``rng=`` and never a freshly minted keypair."""
    import random

    async def scenario(rng):
        finder = LiveNodeFinder(
            config=LiveConfig(lookup_interval=0.01, static_dial_interval=600.0),
            rng=rng,
        )
        await finder.start(bootstrap=[])
        targets = []

        async def recording_lookup(target):
            targets.append(target)
            return []

        finder.discovery.lookup_all = recording_lookup
        try:
            for _ in range(100):
                await asyncio.sleep(0.01)
                if len(targets) >= 3:
                    break
        finally:
            await finder.stop()
        return targets

    seeded = asyncio.run(scenario(random.Random(42)))
    reference = random.Random(42)
    assert len(seeded) >= 3
    assert seeded == [reference.randbytes(64) for _ in seeded]
    unseeded = asyncio.run(scenario(None))
    assert len(unseeded) >= 3 and len(set(unseeded)) == len(unseeded)
    assert all(len(target) == 64 for target in unseeded)


def test_breaker_backs_off_repeatedly_failing_peer():
    """The live gate's defaults: 3 refused dials open a peer's breaker, and
    300 s on the crawler's clock later it admits one probe."""

    async def scenario():
        now = [0.0]
        finder = LiveNodeFinder(
            config=LiveConfig(dial_timeout=1.0),
            clock=lambda: now[0],
        )
        target = dead_enode()
        for _ in range(3):
            await finder._dial(target, "dynamic-dial")
        assert finder.core.gate.state(target.node_id) is BreakerState.OPEN
        now[0] = 299.0
        await finder._dial(target, "dynamic-dial")  # skipped
        assert finder.stats["breaker_skips"] == 1
        assert finder.stats["dynamic_dials"] == 3
        now[0] = 300.0  # cooled down: one probe, refused, re-opens it
        await finder._dial(target, "dynamic-dial")
        assert finder.stats["dynamic_dials"] == 4
        assert finder.core.gate.state(target.node_id) is BreakerState.OPEN
        await finder._dial(target, "dynamic-dial")  # skipped
        assert finder.stats["breaker_skips"] == 2
        # a refused dial never joins StaticNodes (§4 completed-dial rule)
        assert target.node_id not in finder.static_nodes

    asyncio.run(scenario())


def test_a_default_live_dial_is_one_attempt_and_replays_into_its_db(tmp_path, capsys):
    """Under the default config a live dial is one attempt, as in the paper:
    the refused static journals exactly one ``dial`` record per ``_dial``,
    so the crawl's journal replays into exactly its own NodeDB, and
    ``analyze`` of that journal prints the report of the crawl's NodeDB."""

    async def scenario():
        files = SegmentFiles(tmp_path, "crawl", 1)
        finder = LiveNodeFinder(PrivateKey(78), journal_opener=files)
        plant_static(finder, dead_enode(), 0.0)
        try:
            await finder.start(bootstrap=[])
            started = time.monotonic()
            while not finder.stats["static_dials"]:
                assert time.monotonic() - started < 5.0, "the static was never dialed"
                await asyncio.sleep(0.01)
        finally:
            await finder.stop()
        return finder, files.paths

    finder, paths = asyncio.run(scenario())
    dials = [event for path in paths for event in read_events(path) if event.type == "dial"]
    assert [event.fields["outcome"] for event in dials] == ["refused"]
    assert len(dials) == finder.stats["static_dials"] + finder.stats["dynamic_dials"]
    replayed = replay_journals(paths).db
    assert len(replayed) == len(finder.db) == 1
    assert all(replayed.get(entry.node_id) == entry for entry in finder.db)
    [path] = paths
    assert main(["analyze", "--journal", str(path)]) == 0
    last = max(entry.last_attempt for entry in finder.db)
    assert capsys.readouterr().out == render_crawl_report(
        finder.db, total_days=last / SECONDS_PER_DAY
    ) + "\n"


def stub_harvester(dial_seconds, outcome_for):
    """A harvest-compatible stub: fixed latency, scripted outcome, no sockets."""
    dialed = []

    async def stub(target, key, connection_type="dynamic-dial", **kwargs):
        dialed.append(target.node_id)
        await asyncio.sleep(dial_seconds)
        return DialResult(
            timestamp=kwargs["clock"](),
            node_id=target.node_id,
            ip=target.ip,
            tcp_port=target.tcp_port,
            connection_type=connection_type,
            outcome=outcome_for(len(dialed)),
        )

    return stub, dialed


def test_failed_dynamic_dial_is_retried_after_the_history_window():
    """§4: a peer offline when a lookup first returns it is dialed again.

    A failed dial never joins StaticNodes, so the dial history is the only
    thing standing between it and the next lookup result; it must expire
    (regression: ``_dialed_once`` was a set that never did).
    """

    async def scenario():
        fake_now = [0.0]
        target = dead_enode()
        harvester, dialed = stub_harvester(
            0.0,
            lambda attempt: (
                DialOutcome.TIMEOUT if attempt == 1 else DialOutcome.FULL_HARVEST
            ),
        )
        finder = LiveNodeFinder(
            config=LiveConfig(lookup_interval=0.02, static_dial_interval=1800.0),
            clock=lambda: fake_now[0],
            harvester=harvester,
        )
        await finder.start(bootstrap=[])

        async def lookup(_target):
            return [target]

        finder.discovery.lookup_all = lookup
        try:
            await asyncio.sleep(0.3)  # a dozen lookups, all inside the window
            assert dialed == [target.node_id]
            assert target.node_id not in finder.static_nodes
            fake_now[0] = 1800.0  # the window has passed
            await asyncio.sleep(0.3)
            assert dialed == [target.node_id] * 2
            assert target.node_id in finder.static_nodes
        finally:
            await finder.stop()

    asyncio.run(scenario())


def test_every_answered_record_is_dialed_not_only_the_sixteen_closest():
    """The crawler's product is every record an answer carried (§4 dials
    what discovery returns): a responder naming 20 nodes gets all 20
    dialed, where the K-closest view of the lookup dropped the rest."""

    async def scenario():
        harvester, dialed = stub_harvester(0.0, lambda attempt: DialOutcome.TIMEOUT)
        finder = LiveNodeFinder(
            # one lookup: across several random targets the 16 closest
            # would differ and could cover all 20 by chance
            config=LiveConfig(lookup_interval=600.0),
            harvester=harvester,
        )
        answered = [
            NeighborRecord("127.0.0.1", 30303, 30303, bytes([index]) * 64)
            for index in range(1, 21)
        ]
        await finder.start(bootstrap=[])
        finder.discovery.table.add(dead_enode())

        async def find_node(node, target):
            return answered

        finder.discovery.find_node = find_node
        try:
            for _ in range(100):
                await asyncio.sleep(0.02)
                if len(dialed) >= len(answered):
                    break
            assert set(dialed) == {record.node_id for record in answered}
        finally:
            await finder.stop()

    asyncio.run(scenario())


def test_one_shard_redials_its_due_statics_concurrently():
    """The one dial loop redials its due statics concurrently: 16 due
    statics at 50 ms each finish one sweep in about one dial time, not
    sixteen (regression: the unsharded static loop awaited them one by
    one, ~0.8 s)."""

    async def scenario():
        harvester, dialed = stub_harvester(
            0.05, lambda attempt: DialOutcome.FULL_HARVEST
        )
        finder = LiveNodeFinder(
            config=LiveConfig(static_dial_interval=3600.0),
            harvester=harvester,
        )
        targets = [dead_enode(seed) for seed in range(100, 116)]
        await finder.start(bootstrap=[])
        try:
            started = time.monotonic()
            for target in targets:
                plant_static(finder, target, 0.0)
            while len(finder.db) < len(targets):
                assert time.monotonic() - started < 5.0, "sweep never finished"
                await asyncio.sleep(0.005)
            assert time.monotonic() - started < 0.4
            assert finder.stats["static_dials"] == len(targets)
        finally:
            await finder.stop()

    asyncio.run(scenario())


def test_raising_fold_is_a_crashed_dial_and_the_loop_keeps_dialing():
    """A ``NodeDB.observe`` that raises crashes *that dial*, as in the sim
    (regression: the writer's queue consumer logged and dropped it, so the
    dial counted as scheduled and never reached ``dial_failures``)."""

    async def scenario():
        harvester, _ = stub_harvester(
            0.0, lambda attempt: DialOutcome.FULL_HARVEST
        )
        finder = LiveNodeFinder(
            config=LiveConfig(static_dial_interval=3600.0),
            harvester=harvester,
        )
        targets = [dead_enode(seed) for seed in range(200, 212)]
        poisoned = targets[0].node_id
        observe = finder.db.observe

        def flaky_observe(result):
            if result.node_id == poisoned:
                raise RuntimeError("corrupt entry")
            return observe(result)

        finder.db.observe = flaky_observe
        await finder.start(bootstrap=[])
        try:
            started = time.monotonic()
            for target in targets:
                plant_static(finder, target, 0.0)
            while (
                len(finder.db) < len(targets) - 1
                or not finder.stats["dial_failures"]
            ):
                assert time.monotonic() - started < 5.0, "sweep never finished"
                await asyncio.sleep(0.005)
            assert poisoned not in finder.db
            assert finder.stats["loop_crashes"] == 0
            # every static dial either folded or crashed in its fold
            assert finder.stats["dial_failures"] == 1
            assert finder.stats["static_dials"] == finder.writer.folds + 1
        finally:
            await finder.stop()

    asyncio.run(scenario())


# -- one journal for the whole crawl ------------------------------------------


async def _journaled_crawl(directory):
    """Bond four discovery peers, then crash and restart the discovery loop
    once and inject one datagram fault; returns ``(crawler node id, peer
    ids, journal paths)``."""
    peers = [await DiscoveryService(PrivateKey(30_000 + i)).listen() for i in (0, 2, 4, 5)]
    files = SegmentFiles(directory, "crawl", 1)
    finder = LiveNodeFinder(
        PrivateKey(77),
        config=LiveConfig(
            lookup_interval=0.01,
            static_dial_interval=600.0,
            supervisor_policy=RetryPolicy(max_attempts=5, base_delay=0.01),
        ),
        harvester=stub_harvester(0.0, lambda nth: DialOutcome.CONNECTION_REFUSED)[0],
        journal_opener=files,
    )
    crash = {"armed": False, "done": False}

    async def lookup(_target):
        if crash["armed"] and not crash["done"]:
            crash["done"] = True
            raise RuntimeError("injected lookup crash")
        return []

    try:
        await finder.start(bootstrap=[peer.local_enode for peer in peers])
        finder.discovery.lookup_all = lookup
        started = time.monotonic()
        # the facade discovery holds is the crawl's: same journal
        finder.discovery.telemetry.emit("datagram_fault", fault="drop")
        crash["armed"] = True
        lookups = None
        while lookups is None or finder.stats["lookups"] <= lookups:
            assert time.monotonic() - started < 5.0, "the loop never came back"
            if lookups is None and finder.stats["loop_restarts"]:
                lookups = finder.stats["lookups"]
            await asyncio.sleep(0.005)
    finally:
        await asyncio.wait_for(finder.stop(), timeout=10.0)
        for peer in peers:
            peer.close()
    return finder.discovery.node_id, [peer.node_id for peer in peers], files.paths


def test_the_journal_carries_every_record_of_the_crawl(tmp_path, capsys):
    """``supervisor``, ``bond`` and ``datagram_fault`` records reach the
    crawl's one journal file (they used to go through the crawl-wide
    facade, which then had no journal), and the file names the crawler —
    so ``analyze --eclipse`` leaves it out."""
    crawler_id, peer_ids, [path] = asyncio.run(_journaled_crawl(tmp_path))
    assert path.name == "crawl.jsonl"

    def records(kind):
        return sorted(
            sorted(event.fields.items())
            for event in read_events(path)
            if event.type == kind
        )

    assert records("bond") == sorted(
        [("node_id", node_id.hex()), ("ok", True)] for node_id in peer_ids
    )
    for kind in ("supervisor", "datagram_fault"):
        assert records(kind) != []
    assert main(["top", "--journal", str(path)]) == 0
    out = capsys.readouterr().out
    assert "supervisor: 1 crashes, 1 restarts" in out
    assert "bonds 4 ok / 0 failed" in out
    # the file opens with the crawler's own identity
    first = read_events(path)[0]
    assert (first.type, first.fields["node_id"]) == ("crawler", crawler_id.hex())
    assert replay_journals([path]).crawler_ids == {crawler_id}
