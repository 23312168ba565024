"""Regression tests for the concurrency defects the flow rules surfaced.

Each test pins one of the real fixes that landed with the RACE /
TASK-LIFE / OWNERSHIP families:

* ``HeaderSynchronizer`` serialises concurrent ``sync()`` runs — the
  height read and the appends that follow straddle network awaits
  (RACE-RMW);
* ``DiscoveryService`` retains its fire-and-forget protocol chores so
  crashes surface and ``close()`` cancels them (TASK-LIFE-ORPHAN);
* the live shard loop re-derives its due set from live state on every
  pass instead of acting on a snapshot taken before a dial's await
  (RACE-RMW);
* journal replay folds dials through :class:`NodeDBWriter`, the same
  single-writer path a live crawl uses (OWNERSHIP).
"""

import asyncio
import logging

import pytest

from repro.analysis.ingest import replay
from repro.chain.chain import HeaderChain
from repro.chain.genesis import mainnet_genesis
from repro.crypto.keys import PrivateKey
from repro.devp2p.messages import Capability, HelloMessage
from repro.devp2p.peer import DevP2PPeer
from repro.discovery.enode import ENode
from repro.discovery.protocol import DiscoveryService
from repro.ethproto import messages as eth
from repro.ethproto.handshake import run_eth_handshake
from repro.ethproto.sync import HeaderSynchronizer, SyncMode
from repro.fullnode import FullNode
from repro.nodefinder.database import NodeDB
from repro.nodefinder.live import LiveConfig, LiveNodeFinder
from repro.nodefinder.records import CrawlStats
from repro.nodefinder.shard import NodeDBWriter
from repro.rlpx.session import open_session
from repro.nodefinder.records import DialOutcome, DialResult
from repro.telemetry import Event
from repro.units import SECONDS_PER_DAY

from tests.helpers import plant_static, plant_success


async def connect_for_sync(node: FullNode, key: PrivateKey) -> DevP2PPeer:
    session = await open_session(
        node.host, node.tcp_port, key, node.private_key.public_key
    )
    hello = HelloMessage(
        version=5,
        client_id="sync-client/v1.0",
        capabilities=[Capability("eth", 62), Capability("eth", 63)],
        listen_port=0,
        node_id=key.public_key.to_bytes(),
    )
    peer = DevP2PPeer(session, hello)
    await peer.handshake()
    status = eth.StatusMessage(
        protocol_version=63,
        network_id=1,
        total_difficulty=0,
        best_hash=eth.MAINNET_GENESIS_HASH,
        genesis_hash=eth.MAINNET_GENESIS_HASH,
    )
    await run_eth_handshake(peer, status)
    return peer


def test_concurrent_syncs_against_one_chain_serialize():
    """Two sync() runs sharing a local chain must not interleave appends.

    Without the synchronizer's lock both runs read height 0 before
    either appends, and the second append of header 1 fails header
    validation; with it, the first run downloads everything and the
    second sees a complete chain and downloads nothing.
    """

    async def scenario():
        served = HeaderChain(mainnet_genesis())
        served.mine(40)
        node = FullNode(chain=served)
        await node.start()
        try:
            peer_a = await connect_for_sync(node, PrivateKey(0x6AA))
            peer_b = await connect_for_sync(node, PrivateKey(0x6AB))
            local = HeaderChain(mainnet_genesis())
            # small batches force many awaits per run: plenty of
            # interleaving opportunity if the lock were missing
            synchronizer = HeaderSynchronizer(
                local, mode=SyncMode.FULL, batch_size=8
            )
            first, second = await asyncio.gather(
                synchronizer.sync(peer_a, served.height),
                synchronizer.sync(peer_b, served.height),
            )
            assert local.height == served.height
            assert local.best_hash == served.best_hash
            assert first.complete and second.complete
            downloaded = sorted(
                (first.headers_downloaded, second.headers_downloaded)
            )
            assert downloaded == [0, served.height]
            peer_a.abort()
            peer_b.abort()
        finally:
            await node.stop()

    asyncio.run(scenario())


def test_discovery_background_chores_are_retained_and_cancelled():
    async def scenario():
        service = DiscoveryService(PrivateKey(0x77))
        started = asyncio.Event()

        async def chore():
            started.set()
            await asyncio.sleep(30)

        task = service._spawn(chore())
        await started.wait()
        assert task in service._background

        quick = service._spawn(asyncio.sleep(0))
        await quick
        await asyncio.sleep(0)
        assert quick not in service._background  # reaped on completion

        service.close()
        with pytest.raises(asyncio.CancelledError):
            await task
        assert service._background == set()

    asyncio.run(scenario())


def test_discovery_crashed_chore_is_logged_not_lost(caplog):
    async def scenario():
        service = DiscoveryService(PrivateKey(0x78))

        async def boom():
            raise RuntimeError("injected chore crash")

        task = service._spawn(boom())
        with pytest.raises(RuntimeError):
            await task
        await asyncio.sleep(0)  # let the done-callback run
        assert service._background == set()

    with caplog.at_level(logging.WARNING, logger="repro.discovery.protocol"):
        asyncio.run(scenario())
    assert any(
        "background discovery task crashed" in record.message
        for record in caplog.records
    )


def static_enode(seed: int) -> ENode:
    return ENode(PrivateKey(seed).public_key.to_bytes(), "127.0.0.1", 1, 1)


def recording_finder(fake_now, dialed, on_dial=None):
    """A one-shard finder on a fake clock whose harvester records targets."""

    async def harvester(target, key, connection_type="dynamic-dial", **kwargs):
        dialed.append(target.node_id)
        if on_dial is not None:
            on_dial(target)
        await asyncio.sleep(0)
        return DialResult(
            timestamp=fake_now[0],
            node_id=target.node_id,
            ip=target.ip,
            tcp_port=target.tcp_port,
            connection_type=connection_type,
            outcome=DialOutcome.FULL_HARVEST,
        )

    return LiveNodeFinder(
        # a 0.3 s interval keeps an idle pass of the loop at 30 ms
        config=LiveConfig(static_dial_interval=0.3, retry=None),
        clock=lambda: fake_now[0],
        harvester=harvester,
    )


async def run_shard_loop(finder, drive):
    [shard] = finder._shards
    loop_task = asyncio.create_task(finder._shard_loop(shard))
    try:
        await drive(shard)
    finally:
        finder._stopping = True
        loop_task.cancel()
        await asyncio.gather(loop_task, return_exceptions=True)


def test_shard_loop_reads_due_statics_from_live_state():
    async def scenario():
        fake_now = [1000.0]
        dialed = []
        finder = recording_finder(fake_now, dialed)
        first, second, third = static_enode(31), static_enode(32), static_enode(33)

        async def drive(shard):
            plant_static(finder, first, 1500.0)
            await asyncio.sleep(0.1)
            assert dialed == []  # nothing is due yet

            # planted while the loop runs: the next pass picks it up...
            plant_static(finder, second, 900.0)
            # ...and never sees one that was removed before that pass
            plant_static(finder, third, 900.0)
            plant_success(finder.core, third.node_id, fake_now[0] - SECONDS_PER_DAY - 1)
            finder.core.prune(fake_now[0])
            await asyncio.sleep(0.1)
            assert dialed == [second.node_id]

        await run_shard_loop(finder, drive)

    asyncio.run(scenario())


def test_shard_loop_honours_mutations_made_during_a_dial():
    """A static pruned while another dial is in flight is never dialed.

    The shard loop re-derives its due set at the top of every pass, so
    an entry removed mid-flight is not dialed from a stale batch.
    """

    async def scenario():
        fake_now = [1000.0]
        dialed = []
        first, second = static_enode(41), static_enode(42)
        rescheduled = []

        def on_dial(target):
            # the dialed static was rescheduled before its dial awaited
            rescheduled.append(finder.static_nodes[target.node_id])
            # the second static comes due mid-dial, and another loop
            # prunes it before this pass ends
            fake_now[0] = 1000.2
            plant_success(finder.core, second.node_id, fake_now[0] - SECONDS_PER_DAY - 1)
            finder.core.prune(fake_now[0])

        finder = recording_finder(fake_now, dialed, on_dial)

        async def drive(shard):
            plant_static(finder, first, 1000.0)
            plant_static(finder, second, 1000.1)
            await asyncio.sleep(0.1)

        await run_shard_loop(finder, drive)
        assert dialed == [first.node_id]
        assert rescheduled == [pytest.approx(1000.3)]

    asyncio.run(scenario())


def test_replay_folds_dials_through_the_single_writer():
    """Replay and a direct NodeDBWriter fold of the same dial agree.

    Pins the OWNERSHIP fix: ingest no longer mutates NodeDB/CrawlStats
    directly but routes every completed observation through the same
    writer a live crawl uses.
    """
    node_id = b"\x07" * 64
    genesis, best = b"\xab" * 32, b"\xcd" * 32
    events = [
        Event(
            type="dial",
            ts=10.0,
            fields={
                "node_id": node_id.hex(),
                "outcome": "full-harvest",
                "ip": "10.0.0.1",
                "tcp_port": 30303,
                "connection_type": "static-dial",
                "latency": 0.2,
                "duration": 1.0,
                "started": 10.0,
            },
        ),
        Event(
            type="hello",
            ts=10.5,
            fields={
                "node_id": node_id.hex(),
                "client_id": "Geth/v1.8.3",
                "capabilities": [["eth", 63]],
                "listen_port": 30303,
            },
        ),
        Event(
            type="status",
            ts=10.6,
            fields={
                "node_id": node_id.hex(),
                "network_id": 1,
                "genesis_hash": genesis.hex(),
                "best_hash": best.hex(),
                "best_block": 100,
                "head_height": 120,
                "total_difficulty": 999,
            },
        ),
    ]
    replayed = replay(events)
    assert replayed.skipped == []
    assert replayed.dials_replayed == 1

    db, stats = NodeDB(), CrawlStats()
    writer = NodeDBWriter(db, stats=stats)
    writer.submit(
        DialResult(
            timestamp=10.0,
            node_id=node_id,
            ip="10.0.0.1",
            tcp_port=30303,
            connection_type="static-dial",
            outcome=DialOutcome.FULL_HARVEST,
            latency=0.2,
            duration=1.0,
            client_id="Geth/v1.8.3",
            capabilities=[("eth", 63)],
            listen_port=30303,
            network_id=1,
            genesis_hash=genesis,
            best_hash=best,
            best_block=100,
            head_height=120,
            total_difficulty=999,
        )
    )
    assert replayed.db.get(node_id) == db.get(node_id)
    assert replayed.stats.days == stats.days
