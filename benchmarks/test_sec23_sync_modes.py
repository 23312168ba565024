"""§2.3: full sync vs fast sync, measured over the real protocol stack.

Paper claim: fast sync "improves syncing times by approximately an order
of magnitude" by replacing full state validation with receipt fetches up
to a pivot.  On our header-level stack the expensive step is full header
validation (difficulty recomputation + PoW-commitment Keccak); the bench
syncs the same chain both ways over real localhost TCP and compares the
expensive-validation workload and the requests each mode sends — counts,
not wall times, so the result file is the same on every run.
"""

import asyncio

from conftest import emit

from repro.render import format_table
from repro.chain.chain import HeaderChain
from repro.chain.genesis import mainnet_genesis
from repro.crypto.keys import PrivateKey
from repro.devp2p.messages import Capability, HelloMessage
from repro.devp2p.peer import DevP2PPeer
from repro.ethproto import messages as eth
from repro.ethproto.handshake import run_eth_handshake
from repro.ethproto.sync import HeaderSynchronizer, SyncMode
from repro.fullnode import FullNode
from repro.rlpx.session import open_session

CHAIN_LENGTH = 400


async def _connect(node: FullNode, key: PrivateKey) -> DevP2PPeer:
    session = await open_session(
        node.host, node.tcp_port, key, node.private_key.public_key
    )
    hello = HelloMessage(
        version=5,
        client_id="sync-bench/v1.0",
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


async def _run(served: HeaderChain, mode: SyncMode):
    node = FullNode(chain=served)
    await node.start()
    try:
        peer = await _connect(node, PrivateKey(0x77C))
        local = HeaderChain(mainnet_genesis())
        synchronizer = HeaderSynchronizer(local, mode=mode)
        progress = await synchronizer.sync(peer, served.height)
        peer.abort()
        return local, progress
    finally:
        await node.stop()


def test_sec23_sync_modes(benchmark):
    served = HeaderChain(mainnet_genesis())
    served.mine(CHAIN_LENGTH)

    full_local, full_progress = asyncio.run(_run(served, SyncMode.FULL))

    def fast_run():
        return asyncio.run(_run(served, SyncMode.FAST))

    fast_local, fast_progress = benchmark.pedantic(fast_run, rounds=1, iterations=1)

    rows = [
        (
            mode,
            progress.fully_validated,
            progress.link_checked_only,
            progress.header_batches,
            progress.bodies_requested,
            progress.receipts_requested,
            progress.state_chunks_requested,
        )
        for mode, progress in (
            ("full sync", full_progress),
            ("fast sync", fast_progress),
        )
    ]
    emit(
        "sec23_sync_modes",
        format_table(
            f"§2.3 — syncing {CHAIN_LENGTH} blocks over real TCP",
            [
                "mode",
                "fully validated",
                "link-checked only",
                "header batches",
                "bodies",
                "receipts",
                "state chunks",
            ],
            rows,
        )
        + f"\nexpensive-validation share: full {full_progress.validation_work_ratio:.0%}"
          f" vs fast {fast_progress.validation_work_ratio:.0%}"
          f" (paper: ~10x less state validation)",
    )
    assert full_local.best_hash == fast_local.best_hash == served.best_hash
    assert full_progress.validation_work_ratio == 1.0
    assert fast_progress.validation_work_ratio < 0.25
    assert fast_progress.state_chunks_requested == 1
