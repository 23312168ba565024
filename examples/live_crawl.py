"""Crawl a live localhost network with the real NodeFinder.

Starts a small network of full nodes (with real UDP discovery and
peer-limit enforcement), then runs the live NodeFinder against it the way
NodeFinder crawls the Internet: discv4 lookups through one bootstrap node
find the targets, each is harvested (HELLO, STATUS, DAO check,
disconnect) and joins StaticNodes for re-dials, and every dial folds into
the node database.  The paper's intervals (4 s lookups, 30-minute
re-dials) shrink to seconds here.

Run:  python examples/live_crawl.py
"""

import asyncio

from repro.fullnode import FullNodeConfig, start_localhost_network
from repro.nodefinder.live import LiveConfig, LiveNodeFinder

#: wall-clock length of the crawl
CRAWL_SECONDS = 6.0


async def main() -> None:
    nodes = await start_localhost_network(
        6,
        blocks=24,
        config=FullNodeConfig(max_peers=25),
    )
    print(f"started {len(nodes)} live nodes; bootstrap: {nodes[0].enode.short_id()}")
    finder = LiveNodeFinder(
        config=LiveConfig(lookup_interval=0.5, static_dial_interval=2.0)
    )
    try:
        await finder.start([nodes[0].enode])
        db = await finder.crawl_for(CRAWL_SECONDS)
    finally:
        await finder.stop()
        for node in nodes:
            await node.stop()

    stats = finder.stats
    print(
        f"{stats['lookups']} discovery lookups, {stats['dynamic_dials']} dynamic "
        f"+ {stats['static_dials']} static dials"
    )
    print(f"harvested {len(db)} nodes:")
    for entry in db:
        print(
            f"  {entry.node_id.hex()[:8]}  {entry.client_id:<44}  "
            f"net={entry.network_id}  sessions={entry.sessions}  "
            f"rtt={(entry.median_latency or 0) * 1000:.1f}ms"
        )
    statuses = len(db.nodes_with_status())
    print(f"{statuses}/{len(db)} gave STATUS; all on genesis "
          f"{next(iter(db)).genesis_hash.hex()[:12]}...")


if __name__ == "__main__":
    asyncio.run(main())
