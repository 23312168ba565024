"""The simnet crawl's memory budget: a crawl keeps what is live, not what
has already happened.

The paper's NodeFinder re-dials every known node for months (§4), so state
that grows with simulated time or with dials — a generator per dialled
node, a hash-memo generation per simulated hour — eventually outweighs the
world itself.  Two pins, each run in a fresh interpreter so no earlier
test's memo or cache is counted or left out:

* the synthetic hash memo after two sim-days of hourly Mainnet growth
  holds at most what the build warmed plus one generation;
* ``tracemalloc``'s current bytes after a 0.25-day crawl of a 2 000-node
  world, less those of a 1 000-node world, over 1 000, stays under a
  per-node budget that a 2.5 KB Mersenne Twister per dialled node exceeds.
"""

import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_MEMO = """
from repro.chain.synthetic import _HASH_MEMO
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.population import PopulationConfig
from repro.simnet.world import MAINNET_START_HEIGHT, SimWorld, WorldConfig
population = PopulationConfig(total_nodes=300, seed=2018, measurement_days=3.0)
world = SimWorld(WorldConfig(population=population, seed=7))
built = len(_HASH_MEMO)
head = world.mainnet.height
# one generation: every height a Mainnet follower can advertise now
generation = len({head} | {
    node.best_block(head) for node in world.nodes.values()
    if world.chain_for(node.spec) is world.mainnet
})
run_fleet(world, instance_count=1, days=2.0, config=NodeFinderConfig(seed=1, shards=1))
print(built, generation, len(_HASH_MEMO), world.mainnet.height - MAINNET_START_HEIGHT)
"""

_CRAWL = """
import sys, tracemalloc
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
tracemalloc.start()
population = PopulationConfig(total_nodes=int(sys.argv[1]), seed=2018, measurement_days=1.0)
world = SimWorld(WorldConfig(population=population, seed=7))
fleet = run_fleet(world, instance_count=1, days=0.25, config=NodeFinderConfig(seed=1, shards=1))
print(tracemalloc.get_traced_memory()[0])
"""

#: a built node (≈1.8 KB, ``tests/test_world_budget.py``), its share of
#: the crawl's NodeDB and the read-ahead of a dialled node's outcome
#: stream (≈2.3 KB measured); a 2.5 KB generator per dialled node took the
#: slope to ≈3.2 KB
BUDGET_BYTES_PER_NODE = 2688


def _run(code: str, *args: object) -> list[int]:
    return [
        int(value)
        for value in subprocess.run(
            [sys.executable, "-c", code, *map(str, args)],
            env=dict(os.environ, PYTHONPATH=_SRC),
            check=True,
            capture_output=True,
            text=True,
        ).stdout.split()
    ]


def test_the_hash_memo_holds_one_mainnet_generation():
    built, generation, held, grown = _run(_MEMO)
    assert grown >= 48 * 240  # 48 hourly growth ticks at least
    assert held <= built + generation


def test_a_crawled_node_costs_under_budget():
    (small,), (large,) = _run(_CRAWL, 1000), _run(_CRAWL, 2000)
    per_node = (large - small) / 1000
    assert 0 < per_node < BUDGET_BYTES_PER_NODE
