"""The simnet world's memory budget: bytes a node costs once it is built.

A world of the paper's size (15–30K peers) is bounded by what each
simulated node holds, so that cost is pinned here as the slope between
two builds: ``tracemalloc``'s current bytes after ``SimWorld`` builds
2 000 nodes, less those after it builds 1 000, over 1 000.  What this
catches is per-node state that grows — an eager generator, a cached
answer, a copied record — before it shows up as ``peak_rss_mb`` in the
benchmark, where the interpreter and the crawl hide it.  Each build runs
in a fresh interpreter, so no earlier test's keccak memo or chain cache
is counted or left out.
"""

import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_BUILD = """
import sys, tracemalloc
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
tracemalloc.start()
population = PopulationConfig(total_nodes=int(sys.argv[1]), seed=2018, measurement_days=1.0)
world = SimWorld(WorldConfig(population=population, seed=7))
print(tracemalloc.get_traced_memory()[0])
"""

#: a node's spec, its wrapper, its ID hash and neighbour list, its share
#: of the chain memo — and a 64-bit seed, not a 2.5 KB Mersenne Twister
BUDGET_BYTES_PER_NODE = 2048


def _built_bytes(nodes: int) -> int:
    return int(
        subprocess.run(
            [sys.executable, "-c", _BUILD, str(nodes)],
            env=dict(os.environ, PYTHONPATH=_SRC),
            check=True,
            capture_output=True,
            text=True,
        ).stdout
    )


def test_a_built_node_costs_under_2_kb():
    per_node = (_built_bytes(2000) - _built_bytes(1000)) / 1000
    assert 0 < per_node < BUDGET_BYTES_PER_NODE
