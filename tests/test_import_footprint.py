"""What a process pays at import, and what it never loads.

The package has no runtime dependency: a whole simulated pipeline — world
build, crawl, journal replay, report — and a batch hash run in an
interpreter where numpy cannot be imported.  Importing ``repro.crypto``
compiles the generated permutation, whose transient allocation is bounded
here.  Each check runs in a fresh interpreter, since this one has long
since imported everything.
"""

import json
import os
import subprocess
import sys

from tests.test_journal_bytes import PINNED

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: the benchmark's smoke pipeline on four shards, with numpy unimportable
_WITHOUT_NUMPY = """
import hashlib, json, sys
sys.modules["numpy"] = None  # any import of it raises ImportError
from repro.analysis.ingest import replay_journals
from repro.analysis.report import render_crawl_report
from repro.crypto.keccak import _BATCH_CROSSOVER, keccak256, keccak256_batch
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig

population = PopulationConfig(total_nodes=300, seed=2018, measurement_days=1.0)
world = SimWorld(WorldConfig(population=population, seed=7))
fleet = run_fleet(
    world, instance_count=1, days=0.05,
    config=NodeFinderConfig(seed=1, shards=4), telemetry_dir=sys.argv[1],
)
replayed = replay_journals(fleet.journal_paths)
report = render_crawl_report(replayed.db, total_days=0.05)
payloads = [bytes([i]) * (i % 136) for i in range(4 * _BATCH_CROSSOVER)]
print(json.dumps({
    "segments": {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in fleet.journal_paths
    },
    "report": bool(report),
    "batch_equals_scalar": keccak256_batch(payloads) == [keccak256(p) for p in payloads],
}))
"""

_IMPORT_PEAK = """
import tracemalloc
tracemalloc.start()
import repro.crypto
print(tracemalloc.get_traced_memory()[1])
"""


def _run(source: str, *args: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", source, *args],
        env=dict(os.environ, PYTHONPATH=_SRC),
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def test_the_smoke_pipeline_and_a_batch_run_without_numpy(tmp_path):
    seen = json.loads(_run(_WITHOUT_NUMPY, str(tmp_path)))
    assert seen == {"segments": PINNED[4], "report": True, "batch_equals_scalar": True}


def test_importing_crypto_peaks_under_4_mb():
    assert int(_run(_IMPORT_PEAK)) < 4 * 1024 * 1024
