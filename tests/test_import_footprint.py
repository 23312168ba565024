"""What a process pays at import: no numpy until a batch, a small compile.

The live crawler, the full node, the analysis and the CLI never run a
batched permutation, so importing them must not load numpy; the first
``keccak256_batch`` large enough to vectorise loads it.  Importing
``repro.crypto`` compiles the generated permutation, whose transient
allocation is bounded here.  Each check runs in a fresh interpreter, since
this one has long since imported everything.
"""

import json
import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_NUMPY_ON_FIRST_BATCH = """
import json, sys
import repro.nodefinder.live, repro.fullnode, repro.discovery.protocol
import repro.analysis.ingest, repro.analysis.report, repro.telemetry.health
import repro.simnet.world, repro.cli
before = "numpy" in sys.modules
from repro.crypto.keccak import _BATCH_CROSSOVER, keccak256, keccak256_batch
payloads = [bytes([i]) * (i % 136) for i in range(_BATCH_CROSSOVER)]
digests = keccak256_batch(payloads)
print(json.dumps({
    "before": before,
    "after": "numpy" in sys.modules,
    "equal": digests == [keccak256(p) for p in payloads],
}))
"""

_IMPORT_PEAK = """
import tracemalloc
tracemalloc.start()
import repro.crypto
print(tracemalloc.get_traced_memory()[1])
"""


def _run(source: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", source],
        env=dict(os.environ, PYTHONPATH=_SRC),
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def test_numpy_loads_on_the_first_batch_not_on_import():
    seen = json.loads(_run(_NUMPY_ON_FIRST_BATCH))
    assert seen == {"before": False, "after": True, "equal": True}


def test_importing_crypto_peaks_under_4_mb():
    assert int(_run(_IMPORT_PEAK)) < 4 * 1024 * 1024
