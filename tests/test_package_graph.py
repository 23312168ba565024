"""The package graph of ``src/repro`` runs one way (DESIGN §2's layer table).

One AST walk: every ``repro.*`` import, function-level ones included, is
an edge from the importing top-level package to the imported one.  No file
under ``src/repro`` imports ``tests`` or ``tests.*``: the fault injectors
and reference oracles in ``tests/support`` are not part of the product.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: low to high — a package imports only packages to its left
ORDER = (
    "devtools errors units render rlp crypto resilience telemetry discovery rlpx "
    "chain devp2p ethproto fullnode nodefinder simnet datasets analysis cli"
).split()
#: edges only these importing files may have; nodefinder -> simnet is the
#: one that points up (the sim driver), the other two keep the simulator
#: out of the journal fold and the paper's reference data
ONLY_FROM = {
    ("nodefinder", "simnet"): {"nodefinder/scanner.py", "nodefinder/fleet.py"},
    ("analysis", "simnet"): {"analysis/geography.py"},
    ("datasets", "simnet"): {"datasets/ethernodes.py"},
}
#: edges that may reach only these modules (the simulator builds §4 records)
ONLY_TO = {("simnet", "nodefinder"): {"repro.nodefinder.records"}}
#: upward imports that exist for annotations alone (``if TYPE_CHECKING:``)
TYPE_ONLY = {("telemetry/hub.py", "repro.nodefinder.records")}


def violations(rel: str, source: str) -> list[str]:
    """The imports of one file (``rel`` is its path under ``src/repro``)
    that the tables above do not allow."""
    tree = ast.parse(source)
    typing_only = {
        id(node)
        for guard in ast.walk(tree)
        if isinstance(guard, ast.If) and "TYPE_CHECKING" in ast.dump(guard.test)
        for node in ast.walk(guard)
    }
    package = rel.split("/")[0].removesuffix(".py")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "repro":
            modules = [f"repro.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] == "tests":
                found.append(f"{rel}:{node.lineno} imports {module}")
                continue
            if parts[0] != "repro" or len(parts) < 2 or parts[1] == package:
                continue
            edge = (package, parts[1])
            if id(node) in typing_only and (rel, module) in TYPE_ONLY:
                continue
            if edge in ONLY_FROM:
                allowed = rel in ONLY_FROM[edge]
            elif edge in ONLY_TO:
                allowed = module in ONLY_TO[edge]
            else:
                allowed = ORDER.index(parts[1]) < ORDER.index(package)
            if not allowed:
                found.append(f"{rel}:{node.lineno} imports {module}")
    return found


def test_every_import_in_src_points_down_the_layer_table():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += violations(path.relative_to(SRC).as_posix(), path.read_text())
    assert found == []


@pytest.mark.parametrize(
    "rel, line",
    [(f"nodefinder/{name}.py", "from repro.simnet.clock import WheelClock")
     for name in "records database core shard wire live defense sanitize".split()]
    + [(f"analysis/{name}.py", "from repro.simnet.world import SimWorld")
       for name in ("ingest", "churn", "comparison")]
    + [
        ("telemetry/hub.py", "import repro.simnet.world"),
        ("telemetry/summary.py", "def f():\n    from repro.analysis.report import render_crawl_report"),
        ("telemetry/hub.py", "from repro.nodefinder.records import DialResult"),
        ("chain/chain.py", "from repro.ethproto.forks import dao_fork_side"),
        ("simnet/world.py", "from repro.nodefinder.database import NodeDB"),
        ("nodefinder/core.py", "if TYPE_CHECKING:\n    from repro.simnet.world import NodeAddress"),
        ("fullnode.py", "from tests.support.chaos import ChaosConfig"),
        ("simnet/world.py", "def f():\n    import tests.support.clock"),
        ("crypto/keccak.py", "from tests import support"),
    ],
)
def test_a_reintroduced_edge_is_caught(rel, line):
    assert violations(rel, line)
