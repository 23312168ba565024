"""SIM-DET / OBS-CLOCK / INGEST-PURE / SHARD-SAFE: no call into ambient state.

Four packages promise that what they produce is a function of what was
injected into them: the simulated world of its seed and ``WheelClock``,
telemetry of its one injected clock, analysis of the crawl artifact, the
crawler of its per-shard rng and crawl clock.  That is one invariant —
*no call* that resolves to the global RNG, a wall clock, the calendar,
OS entropy, file I/O or a private heap inside the package — so it is one
AST walk; :data:`AMBIENT_RULES` says which package bans which classes
and what to use instead.  Only calls fire: passing ``time.monotonic``
uncalled as a default clock is the sanctioned idiom.
"""

from __future__ import annotations

from typing import Iterator

import ast

from repro.devtools.astutil import import_aliases, resolve_call
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, register
from repro.devtools.source import ModuleSource

#: ``random.Random(seed)`` / ``random.SystemRandom()`` build an explicit
#: generator to be threaded; every other ``random.*`` call is the global one
_RANDOM_ALLOWED = {"Random", "SystemRandom"}

#: ban class -> the dotted call targets in it ("global-RNG" and ``secrets.*`` are
#: matched by prefix in :func:`_ban_class`)
_BANNED = {
    "wall-clock": {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.thread_time_ns",
    },
    "calendar": {
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    },
    "OS-entropy": {"os.urandom", "uuid.uuid1", "uuid.uuid4"},
    "file-I/O": {
        "open",
        "io.open",
        "os.popen",
        "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryFile",
    },
    # heap *mutation* is an event queue; the read-only helpers
    # (nsmallest/nlargest/merge) stay allowed
    "heap-scheduling": {
        "heapq.heappush",
        "heapq.heappop",
        "heapq.heapify",
        "heapq.heapreplace",
        "heapq.heappushpop",
    },
}

#: (code, scope, banned classes, remedy)
AMBIENT_RULES = (
    (
        "SIM-DET",
        ("simnet", "chain"),
        ("global-RNG", "wall-clock", "calendar", "OS-entropy", "heap-scheduling"),
        "thread a seeded random.Random and schedule through the WheelClock, so "
        "runs reproduce and the scheduler-equivalence harness sees every "
        "event (only repro/simnet/clock.py owns a heap)",
    ),
    (
        "OBS-CLOCK",
        ("telemetry",),
        ("wall-clock", "calendar"),
        "call the injected clock (self.clock()) so metrics, spans and journal "
        "share one timeline; pass time.monotonic by reference only as a default",
    ),
    (
        "INGEST-PURE",
        ("analysis",),
        ("wall-clock", "calendar", "file-I/O"),
        "a replayed report must not depend on when or where it renders: take "
        "timestamps from the event stream and sources as parameters "
        "(repro.telemetry.read_events does the reading)",
    ),
    (
        "SHARD-SAFE",
        ("nodefinder",),
        ("global-RNG", "wall-clock"),
        "inject a seeded per-shard random.Random and the crawl clock so N "
        "shards stay conformant with the unsharded crawl",
    ),
)


def _ban_class(target: str) -> str | None:
    """The ban class a resolved call target belongs to, if any."""
    if target.startswith("random."):
        allowed = target.split(".")[1] in _RANDOM_ALLOWED
        return None if allowed else "global-RNG"
    if target.startswith("secrets."):
        return "OS-entropy"
    for kind, targets in _BANNED.items():
        if target in targets:
            return kind
    return None


class AmbientCalls(Rule):
    """One row of :data:`AMBIENT_RULES`."""

    banned: tuple[str, ...] = ()
    remedy = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        parts = module.path.parts
        owns_heap = "simnet" in parts and parts[-1] == "clock.py"
        where = "/".join(self.scope or ())
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call(node.func, aliases)
            kind = _ban_class(target) if target is not None else None
            if kind not in self.banned or (kind == "heap-scheduling" and owns_heap):
                continue
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"{kind} call {target}() in {where} code; {self.remedy}",
            )


for _code, _scope, _banned, _remedy in AMBIENT_RULES:
    register(
        type(
            _code,
            (AmbientCalls,),
            {
                "code": _code,
                "scope": _scope,
                "banned": _banned,
                "remedy": _remedy,
                "description": f"no {', '.join(_banned)} calls in "
                f"{'/'.join(_scope)} code; {_remedy}",
            },
        )
    )
