"""``nodefinder top``: one page of crawl health, folded from its journals.

The journal is the crawl's one record (§4's measurement log), so the
health page is a fold over it: one row per journal file (dials, full
harvests, HELLO and STATUS records), the dial funnel, exact per-stage
latency quantiles, breaker transitions by scope, and supervisor and
discovery health.  A sharded crawl passes every shard's file and gets
one page for the whole crawl; a fleet passes every instance's files.
Output is byte-stable for given journals: rows sort by file name with
numbers compared as numbers, every count prints fixed.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.render import format_table
from repro.telemetry.journal import Event

#: stage-latency columns: medians for the bulk, p95 for the tail, and the
#: worst single observation (max exposes the one outlier percentiles hide)
_QUANTILES = (0.5, 0.95, 1.0)

#: §4 funnel order: the stages a dial passes through, worst first
_OUTCOME_ORDER = (
    "full-harvest",
    "hello-then-disconnect",
    "hello-no-status",
    "disconnect-before-hello",
    "rlpx-failed",
    "refused",
    "timeout",
)

#: harvest stages in the order a dial runs them
_STAGE_ORDER = ("connect", "rlpx", "hello", "status", "dao")


def quantile(ordered: Sequence[float], q: float) -> float:
    """The exact ``q``-quantile of ascending ``ordered``: the sample at rank
    ``floor(q * n)``, clamped to the maximum; 0.0 with no samples."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def natural_key(name: str) -> List:
    """Sort key comparing digit runs as numbers: ``shard2`` before
    ``shard10``."""
    return [
        int(part) if index % 2 else part
        for index, part in enumerate(re.split(r"(\d+)", name))
    ]


def _counts(counts: Counter) -> str:
    return ", ".join(f"→{state} {count}" for state, count in sorted(counts.items()))


class JournalHealth:
    """The fold behind the page: everything ``top`` prints, from events."""

    def __init__(self) -> None:
        #: per journal file: its name and its records counted by type
        #: (``full`` counts full-harvest dials)
        self.files: List[Tuple[str, Counter]] = []
        self.funnel: Counter = Counter()
        self.stages: Dict[str, List[float]] = defaultdict(list)
        #: breaker transitions by scope, then by destination state
        self.breakers: Dict[str, Counter] = {"peer": Counter(), "subnet": Counter()}
        #: (crawler, peer) -> (ts, state) of the peer's latest breaker record
        self.last_breaker: Dict[Tuple[str, str], Tuple[float, str]] = {}
        self.supervisor: Counter = Counter()
        self.bonds: Counter = Counter()

    def add(self, name: str, events: Iterable[Event]) -> None:
        """Fold one journal file's events under the row ``name``."""
        counts: Counter = Counter()
        self.files.append((Path(name).name, counts))
        crawler = ""
        for event in events:
            kind, fields = event.type, event.fields
            counts[kind] += 1
            if kind == "dial":
                outcome = fields.get("outcome", "?")
                self.funnel[outcome] += 1
                if outcome == "full-harvest":
                    counts["full"] += 1
                for stage, duration in (fields.get("stages") or {}).items():
                    self.stages[stage].append(duration)
            elif kind == "breaker":
                new = fields.get("new", "?")
                if fields.get("scope") == "subnet":
                    self.breakers["subnet"][new] += 1
                else:
                    self.breakers["peer"][new] += 1
                    key = (crawler, fields.get("node_id", ""))
                    last = self.last_breaker.get(key)
                    if last is None or event.ts >= last[0]:
                        self.last_breaker[key] = (event.ts, new)
            elif kind == "supervisor":
                self.supervisor[fields.get("event", "?")] += 1
            elif kind == "bond":
                self.bonds["ok" if fields.get("ok") else "failed"] += 1
            elif kind == "crawler":
                crawler = fields.get("node_id", "")

    def render(self) -> str:
        rows = [
            [name]
            + [counts[kind] for kind in ("dial", "full", "hello", "status")]
            for name, counts in sorted(self.files, key=lambda f: natural_key(f[0]))
        ]
        records = sum((counts for _, counts in self.files), Counter())
        dials = sum(self.funnel.values()) or 1
        outcomes = [o for o in _OUTCOME_ORDER if o in self.funnel]
        outcomes += sorted(set(self.funnel) - set(outcomes))
        stages = [s for s in _STAGE_ORDER if s in self.stages]
        stages += sorted(set(self.stages) - set(stages))
        latency = []
        for stage in stages:
            ordered = sorted(self.stages[stage])
            latency.append(
                [stage]
                + [f"{quantile(ordered, q) * 1000:.1f}ms" for q in _QUANTILES]
            )
        still_open = sum(
            1 for _, state in self.last_breaker.values() if state == "open"
        )
        peer, subnet = self.breakers["peer"], self.breakers["subnet"]
        supervisor = self.supervisor
        sections = [
            format_table(
                "Journals",
                ["journal", "dials", "full", "hello", "status"],
                rows,
            ),
            format_table(
                "Dial funnel",
                ["outcome", "dials", "share"],
                [
                    [o, self.funnel[o], f"{self.funnel[o] / dials:.1%}"]
                    for o in outcomes
                ],
            ),
            (
                format_table("Stage latency", ["stage", "p50", "p95", "max"], latency)
                if latency
                else "stage latency: no stage timings in these journals"
            ),
            "\n".join(
                [
                    f"peer breakers: {_counts(peer) or 'no transitions'}; "
                    f"last reported open: {still_open}",
                    f"subnet breakers: {_counts(subnet) or 'no transitions'}",
                    f"supervisor: {supervisor['crash']} crashes, "
                    f"{supervisor['restart']} restarts, "
                    f"{supervisor['death']} loop deaths",
                    f"retries: {records['retry']} backoff waits",
                ]
            ),
            (
                f"events: {records['hello']} hello, "
                f"{records['status']} status, "
                f"{records['disconnect']} disconnect, {records['dao']} "
                f"dao-verdict; bonds {self.bonds['ok']} ok / "
                f"{self.bonds['failed']} failed"
            ),
        ]
        return "\n\n".join(sections)


def render_top(journals: Iterable[Tuple[str, Iterable[Event]]]) -> str:
    """The one-page health view of a crawl's ``(file name, events)`` journals."""
    health = JournalHealth()
    for name, events in journals:
        health.add(name, events)
    return health.render()
