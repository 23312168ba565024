"""Human summary of a crawl journal: dial funnel, stage latencies, health.

Feeds the ``repro telemetry`` CLI subcommand: a JSONL measurement journal
replayed into per-event aggregates.  (A ``metrics.json`` snapshot renders
through ``nodefinder top`` — :mod:`repro.telemetry.health`.)
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Sequence

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


def _funnel_rows(counts: Dict[str, int]) -> List[Sequence]:
    total = sum(counts.values()) or 1
    rows = []
    for outcome in _OUTCOME_ORDER:
        if outcome in counts:
            rows.append([outcome, counts[outcome], f"{counts[outcome] / total:.1%}"])
    for outcome in sorted(set(counts) - set(_OUTCOME_ORDER)):
        rows.append([outcome, counts[outcome], f"{counts[outcome] / total:.1%}"])
    return rows


def stage_latency_rows(
    per_stage: Dict[str, Callable[[float], float]],
) -> List[Sequence]:
    """``[stage, p50, p95, max]`` rows from each stage's quantile function."""
    ordered = [
        stage
        for stage in ("connect", "rlpx", "hello", "status", "dao")
        if stage in per_stage
    ]
    ordered += sorted(set(per_stage) - set(ordered))
    return [
        [stage] + [f"{per_stage[stage](q) * 1000:.1f}ms" for q in _QUANTILES]
        for stage in ordered
    ]


class _Quantiler:
    """Exact small-sample quantiles over a journal's stage durations."""

    def __init__(self) -> None:
        self.values: List[float] = []

    def add(self, value: float) -> None:
        self.values.append(value)

    def quantile(self, q: float) -> float:
        ordered = sorted(self.values)
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


def summarize_journal(events: Iterable[Event]) -> str:
    """Render the crawl summary from a measurement journal."""
    funnel: Counter = Counter()
    stage_latency: Dict[str, _Quantiler] = defaultdict(_Quantiler)
    breaker: Counter = Counter()
    supervisor: Counter = Counter()
    retries = 0
    hellos = statuses = disconnects = daos = bonds_ok = bonds_failed = 0
    chaos: Counter = Counter()
    for event in events:
        if event.type == "dial":
            funnel[event.fields.get("outcome", "?")] += 1
            for stage, duration in (event.fields.get("stages") or {}).items():
                stage_latency[stage].add(duration)
        elif event.type == "hello":
            hellos += 1
        elif event.type == "status":
            statuses += 1
        elif event.type == "disconnect":
            disconnects += 1
        elif event.type == "dao":
            daos += 1
        elif event.type == "retry":
            retries += 1
        elif event.type == "breaker":
            breaker[event.fields.get("new", "?")] += 1
        elif event.type == "supervisor":
            supervisor[event.fields.get("event", "?")] += 1
        elif event.type == "bond":
            if event.fields.get("ok"):
                bonds_ok += 1
            else:
                bonds_failed += 1
        elif event.type == "datagram_fault":
            chaos[event.fields.get("fault", "?")] += 1
    sections = [
        format_table(
            "Dial funnel", ["outcome", "dials", "share"], _funnel_rows(funnel)
        ),
        format_table(
            "Stage latency",
            ["stage", "p50", "p95", "max"],
            stage_latency_rows(
                {stage: q.quantile for stage, q in stage_latency.items()}
            ),
        ),
        _health_text(breaker, supervisor, retries),
        (
            f"events: {hellos} hello, {statuses} status, {disconnects} "
            f"disconnect, {daos} dao-verdict; bonds {bonds_ok} ok / "
            f"{bonds_failed} failed"
        ),
    ]
    if chaos:
        sections.append(
            "chaos faults injected: "
            + ", ".join(f"{fault}={count}" for fault, count in sorted(chaos.items()))
        )
    return "\n\n".join(sections)


def _health_text(
    breaker: Counter, supervisor: Counter, retries: int
) -> str:
    breaker_text = (
        ", ".join(f"→{state}: {count}" for state, count in sorted(breaker.items()))
        or "no transitions"
    )
    return (
        f"breakers: {breaker_text}\n"
        f"supervisor: {supervisor.get('crash', 0)} crashes, "
        f"{supervisor.get('restart', 0)} restarts, "
        f"{supervisor.get('death', 0)} loop deaths\n"
        f"retries: {retries} backoff waits"
    )
