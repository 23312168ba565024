"""``nodefinder top``: one page of crawl health off a metrics snapshot.

The per-shard gauges the dial workers publish (queue depth, loop lag,
open breakers, journal backlog — see ``Telemetry.record_shard_health``)
plus the funnel/loop counters and the per-stage dial latencies, folded
into a single text page: which shard is drowning, which breakers are
popping, which harvest stage is slow.  Input is a ``metrics.json``
snapshot file (or a live ``MetricsRegistry.snapshot()``) — this is the
one renderer of that shape — so it works on a finished sim run and on a
live crawl's export alike.  Output is byte-stable for a given snapshot:
rows sort by shard key, all numbers format fixed.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional

from repro.render import format_table
from repro.telemetry.merge import _merge_series
from repro.telemetry.metrics import quantile_from_buckets
from repro.telemetry.summary import stage_latency_rows

#: rendered for the unsharded ("" label) worker row
WHOLE_CRAWL = "-"


def _families(snapshot: dict) -> Dict[str, dict]:
    return {metric["name"]: metric for metric in snapshot.get("metrics", [])}


def _per_shard(family: Optional[dict]) -> Dict[str, float]:
    """Shard label → summed value across the family's other labels."""
    totals: Dict[str, float] = {}
    if family is None:
        return totals
    for series in family["series"]:
        shard = series["labels"].get("shard", "")
        totals[shard] = totals.get(shard, 0.0) + float(series.get("value", 0.0))
    return totals


def _scalar(family: Optional[dict]) -> float:
    return sum(
        float(series.get("value", 0.0))
        for series in (family["series"] if family is not None else ())
    )


def _by_label(family: Optional[dict], label: str) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    if family is None:
        return totals
    for series in family["series"]:
        key = series["labels"].get(label, "")
        totals[key] = totals.get(key, 0.0) + float(series.get("value", 0.0))
    return totals


def _stage_quantiles(family: Optional[dict]) -> Dict[str, Callable[[float], float]]:
    """Stage → bucket-interpolated quantile function.

    The family carries one series per (stage, shard); a stage's bucket
    counts fold across shards rather than letting one shard's histogram
    stand for the crawl.
    """
    folded: Dict[str, dict] = {}
    for series in family["series"] if family is not None else ():
        stage = series["labels"].get("stage", "?")
        if stage in folded:
            _merge_series(folded[stage], series, family["name"])
        else:
            folded[stage] = dict(series)
    return {
        stage: partial(
            quantile_from_buckets,
            [bound for bound, _ in histogram["buckets"]],
            [count for _, count in histogram["buckets"]],
            histogram["inf"],
        )
        for stage, histogram in folded.items()
    }


def _shard_sort_key(shard: str):
    """Numeric-first ordering over plain indices and ``<k>.g<gen>`` ids.

    Elastic crawls label shards by stable segment id; sorting the ``k``
    and generation parts numerically keeps ``10.g2`` after ``2.g1``
    instead of the lexicographic interleave.
    """
    if shard.isdigit():
        return (0, int(shard), -1, shard)
    head, sep, tail = shard.partition(".g")
    if sep and head.isdigit() and tail.isdigit():
        return (0, int(head), int(tail), shard)
    return (1, 0, 0, shard)


def _counts_line(title: str, counts: Dict[str, float]) -> str:
    if not counts:
        return f"{title}: none"
    parts = ", ".join(
        f"{key or WHOLE_CRAWL}={int(value)}"
        for key, value in sorted(counts.items())
        if value
    )
    return f"{title}: {parts}" if parts else f"{title}: none"


def render_top(snapshot: dict) -> str:
    """The one-page health view of a crawl's metrics snapshot."""
    families = _families(snapshot)
    dials = _per_shard(families.get("nodefinder_dials_total"))
    queue = _per_shard(families.get("crawler_shard_queue_depth"))
    lag = _per_shard(families.get("crawler_shard_loop_lag_seconds"))
    open_breakers = _per_shard(families.get("crawler_shard_open_breakers"))
    backlog = _per_shard(families.get("crawler_journal_backlog"))
    shards = sorted(
        set(dials) | set(queue) | set(lag) | set(open_breakers) | set(backlog),
        key=_shard_sort_key,
    )
    rows = [
        [
            shard or WHOLE_CRAWL,
            int(dials.get(shard, 0)),
            int(queue.get(shard, 0)),
            f"{lag.get(shard, 0.0):.3f}",
            int(open_breakers.get(shard, 0)),
            int(backlog.get(shard, 0)),
        ]
        for shard in shards
    ]
    if not rows:
        rows = [[WHOLE_CRAWL, 0, 0, "0.000", 0, 0]]
    lines = [
        format_table(
            "Shard health",
            ["shard", "dials", "queue", "lag(s)", "open-brk", "backlog"],
            rows,
        ),
        "",
        format_table(
            "Stage latency",
            ["stage", "p50", "p95", "max"],
            stage_latency_rows(
                _stage_quantiles(families.get("nodefinder_dial_stage_seconds"))
            ),
        ),
        "",
        f"writer: folds {int(_scalar(families.get('crawler_writer_folds_total')))}",
        "loops: "
        f"crashes {int(_scalar(families.get('crawler_loop_crashes_total')))}, "
        f"restarts {int(_scalar(families.get('crawler_loop_restarts_total')))}, "
        f"deaths {int(_scalar(families.get('crawler_loop_deaths_total')))}",
        _counts_line(
            "breaker transitions",
            _by_label(families.get("nodefinder_breaker_transitions_total"), "to"),
        ),
        _counts_line(
            "dial outcomes",
            _by_label(families.get("nodefinder_dials_total"), "outcome"),
        ),
    ]
    plan = _plan_line(families)
    if plan is not None:
        lines.append(plan)
    return "\n".join(lines)


def _plan_line(families: Dict[str, dict]) -> Optional[str]:
    """The live shard plan, when the crawl publishes range gauges.

    Elastic crawls publish ``crawler_shard_range_lo``/``_hi`` per segment
    and flip ``crawler_shard_active`` to 0 when a reshard retires one;
    static crawls publish none of these and the line is omitted entirely
    (existing snapshots keep rendering byte-identically).
    """
    lo = _per_shard(families.get("crawler_shard_range_lo"))
    hi = _per_shard(families.get("crawler_shard_range_hi"))
    if not lo or not hi:
        return None
    active = _per_shard(families.get("crawler_shard_active"))
    segments = [
        segment
        for segment in lo
        if segment in hi and active.get(segment, 1.0) > 0
    ]
    # merged fleet snapshots sum gauges across instances, so a segment
    # published by k instances carries k-fold lo/hi (and active == k);
    # divide back down to the per-instance range before rendering
    scale = {
        segment: max(active.get(segment, 1.0), 1.0) for segment in segments
    }
    segments.sort(
        key=lambda segment: (lo[segment] / scale[segment], _shard_sort_key(segment))
    )
    parts = " ".join(
        f"{segment}=[{int(lo[segment] / scale[segment]):#06x}"
        f",{int(hi[segment] / scale[segment]):#07x})"
        for segment in segments
    )
    return f"plan: {len(segments)} live shards  {parts}"
