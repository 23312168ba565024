"""Merging metrics snapshots across a fleet of instances.

The paper ran 30 NodeFinder instances and analysed their union;
:func:`merge_snapshots` gives the registry equivalent: fold N
per-instance :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`
dumps into one — series with identical label sets are summed
(counter/gauge values, histogram buckets), yielding the fleet total for
every family.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.telemetry.metrics import MetricError

_LabelKey = Tuple[Tuple[str, str], ...]


def _series_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted(labels.items()))


def _merge_series(target: dict, source: dict, family: str) -> None:
    if "value" in source:
        target["value"] = target.get("value", 0.0) + source["value"]
        return
    if [bound for bound, _ in target["buckets"]] != [
        bound for bound, _ in source["buckets"]
    ]:
        raise MetricError(
            f"histogram {family} has mismatched bucket bounds across instances"
        )
    target["buckets"] = [
        [bound, count + other_count]
        for (bound, count), (_, other_count) in zip(
            target["buckets"], source["buckets"]
        )
    ]
    target["inf"] += source["inf"]
    target["sum"] += source["sum"]
    target["count"] += source["count"]


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Fold per-instance registry snapshots into one fleet snapshot."""
    families: Dict[str, dict] = {}
    for snapshot in snapshots:
        for family in snapshot.get("metrics", []):
            name = family["name"]
            merged = families.get(name)
            if merged is None:
                merged = {
                    "name": name,
                    "type": family["type"],
                    "help": family["help"],
                    "labelnames": list(family["labelnames"]),
                    "_series": {},
                }
                families[name] = merged
            elif merged["type"] != family["type"]:
                raise MetricError(
                    f"metric {name} registered as {merged['type']} by one "
                    f"instance and {family['type']} by another"
                )
            for series in family["series"]:
                labels = dict(series["labels"])
                key = _series_key(labels)
                existing = merged["_series"].get(key)
                if existing is None:
                    copied = {k: v for k, v in series.items() if k != "labels"}
                    if "buckets" in copied:
                        copied["buckets"] = [list(b) for b in copied["buckets"]]
                    copied["labels"] = labels
                    merged["_series"][key] = copied
                else:
                    _merge_series(existing, series, name)

    metrics = []
    for name in sorted(families):
        family = families[name]
        series = [family["_series"][key] for key in sorted(family["_series"])]
        metrics.append(
            {
                "name": family["name"],
                "type": family["type"],
                "help": family["help"],
                "labelnames": family["labelnames"],
                "series": series,
            }
        )
    return {"metrics": metrics}
