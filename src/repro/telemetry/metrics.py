"""Dependency-free metrics primitives for the measurement stack.

The paper's NodeFinder is a measurement instrument first: every analysis
in §4–§6 is derived from counts and latency distributions the crawler
kept while it ran.  :class:`MetricsRegistry` holds the runtime's live
numbers the same way — Counter / Gauge / Histogram families with labeled
children (``dials_total{outcome="full-harvest",stage=""}``), fixed
histogram bucket bounds so two runs bucket identically, and an
*injected* clock (never a direct wall-clock read — the OBS-CLOCK lint
family enforces this) so simulated runs stay reproducible.

There is deliberately no process-global default registry: a registry is
constructed by whoever owns the run and passed down, with
:class:`NullRegistry` as the no-op stand-in for uninstrumented call
sites.
"""

from __future__ import annotations

import bisect
import re
import time
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import ReproError

#: default latency bucket bounds in seconds (harvest stages live in the
#: 1ms–10s range on a WAN; ``+Inf`` is implicit)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ReproError):
    """Misuse of the metrics API (bad name, label mismatch, re-registration)."""


def _check_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")


class _Child:
    """One labeled series of a metric family."""

    __slots__ = ("labels",)

    def __init__(self, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.labels = labels


class CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, labels: Tuple[Tuple[str, str], ...]) -> None:
        super().__init__(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up")
        self.value += amount


class GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, labels: Tuple[Tuple[str, str], ...]) -> None:
        super().__init__(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


def quantile_from_buckets(
    bounds: Sequence[float],
    bucket_counts: Sequence[float],
    inf_count: float,
    q: float,
) -> float:
    """Estimate the q-quantile from cumulative-free bucket counts.

    Prometheus-style linear interpolation inside the winning bucket; the
    open ``+Inf`` bucket clamps to the highest finite bound (there is no
    upper edge to interpolate toward).
    """
    if not 0.0 <= q <= 1.0:
        raise MetricError(f"quantile {q} outside [0, 1]")
    total = sum(bucket_counts) + inf_count
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0.0
    for index, count in enumerate(bucket_counts):
        cumulative += count
        if cumulative >= rank and count > 0:
            upper = bounds[index]
            lower = bounds[index - 1] if index > 0 else 0.0
            position = (rank - (cumulative - count)) / count
            return lower + (upper - lower) * position
    return bounds[-1] if bounds else 0.0


class HistogramChild(_Child):
    __slots__ = ("bounds", "bucket_counts", "inf_count", "sum", "count")

    def __init__(
        self, labels: Tuple[Tuple[str, str], ...], bounds: Tuple[float, ...]
    ) -> None:
        super().__init__(labels)
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.inf_count = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # Prometheus buckets are upper-inclusive: le=0.05 takes 0.05 itself
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self.bounds):
            self.bucket_counts[index] += 1
        else:
            self.inf_count += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        return quantile_from_buckets(self.bounds, self.bucket_counts, self.inf_count, q)


class Metric:
    """One metric family: a name plus its labeled children."""

    kind = ""
    child_class: type = _Child

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        _check_name(name)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r} on {name}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], _Child] = {}

    def _make_child(self, labels: Tuple[Tuple[str, str], ...]) -> _Child:
        return self.child_class(labels)

    def labels(self, **labels: str):
        # hot path: build the key directly; a KeyError (missing label) or
        # length mismatch (extra label) falls through to the same error
        try:
            key = tuple(str(labels[name]) for name in self.labelnames)
        except KeyError:
            key = None
        if key is None or len(labels) != len(self.labelnames):
            raise MetricError(
                f"{self.name} expects labels {self.labelnames}, got "
                f"{tuple(sorted(labels))}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._make_child(tuple(zip(self.labelnames, key)))
            self._children[key] = child
        return child

    def _default_child(self):
        if self.labelnames:
            raise MetricError(
                f"{self.name} is labeled by {self.labelnames}; call .labels()"
            )
        return self.labels()

    @property
    def children(self) -> Iterable[_Child]:
        return self._children.values()


class Counter(Metric):
    kind = "counter"
    child_class = CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        child = self._children.get(())
        return child.value if child is not None else 0.0

    def total(self, **match: str) -> float:
        """Sum every child whose labels include ``match``.

        ``dials.total()`` aggregates across all series (e.g. every shard);
        ``dials.total(outcome="timeout")`` sums just the matching slice.
        Unknown label names are a misuse, same as :meth:`labels`.
        """
        for name in match:
            if name not in self.labelnames:
                raise MetricError(
                    f"{self.name} has labels {self.labelnames}, not {name!r}"
                )
        wanted = {name: str(value) for name, value in match.items()}
        result = 0.0
        for child in self._children.values():
            labels = dict(child.labels)
            if all(labels.get(name) == value for name, value in wanted.items()):
                result += child.value  # type: ignore[attr-defined]
        return result


class Gauge(Metric):
    kind = "gauge"
    child_class = GaugeChild

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        child = self._children.get(())
        return child.value if child is not None else 0.0


class Histogram(Metric):
    kind = "histogram"
    child_class = HistogramChild

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise MetricError(f"histogram {name} needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise MetricError(f"histogram {name} has duplicate bucket bounds")
        self.bounds = bounds
        super().__init__(name, help, labelnames)

    def _make_child(self, labels: Tuple[Tuple[str, str], ...]) -> HistogramChild:
        return HistogramChild(labels, self.bounds)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def quantile(self, q: float) -> float:
        child = self._children.get(())
        return child.quantile(q) if child is not None else 0.0


class MetricsRegistry:
    """Get-or-create home for every metric family of one run.

    The clock is injected (``time.monotonic`` by reference as the
    default) and shared with spans/journal timestamps by the
    :class:`~repro.telemetry.hub.Telemetry` facade.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock = clock if clock is not None else time.monotonic
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise MetricError(
                    f"metric {name} already registered as {existing.kind} "
                    f"with labels {existing.labelnames}"
                )
            return existing
        metric = cls(name, help, labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )
        if metric.bounds != tuple(sorted(float(b) for b in buckets)):
            raise MetricError(f"histogram {name} re-registered with other buckets")
        return metric

    def collect(self) -> Iterator[Metric]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def snapshot(self) -> dict:
        """A JSON-able dump of every family (the CLI's input format)."""
        metrics = []
        for metric in self.collect():
            series = []
            for child in metric.children:
                entry: dict = {"labels": dict(child.labels)}
                if isinstance(child, HistogramChild):
                    entry["buckets"] = [
                        [bound, count]
                        for bound, count in zip(child.bounds, child.bucket_counts)
                    ]
                    entry["inf"] = child.inf_count
                    entry["sum"] = child.sum
                    entry["count"] = child.count
                else:
                    entry["value"] = child.value  # type: ignore[attr-defined]
                series.append(entry)
            metrics.append(
                {
                    "name": metric.name,
                    "type": metric.kind,
                    "help": metric.help,
                    "labelnames": list(metric.labelnames),
                    "series": series,
                }
            )
        return {"metrics": metrics}


class _NullChild:
    """Accepts every instrument call and records nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    @property
    def value(self) -> float:
        return 0.0

    def total(self, **match: str) -> float:
        return 0.0


class _NullMetric(_NullChild):
    __slots__ = ()

    def labels(self, **labels: str) -> "_NullMetric":
        return self

    @property
    def children(self) -> tuple:
        return ()


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """The no-op registry uninstrumented call sites run against.

    Every family resolves to one shared do-nothing instrument, so the
    instrumentation hot path costs a method call and nothing else (the
    CI overhead guard holds this under 5% of a harvest).
    """

    def counter(self, name, help="", labelnames=()):  # type: ignore[override]
        return _NULL_METRIC

    def gauge(self, name, help="", labelnames=()):  # type: ignore[override]
        return _NULL_METRIC

    def histogram(self, name, help="", labelnames=(), buckets=DEFAULT_BUCKETS):  # type: ignore[override]
        return _NULL_METRIC

    def collect(self):  # type: ignore[override]
        return iter(())

    def snapshot(self) -> dict:
        return {"metrics": []}
