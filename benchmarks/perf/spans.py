"""Benchmark-owned spans: the traced run's record of where host time went.

A span is a row ``{rep, id, name, parent, start, end}`` on the
``time.perf_counter`` timeline of one repetition.  Rows stay in memory and
leave the process with the repetition's result.  The spans sit around the
benchmark's calls into each layer's public functions; nothing inside
``repro`` is instrumented.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Collects the spans of one repetition (``rep`` is their shared id)."""

    enabled = True

    def __init__(self, rep: str) -> None:
        self.rep = rep
        self.rows: List[dict] = []
        self._open: List[int] = []

    def add(
        self, name: str, start: float, end: float, parent: Optional[int] = None
    ) -> int:
        """Record a finished span; concurrent clients use this directly
        because their spans overlap and cannot share one open-span stack."""
        row = {
            "rep": self.rep,
            "id": len(self.rows),
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
        }
        self.rows.append(row)
        return row["id"]

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time a block as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        span_id = self.add(name, time.perf_counter(), 0.0, parent)
        self._open.append(span_id)
        try:
            yield span_id
        finally:
            self._open.pop()
            self.rows[span_id]["end"] = time.perf_counter()

    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(r["end"] - r["start"] for r in self.rows if r["name"] == name)


class NullTracer(Tracer):
    """The untraced run: no rows, no clock reads."""

    enabled = False

    def __init__(self) -> None:
        super().__init__("")

    def add(self, name, start, end, parent=None) -> int:
        return -1

    def span(self, name):  # type: ignore[override]
        return nullcontext(-1)


def self_seconds(rows: List[dict]) -> Dict[str, float]:
    """Per span name: duration minus the part its child spans cover.

    Children of one parent may overlap (two concurrent clients), so the
    covered part is the union of the child intervals, not their sum.
    """
    children: Dict[int, List[tuple]] = {}
    for row in rows:
        if row["parent"] is not None:
            children.setdefault(row["parent"], []).append((row["start"], row["end"]))
    out: Dict[str, float] = {}
    for row in rows:
        covered = 0.0
        reach = row["start"]
        for start, end in sorted(children.get(row["id"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        own = (row["end"] - row["start"]) - covered
        out[row["name"]] = out.get(row["name"], 0.0) + own
    return out
