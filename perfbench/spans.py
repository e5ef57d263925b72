"""In-memory spans for the traced run, and the arithmetic derived from them.

A span is a dict: id, parent (id or None), name, layer, start, end (seconds,
``time.perf_counter``), run (the operation it belongs to) and counts (work
done inside it).  Spans stay in memory until the traced process ends.
"""

from __future__ import annotations

import functools
import re
import time


class Recorder:
    """Collects nested spans around wrapped callables."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "run": self.run,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, layer: str, fn, count=None):
        """fn inside a span; count(span, result, args, kwargs) fills span counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(span, result, args, kwargs)
            return result

        return wrapper


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            lo, hi = max(s["start"], parent["start"]), min(s["end"], parent["end"])
            if hi > lo:
                children.setdefault(s["parent"], []).append((lo, hi))
    return {
        s["id"]: (s["end"] - s["start"]) - _union_length(children.get(s["id"], []))
        for s in spans
    }


def covered(spans: list[dict], layers: set[str]) -> float:
    """Wall time covered by at least one span of the given layers."""
    return _union_length([(s["start"], s["end"]) for s in spans if s["layer"] in layers])


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def importtime_split(stderr: str) -> dict[str, float]:
    """Self import time in seconds, grouped by top-level package.

    Parses ``python -X importtime`` output; modules outside numpy, scipy
    and rqtlab are grouped as "other".
    """
    groups = {"numpy": 0.0, "scipy": 0.0, "rqtlab": 0.0, "other": 0.0}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        top = m.group(4).split(".")[0]
        groups[top if top in groups else "other"] += int(m.group(1)) * 1e-6
    return groups
