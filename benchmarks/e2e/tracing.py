"""Span recorder for the traced benchmark run.

A span is one call into a layer of the program: a name, a start and
end (``time.perf_counter`` seconds), the span it ran inside, and — for
served requests — the request id.  Spans stay in memory and are written
once, at the end of the run, as Chrome trace-event JSON (Perfetto and
``chrome://tracing`` open it with nothing to install).

The recorder is used from the benchmark's main thread only; spans of
work that ran on server threads are added afterwards with
:meth:`Tracer.add` from the timestamps each response carries.  The
untraced run uses :class:`NullTracer`, whose calls do nothing, so the
end-to-end numbers pay no tracing cost.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int] = None
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: spans and wrappers cost nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Dict[str, object]]:
        yield {}

    def wrap(self, fn, name: str):
        return fn

    def add(self, name, start, end, parent=None, request=None, **args):
        return None


class Tracer(NullTracer):
    """Records spans in memory; see the module docstring."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Dict[str, object]]:
        """Time the body as a child of the innermost open span.  The
        yielded dict becomes the span's args, so counts measured inside
        the body can be attached to it."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield args
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, None, args))

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*a, **kw):
            with self.span(name):
                return fn(*a, **kw)
        return traced

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, request: Optional[int] = None,
            **args) -> int:
        """Record a span timed elsewhere; returns its id for children."""
        sid = next(self._ids)
        self.spans.append(Span(sid, name, start, end, parent, request, args))
        return sid

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _children(self) -> Dict[Optional[int], List[Span]]:
        children: Dict[Optional[int], List[Span]] = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append(s)
        return children

    def unit_totals(self, root: str) -> List[Dict[str, float]]:
        """For every top-level span named ``root``, the summed seconds
        (``<name>``) and self seconds (``<name>:self``) of each span
        name beneath it, plus summed numeric args (``<name>#<arg>``).

        A span's self time is its duration minus the part of it that
        its child spans cover.
        """
        children = self._children()
        units = []
        for top in children.get(None, []):
            if top.name != root:
                continue
            totals: Dict[str, float] = {}
            todo = list(children.get(top.id, []))
            while todo:
                s = todo.pop()
                kids = children.get(s.id, [])
                todo.extend(kids)
                totals[s.name] = totals.get(s.name, 0.0) + s.seconds
                key = s.name + ":self"
                totals[key] = totals.get(key, 0.0) + s.seconds - _covered(s, kids)
                for arg, value in s.args.items():
                    if isinstance(value, (int, float)):
                        key = f"{s.name}#{arg}"
                        totals[key] = totals.get(key, 0.0) + value
            units.append(totals)
        return units

    def durations(self, name: str) -> List[float]:
        return [s.seconds for s in self.spans if s.name == name]

    # ------------------------------------------------------------------
    # Chrome trace-event export
    # ------------------------------------------------------------------
    def write(self, path: Path, metadata: Dict[str, object]) -> None:
        """Write every span as a complete ("X") event.  Request spans
        overlap in time, so each request tree gets its own lane, reused
        once the lane's previous request has ended."""
        children = self._children()
        lane_of: Dict[int, int] = {}
        lane_free: List[float] = []
        for top in sorted(children.get(None, []), key=lambda s: s.start):
            if top.request is None:
                continue
            lane = next((i for i, free in enumerate(lane_free)
                         if free <= top.start), len(lane_free))
            if lane == len(lane_free):
                lane_free.append(0.0)
            lane_free[lane] = top.end
            todo = [top]
            while todo:
                s = todo.pop()
                lane_of[s.id] = lane + 1
                todo.extend(children.get(s.id, []))
        events: List[Dict[str, object]] = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "benchmark"}}]
        events += [{"name": "thread_name", "ph": "M", "pid": 1, "tid": i + 1,
                    "args": {"name": f"request lane {i + 1}"}}
                   for i in range(len(lane_free))]
        for s in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            args = dict(s.args, span=s.id, parent=s.parent)
            if s.request is not None:
                args["request"] = s.request
            events.append({
                "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                "ts": (s.start - self.origin) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": 1, "tid": lane_of.get(s.id, 0), "args": args})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms",
                                    "otherData": metadata}))


def _covered(span: Span, kids: List[Span]) -> float:
    """Seconds of ``span`` covered by the union of its children."""
    covered = 0.0
    cursor = span.start
    for k in sorted(kids, key=lambda k: k.start):
        lo, hi = max(k.start, cursor), min(k.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
