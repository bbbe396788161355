"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, a start, an end, its parent span and the run id; they
are kept in memory and written out as JSON lines when the run ends.  A
span's self time is its duration minus the part of that interval its
children cover, with overlapping children counted once.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str


class Tracer:
    def __init__(self, run: str):
        self.run = run
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                    self.run)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def self_times(self) -> Dict[int, float]:
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        return {s.id: self_time(s.start, s.end, children.get(s.id, ()))
                for s in self.spans}

    def self_by_name(self) -> Dict[str, float]:
        """Summed self time per span name."""
        out: Dict[str, float] = {}
        for span_id, t in self.self_times().items():
            name = self.spans[span_id].name
            out[name] = out.get(name, 0.0) + t
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_time(start: float, end: float, children) -> float:
    """``end - start`` minus the union of the child intervals clipped to
    ``[start, end]``."""
    covered = 0.0
    cursor = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return (end - start) - covered
