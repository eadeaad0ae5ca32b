"""In-memory spans recorded around calls into the library.

A span has a name, a start, an end, the span that was open when it began
and the pass it belongs to. Spans are kept in memory and written out when
the run ends. `NullTracer` records nothing, so the untraced and traced runs
execute the same pass code.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int


class NullTracer:
    enabled = False

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """Records spans on the calling thread; the pass code is single-threaded."""

    enabled = True

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else None, self.pass_id)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = time.perf_counter()

    def wrap(self, module, attribute: str, name: str) -> None:
        """Replace `module.attribute` by a version that records a span per call."""
        inner = getattr(module, attribute)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(module, attribute, traced)

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
        return out

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus what its children cover."""
        covered: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                covered.setdefault(s.parent, []).append((s.start, s.end))
        out: dict[str, float] = {}
        for s in self.spans:
            busy = 0.0
            reach = s.start
            for start, end in sorted(covered.get(s.id, ())):
                start = max(start, reach)
                if end > start:
                    busy += end - start
                    reach = end
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - busy
        return out

    def to_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]
