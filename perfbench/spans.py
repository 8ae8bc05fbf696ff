"""In-memory spans recorded around calls into hybridlp's public functions.

A span has a name, the layer (hybridlp module) it times, the operation it
belongs to, its parent span, start and end.  A span's self time is its
duration minus the durations of its direct children; a layer's self time is
the sum of the self times of its spans.  Nothing here touches the package:
calls are timed from outside, either directly or by temporarily replacing a
module attribute with a timed wrapper (see ``patched``).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    op: int
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, layer, self.op, parent, time.perf_counter())
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, layer: str, fn, *args, counters=None, **kwargs):
        """fn(*args, **kwargs) inside a span; counters(result) fills its attrs."""
        with self.span(name, layer) as s:
            result = fn(*args, **kwargs)
        if counters is not None:
            s.attrs.update(counters(result))
        return result

    def wrap(self, name: str, layer: str, fn, counters=None):
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, *args, counters=counters, **kwargs)
        return traced

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace module attributes by traced wrappers for the block's duration.

    targets: (module, attribute, layer, counters) tuples.  The originals are
    restored even when the block raises.
    """
    saved = []
    try:
        for module, attr, layer, counters in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(attr, layer, original, counters))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the summed durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def check_nesting(spans: list[Span], tol: float = 1e-9) -> None:
    """Raise if a child leaves its parent's interval or a self time is negative."""
    for i, s in enumerate(spans):
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start - tol or s.end > p.end + tol:
                raise ValueError(f"span {i} ({s.name}) leaves its parent {p.name}")
    for i, v in enumerate(self_times(spans)):
        if v < -tol:
            raise ValueError(f"span {i} ({spans[i].name}) has negative self time {v}")


def check_operation_sums(spans: list[Span], tol: float = 1e-9) -> None:
    """Raise unless each operation's self times add up to its root span.

    The root span's own self time is the operation's unattributed time, so
    this is the identity "stage self times + unattributed = operation wall".
    """
    totals: dict[int, float] = defaultdict(float)
    for s, v in zip(spans, self_times(spans)):
        totals[s.op] += v
    for s in spans:
        if s.parent is None and abs(totals[s.op] - s.duration) > tol * max(1.0, s.duration):
            raise ValueError(f"self times of operation {s.op} do not add up to its wall time")


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for s, v in zip(spans, self_times(spans)):
        out[s.layer] += v
    return dict(out)


def named_totals(spans: list[Span]) -> dict[str, float]:
    """Summed duration of the spans of each name."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.duration
    return dict(out)
