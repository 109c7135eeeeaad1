"""Spans recorded from the benchmark's own code around each public call.

A span has a name (`<layer>.<call>`), a start and an end, the index of the
span that encloses it and the id of the op it belongs to.  Spans stay in
memory until the run ends.  Calls on one thread nest strictly and run one
after another, so a span's self time is its duration minus the sum of its
direct children's durations.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.notes: dict[str, list[float]] = defaultdict(list)
        self.op: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)

    def note(self, name: str, value: float) -> None:
        """A value measured where no span can be, such as inside a child."""
        self.notes[name].append(float(value))

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def by_name(self) -> dict[str, list[float]]:
        """Self times of all spans, grouped by span name."""
        out: dict[str, list[float]] = defaultdict(list)
        for s, own in zip(self.spans, self.self_times()):
            out[s.name].append(own)
        return out

    def layer_shares(self, root: str) -> dict[str, float]:
        """Share of the `root` spans' total time spent in each layer's own
        code; the root spans' own self time counts as layer `bench`."""
        total = 0.0
        shares: dict[str, float] = defaultdict(float)
        roots = {i for i, s in enumerate(self.spans) if s.name == root}
        own = self.self_times()
        for i, s in enumerate(self.spans):
            top = i
            while top is not None and top not in roots:
                top = self.spans[top].parent
            if top is None:
                continue
            if i == top:
                total += s.end - s.start
                shares["bench"] += own[i]
            else:
                shares[s.name.split(".")[0]] += own[i]
        return {k: v / total for k, v in shares.items()} if total else {}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans], "notes": self.notes}, fh)
