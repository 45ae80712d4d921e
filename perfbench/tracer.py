"""In-memory span recorder for the benchmark's traced runs.

Spans are opened by the benchmark around its own calls into the package and
by wrappers installed over the package's entry points at their module or
class attributes (``Tracer.wrap``); the package itself is not modified.
Every span keeps its name, start, end, parent and the id of the operation it
belongs to. Spans stay in memory until ``Tracer.dump`` writes them out.

Work done by an ``observe`` callback (counting rows, distinct states) runs on
a paused clock, so it shows up as tracing overhead in the operation's wall
time but never inside a span's duration.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int
    run_id: str
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = Span(name, self.clock(), parent, self.run_id)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``observe(span, args, result)`` may add attributes to the span after
        the call; its cost is kept out of every span.
        """
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if observe is not None:
                paused_at = time.perf_counter()
                observe(record, args, result)
                self._paused += time.perf_counter() - paused_at
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def parent_of(self, record: Span) -> Span | None:
        return self.spans[record.parent] if record.parent >= 0 else None

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON list row: name, start, end, parent,
        run id, attributes."""
        rows = [[s.name, s.start, s.end, s.parent, s.run_id, s.attrs] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "run_id", "attrs"],
                       "spans": rows}, fh)
