"""In-memory spans around the benchmark's calls into the program.

A span is (id, name, start, end, parent, workload); names are
``layer.function``.  Spans are kept in a list and written out once, when
the run ends.  Counts (``layer.counter``) add up per top-level span.  A
disabled tracer hands out a shared no-op context and drops counts, so an
untraced round pays one attribute test per call.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = False
        self.spans: list[tuple] = []   # (id, name, start, end, parent)
        self._stack: list[int] = []
        self.counts: dict[int, dict] = defaultdict(lambda: defaultdict(int))

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    def count(self, name: str, n: int = 1) -> None:
        """Add n to a counter of the enclosing top-level span."""
        if self.enabled and self._stack:
            self.counts[self._stack[0]][name] += n

    @contextlib.contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent)

    def self_times(self) -> dict:
        """Self time of every span: its duration minus its children's."""
        child = defaultdict(float)
        for sid, name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {sid: (end - start) - child[sid]
                for sid, name, start, end, parent in self.spans}

    def per_root(self) -> list[tuple[str, dict]]:
        """For each top-level span, (its name, {layer.function: self time
        summed over its descendants and itself, layer.counter: count})."""
        selft = self.self_times()
        root_of = {}
        for sid, name, start, end, parent in self.spans:
            root_of[sid] = sid if parent is None else root_of[parent]
        out = {sid: (name, defaultdict(float, self.counts[sid]))
               for sid, name, start, end, parent in self.spans
               if parent is None}
        for sid, name, start, end, parent in self.spans:
            out[root_of[sid]][1][name] += selft[sid]
        return [(name, dict(t)) for name, t in out.values()]

    def records(self) -> list[dict]:
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "workload": self.workload}
                for sid, name, start, end, parent in self.spans]
