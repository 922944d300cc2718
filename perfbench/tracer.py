"""In-memory spans around the package's public calls.

The package has no tracing of its own.  The benchmark wraps module
attributes from outside, so a call made through a wrapped name opens a span.
A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for none).  Spans are kept in memory and written out by
the launcher when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.kept: list[tuple] = []      # (span name, args, result)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, keep: bool = False) -> None:
        """Replace ``module.attr`` by a traced call; ``keep`` records the
        arguments and result for the golden and count checks."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if keep:
                self.kept.append((name, args, result))
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def results(self, name: str) -> list[tuple]:
        """(args, result) of every kept call of span ``name``, in call order."""
        return [(args, res) for n, args, res in self.kept if n == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def totals(self) -> dict:
        """Summed duration per span name."""
        out: dict = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict:
        """Self time per layer (the span-name prefix before the first dot):
        each span's duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name.split(".", 1)[0]] += (end - start) - inner
        return out
