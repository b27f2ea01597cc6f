"""In-memory span recorder for the traced benchmark run.

A span is (op id, name, parent span index, start, end), recorded around
one call from the benchmark into a package function.  Spans are kept in
flat arrays, which the garbage collector does not traverse, until the
run ends; `self_ms` subtracts the time child spans cover.
"""

from __future__ import annotations

from array import array
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.ops = array("q")
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.names)
        self.ops.append(self.op)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.starts.append(0.0)
        self.ends.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self.starts[idx] = start
            self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def top_level_s(self, first: int, exclude=()) -> float:
        """Total duration of spans[first:] that have no parent."""
        return sum(self.ends[i] - self.starts[i] for i in range(first, len(self))
                   if self.parents[i] == -1 and self.names[i] not in exclude)

    def self_ms(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over spans[first:], in ms."""
        child = [0.0] * len(self)
        for i in range(first, len(self)):
            parent = self.parents[i]
            if parent >= first:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, float] = {}
        for i in range(first, len(self)):
            name = self.names[i]
            own = self.ends[i] - self.starts[i] - child[i]
            out[name] = out.get(name, 0.0) + own * 1e3
        return out

    def to_json(self) -> dict:
        return {"columns": ["op", "name", "parent", "start", "end"],
                "spans": [[self.ops[i], self.names[i], self.parents[i], self.starts[i],
                           self.ends[i]] for i in range(len(self))]}


class NullTracer:
    """The same interface with recording off."""

    op = -1

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, amount: float) -> None:
        pass
