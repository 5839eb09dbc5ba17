"""Spans around the benchmark's own calls into each layer.

A span is (name, start_ns, end_ns, op id, raised). Spans stay in memory
and are written out when the run ends. `Untraced` has the same interface
and does nothing but call through, so an untraced op pays one extra
Python call per layer call.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

clock = time.perf_counter_ns


class Untraced:
    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, bool]] = []
        self.counts: Counter = Counter()
        self.op = -1

    def call(self, name, fn, *args):
        start = clock()
        raised = True
        try:
            value = fn(*args)
            raised = False
            return value
        finally:
            self.spans.append((name, start, clock(), self.op, raised))

    def count(self, name, n):
        self.counts[name] += n

    def by_name(self) -> dict[str, list[int]]:
        out = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        return out

    def covered_ns(self, op_ids) -> int:
        """Time inside spans belonging to the given ops."""
        return sum(end - start for _, start, end, op, _ in self.spans if op in op_ids)

    def errors(self) -> int:
        return sum(1 for span in self.spans if span[4])

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, op, raised in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "op": op, "raised": raised}) + "\n")


def median_us(durations_ns) -> float:
    return statistics.median(durations_ns) / 1e3 if durations_ns else 0.0
