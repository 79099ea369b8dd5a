"""Spans recorded from the benchmark's side of each call into a layer, and
`cProfile` totals per function of the package.

A span is (name, trace id, start, end) with `perf_counter` seconds; the
trace id groups the spans of one job, pipeline or request. Spans stay in
memory and are reduced to metrics when the run ends.
"""

from __future__ import annotations

import math
import os
import pstats
import statistics
from time import perf_counter


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def low_decile(values) -> float:
    """Nearest-rank 10th percentile (the minimum of fewer than ten values).

    Runs report per-pass figures through this rather than the median. Other
    tenants of a shared machine slow a process by 30-60% in phases of 5-25 s,
    and they can only slow it: the median moves with the share of a run
    spent in such phases, while a low percentile follows the program.
    """
    return percentile(sorted(values), 10)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []

    def call(self, name: str, trace_id: int, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, trace_id, start, perf_counter()))

    def add(self, name: str, trace_id: int, start: float, end: float):
        self.spans.append((name, trace_id, start, end))

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]

    def total_s(self, name: str) -> float:
        return sum(self.durations(name))

    def p50_us(self, name: str) -> float:
        return statistics.median(self.durations(name)) * 1e6


class ProfileTotals:
    """Call counts and self times from one or more `cProfile.Profile` runs,
    keyed by (module, function) for the modules of the package."""

    def __init__(self, profiles):
        stats = pstats.Stats(profiles[0])
        for prof in profiles[1:]:
            stats.add(prof)
        self._stats = stats.stats

    @staticmethod
    def _where(filename: str) -> str | None:
        parent, name = os.path.split(filename)
        if os.path.basename(parent) != "partcat" or not name.endswith(".py"):
            return None
        return name[:-3]

    def _rows(self, module: str, funcs):
        for (filename, _, func), row in self._stats.items():
            if self._where(filename) == module and (funcs is None or func in funcs):
                yield row

    def calls(self, module: str, funcs=None) -> int:
        return sum(row[1] for row in self._rows(module, funcs))

    def self_s(self, module: str, funcs=None) -> float:
        return sum(row[2] for row in self._rows(module, funcs))

    def calls_from(self, caller_module: str, module: str, funcs) -> int:
        """Calls into `funcs` of `module` made directly by `caller_module`."""
        total = 0
        for row in self._rows(module, funcs):
            for (filename, _, _), caller_row in row[4].items():
                if self._where(filename) == caller_module:
                    total += caller_row[1]
        return total
