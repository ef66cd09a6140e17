"""In-memory spans around the benchmark's calls into the package.

Every call the benchmark makes into a layer goes through ``call``, which
records a span: name, op id, parent span, wall start and end, process
CPU start and end, and an optional work count (rows, points). Spans are
kept in a list and written out once, when the run ends. ``NullTracer``
has the same interface and records nothing; the untraced run uses it so
that both runs execute the same benchmark code.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# span record layout, a plain list so that opening a span stays cheap
NAME, OP, PARENT, T0, T1, C0, C1, WORK = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self.op, parent, 0.0, 0.0, time.process_time(), 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[T0] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[T1] = time.perf_counter()
        rec[C1] = time.process_time()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``<module>.<function>[.<variant>]``."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def counted(self, name: str, work, fn, *args, **kwargs):
        """Like ``call``, and record ``work(result)`` as the span's work count."""
        rec = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(rec)
        rec[WORK] = work(result)
        return result

    def write(self, path) -> None:
        keys = ("name", "op", "parent", "start", "end", "cpu_start", "cpu_end", "work")
        with open(path, "w", encoding="utf-8") as out:
            for rec in self.spans:
                out.write(json.dumps(dict(zip(keys, rec))) + "\n")


class NullTracer:
    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        yield

    def counted(self, name, work, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NULL = NullTracer()


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def by_name(spans, name: str) -> list[list]:
    return [s for s in spans if s[NAME] == name]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def median_wall(spans, name: str, scale: float) -> float:
    """Median wall time per call, times ``scale``; 0 when never called."""
    return _median(s[T1] - s[T0] for s in by_name(spans, name)) * scale


def median_cpu(spans, name: str, scale: float) -> float:
    return _median(s[C1] - s[C0] for s in by_name(spans, name)) * scale


def work_rate(spans, names) -> float:
    """Work units per second of wall time over every span with one of ``names``."""
    picked = [s for s in spans if s[NAME] in names]
    busy = sum(s[T1] - s[T0] for s in picked)
    return sum(s[WORK] for s in picked) / busy if busy > 0 else 0.0


def median_per_op(spans, names, scale: float) -> float:
    """Median over ops of the summed wall time of the named spans."""
    totals = defaultdict(float)
    for s in spans:
        if s[NAME] in names:
            totals[s[OP]] += s[T1] - s[T0]
    return _median(totals.values()) * scale


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[T1] - s[T0]
    return [s[T1] - s[T0] - c for s, c in zip(spans, child)]


def op_shares(spans, root: str = "op") -> dict[str, float]:
    """Fraction of op wall time spent in each module's spans' self time.

    Only spans under a span named ``root`` count; the root's own self
    time is the benchmark's share, reported as ``bench``.
    """
    own = self_times(spans)
    total = 0.0
    shares = defaultdict(float)
    root_of = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s[NAME] == root and s[PARENT] < 0:
            root_of[i] = i
            total += s[T1] - s[T0]
            shares["bench"] += own[i]
        elif s[PARENT] >= 0 and root_of[s[PARENT]] >= 0:
            root_of[i] = root_of[s[PARENT]]
            shares[s[NAME].split(".", 1)[0]] += own[i]
    return {k: v / total for k, v in shares.items()} if total > 0 else {}
