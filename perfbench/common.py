"""Shared pieces of the benchmark: timing statistics, the in-memory span
tracer, the host/commit stamp, and the per-run result record.

Every time here is wall-clock, measured with ``time.perf_counter`` on
the host that runs the benchmark.  Simulated times (the tuner's
objective) never enter a metric; they appear only as correctness
outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Where traces and scratch files go; listed in .gitignore.
OUT = os.path.join(ROOT, "perfbench", "out")


# -- statistics --------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: List[float]) -> float:
    return statistics.median(values)


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """This process's high-water resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another process's high-water RSS (``VmHWM``) from /proc."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- tracing -----------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int  # the workload operation the span belongs to


class Tracer:
    """Records spans in memory around the benchmark's calls into each
    layer; :meth:`write` exports them when the run ends.

    A span's *self time* is its duration minus the part its direct
    children cover.  Spans opened under one :meth:`operation` share its
    identifier, so one compile, request or session can be followed
    across layers.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = -1
        self._ops = 0

    @contextmanager
    def operation(self) -> Iterator[int]:
        self._ops += 1
        previous, self._op = self._op, self._ops
        try:
            yield self._op
        finally:
            self._op = previous

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = span.end - span.start - child_time[index]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def total_seconds(self) -> Dict[str, float]:
        """Total inclusive duration per span name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
        return totals

    def write(self, path: str, header: Dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "op": span.op,
                    "parent": span.parent,
                    "start_ms": round(span.start * 1e3, 6),
                    "dur_ms": round((span.end - span.start) * 1e3, 6),
                }, sort_keys=True) + "\n")


class NullTracer:
    """Tracing off: one shared no-op context per call."""

    class _Null:
        def __enter__(self):
            return None

        def __exit__(self, *exc):
            return False

    _NULL = _Null()

    def operation(self):
        return self._NULL

    def span(self, name: str):
        return self._NULL


# -- host and commit stamp ---------------------------------------------------


def source_digest() -> str:
    """blake2b over every file under src/ (path + bytes): identifies the
    code measured even where the checkout is not a git repository."""
    digest = hashlib.blake2b(digest_size=12)
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    """HEAD's commit when the checkout is a git work tree, read from
    .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="ascii") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), "r", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return None


def host_stamp() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_digest": source_digest(),
    }


# -- results -----------------------------------------------------------------


@dataclass
class Outcome:
    """Operation accounting of one run: every operation attempted either
    passes its correctness check or counts as failed, never dropped."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def guard(self, what: str, fn: Callable[[], bool]) -> bool:
        """Run one checked operation; an exception is a failure."""
        try:
            ok = bool(fn())
        except Exception as exc:  # the operation's failure, recorded
            return self.record(False, f"{what}: {type(exc).__name__}: {exc}")
        return self.record(ok, f"{what}: wrong output")


@dataclass
class Metric:
    value: float
    unit: str


@dataclass
class WorkloadResult:
    """What one workload run reports."""

    outcome: Outcome
    #: end-to-end metrics (untraced runs) or per-layer metrics (traced)
    metrics: Dict[str, Metric]
    #: workload-specific names for the report lines above the JSON line
    report: Dict[str, Metric] = field(default_factory=dict)
    #: deterministic correctness outputs (e.g. tuned configs)
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: the traced run's spans, written out when the run ends
    tracer: Optional[Tracer] = None
