"""The ``exec`` workload: warm in-process ``CompiledTransform.run`` on
large inputs, one case per leaf mechanism.

=================  =====================================================
case               mechanism
=================  =====================================================
rollingsum         closure leaf, one ``np.sum`` per instance (n=4096)
matmul_kernel      vector leaf plus a fixed-extent region reduction
heat               vector chain over versions
pipe               the fused vector rewrite (``__fuse__``)
matmul_momentum    tiled and interchanged vector chain
=================  =====================================================

Each cycle runs every case once on a freshly compiled transform (its
first run, which pays planning; the compile itself is untimed), then
``WARM_ROUNDS`` warm rounds.  The front end runs in set-up.

Checks: set-up runs every case at a small size under its own
configuration and under the interpreter leaf, bit for bit; every timed
output is compared with the case's numpy reference (exact for heat,
pipe and the momentum chain, which replay the IEEE operation order;
within ``programs.REDUCTION_RTOL`` for the two reductions).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.compiler import ChoiceConfig, Selector, compile_program
from repro.observe import TraceSink

import programs
from common import (
    Metric, NullTracer, Outcome, Tracer, WorkloadResult, geomean, median,
    peak_rss_mb, percentile,
)

WARM_ROUNDS = 4
_COUNTERS = {
    "engine_fast.closure_calls": "exec.closure_calls",
    "engine_fast.vectorized_cells": "exec.vectorized_cells",
    "engine_fast.tiled_blocks": "exec.tiled_blocks",
    "engine_fast.vector_fallbacks": "exec.vector_fallbacks",
    "runtime.tasks_recorded": "recorder.tasks",
}


@dataclass
class Case:
    name: str
    prog: programs.Program
    tunables: Dict[str, int]
    choices: Dict[str, int]
    size: Dict[str, int]
    small: Dict[str, int]

    def config(self, leaf: Optional[int] = None) -> ChoiceConfig:
        config = ChoiceConfig()
        for name, value in self.tunables.items():
            config.set_tunable(f"{self.prog.name}.{name}", value)
        if leaf is not None:
            config.set_tunable(f"{self.prog.name}.__leaf_path__", leaf)
        for site, option in self.choices.items():
            config.set_choice(f"{self.prog.name}.{site}", Selector.static(option))
        return config

    def bytes_moved(self, sizes: Dict[str, int]) -> float:
        """Bytes of every matrix the run allocates or reads once, from
        the array sizes (a computed figure, not a measured one)."""
        n = sizes["n"]
        if self.name == "rollingsum":
            cells = 2 * n
        elif self.name == "matmul_kernel":
            cells = 3 * n * n + n ** 3
        elif self.name == "heat":
            cells = n * (sizes["k"] + 3)
        elif self.name == "pipe":
            cells = 2 * n * n  # the fused rewrite never allocates T
        else:
            p = self.size["p"]
            cells = 2 * n * p + (p + 2) * n * n + n * n
        return 8.0 * cells


def cases(scale: str) -> List[Case]:
    tiny = scale != "full"
    momentum = programs.Program(
        "matmul_chain", "MatMulMomentum",
        programs.matmul_chain_source("MatMulMomentum", (0.625, 0.375)),
        {"coeffs": (0.625, 0.375)})
    return [
        Case("rollingsum", programs.base_program("rollingsum"),
             {"__leaf_path__": 1}, {"B.0": 0, "B.1": 0},
             {"n": 256 if tiny else 4096}, {"n": 9}),
        Case("matmul_kernel", programs.base_program("matmul_kernel"),
             {"__leaf_path__": 2}, {}, {"n": 12 if tiny else 48}, {"n": 4}),
        Case("heat", programs.base_program("heat"), {"__leaf_path__": 2}, {},
             {"n": 256 if tiny else 4096, "k": 8 if tiny else 96}, {"n": 10, "k": 3}),
        Case("pipe", programs.base_program("pipe"),
             {"__leaf_path__": 2, "__fuse__": 1}, {}, {"n": 64 if tiny else 1024}, {"n": 5}),
        Case("matmul_momentum", momentum,
             {"__leaf_path__": 2, "__tile_i__": 128, "__tile_j__": 128, "__interchange__": 1},
             {}, {"n": 160 if tiny else 768, "p": 16}, {"n": 5, "p": 3}),
    ]


class Prepared:
    """One case's compiled transform, inputs and reference."""

    def __init__(self, case: Case, rng: np.random.Generator) -> None:
        self.case = case
        self.transform = compile_program(case.prog.source).transform(case.prog.name)
        self.inputs, self.sizes = programs.make_inputs(
            case.prog.family, case.prog.params, rng, size=case.size)
        self.expected, self.exact = programs.reference(
            case.prog.family, case.prog.params, self.inputs, self.sizes)
        self.config = case.config()

    def run(self, transform=None, sink=None):
        transform = transform or self.transform
        return transform.run({k: v.copy() for k, v in self.inputs.items()},
                             self.config, sizes=self.sizes, sink=sink)

    def check(self, result) -> bool:
        return programs.matches(result.output(), self.expected, self.exact)


def small_check(case: Case, rng: np.random.Generator) -> bool:
    """The case at a small size: its own configuration against the
    interpreter leaf, bit for bit, and against the numpy reference."""
    transform = compile_program(case.prog.source).transform(case.prog.name)
    inputs, sizes = programs.make_inputs(case.prog.family, case.prog.params, rng,
                                         size=case.small)
    fast = transform.run({k: v.copy() for k, v in inputs.items()}, case.config(),
                         sizes=sizes).output()
    interp = transform.run({k: v.copy() for k, v in inputs.items()}, case.config(leaf=0),
                           sizes=sizes).output()
    expected, exact = programs.reference(case.prog.family, case.prog.params, inputs, sizes)
    return fast.tobytes() == interp.tobytes() and programs.matches(fast, expected, exact)


def run(seed: int, seconds: float, trace: bool, scale: str = "full") -> WorkloadResult:
    outcome = Outcome()
    all_cases = cases(scale)
    setups = []
    prepared: List[Prepared] = []
    for _ in range(5):
        prepared = []
        gc.collect()  # the previous set's transforms hold reference cycles
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        prepared = [Prepared(case, rng) for case in all_cases]
        setups.append(time.perf_counter() - start)
    rng = np.random.default_rng(seed + 1)
    for case in all_cases:
        outcome.guard(f"small {case.name}", lambda case=case: small_check(case, rng))
    for item in prepared:  # warm-up: plans and kernels built, not timed
        outcome.guard(f"warm-up {item.case.name}", lambda item=item: item.check(item.run()))

    tracer = Tracer() if trace else NullTracer()
    warm: Dict[bool, Dict[str, List[float]]] = {
        t: {c.name: [] for c in all_cases} for t in (False, True)}
    first: Dict[bool, Dict[str, List[float]]] = {
        t: {c.name: [] for c in all_cases} for t in (False, True)}
    counters: Dict[str, int] = {}
    traced_rounds = 0
    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle < 2 or time.perf_counter() < deadline:
        traced = trace and cycle % 2 == 1
        active = tracer if traced else NullTracer()
        for item in prepared:
            name = item.case.name
            sink = TraceSink(capture_events=False) if traced else None

            def first_run(item=item, sink=sink, name=name) -> bool:
                fresh = compile_program(item.case.prog.source).transform(item.case.prog.name)
                start = time.perf_counter()
                with active.span(f"exec.{name}.first_run"):
                    result = item.run(fresh, sink)
                first[traced][name].append((time.perf_counter() - start) * 1e3)
                return item.check(result)

            outcome.guard(f"first {name}", first_run)
            # A fresh transform and its caches form reference cycles; free
            # them now (untimed) so garbage from one cycle never sets the
            # next cycle's memory high-water mark.
            gc.collect()
        traced_rounds += WARM_ROUNDS if traced else 0
        for _ in range(WARM_ROUNDS):
            for item in prepared:
                name = item.case.name
                sink = TraceSink(capture_events=False) if traced else None

                def warm_run(item=item, sink=sink, name=name) -> bool:
                    start = time.perf_counter()
                    with active.span(f"exec.{name}.run"):
                        result = item.run(sink=sink)
                    elapsed = time.perf_counter() - start
                    warm[traced][name].append(elapsed * 1e3)
                    return item.check(result)

                outcome.guard(f"warm {name}", warm_run)
                if sink is not None:
                    for key, value in sink.counters.items():
                        counters[key] = counters.get(key, 0) + value
        cycle += 1

    result = WorkloadResult(outcome, {})
    warm_p50 = {c: median(v) for c, v in warm[False].items()}
    first_p50 = {c: median(v) for c, v in first[False].items()}
    result.report = {f"{c}.run_ms_p50": Metric(v, "ms") for c, v in warm_p50.items()}
    result.report.update({f"{c}.first_run_ms_p50": Metric(v, "ms") for c, v in first_p50.items()})
    result.report["run_ms_geomean"] = Metric(geomean(list(warm_p50.values())), "ms")
    result.report["first_run_ms_geomean"] = Metric(geomean(list(first_p50.values())), "ms")
    result.report["cycles"] = Metric(cycle, "count")
    if not trace:
        result.metrics = {
            "setup_s": Metric(median(setups), "s"),
            "latency_p50_ms": Metric(geomean(list(warm_p50.values())), "ms"),
            "latency_p90_ms": Metric(
                geomean([percentile(v, 90) for v in warm[False].values()]), "ms"),
            "secondary_p50_ms": Metric(geomean(list(first_p50.values())), "ms"),
            "throughput_per_s": Metric(
                1e3 * sum(len(v) for v in warm[False].values())
                / sum(sum(v) for v in warm[False].values()), "1/s"),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB"),
        }
        return result
    metrics: Dict[str, Metric] = {}
    for item in prepared:
        name = item.case.name
        metrics[f"exec.{name}.run_ms"] = Metric(median(warm[True][name]), "ms")
        metrics[f"exec.{name}.first_run_ms"] = Metric(median(first[True][name]), "ms")
        metrics[f"exec.{name}.bytes_moved"] = Metric(
            item.case.bytes_moved({**(item.sizes or {}), **item.case.size}), "bytes-computed")
    for metric, counter in _COUNTERS.items():
        metrics[metric] = Metric(counters.get(counter, 0) / traced_rounds, "count")
    hits = counters.get("exec.geom_cache_hits", 0)
    misses = counters.get("exec.geom_cache_misses", 0)
    metrics["compiler.geom_cache_hit_ratio"] = Metric(hits / max(1, hits + misses), "ratio")
    per_round = sum(sum(v) for v in warm[True].values()) / traced_rounds
    metrics["compiler.run_ms"] = Metric(per_round, "ms")
    traced_geo = geomean([median(v) for v in warm[True].values()])
    untraced_geo = geomean(list(warm_p50.values()))
    metrics["trace.overhead_ms"] = Metric(traced_geo - untraced_geo, "ms")
    metrics["trace.overhead_pct"] = Metric(100.0 * (traced_geo - untraced_geo) / untraced_geo, "%")
    metrics["trace.spans"] = Metric(len(tracer.spans), "count")
    result.metrics = metrics
    result.tracer = tracer
    return result
