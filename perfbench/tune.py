"""The ``tune`` workload: repeated seeded ``GeneticTuner`` sessions in
process (serial evaluation, no persistent cache).

One operation is a session pair: the RollingSum DSL program tuned up to
``ROLLINGSUM_MAX``, then the native ``repro.apps.sort`` program up to
``SORT_MAX``; pairs cycle over ``SUBSEEDS`` tuner seeds derived from
``--seed``.  Set-up builds the programs and runs one small pair.  This
is the only workload that runs the work-stealing scheduler simulation
and native recursive calls; the front end does almost nothing here.

Heat is left out: tuning cannot bind its free size ``k`` (the tuner
drives only input sizes, so a run fails with ``ExecutionError: size
variable 'k' unbound``).  That is a known gap, not an omission.

Checks: every repeat of a session in one run must choose the same
configuration with the same best simulated time (a deterministic
correctness output, never a metric); the tuned Sort must equal
``np.sort`` and the tuned RollingSum must equal the interpreter leaf bit
for bit and ``np.cumsum`` within ``programs.REDUCTION_RTOL``.
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, List

import numpy as np

from repro.apps import rollingsum, sort
from repro.autotuner.evaluation import Evaluator
from repro.autotuner.tuner import GeneticTuner
from repro.observe import TraceSink
from repro.runtime.machine import MACHINES

import programs
from common import (
    Metric, NullTracer, Outcome, Tracer, WorkloadResult, median, peak_rss_mb,
    percentile,
)

ROLLINGSUM_MAX = 512
SORT_MAX = 2048
#: sessions cycle over this many tuner seeds derived from --seed, so one
#: run's median spans several tuning problems
SUBSEEDS = 3
#: timed runs of the two tuned programs after each session pair
TUNED_REPEATS = 5
#: max sizes of the set-up's warm-up session pair
WARMUP_LIMITS = (16, 32)
MACHINE = "xeon8"
HEAT_GAP = "Heat is not tuned: ExecutionError: size variable 'k' unbound"


class _TracedTransform:
    """Wraps the tuned transform so each top-level run is one span."""

    def __init__(self, transform, tracer: Tracer, tally: Dict[str, int]) -> None:
        self._transform = transform
        self._tracer = tracer
        self._tally = tally

    def run(self, *args, **kwargs):
        with self._tracer.span("compiler.run"):
            result = self._transform.run(*args, **kwargs)
        self._tally["runs"] += 1
        self._tally["tasks"] += len(result.graph)
        return result

    def __getattr__(self, name):
        return getattr(self._transform, name)


class _TracedEvaluator(Evaluator):
    """Evaluator whose measurements are spans; the span's self time is
    the schedule simulation (its input generation and transform run are
    child spans)."""

    tracer: Tracer

    def measure(self, config, size, signature=None):
        with self.tracer.span("autotuner.measure"):
            return super().measure(config, size, signature)


def _traced_inputs(generator, tracer: Tracer):
    def make(size, rng):
        with tracer.span("autotuner.inputs"):
            return generator(size, rng)

    return make


def build(seed: int, tracer=None, tally=None) -> List[Evaluator]:
    """The two sessions' evaluators (RollingSum, Sort)."""
    machine = MACHINES[MACHINE]
    specs = [(rollingsum.build_program(), "RollingSum", rollingsum.input_generator),
             (sort.build_program(), "Sort", sort.input_generator)]
    evaluators = []
    for program, name, generator in specs:
        if tracer is None:
            evaluators.append(Evaluator(program, name, generator, machine, seed=seed))
            continue
        evaluator = _TracedEvaluator(program, name, _traced_inputs(generator, tracer),
                                     machine, seed=seed,
                                     sink=TraceSink(capture_events=False))
        evaluator.tracer = tracer
        evaluator.transform = _TracedTransform(evaluator.transform, tracer, tally)
        evaluators.append(evaluator)
    return evaluators


def session_pair(seed: int, limits, tracer=None, tally=None):
    """Tune RollingSum then Sort; returns (results, evaluators, seconds)."""
    evaluators = build(seed, tracer, tally)
    start = time.perf_counter()
    results = []
    for evaluator, max_size, metric in zip(evaluators, limits, (None, sort.size_metric)):
        tuner = GeneticTuner(evaluator, min_size=8, max_size=max_size, seed=seed,
                             threshold_metric=metric)
        if tracer is None:
            results.append(tuner.tune())
        else:
            with tracer.span("autotuner.search"):
                results.append(tuner.tune())
    return results, evaluators, time.perf_counter() - start


def _signature(results) -> str:
    return "|".join(f"{r.config.to_json()}@{r.best_time!r}" for r in results)


def run(seed: int, seconds: float, trace: bool, scale: str = "full") -> WorkloadResult:
    limits = (ROLLINGSUM_MAX, SORT_MAX) if scale == "full" else (32, 64)
    setups = []
    for _ in range(5):  # build, then one small session pair to finish lazy set-up
        start = time.perf_counter()
        session_pair(seed, WARMUP_LIMITS)
        setups.append(time.perf_counter() - start)
    outcome = Outcome()
    tracer = Tracer() if trace else NullTracer()
    rng = random.Random(seed)
    sort_input = np.array([rng.random() for _ in range(limits[1])])
    rs_input = np.array([rng.uniform(-1.0, 1.0) for _ in range(limits[0])])
    pair_s: Dict[bool, List[float]] = {False: [], True: []}
    tuned_ms: List[float] = []
    evaluations = {False: 0, True: 0}
    hits = 0
    tally = {"runs": 0, "tasks": 0}
    signatures: Dict[int, str] = {}
    best_times: Dict[int, List[float]] = {}
    configs: Dict[int, list] = {}
    deadline = time.perf_counter() + seconds
    index = 0
    while index < 2 or time.perf_counter() < deadline:
        traced = trace and index % 2 == 1
        sub = seed * SUBSEEDS + index % SUBSEEDS
        state: Dict[str, object] = {}

        def pair() -> bool:
            nonlocal hits
            with tracer.operation():
                results, evaluators, elapsed = session_pair(
                    sub, limits, tracer if traced else None, tally)
            pair_s[traced].append(elapsed)
            evaluations[traced] += sum(e.evaluations for e in evaluators)
            if traced:
                hits += sum(e.sink.counter("tuner.cache_hits") for e in evaluators)
            state["results"] = results
            state["transforms"] = [getattr(e.transform, "_transform", e.transform)
                                   for e in evaluators]
            return True

        outcome.guard(f"tune pair {index}", pair)
        if "results" in state:
            results = state["results"]
            signature = _signature(results)
            if sub not in signatures:
                signatures[sub] = signature
                best_times[sub] = [r.best_time for r in results]
                configs[sub] = [json.loads(r.config.to_json()) for r in results]
            outcome.record(signature == signatures[sub],
                           f"pair {index}: tuning seed {sub} not deterministic")

            def tuned_runs() -> bool:
                rs_t, sort_t = state["transforms"]
                rs_config, sort_config = (r.config for r in results)
                for _ in range(TUNED_REPEATS):
                    start = time.perf_counter()
                    rs_out = rs_t.run([rs_input.copy()], rs_config).output()
                    sort_out = sort_t.run([sort_input.copy()], sort_config).output()
                    tuned_ms.append((time.perf_counter() - start) * 1e3)
                interp = rs_config.copy()
                interp.set_tunable("RollingSum.__leaf_path__", 0)
                rs_ref = rs_t.run([rs_input.copy()], interp).output()
                expected, exact = programs.reference("rollingsum", {"scale": 1.0},
                                                     {"A": rs_input})
                return (sort_out.tobytes() == np.sort(sort_input).tobytes()
                        and rs_out.tobytes() == rs_ref.tobytes()
                        and programs.matches(rs_out, expected, exact))

            outcome.guard(f"tuned run {index}", tuned_runs)
        index += 1

    result = WorkloadResult(outcome, {})
    untraced = pair_s[False]
    result.report = {
        "tune_s": Metric(median(untraced), "s"),
        "session_pairs": Metric(len(untraced) + len(pair_s[True]), "count"),
    }
    result.outputs = {
        "tuned_configs": configs,
        "best_simulated_times": best_times,
        "known_gap": HEAT_GAP,
    }
    if not trace:
        result.metrics = {
            "setup_s": Metric(median(setups), "s"),
            "latency_p50_ms": Metric(median(untraced) * 1e3, "ms"),
            "latency_p90_ms": Metric(percentile(untraced, 90) * 1e3, "ms"),
            "secondary_p50_ms": Metric(median(tuned_ms), "ms"),
            "throughput_per_s": Metric(evaluations[False] / sum(untraced), "1/s"),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB"),
        }
        return result
    pairs = len(pair_s[True])
    self_s = tracer.self_seconds()
    total_s = tracer.total_seconds()
    metrics = {
        "autotuner.measure_ms": Metric(total_s.get("autotuner.measure", 0.0) * 1e3 / pairs, "ms"),
        "runtime.simulate_ms": Metric(self_s.get("autotuner.measure", 0.0) * 1e3 / pairs, "ms"),
        "compiler.run_ms": Metric(self_s.get("compiler.run", 0.0) * 1e3 / pairs, "ms"),
        "autotuner.inputs_ms": Metric(self_s.get("autotuner.inputs", 0.0) * 1e3 / pairs, "ms"),
        "autotuner.search_ms": Metric(self_s.get("autotuner.search", 0.0) * 1e3 / pairs, "ms"),
        "autotuner.evaluations": Metric(evaluations[True] / pairs, "count"),
        "autotuner.evals_per_s": Metric(evaluations[True] / sum(pair_s[True]), "1/s"),
        "autotuner.cache_hit_ratio": Metric(hits / max(1, hits + evaluations[True]), "ratio"),
        "runtime.tasks_per_eval": Metric(tally["tasks"] / max(1, tally["runs"]), "count"),
    }
    traced_p50, untraced_p50 = median(pair_s[True]) * 1e3, median(untraced) * 1e3
    metrics["trace.overhead_ms"] = Metric(traced_p50 - untraced_p50, "ms")
    metrics["trace.overhead_pct"] = Metric(100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%")
    metrics["trace.spans"] = Metric(len(tracer.spans), "count")
    result.metrics = metrics
    result.tracer = tracer
    return result
