"""The metric names the benchmark prints, with their units.

End-to-end metrics keep one name across workloads, because every run
prints all of them; what each name measures on each workload is listed
in ``E2E_MEANING`` and printed in the report lines of every run.

Per-layer metrics are the union over workloads.  A workload that makes
no call into a layer reports that layer's metrics as 0.
"""

from __future__ import annotations

from typing import Dict

#: end-to-end metric -> unit (all wall-clock)
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "secondary_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: workload -> end-to-end metric -> the workload-specific name it carries
E2E_MEANING: Dict[str, Dict[str, str]] = {
    "frontend": {
        "setup_s": "setup_s (compile the six bundled programs)",
        "latency_p50_ms": "compile_ms_p50 (compile_program, analysis on; "
                          "geomean of per-family medians)",
        "latency_p90_ms": "compile_ms_p90 (geomean of per-family p90s)",
        "secondary_p50_ms": "cli_run_ms_p50 (cold `python -m repro run`)",
        "throughput_per_s": "programs_per_s (compile + plan + tiny run)",
        "peak_rss_mb": "peak_rss_mb (benchmark process)",
    },
    "exec": {
        "setup_s": "setup_s (compile cases, make inputs and references)",
        "latency_p50_ms": "run_ms_geomean (geomean of per-case warm medians)",
        "latency_p90_ms": "run_ms_p90_geomean (geomean of per-case warm p90s)",
        "secondary_p50_ms": "first_run_ms_geomean (first run of a fresh compile)",
        "throughput_per_s": "warm_runs_per_s (all cases, warm)",
        "peak_rss_mb": "peak_rss_mb (benchmark process)",
    },
    "tune": {
        "setup_s": "setup_s (build programs and evaluators, one small session pair)",
        "latency_p50_ms": "tune_s*1000 p50 (RollingSum session + Sort session)",
        "latency_p90_ms": "tune_s*1000 p90",
        "secondary_p50_ms": "tuned_run_ms_p50 (run both tuned programs once)",
        "throughput_per_s": "evaluations_per_s (fresh measurements)",
        "peak_rss_mb": "peak_rss_mb (benchmark process)",
    },
    "serve": {
        "setup_s": "setup_s (daemon start until ready, then warm-up)",
        "latency_p50_ms": "run_ms_p50 (/run round trip)",
        "latency_p90_ms": "run_ms_p90",
        "secondary_p50_ms": "compile_ms_p50 (/compile of a fresh variant; "
                            "geomean of per-family medians)",
        "throughput_per_s": "batch_rps (requests/s inside /batch calls)",
        "peak_rss_mb": "peak_rss_mb (daemon high-water RSS)",
    },
}

#: the exec workload's cases, one per leaf mechanism
EXEC_CASES = ("rollingsum", "matmul_kernel", "heat", "pipe", "matmul_momentum")

PER_LAYER: Dict[str, str] = {
    # frontend: per compiled program
    "cli.import_ms": "ms",
    "language.parse_ms": "ms",
    "compiler.ir_ms": "ms",
    "compiler.passes_ms": "ms",
    "analysis.verify_ms": "ms",
    "rewrite.plan_ms": "ms",
    "compiler.rules": "count",
    "compiler.segments": "count",
    "compiler.dep_edges": "count",
    "analysis.diagnostics": "count",
    # frontend (per program), exec (per warm round), tune (per session pair)
    "compiler.run_ms": "ms",
}
for _case in EXEC_CASES:
    PER_LAYER[f"exec.{_case}.run_ms"] = "ms"
    PER_LAYER[f"exec.{_case}.first_run_ms"] = "ms"
    PER_LAYER[f"exec.{_case}.bytes_moved"] = "bytes-computed"
PER_LAYER.update({
    # exec: per warm round over all cases
    "engine_fast.closure_calls": "count",
    "engine_fast.vectorized_cells": "count",
    "engine_fast.tiled_blocks": "count",
    "engine_fast.vector_fallbacks": "count",
    "compiler.geom_cache_hit_ratio": "ratio",
    "runtime.tasks_recorded": "count",
    # tune: per session pair
    "autotuner.measure_ms": "ms",
    "runtime.simulate_ms": "ms",
    "autotuner.inputs_ms": "ms",
    "autotuner.search_ms": "ms",
    "autotuner.evaluations": "count",
    "autotuner.evals_per_s": "1/s",
    "autotuner.cache_hit_ratio": "ratio",
    "runtime.tasks_per_eval": "count",
    # serve: per request of each kind
    "serve.handler_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.json_ms": "ms",
    "serve.batch_handler_ms": "ms",
    "batch.stacked_ratio": "ratio",
    "batch.fallbacks": "count",
    "serve.compile_handler_ms": "ms",
    "serve.registry_hit_ratio": "ratio",
    "serve.daemon_start_s": "s",
    # every workload: the cost of tracing itself
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
})
