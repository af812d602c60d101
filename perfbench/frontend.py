"""The ``frontend`` workload: a seeded stream of distinct DSL programs.

Each program is compiled with ``compile_program`` (analysis on), its
fusion and tiling rewrites are planned (``has_fusion``/``has_tiling``),
and it runs once at a tiny size.  Every ``CLI_EVERY``-th program is
also run by a cold ``python -m repro run`` subprocess.  Import, parse,
the compiler passes, analysis and rewrite planning do nearly all the
work; leaf execution does almost none.

Every output is checked against the interpreter leaf (``__leaf_path__
= 0``) bit for bit and against the family's numpy reference.  A variant
the compiler rejects is a failed operation.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from typing import Dict, Iterator, List

import numpy as np

from repro.analysis.check import analyze_program
from repro.analysis.witness import WitnessBudget
from repro.compiler import ChoiceConfig, CompiledProgram, compile_program
from repro.compiler.ir import build_ir
from repro.language import parse_program
from repro.language.errors import CompileError

import programs
from common import (
    OUT, ROOT, SRC, Metric, NullTracer, Outcome, Tracer, WorkloadResult,
    geomean, median, peak_rss_mb, percentile,
)

#: one cold CLI run per this many compiled programs; coprime with the
#: family count, so the CLI runs every family in turn
CLI_EVERY = 19
#: programs per tracing block; a multiple of the family count, so traced
#: and untraced blocks see the same family mix
BLOCK = 2 * len(programs.FAMILIES)

#: compile_program's own analysis budget, replayed by the traced path
_BUDGET = dict(max_size=2, max_envs=4, max_instances=256, max_cells=512)


def operations(seed: int) -> Iterator[programs.Program]:
    """The seeded, endless program stream (families in round-robin)."""
    rng = random.Random(seed)
    index = 0
    while True:
        family = programs.FAMILIES[index % len(programs.FAMILIES)]
        yield programs.variant(family, rng, f"s{seed}n{index}")
        index += 1


def _config(prog: programs.Program, leaf: int, fuse: bool) -> ChoiceConfig:
    config = ChoiceConfig()
    config.set_tunable(f"{prog.name}.__leaf_path__", leaf)
    if fuse:
        config.set_tunable(f"{prog.name}.__fuse__", 1)
    return config


def _compile_traced(tracer: Tracer, source: str, counts: Dict[str, float]):
    """compile_program split at its layer boundaries, one span each."""
    with tracer.span("language.parse"):
        tree = parse_program(source)
    with tracer.span("compiler.ir"):
        ir = build_ir(tree)
    with tracer.span("compiler.passes"):
        program = CompiledProgram(ir)
    with tracer.span("analysis.verify"):
        report = analyze_program(program, WitnessBudget(**_BUDGET), errors_only=True)
    for transform in program.transforms.values():
        counts["compiler.rules"] += len(transform.ir.rules)
        counts["compiler.segments"] += len(transform.grid.all_segments())
        counts["compiler.dep_edges"] += len(transform.depgraph.edges)
    counts["analysis.diagnostics"] += len(report)
    for diag in report:
        raise CompileError(f"{diag.transform}: {diag.message}", code=diag.code)
    return program


def _cli_run(prog: programs.Program, inputs, sizes, workdir: str, index: int) -> np.ndarray:
    """One cold ``repro run``; returns its output and wall seconds."""
    source = os.path.join(workdir, f"p{index}.pbcc")
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(prog.source)
    command = [sys.executable, "-m", "repro", "run", source, "-t", prog.name]
    for name, array in inputs.items():
        path = os.path.join(workdir, f"p{index}_{name}.npy")
        np.save(path, array)
        command += ["--input", path]
    for var, value in (sizes or {}).items():
        command += ["--size", f"{var}={value}"]
    output = os.path.join(workdir, f"p{index}_out.npy")
    command += ["--output", output]
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    return np.load(output), elapsed


def _import_probe() -> float:
    """Seconds a cold interpreter spends importing ``repro.cli``."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip())


def _family_geomean(samples: Dict[str, List[float]], q: float) -> float:
    """Geometric mean over families of each family's ``q``-th percentile."""
    return geomean([percentile(v, q) for v in samples.values() if v])


def setup_once() -> float:
    """Compile the six bundled programs; returns wall seconds."""
    start = time.perf_counter()
    for family in programs.FAMILIES:
        prog = programs.base_program(family)
        compiled = compile_program(prog.source).transform(prog.name)
        compiled.has_fusion()
        compiled.has_tiling()
    return time.perf_counter() - start


def run(seed: int, seconds: float, trace: bool, scale: str = "full") -> WorkloadResult:
    setups = [setup_once() for _ in range(5)]
    workdir = os.path.join(OUT, f"frontend-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    outcome = Outcome()
    rng = np.random.default_rng(seed)
    tracer = Tracer() if trace else NullTracer()
    cli_every = CLI_EVERY if scale == "full" else 3
    #: compile latencies by traced?, then by family: percentiles are taken
    #: per family and averaged with the geometric mean, because the
    #: families' compile costs form separate clusters
    compile_ms: Dict[bool, Dict[str, List[float]]] = {
        t: {f: [] for f in programs.FAMILIES} for t in (False, True)}
    op_seconds = 0.0
    cli_ms: List[float] = []
    import_ms: List[float] = []
    counts = {k: 0.0 for k in ("compiler.rules", "compiler.segments",
                               "compiler.dep_edges", "analysis.diagnostics")}
    traced_programs = 0
    deadline = time.perf_counter() + seconds
    try:
        for index, prog in enumerate(operations(seed)):
            if time.perf_counter() >= deadline and index >= 2 * BLOCK:
                break
            inputs, sizes = programs.make_inputs(prog.family, prog.params, rng, tiny=True)
            traced = trace and (index // BLOCK) % 2 == 1
            state: Dict[str, object] = {}

            def compile_and_run() -> bool:
                start = time.perf_counter()
                if traced:
                    with tracer.operation():
                        program = _compile_traced(tracer, prog.source, counts)
                        compiled_at = time.perf_counter()
                        transform = program.transform(prog.name)
                        with tracer.span("rewrite.plan"):
                            fuse = transform.has_fusion()
                            transform.has_tiling()
                        with tracer.span("compiler.run"):
                            result = transform.run(
                                {k: v.copy() for k, v in inputs.items()},
                                _config(prog, 2, fuse), sizes=sizes)
                else:
                    program = compile_program(prog.source)
                    compiled_at = time.perf_counter()
                    transform = program.transform(prog.name)
                    fuse = transform.has_fusion()
                    transform.has_tiling()
                    result = transform.run({k: v.copy() for k, v in inputs.items()},
                                           _config(prog, 2, fuse), sizes=sizes)
                finished = time.perf_counter()
                compile_ms[traced][prog.family].append((compiled_at - start) * 1e3)
                state["seconds"] = finished - start
                # Correctness: the interpreter leaf, bit for bit, and the
                # family's numpy reference.
                reference = transform.run({k: v.copy() for k, v in inputs.items()},
                                          _config(prog, 0, False), sizes=sizes).output()
                state["reference"] = reference
                expected, exact = programs.reference(prog.family, prog.params, inputs, sizes)
                output = result.output()
                return (output.tobytes() == reference.tobytes()
                        and programs.matches(output, expected, exact))

            ok = outcome.guard(f"compile {prog.name}", compile_and_run)
            if "seconds" in state:
                op_seconds += state["seconds"]
            traced_programs += int(traced)
            if index % cli_every == cli_every - 1:
                def cli() -> bool:
                    output, elapsed = _cli_run(prog, inputs, sizes, workdir, index)
                    cli_ms.append(elapsed * 1e3)
                    if traced:
                        import_ms.append(_import_probe() * 1e3)
                    return ok and output.tobytes() == state["reference"].tobytes()

                outcome.guard(f"cli {prog.name}", cli)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)

    untraced = compile_ms[False]
    programs_done = sum(len(v) for t in compile_ms.values() for v in t.values())
    result = WorkloadResult(outcome, {})
    result.report = {f"{f}.compile_ms_p50": Metric(median(v), "ms")
                     for f, v in untraced.items()}
    result.report.update({
        "compile_ms_p50": Metric(_family_geomean(untraced, 50), "ms"),
        "compile_ms_p90": Metric(_family_geomean(untraced, 90), "ms"),
        "cli_run_ms_p50": Metric(median(cli_ms), "ms"),
        "programs": Metric(programs_done, "count"),
        "cli_runs": Metric(len(cli_ms), "count"),
    })
    if not trace:
        result.metrics = {
            "setup_s": Metric(median(setups), "s"),
            "latency_p50_ms": Metric(_family_geomean(untraced, 50), "ms"),
            "latency_p90_ms": Metric(_family_geomean(untraced, 90), "ms"),
            "secondary_p50_ms": Metric(median(cli_ms), "ms"),
            "throughput_per_s": Metric(programs_done / op_seconds, "1/s"),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB"),
        }
        return result
    per = max(1, traced_programs)
    self_s = tracer.self_seconds()
    metrics = {name: Metric(self_s.get(name[:-3], 0.0) * 1e3 / per, "ms") for name in (
        "language.parse_ms", "compiler.ir_ms", "compiler.passes_ms",
        "analysis.verify_ms", "rewrite.plan_ms", "compiler.run_ms")}
    metrics.update({name: Metric(value / per, "count") for name, value in counts.items()})
    metrics["cli.import_ms"] = Metric(median(import_ms) if import_ms else 0.0, "ms")
    traced_p50 = _family_geomean(compile_ms[True], 50)
    untraced_p50 = _family_geomean(untraced, 50)
    metrics["trace.overhead_ms"] = Metric(traced_p50 - untraced_p50, "ms")
    metrics["trace.overhead_pct"] = Metric(100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%")
    metrics["trace.spans"] = Metric(len(tracer.spans), "count")
    result.metrics = metrics
    result.tracer = tracer
    return result
