"""The ``serve`` workload: a ``repro serve`` daemon subprocess driven by
one closed-loop ``ServeClient`` (the next request goes out when the
previous reply is in).

Each cycle of ``CYCLE`` requests, in a seeded order, holds:

* ``RUNS`` small ``/run`` calls with fixed per-transform counts: Blur at
  16²-32², RollingSum at 64-256, MatMulKernel at 8² — all hitting the
  registry's tuned configs;
* ``BATCHES`` ``/batch`` calls of ``BATCH_LINES`` lines mixing stackable
  Blur lines with MatMulKernel and RollingSum lines (the last two fall
  back to serial execution today);
* ``COMPILES`` ``/compile`` calls of fresh frontend-style variants, which
  write to the registry beside the reads.

On small requests transport and JSON dominate the round trip, so a
leaf-path gain should barely move this workload while a transport,
stacking or registry change should.

Set-up starts the daemon, waits until ``/ready`` says so, compiles the
served program and tunes each of its transforms through ``/tune`` (so
runs are registry hits), then sends one request of each kind.  It runs
three times; the last daemon serves the measured phase.

Checks: every served output equals the numpy reference (Blur bit for
bit; RollingSum and MatMulKernel within ``programs.REDUCTION_RTOL``);
every ``/compile`` returns the variant's content hash.  A structured
serve error is a failed operation; the client never retries.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.serve import ServeClient
from repro.serve.registry import program_digest
from repro.serve.resilience import RetryPolicy

import programs
from common import (
    OUT, ROOT, SRC, Metric, NullTracer, Outcome, Tracer, WorkloadResult,
    geomean, median, percentile, process_peak_rss_mb,
)

SERVED = ("blur", "rollingsum", "matmul_kernel")
RUNS = {"blur": 6, "rollingsum": 6, "matmul_kernel": 5}
BATCHES = 2
BATCH_LINES = 64
COMPILES = 2
CYCLE = sum(RUNS.values()) + BATCHES + COMPILES
TUNE = {"min_size": 8, "max_size": 32, "population": 4}


def served_program() -> Tuple[str, Dict[str, programs.Program]]:
    """One program holding the three served transforms."""
    progs = {family: programs.base_program(family) for family in SERVED}
    return "".join(p.source for p in progs.values()), progs


def _request(family: str, rng: random.Random, batch: bool = False):
    """The input arrays of one seeded small request."""
    nprng = np.random.default_rng(rng.getrandbits(32))
    if family == "blur":
        n = rng.choice((16, 24, 32)) if batch else rng.randint(16, 32)
        return programs.make_inputs(family, {"d": 1}, nprng, size={"n": n})[0]
    if family == "rollingsum":
        return programs.make_inputs(family, {}, nprng, size={"n": rng.randint(64, 256)})[0]
    return programs.make_inputs(family, {}, nprng, size={"n": 8})[0]


def operations(seed: int):
    """The seeded, endless request stream: ``(kind, detail)`` tuples."""
    rng = random.Random(seed)
    cycle = 0
    while True:
        kinds = [("run", f) for f, count in RUNS.items() for _ in range(count)]
        kinds += [("batch", None)] * BATCHES + [("compile", None)] * COMPILES
        rng.shuffle(kinds)
        compiles = 0
        for kind, family in kinds:
            if kind == "run":
                yield kind, (family, _request(family, rng))
            elif kind == "batch":
                mix = ["blur"] * 40 + ["matmul_kernel"] * 12 + ["rollingsum"] * 12
                rng.shuffle(mix)
                yield kind, [(f, _request(f, rng, batch=True)) for f in mix]
            else:
                index = cycle * COMPILES + compiles
                family = programs.FAMILIES[index % len(programs.FAMILIES)]
                yield kind, programs.variant(family, rng, f"serve{seed}c{index}")
                compiles += 1
        cycle += 1


def _check(progs, family: str, inputs, outputs: Dict[str, Any]) -> bool:
    """A served output against the family's numpy reference."""
    (actual,) = outputs.values()
    expected, exact = programs.reference(family, progs[family].params, inputs)
    return programs.matches(np.asarray(actual, dtype=np.float64), expected, exact)


class Daemon:
    """A ``repro serve`` subprocess on a free port."""

    def __init__(self) -> None:
        os.makedirs(OUT, exist_ok=True)
        self.log = open(os.path.join(OUT, f"serve-{os.getpid()}.log"), "w", encoding="utf-8")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE, stderr=self.log, text=True)
        try:
            if not select.select([self.proc.stdout], [], [], 60)[0]:
                raise RuntimeError("daemon printed no address within 60 s")
            line = self.proc.stdout.readline()
            if "http://" not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            self.client = ServeClient(port=port, timeout=120.0,
                                      retry=RetryPolicy(retries=0))
            limit = time.monotonic() + 120
            while not self.client.ready().get("ready"):
                if time.monotonic() > limit:
                    raise RuntimeError("daemon never became ready")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - start

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                ServeClient(port=self.client.port, timeout=10.0,
                            retry=RetryPolicy(retries=0)).shutdown()
                self.proc.wait(timeout=30)
            except Exception:  # no port yet, or it will not drain: kill it
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.log.close()
        if os.path.exists(self.log.name) and os.path.getsize(self.log.name) == 0:
            os.remove(self.log.name)


def warm(daemon: Daemon, source: str, progs, rng: random.Random, outcome: Outcome) -> str:
    """Compile the served program, tune every transform, and send one
    request of each kind; returns the program hash."""
    client = daemon.client
    phash = client.compile(source)["program"]
    for family in SERVED:
        job = client.tune(phash, progs[family].name, **TUNE)["job"]
        state = client.wait_job(job, timeout=120.0)["state"]
        outcome.record(state == "done", f"tune {family}: {state}")
    for family in SERVED:
        inputs = _request(family, rng)
        reply = client.run(phash, progs[family].name, {k: v.tolist() for k, v in inputs.items()})
        outcome.record(_check(progs, family, inputs, reply["outputs"]), f"warm run {family}")
    return phash


def run(seed: int, seconds: float, trace: bool, scale: str = "full") -> WorkloadResult:
    source, progs = served_program()
    outcome = Outcome()
    setups: List[float] = []
    starts: List[float] = []
    daemon: Optional[Daemon] = None
    try:
        for rep in range(3):
            start = time.perf_counter()
            daemon = Daemon()
            phash = warm(daemon, source, progs, random.Random(seed), outcome)
            setups.append(time.perf_counter() - start)
            starts.append(daemon.start_s)
            if rep < 2:
                daemon.stop()
        result = _measure(daemon, phash, progs, seed, seconds, trace, outcome)
        result.report["daemon_start_s"] = Metric(median(starts), "s")
        result.report["setup_s"] = Metric(median(setups), "s")
        if trace:
            result.metrics["serve.daemon_start_s"] = Metric(median(starts), "s")
        else:
            result.metrics["setup_s"] = Metric(median(setups), "s")
            result.metrics["peak_rss_mb"] = Metric(process_peak_rss_mb(daemon.proc.pid), "MB")
        return result
    finally:
        if daemon is not None:
            daemon.stop()


def _measure(daemon: Daemon, phash: str, progs, seed: int, seconds: float, trace: bool,
             outcome: Outcome) -> WorkloadResult:
    client = daemon.client
    tracer = Tracer() if trace else NullTracer()
    before = client.stats()
    run_ms: Dict[bool, List[float]] = {False: [], True: []}
    #: /compile latencies per variant family: the families' compile costs
    #: form separate clusters, so the median is taken per family and the
    #: families are averaged with the geometric mean
    compile_ms: Dict[str, List[float]] = {f: [] for f in programs.FAMILIES}
    batch_s: List[float] = []
    batch_lines = 0
    json_ms: List[float] = []
    deadline = time.perf_counter() + seconds
    for index, (kind, detail) in enumerate(operations(seed)):
        if time.perf_counter() >= deadline and index >= 2 * CYCLE:
            break
        traced = trace and (index // CYCLE) % 2 == 1
        active = tracer if traced else NullTracer()
        if kind == "run":
            family, inputs = detail
            payload = {k: v.tolist() for k, v in inputs.items()}
            name = progs[family].name

            def one_run() -> bool:
                start = time.perf_counter()
                with active.operation(), active.span("serve.run"):
                    reply = client.run(phash, name, payload)
                run_ms[traced].append((time.perf_counter() - start) * 1e3)
                if traced:  # the client's and daemon's JSON work, re-timed here
                    start = time.perf_counter()
                    json.dumps({"program": phash, "transform": name, "inputs": payload})
                    json.loads(json.dumps(reply))
                    json_ms.append((time.perf_counter() - start) * 1e3)
                return reply["meta"]["registry_hit"] and _check(
                    progs, family, inputs, reply["outputs"])

            outcome.guard(f"run {family}", one_run)
        elif kind == "batch":
            lines = [json.dumps({"transform": progs[f].name,
                                 "inputs": {k: v.tolist() for k, v in inp.items()}})
                     for f, inp in detail]

            def one_batch() -> bool:
                nonlocal batch_lines
                start = time.perf_counter()
                with active.operation(), active.span("serve.batch"):
                    reply = client.batch(phash, lines)
                batch_s.append(time.perf_counter() - start)
                batch_lines += len(lines)
                records = reply["results"]
                return reply["failed"] == 0 and len(records) == len(detail) and all(
                    record["ok"] and _check(progs, f, inp, record["outputs"])
                    for record, (f, inp) in zip(records, detail))

            outcome.guard("batch", one_batch)
        else:
            prog = detail

            def one_compile() -> bool:
                start = time.perf_counter()
                with active.operation(), active.span("serve.compile"):
                    reply = client.compile(prog.source)
                compile_ms[prog.family].append((time.perf_counter() - start) * 1e3)
                return (reply["program"] == program_digest(prog.source)
                        and prog.name in reply["transforms"] and not reply["cached"])

            outcome.guard(f"compile {prog.name}", one_compile)
    after = client.stats()

    result = WorkloadResult(outcome, {})
    runs = run_ms[False]
    compile_p50 = geomean([median(v) for v in compile_ms.values() if v])
    result.report = {
        "run_ms_p50": Metric(percentile(runs, 50), "ms"),
        "run_ms_p90": Metric(percentile(runs, 90), "ms"),
        "batch_rps": Metric(batch_lines / sum(batch_s), "1/s"),
        "compile_ms_p50": Metric(compile_p50, "ms"),
        "runs": Metric(len(runs) + len(run_ms[True]), "count"),
        "batches": Metric(len(batch_s), "count"),
        "compiles": Metric(sum(len(v) for v in compile_ms.values()), "count"),
    }
    if not trace:
        result.metrics = {
            "latency_p50_ms": Metric(percentile(runs, 50), "ms"),
            "latency_p90_ms": Metric(percentile(runs, 90), "ms"),
            "secondary_p50_ms": Metric(compile_p50, "ms"),
            "throughput_per_s": Metric(batch_lines / sum(batch_s), "1/s"),
        }
        return result

    def hist(name: str) -> Tuple[float, int]:
        new = after["histograms"].get(name, {"sum": 0.0, "count": 0})
        old = before["histograms"].get(name, {"sum": 0.0, "count": 0})
        return new["sum"] - old["sum"], new["count"] - old["count"]

    def counter(name: str) -> int:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    def mean(name: str) -> float:
        total, count = hist(name)
        return total / count if count else 0.0

    all_runs = run_ms[False] + run_ms[True]
    handler = mean("serve.run_ms")
    config_lookups = counter("serve.config_hits") + counter("serve.config_misses")
    metrics = {
        "serve.handler_ms": Metric(handler, "ms"),
        "serve.transport_ms": Metric(sum(all_runs) / len(all_runs) - handler, "ms"),
        "serve.json_ms": Metric(median(json_ms), "ms"),
        "serve.batch_handler_ms": Metric(mean("serve.batch_ms"), "ms"),
        "batch.stacked_ratio": Metric(
            counter("batch.stacked_requests") / max(1, counter("batch.requests")), "ratio"),
        "batch.fallbacks": Metric(counter("batch.fallbacks") / max(1, len(batch_s)), "count"),
        "serve.compile_handler_ms": Metric(mean("serve.compile_ms"), "ms"),
        "serve.registry_hit_ratio": Metric(
            counter("serve.config_hits") / max(1, config_lookups), "ratio"),
    }
    traced_p50, untraced_p50 = median(run_ms[True]), median(runs)
    metrics["trace.overhead_ms"] = Metric(traced_p50 - untraced_p50, "ms")
    metrics["trace.overhead_pct"] = Metric(100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%")
    metrics["trace.spans"] = Metric(len(tracer.spans), "count")
    result.metrics = metrics
    result.tracer = tracer
    return result
