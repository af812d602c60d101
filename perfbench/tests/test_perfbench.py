"""Self-test of the benchmark, at tiny scale.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q

It checks that every workload prints every metric named in
BENCHMARK.json with its unit, that a corrupted output counts as a failed
operation, that one seed yields the same operation sequence twice, and
that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import execute  # noqa: E402
import frontend  # noqa: E402
import metrics  # noqa: E402
import serve  # noqa: E402
import tune  # noqa: E402
from repro.compiler.codegen import CompiledTransform  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

WORKLOADS = {"frontend": frontend, "exec": execute, "tune": tune, "serve": serve}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run_cli(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metrics.PER_LAYER
    assert set(metrics.E2E_MEANING) == set(WORKLOADS)
    assert [c.name for c in execute.cases("tiny")] == list(metrics.EXEC_CASES)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    done = _run_cli(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, spec["name"]
    text = "\n".join(lines[:-1])
    assert "# host: nproc=" in text and "# commit:" in text
    for name in metrics.E2E_MEANING[workload]:
        assert f"#   {name} = " in text


def _corrupt_runs(monkeypatch):
    """Every CompiledTransform.run returns its first output off by one."""
    real = CompiledTransform.run

    def corrupted(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        first = next(iter(result.outputs.values()))
        first.data.reshape(-1)[:1] += 1.0
        return result

    monkeypatch.setattr(CompiledTransform, "run", corrupted)


@pytest.mark.parametrize("workload", ["frontend", "exec", "tune"])
def test_corrupted_output_counts_as_failed(workload, monkeypatch):
    _corrupt_runs(monkeypatch)
    result = WORKLOADS[workload].run(5, 0.2, False, "tiny")
    assert result.outcome.failed > 0
    assert result.outcome.attempted >= result.outcome.failed


def test_corrupted_served_output_counts_as_failed(monkeypatch):
    real = ServeClient.run
    calls = {"n": 0}

    def corrupted(self, *args, **kwargs):
        reply = real(self, *args, **kwargs)
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            (name,) = reply["outputs"]
            flat = np.asarray(reply["outputs"][name], dtype=np.float64)
            flat.reshape(-1)[:1] += 1.0
            reply["outputs"][name] = flat.tolist()
        return reply

    monkeypatch.setattr(ServeClient, "run", corrupted)
    result = serve.run(5, 0.5, False, "tiny")
    assert 0 < result.outcome.failed < result.outcome.attempted


def _take(iterator, count):
    return [next(iterator) for _ in range(count)]


def test_one_seed_one_operation_sequence():
    first = [p.source for p in _take(frontend.operations(11), 30)]
    again = [p.source for p in _take(frontend.operations(11), 30)]
    other = [p.source for p in _take(frontend.operations(12), 30)]
    assert first == again and first != other
    assert len(set(first)) == len(first)  # distinct programs

    def served(seed):
        ops = []
        for kind, detail in _take(serve.operations(seed), 2 * serve.CYCLE):
            if kind == "run":
                family, inputs = detail
                ops.append((kind, family, [a.tobytes() for a in inputs.values()]))
            elif kind == "batch":
                ops.append((kind, [(f, [a.tobytes() for a in i.values()]) for f, i in detail]))
            else:
                ops.append((kind, detail.source))
        return ops

    assert served(11) == served(11) and served(11) != served(12)

    def exec_inputs(seed):
        rng = np.random.default_rng(seed)
        return [[a.tobytes() for a in execute.Prepared(case, rng).inputs.values()]
                for case in execute.cases("tiny")]

    assert exec_inputs(11) == exec_inputs(11) and exec_inputs(11) != exec_inputs(12)


def test_tuning_outputs_repeat_across_runs():
    first = tune.run(7, 0.1, False, "tiny").outputs
    second = tune.run(7, 0.1, False, "tiny").outputs
    assert first == second and first["best_simulated_times"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run_cli("frontend", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
