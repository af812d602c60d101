"""Wall-clock benchmark of the PetaBricks reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {frontend,exec,tune,serve} \\
        --seed N --seconds S --trace {0,1}

Each workload makes its inputs from ``--seed``, sets up (several times,
reporting the median), measures for ``--seconds`` and checks every
output against an independent reference.  Report lines go to standard
output first: the host and commit stamp, the workload-specific metric
names, deterministic correctness outputs and any failures.  The last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of :mod:`metrics` with ``--trace
0``, the per-layer metrics with ``--trace 1``.  A traced run also writes
its spans to ``perfbench/out/``.

Every metric is wall-clock on the host that ran it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("frontend", "exec", "tune", "serve")


def _load(workload: str):
    """Import the program from src/ and the workload's module."""
    from common import SRC

    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"error: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import importlib

    module = {"exec": "execute"}.get(workload, workload)
    return importlib.import_module(module)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    module = _load(args.workload)
    from common import OUT, host_stamp
    from metrics import E2E_MEANING, END_TO_END, PER_LAYER

    result = module.run(args.seed, args.seconds, bool(args.trace), args.scale)

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in wanted.items():
        metric = result.metrics.get(name)
        value = 0.0 if metric is None else float(metric.value)
        if metric is not None and metric.unit != unit:
            raise RuntimeError(f"{name}: unit {metric.unit} is not {unit}")
        metrics[name] = {"value": value, "unit": unit}
    extra = set(result.metrics) - set(wanted)
    if extra:
        raise RuntimeError(f"unlisted metrics: {sorted(extra)}")

    stamp = host_stamp()
    print(f"# host: nproc={stamp['nproc']} python={stamp['python']} "
          f"numpy={stamp['numpy']} machine={stamp['machine']}")
    print(f"# commit: {stamp['commit'] or 'none (not a git checkout)'} "
          f"src_digest={stamp['src_digest']}")
    print(f"# workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale} (all times wall-clock)")
    for name, meaning in E2E_MEANING[args.workload].items():
        print(f"#   {name} = {meaning}")
    for name, metric in result.report.items():
        print(f"# {args.workload}.{name} = {metric.value:.6g} {metric.unit}")
    for name, value in result.outputs.items():
        print(f"# output {name}: {json.dumps(value)}")
    for failure in result.outcome.failures:
        print(f"# FAILED {failure}")
    if result.tracer is not None:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        result.tracer.write(path, {"workload": args.workload, "seed": args.seed, **stamp})
        print(f"# spans: {len(result.tracer.spans)} written to {os.path.relpath(path)}")

    outcome = result.outcome
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
