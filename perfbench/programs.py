"""DSL sources, the seeded program-variant stream, and numpy references.

Six bundled program shapes feed every workload: RollingSum (paper
Figure 3), Heat (versioned stencil), MatMulChain (rolling reduction,
with an optional momentum term), the fusion Pipe (an elementwise chain
of variable length), Blur (a 2-D stencil) and MatMulKernel (product cube
plus region reduction).  :func:`variant` perturbs one of them from a
seeded ``random.Random``: it renames the transform, changes constants
and stencil offsets, and varies the pipeline length and chain depth, so
program size varies while every variant stays a valid program.

The references here are written independently of the engine: numpy
formulas that replay the DSL body's IEEE operation order exactly where
the body is elementwise, and a stated tolerance where the engine
reduces (``np.sum`` per instance) in an order numpy's ``cumsum`` or
``@`` does not share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Relative tolerance for references that reduce in another order.
REDUCTION_RTOL = 1e-9

FAMILIES = ("rollingsum", "heat", "matmul_chain", "pipe", "blur", "matmul_kernel")

# Constants drawn by the variant generator: every one is exactly
# representable, so a variant's arithmetic is as well-conditioned as the
# bundled source's.
_WEIGHTS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1.5, 2.0)
_OFFSETS = (-1.0, -0.5, 0.25, 1.0, 1.5)


@dataclass
class Program:
    """One DSL program plus what the benchmark needs to drive it."""

    family: str
    name: str
    source: str
    #: family parameters, used by the numpy reference
    params: Dict[str, object] = field(default_factory=dict)


# -- sources ---------------------------------------------------------------


def rollingsum_source(name: str, scale: float = 1.0) -> str:
    tail = "" if scale == 1.0 else f" * {scale!r}"
    head = "a" if scale == 1.0 else f"a * {scale!r}"
    return f"""
transform {name}
from A[n]
to B[n]
{{
  to (B.cell(i) b) from (A.region(0, i+1) in) {{ b = sum(in){tail}; }}
  to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) leftSum) {{ b = {head} + leftSum; }}
}}
"""


def heat_source(name: str, w: Tuple[float, float, float] = (1.0, 2.0, 1.0),
                div: float = 4.0, d: int = 1) -> str:
    return f"""
transform {name}
from A[n]
to B[n]
through U<0..k>[n]
{{
  to (U.cell(0, i) u) from (A.cell(i) a) {{ u = a; }}
  to (U.cell(t, i) u)
  from (U.cell(t-1, i-{d}) l, U.cell(t-1, i) m, U.cell(t-1, i+{d}) r)
  {{
    u = (l * {w[0]!r} + m * {w[1]!r} + r * {w[2]!r}) / {div!r};
  }}
  secondary to (U.cell(t, i) u) from (U.cell(t-1, i) m) {{ u = m; }}
  to (B.cell(i) b) from (U.cell(k, i) u) {{ b = u; }}
}}
"""


def matmul_chain_source(name: str, coeffs: Tuple[float, ...] = (1.0,)) -> str:
    """``S[k] = sum_j coeffs[j] * S[k-1-j] + A[:,k-q] x B[k-q,:]`` over
    ``q = len(coeffs)`` zero planes; ``coeffs == (1.0,)`` is the plain
    MatMulChain, two coefficients the momentum chain."""
    q = len(coeffs)
    zeros = "\n".join(
        f"  to (S.cell({j}, i, j) s) from () {{ s = 0.0; }}" for j in range(q)
    )
    reads = ", ".join(f"S.cell(k - {j + 1}, i, j) r{j}" for j in range(q))
    terms = " + ".join(
        f"r{j}" if c == 1.0 else f"r{j} * {c!r}" for j, c in enumerate(coeffs)
    )
    return f"""
transform {name}
from A[n, p], B[p, m]
through S[p + {q}, n, m]
to C[n, m]
{{
{zeros}
  to (S.cell(k, i, j) s)
  from ({reads}, A.cell(i, k - {q}) a, B.cell(k - {q}, j) b)
  {{
    s = {terms} + a * b;
  }}
  to (C.cell(i, j) c) from (S.cell(p + {q - 1}, i, j) s) {{ c = s; }}
}}
"""


def pipe_source(name: str, stages: List[Tuple[float, float]], dims: int = 2) -> str:
    """An elementwise chain ``A -> T1 -> ... -> B``; stage ``j`` computes
    ``x * mul + add``."""
    shape = "[n, m]" if dims == 2 else "[n]"
    cell = "cell(x, y)" if dims == 2 else "cell(x)"
    mats = ["A"] + [f"T{j}" for j in range(1, len(stages))] + ["B"]
    through = ", ".join(f"{m}{shape}" for m in mats[1:-1])
    rules = []
    for j, (mul, add) in enumerate(stages):
        src, dst = mats[j], mats[j + 1]
        op = "+" if add >= 0 else "-"
        rules.append(
            f"  to ({dst}.{cell} o) from ({src}.{cell} v) "
            f"{{ o = v * {mul!r} {op} {abs(add)!r}; }}"
        )
    through_line = f"through {through}\n" if through else ""
    return (
        f"\ntransform {name}\nfrom A{shape}\n{through_line}to B{shape}\n{{\n"
        + "\n".join(rules)
        + "\n}\n"
    )


def blur_source(name: str, w: Tuple[float, float, float] = (0.5, 0.25, 0.25),
                d: int = 1) -> str:
    return f"""
transform {name}
from A[n+{2 * d}, m+{2 * d}]
to B[n, m]
{{
  to (B.cell(x, y) b)
  from (A.cell(x, y) nw, A.cell(x+{d}, y+{d}) c, A.cell(x+{2 * d}, y+{2 * d}) se) {{
    b = c * {w[0]!r} + nw * {w[1]!r} + se * {w[2]!r};
  }}
}}
"""


def matmul_kernel_source(name: str, scale: float = 1.0) -> str:
    body = "a * b" if scale == 1.0 else f"a * b * {scale!r}"
    return f"""
transform {name}
from A[p, n], B[m, p]
through C[m, n, p]
to AB[m, n]
{{
  to (C.cell(x, y, k) c) from (A.cell(k, y) a, B.cell(x, k) b) {{
    c = {body};
  }}
  to (AB.cell(x, y) o) from (C.region(x, y, 0, x+1, y+1, p) prods) {{
    o = sum(prods);
  }}
}}
"""


def base_program(family: str) -> Program:
    """The bundled (unperturbed) program of one family."""
    defaults = {
        "rollingsum": ("RollingSum", {"scale": 1.0}),
        "heat": ("Heat", {"w": (1.0, 2.0, 1.0), "div": 4.0, "d": 1}),
        "matmul_chain": ("MatMulChain", {"coeffs": (1.0,)}),
        "pipe": ("Pipe", {"stages": [(2.0, 1.0), (1.5, -0.5)], "dims": 2}),
        "blur": ("Blur", {"w": (0.5, 0.25, 0.25), "d": 1}),
        "matmul_kernel": ("MatMulKernel", {"scale": 1.0}),
    }
    name, params = defaults[family]
    return Program(family, name, render(family, name, params), params)


def render(family: str, name: str, params: Dict[str, object]) -> str:
    if family == "rollingsum":
        return rollingsum_source(name, params["scale"])
    if family == "heat":
        return heat_source(name, params["w"], params["div"], params["d"])
    if family == "matmul_chain":
        return matmul_chain_source(name, params["coeffs"])
    if family == "pipe":
        return pipe_source(name, params["stages"], params["dims"])
    if family == "blur":
        return blur_source(name, params["w"], params["d"])
    if family == "matmul_kernel":
        return matmul_kernel_source(name, params["scale"])
    raise ValueError(f"unknown family {family!r}")


def variant(family: str, rng: random.Random, tag: str) -> Program:
    """A seeded perturbation of one family's bundled program."""
    pick = rng.choice
    if family == "rollingsum":
        params = {"scale": pick((1.0,) + _WEIGHTS)}
    elif family == "heat":
        params = {"w": (pick(_WEIGHTS), pick(_WEIGHTS), pick(_WEIGHTS)),
                  "div": pick((2.0, 4.0, 8.0)), "d": pick((1, 2))}
    elif family == "matmul_chain":
        depth = pick((1, 1, 2, 3))
        params = {"coeffs": tuple(pick((1.0,) + _WEIGHTS) for _ in range(depth))}
    elif family == "pipe":
        length = rng.randint(2, 7)
        params = {"stages": [(pick(_WEIGHTS), pick(_OFFSETS)) for _ in range(length)],
                  "dims": pick((1, 2))}
    elif family == "blur":
        params = {"w": (pick(_WEIGHTS), pick(_WEIGHTS), pick(_WEIGHTS)), "d": pick((1, 2))}
    elif family == "matmul_kernel":
        params = {"scale": pick((1.0,) + _WEIGHTS)}
    else:
        raise ValueError(f"unknown family {family!r}")
    base = base_program(family).name
    name = f"{base}_{tag}"
    return Program(family, name, render(family, name, params), params)


def program_stream(seed: int, count: int, prefix: str = "v") -> List[Program]:
    """``count`` distinct variants, families in round-robin order so every
    seed loads the same family mix."""
    rng = random.Random(seed)
    return [
        variant(FAMILIES[i % len(FAMILIES)], rng, f"{prefix}{seed}_{i}")
        for i in range(count)
    ]


# -- inputs and references -------------------------------------------------


def make_inputs(family: str, params: Dict[str, object], rng: np.random.Generator,
                tiny: bool = False, size: Optional[Dict[str, int]] = None):
    """``(inputs, sizes)`` for one run of ``family``; ``tiny`` picks a
    seeded small size, ``size`` overrides it."""
    pick = (lambda lo, hi: int(rng.integers(lo, hi + 1)))
    size = dict(size or {})
    uni = (lambda *shape: rng.uniform(-1.0, 1.0, shape))
    if family == "rollingsum":
        n = size.get("n", pick(3, 9) if tiny else 4096)
        return {"A": uni(n)}, None
    if family == "heat":
        n = size.get("n", pick(6, 12) if tiny else 4096)
        k = size.get("k", pick(2, 4) if tiny else 96)
        return {"A": uni(n)}, {"k": k}
    if family == "matmul_chain":
        n = size.get("n", pick(2, 5) if tiny else 768)
        p = size.get("p", pick(2, 4) if tiny else 16)
        return {"A": uni(n, p), "B": uni(p, n)}, None
    if family == "pipe":
        n = size.get("n", pick(2, 6) if tiny else 1024)
        shape = (n, n) if params.get("dims", 2) == 2 else (n * n,)
        return {"A": uni(*shape)}, None
    if family == "blur":
        n = size.get("n", pick(2, 5) if tiny else 32)
        d = int(params.get("d", 1))
        return {"A": uni(n + 2 * d, n + 2 * d)}, None
    if family == "matmul_kernel":
        n = size.get("n", pick(2, 4) if tiny else 48)
        return {"A": uni(n, n), "B": uni(n, n)}, None
    raise ValueError(f"unknown family {family!r}")


def reference(family: str, params: Dict[str, object], inputs: Dict[str, np.ndarray],
              sizes: Optional[Dict[str, int]] = None) -> Tuple[np.ndarray, bool]:
    """``(expected, exact)``: the numpy reference output and whether it
    replays the engine's IEEE operation order (compare bit for bit) or
    reduces in another order (compare within :data:`REDUCTION_RTOL`)."""
    if family == "rollingsum":
        scale = params.get("scale", 1.0)
        return np.cumsum(inputs["A"]) * scale, False
    if family == "heat":
        w, div, d = params["w"], params["div"], int(params["d"])
        u = inputs["A"].copy()
        for _ in range((sizes or {})["k"]):
            nxt = u.copy()
            if u.shape[0] > 2 * d:
                nxt[d:-d] = (u[:-2 * d] * w[0] + u[d:-d] * w[1] + u[2 * d:] * w[2]) / div
            u = nxt
        return u, True
    if family == "matmul_chain":
        a, b = inputs["A"], inputs["B"]
        coeffs = params["coeffs"]
        q = len(coeffs)
        planes = [np.zeros((a.shape[0], b.shape[1])) for _ in range(q)]
        for k in range(a.shape[1]):
            acc = None
            for j, c in enumerate(coeffs):
                term = planes[-1 - j] if c == 1.0 else planes[-1 - j] * c
                acc = term if acc is None else acc + term
            planes.append(acc + np.outer(a[:, k], b[k, :]))
        return planes[-1], True
    if family == "pipe":
        x = inputs["A"]
        for mul, add in params["stages"]:
            x = x * mul + add if add >= 0 else x * mul - abs(add)
        return x, True
    if family == "blur":
        w, d = params["w"], int(params["d"])
        a = inputs["A"]
        n, m = a.shape[0] - 2 * d, a.shape[1] - 2 * d
        nw, c, se = a[:n, :m], a[d:d + n, d:d + m], a[2 * d:, 2 * d:]
        return c * w[0] + nw * w[1] + se * w[2], True
    if family == "matmul_kernel":
        a, b = inputs["A"], inputs["B"]
        scale = params.get("scale", 1.0)
        return (b @ a) * scale, False
    raise ValueError(f"unknown family {family!r}")


def matches(actual: np.ndarray, expected: np.ndarray, exact: bool) -> bool:
    """Bit-for-bit equality, or closeness within :data:`REDUCTION_RTOL`
    of the largest magnitude for reductions."""
    actual = np.asarray(actual, dtype=np.float64)
    if actual.shape != expected.shape:
        return False
    if exact:
        return actual.tobytes() == expected.tobytes()
    scale = max(1.0, float(np.max(np.abs(expected))) if expected.size else 1.0)
    return bool(np.all(np.abs(actual - expected) <= REDUCTION_RTOL * scale))
