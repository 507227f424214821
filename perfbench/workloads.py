"""Seeded inputs and output checks for the three benchmark workloads.

Each workload turns a seed into a list of ops.  An op is one gafields CLI
invocation (argv), the input files it reads, and a check that the
benchmark applies to what the invocation wrote.  The seed changes the
numbers in the inputs; the op count and the shape of every input (matrix
sizes, expression trees, point counts) are fixed, so the work per run is
the same for every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("mul_table", "verify", "field_check")

SUITES = ("algebra", "hodge", "spin", "manifold", "field", "dirac")
VERIFY_SEEDS = 6
VERIFY_COUNT = 100

MUL_TABLE_DIMS = (5, 6)
BASES = ("grassmann", "clifford")
ASSOC_TRIPLES = 3
TABLE_RTOL = 1e-9

FIELD_CONFIGS = 2
FIELD_POINTS = 50
PLANE_WAVE_POINTS = 2
PLANE_WAVE_MAIN_TOL = 1e-10
SYSTEM_CASES = ("main", "maxwell", "yang_mills", "h_scalar", "h_forms",
                "curvature_link")


@dataclass
class Op:
    """One CLI invocation; `check(report_path, code)` returns None when the
    output is right, else a one-line reason."""
    name: str
    argv: list
    out: Path
    check: Callable[[Path, int], str | None]
    inputs: dict = field(default_factory=dict)

    def write_inputs(self) -> None:
        for path, text in self.inputs.items():
            path.write_text(text)


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The op list of `workload` for `seed`; input files go under `work`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "mul_table":
        return _mul_table_ops(rng, work)
    if workload == "verify":
        return _verify_ops(rng, work)
    if workload == "field_check":
        return _field_check_ops(rng, work)
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")


def _seed_of(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# mul_table: a fresh random metric per op.

def random_metric(n: int, rng, indefinite: bool) -> np.ndarray:
    """Dense g^{ij} = Q diag(d) Q^T with a random rotation Q, so every
    table entry is nonzero; indefinite metrics get floor(n/2) negative
    eigenvalues."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    d = rng.uniform(0.5, 2.0, size=n)
    if indefinite:
        d[: n // 2] *= -1.0
    g = q @ np.diag(d) @ q.T
    return (g + g.T) / 2.0


def _mul_table_ops(rng, work: Path) -> list[Op]:
    ops = []
    for n in MUL_TABLE_DIMS:
        for indefinite in (False, True):
            for basis in BASES:
                g = random_metric(n, rng, indefinite)
                name = f"n{n}_{'indef' if indefinite else 'def'}_{basis}"
                metric = work / f"{name}.metric.json"
                out = work / f"{name}.out.json"
                check_seed = _seed_of(rng)
                ops.append(Op(
                    name=f"mul-table {name}",
                    argv=["mul-table", "--metric", str(metric),
                          "--basis", basis, "--out", str(out)],
                    out=out,
                    check=_table_check(g, basis, check_seed),
                    inputs={metric: json.dumps({"dim": n,
                                                "g_upper": g.tolist()})}))
    return ops


def _table_check(g: np.ndarray, basis: str, seed: int):
    def check(out: Path, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        return check_table(json.loads(out.read_text()), g, basis,
                           np.random.default_rng(seed))
    return check


def _mask(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def check_table(data: dict, g: np.ndarray, basis: str, rng) -> str | None:
    """Check emitted structure constants from the entries alone: the
    generator anticommutators e^i e^j + e^j e^i = 2 g^{ij}, and
    associativity on random complex triples."""
    n = g.shape[0]
    if data.get("dim") != n or data.get("basis") != basis:
        return f"header {data.get('dim')}/{data.get('basis')}"
    size = 1 << n
    c = np.zeros((size, size, size), dtype=complex)
    for e in data["entries"]:
        c[_mask(e["alpha"]), _mask(e["beta"]), _mask(e["gamma"])] += \
            complex(e["re"], e["im"])
    if not np.all(np.isfinite(c)):
        return "non-finite structure constant"
    for i in range(n):
        for j in range(n):
            anti = c[1 << i, 1 << j] + c[1 << j, 1 << i]
            anti[0] -= 2.0 * g[i, j]
            if np.abs(anti).max() > TABLE_RTOL * max(np.abs(g).max(), 1.0):
                return f"anticommutator e^{i + 1} e^{j + 1} off by " \
                       f"{np.abs(anti).max():.3e}"
    for _ in range(ASSOC_TRIPLES):
        u, v, w = (rng.normal(size=size) + 1j * rng.normal(size=size)
                   for _ in range(3))
        uv = np.einsum("a,b,abc->c", u, v, c)
        vw = np.einsum("a,b,abc->c", v, w, c)
        lhs = np.einsum("a,b,abc->c", uv, w, c)
        rhs = np.einsum("a,b,abc->c", u, vw, c)
        defect = np.abs(lhs - rhs).max()
        if not defect <= TABLE_RTOL * max(np.abs(lhs).max(), 1.0):
            return f"associativity defect {defect:.3e}"
    return None


# ---------------------------------------------------------------------------
# verify: every suite at several seeds.

def _verify_ops(rng, work: Path) -> list[Op]:
    seeds = [_seed_of(rng) for _ in range(VERIFY_SEEDS)]
    ops = []
    for seed in seeds:
        for suite in SUITES:
            out = work / f"verify_{suite}_{seed}.json"
            ops.append(Op(
                name=f"verify {suite} {seed}",
                argv=["verify", "--suite", suite, "--seed", str(seed),
                      "--count", str(VERIFY_COUNT), "--out", str(out)],
                out=out,
                check=_verify_check(suite, seed)))
    return ops


def _verify_check(suite: str, seed: int):
    def check(out: Path, code: int) -> str | None:
        report = json.loads(out.read_text())
        if report.get("suite") != suite or report.get("seed") != seed:
            return "report header does not match the invocation"
        if report.get("passed") is not True or code != 0:
            failed = [c["id"] for c in report.get("cases", [])
                      if c.get("status") != "pass"]
            return f"exit code {code}, failed cases {failed}"
        return None
    return check


# ---------------------------------------------------------------------------
# field_check: random smooth configurations on a curved chart, plus one
# exact plane-wave solution on the flat chart.

CURVED_CHART = {
    "dim": 4,
    "g_lower": [["1", "0", "0", "0"], ["0", "sin(x1)^2", "0", "0"],
                ["0", "0", "-1", "0"], ["0", "0", "0", "1"]],
    "domain": [[0.5, 2.6], [0.1, 3.0], [-1.0, 1.0], [-1.0, 1.0]],
}


def _c(rng) -> str:
    # four decimals in [0.2, 0.9]: never the 0 or 1 the expression
    # constructors fold away, so every seed builds the same trees
    return f"{rng.uniform(0.2, 0.9):.4f}"


def _field(terms) -> dict:
    return {"basis": "grassmann",
            "terms": [{"indices": [i + 1 for i in range(4) if mask >> i & 1],
                       "re": re, "im": im} for mask, re, im in terms]}


def random_config(rng) -> dict:
    """Smooth psi on all 16 blades, imaginary a_k, real bivector B_k and
    H = dx^4 on the sphere-times-flat chart."""
    psi = []
    for mask in range(16):
        i, j, k = mask % 4 + 1, (mask // 4) % 4 + 1, (mask + 1) % 4 + 1
        re = f"{_c(rng)}*sin({_c(rng)}*x{i}) + {_c(rng)}*x{j}*x{k}"
        im = f"{_c(rng)}*cos({_c(rng)}*x{j}) - {_c(rng)}*x{i}"
        psi.append((mask, re, im))
    a = [_field([(0, "0", f"{_c(rng)}*x{(k + 1) % 4 + 1} + {_c(rng)}")])
         for k in range(4)]
    b = [_field([(mask, f"{_c(rng)}*x{k + 1}", "0")
                 for mask in (0b0011, 0b0101, 0b1010)])
         for k in range(4)]
    return {"chart": CURVED_CHART, "psi": _field(psi), "a": a, "b": b,
            "h": _field([(0b1000, "1", "0")]),
            "m": float(f"{rng.uniform(0.5, 1.5):.4f}")}


def plane_wave_config(rng) -> str:
    """Exact solution of the flat main equation: a Dirac plane wave with a
    random on-shell momentum, built through the public gafields API the
    way a user writes a config file."""
    from gafields.dirac import column_embed, gamma_matrices, plane_wave_spinor
    from gafields.expr import CExpr, Const, call, parse
    from gafields.fields import FieldConfig, config_to_json
    from gafields.manifold import Chart, FormField

    mass = rng.uniform(0.5, 1.5)
    k3 = rng.uniform(-1.0, 1.0, size=3)
    k_vec = np.array([*k3, math.sqrt(mass**2 + float(k3 @ k3))])
    rep = gamma_matrices()
    psi0 = column_embed(plane_wave_spinor(k_vec, mass, rep), rep)
    rows = [["-1", "0", "0", "0"], ["0", "-1", "0", "0"],
            ["0", "0", "-1", "0"], ["0", "0", "0", "1"]]
    chart = Chart([[parse(s, 4) for s in row] for row in rows],
                  [(-1.0, 1.0)] * 4)
    theta = Const(0.0)
    for j, kj in enumerate(k_vec):
        theta = theta + Const(float(kj)) * parse(f"x{j + 1}", 4)
    phase = CExpr(call("cos", theta), -1.0 * call("sin", theta))
    psi = FormField(chart, {int(mk): CExpr.of(complex(psi0.coeffs[mk])) * phase
                            for mk in np.nonzero(psi0.coeffs)[0]})
    empty = [FormField(chart) for _ in range(4)]
    h = FormField(chart, {0b1000: CExpr.of(1.0)})
    return config_to_json(FieldConfig(chart, psi, empty, list(empty), h,
                                      mass))


def _field_check_ops(rng, work: Path) -> list[Op]:
    ops = []
    for idx in range(FIELD_CONFIGS):
        config = work / f"field_config{idx}.json"
        out = work / f"field_check{idx}.json"
        ops.append(Op(
            name=f"field-check config{idx}",
            argv=["field-check", "--config", str(config),
                  "--seed", str(_seed_of(rng)),
                  "--count", str(FIELD_POINTS), "--out", str(out)],
            out=out,
            check=_field_check(FIELD_POINTS, None),
            inputs={config: json.dumps(random_config(rng))}))
    config = work / "plane_wave.json"
    out = work / "plane_wave.out.json"
    ops.append(Op(
        name="field-check plane_wave",
        argv=["field-check", "--config", str(config),
              "--seed", str(_seed_of(rng)),
              "--count", str(PLANE_WAVE_POINTS), "--out", str(out)],
        out=out,
        check=_field_check(PLANE_WAVE_POINTS, PLANE_WAVE_MAIN_TOL),
        inputs={config: plane_wave_config(rng)}))
    return ops


def _field_check(count: int, main_tol: float | None):
    def check(out: Path, code: int) -> str | None:
        # exit 1 only says a residual exceeds the tolerance, which a random
        # psi is expected to do; 2 and raised errors are failures
        if code not in (0, 1):
            return f"exit code {code}"
        return check_field_report(json.loads(out.read_text()), count,
                                  main_tol)
    return check


def check_field_report(report: dict, count: int,
                       main_tol: float | None) -> str | None:
    """Every defect finite; case ids the same fixed set at every point;
    on an exact solution, every `main` case below `main_tol`."""
    per_point: dict = {}
    for case in report["cases"]:
        defect = case["max_defect"]
        if not math.isfinite(defect):
            return f"case {case['id']} has defect {defect}"
        point, _, name = case["id"].partition("_")
        per_point.setdefault(point, set()).add(name)
        if main_tol is not None and name == "main" and defect >= main_tol:
            return f"case {case['id']} = {defect:.3e} on an exact solution"
    if sorted(per_point) != sorted(f"point{i}" for i in range(count)):
        return f"points {sorted(per_point)}"
    # the conservation case is reported only where H solves its own
    # equations, which holds for a config at every point or at none
    allowed = ({*SYSTEM_CASES}, {*SYSTEM_CASES, "conservation"})
    names = list(per_point.values())
    if names[0] not in allowed or any(n != names[0] for n in names):
        return f"unstable case ids {sorted(names[0])}"
    return None
