"""Gauge field model on a Riemannian chart.

The configuration bundles a complex wave form Psi, an imaginary scalar
covector potential a_k, a real 2-form potential B_k, a real 1-form H and
a mass.  Everything the model states about them is evaluated here:
the main equation residual, the H-equation defects, the conserved
current, gauge transformations, field strengths, Lagrangians, the
Euler-Lagrange system residuals, the curvature link and covariance under
coordinate changes.
"""

from __future__ import annotations

import json

import numpy as np

from .blades import popcount
from .expr import CExpr, CZERO, diff, evaluate
from .manifold import (
    Chart,
    CoordinateChange,
    FormField,
    chart_from_json,
    chart_to_json,
    clifford_mul_fields,
    conjugate_field,
    dx,
    field_from_json,
    field_to_json,
    scalar_field,
    trace_field,
    upsilon_k,
)
from .multivector import Multivector, build_product_table
from .spin import is_spin_member

CHECK_TOL = 1e-8


class FieldConfigError(ValueError):
    pass


def _check_shape(name: str, f: FormField, grades, real: bool,
                 imaginary: bool, p) -> None:
    memo = {}
    for mask, c in f.coeffs.items():
        if popcount(mask) not in grades:
            raise FieldConfigError(f"{name} has a grade-{popcount(mask)} "
                                   f"component, expected grades {grades}")
        z = c.evaluate(p, memo)
        if real and abs(z.imag) > CHECK_TOL * max(1.0, abs(z)):
            raise FieldConfigError(f"{name} is not real at {tuple(p)}")
        if imaginary and abs(z.real) > CHECK_TOL * max(1.0, abs(z)):
            raise FieldConfigError(f"{name} is not purely imaginary at "
                                   f"{tuple(p)}")


class FieldConfig:
    __slots__ = ("chart", "psi", "a", "b", "h", "m")

    def __init__(self, chart: Chart, psi: FormField, a, b, h: FormField,
                 m: float, validate: bool = True):
        n = chart.dim
        if len(a) != n or len(b) != n:
            raise FieldConfigError(f"need {n} components for a and B")
        self.chart = chart
        self.psi = psi
        self.a = list(a)
        self.b = list(b)
        self.h = h
        self.m = float(m)
        if validate:
            p = chart.midpoint()
            for k in range(n):
                _check_shape(f"a_{k + 1}", self.a[k], {0}, False, True, p)
                _check_shape(f"B_{k + 1}", self.b[k], {2}, True, False, p)
            _check_shape("H", self.h, {1}, True, False, p)


def config_from_json(text: str) -> FieldConfig:
    data = json.loads(text)
    try:
        chart = chart_from_json(json.dumps(data["chart"]))
        psi = field_from_json(json.dumps(data["psi"]), chart)
        a = [field_from_json(json.dumps(blk), chart) for blk in data["a"]]
        b = [field_from_json(json.dumps(blk), chart) for blk in data["b"]]
        h = field_from_json(json.dumps(data["h"]), chart)
        m = float(data["m"])
    except KeyError as exc:
        raise FieldConfigError(f"missing config key {exc}") from exc
    return FieldConfig(chart, psi, a, b, h, m)


def config_to_json(cfg: FieldConfig) -> str:
    return json.dumps({
        "chart": json.loads(chart_to_json(cfg.chart)),
        "psi": json.loads(field_to_json(cfg.psi)),
        "a": [json.loads(field_to_json(f)) for f in cfg.a],
        "b": [json.loads(field_to_json(f)) for f in cfg.b],
        "h": json.loads(field_to_json(cfg.h)),
        "m": cfg.m,
    })


# ---------------------------------------------------------------------------
# The main equation and its conjugate form.

def main_form(cfg: FieldConfig) -> FormField:
    """Left side of the main equation as a symbolic field:
    i dx^k (Y_k Psi - Psi a_k - Psi B_k) - m Psi."""
    chart = cfg.chart
    out = cfg.psi.scale(-cfg.m)
    for k in range(1, chart.dim + 1):
        inner = upsilon_k(cfg.psi, k) \
            - clifford_mul_fields(cfg.psi, cfg.a[k - 1]) \
            - clifford_mul_fields(cfg.psi, cfg.b[k - 1])
        out = out + clifford_mul_fields(dx(chart, k), inner).scale(1j)
    return out


def main_residual(cfg: FieldConfig, p) -> Multivector:
    return main_form(cfg).eval_at(p)


def c_form(cfg: FieldConfig) -> FormField:
    """The form C = Psi* (main equation left side)."""
    return clifford_mul_fields(conjugate_field(cfg.psi), main_form(cfg))


def h_residual(cfg: FieldConfig, p):
    """Defects of the H system: the scalar H*H - e and the n forms
    Y_k H - (H B_k - B_k H)."""
    chart = cfg.chart
    memo = {}
    unit = scalar_field(chart, 1.0)
    sq = (clifford_mul_fields(cfg.h, cfg.h) - unit).eval_at(p, memo)
    forms = []
    for k in range(1, chart.dim + 1):
        bk = cfg.b[k - 1]
        f = upsilon_k(cfg.h, k) - clifford_mul_fields(cfg.h, bk) \
            + clifford_mul_fields(bk, cfg.h)
        forms.append(f.eval_at(p, memo))
    return sq, forms


# ---------------------------------------------------------------------------
# Current and conservation.

def bar_psi_field(cfg: FieldConfig) -> FormField:
    return clifford_mul_fields(cfg.h, conjugate_field(cfg.psi))


def bar_psi(cfg: FieldConfig, p) -> Multivector:
    return bar_psi_field(cfg).eval_at(p)


def current_exprs(cfg: FieldConfig):
    """The n complex scalars j^k = Tr(bar-Psi dx^k Psi)."""
    bp = bar_psi_field(cfg)
    out = []
    for k in range(1, cfg.chart.dim + 1):
        prod = clifford_mul_fields(clifford_mul_fields(bp, dx(cfg.chart, k)),
                                   cfg.psi)
        out.append(trace_field(prod))
    return out


def current(cfg: FieldConfig, p) -> np.ndarray:
    _require_h(cfg, p)
    memo = {}
    vals = [c.evaluate(p, memo) for c in current_exprs(cfg)]
    worst = max(abs(z.imag) for z in vals)
    if worst > CHECK_TOL * max(1.0, max(abs(z) for z in vals)):
        raise FieldConfigError(f"current has imaginary part {worst:.3e}")
    return np.array([z.real for z in vals])


def _require_h(cfg: FieldConfig, p, tol: float = 1e-6):
    sq, forms = h_residual(cfg, p)
    worst = max([sq.norm()] + [f.norm() for f in forms])
    if worst > tol:
        raise FieldConfigError(f"H does not satisfy its equations at "
                               f"{tuple(p)} (defect {worst:.3e})")


def conservation_defect(cfg: FieldConfig, p) -> float:
    """Identity defect d_k(sqrt|g| j^k)/sqrt|g| - Tr(-iH(C - C*)),
    valid for arbitrary smooth Psi when H solves its equations."""
    _require_h(cfg, p)
    chart = cfg.chart
    memo = {}
    sqrtg = chart.sqrt_abs_det
    div = CZERO
    for k, jk in enumerate(current_exprs(cfg), start=1):
        div = div + CExpr(diff(sqrtg * jk.re, k), diff(sqrtg * jk.im, k))
    lhs = div.evaluate(p, memo) / evaluate(sqrtg, p, memo)
    c = c_form(cfg)
    diffc = c - conjugate_field(c)
    rhs_field = clifford_mul_fields(cfg.h, diffc).scale(-1j)
    rhs = trace_field(rhs_field).evaluate(p, memo)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Gauge transformation.

def _check_gauge_pair(cfg: FieldConfig, u: FormField, v: CExpr):
    p = cfg.chart.midpoint()
    memo = {}
    vv = v.evaluate(p, memo)
    if abs(abs(vv) - 1.0) > CHECK_TOL:
        raise FieldConfigError(f"|v| = {abs(vv):.6f} at {tuple(p)}, "
                               f"expected 1")
    metric = cfg.chart.metric_at(p)
    if not is_spin_member(u.eval_at(p, memo), metric, tol=1e-7):
        raise FieldConfigError("U is not spin-valued at the chart midpoint")


def gauge_transform(cfg: FieldConfig, u: FormField, v: CExpr) -> FieldConfig:
    """Psi -> Psi U v, a_k -> a_k + v^-1 d_k v,
    B_k -> U^-1 B_k U + U^-1 Y_k U, H -> U^-1 H U."""
    _check_gauge_pair(cfg, u, v)
    chart = cfg.chart
    u_inv = conjugate_field(u)  # U is spin-valued, so U* is its inverse
    psi2 = clifford_mul_fields(cfg.psi, u).scale(v)
    a2, b2 = [], []
    v_conj = v.conj()
    for k in range(1, chart.dim + 1):
        shift = v_conj * v.diff(k)
        a2.append(cfg.a[k - 1] + scalar_field(chart, shift))
        b2.append(clifford_mul_fields(clifford_mul_fields(u_inv,
                                                          cfg.b[k - 1]), u)
                  + clifford_mul_fields(u_inv, upsilon_k(u, k)))
    h2 = clifford_mul_fields(clifford_mul_fields(u_inv, cfg.h), u)
    return FieldConfig(chart, psi2, a2, b2, h2, cfg.m, validate=False)


# ---------------------------------------------------------------------------
# Field strengths and Lagrangians.

def f_strength_exprs(cfg: FieldConfig):
    """f_ij = d_i a_j - d_j a_i as complex scalar expressions."""
    n = cfg.chart.dim
    a = [trace_field(f) for f in cfg.a]
    return [[a[j].diff(i + 1) - a[i].diff(j + 1) for j in range(n)]
            for i in range(n)]


def g_strength_fields(cfg: FieldConfig):
    """G_ij = Y_i B_j - Y_j B_i + [B_i, B_j] as 2-form fields."""
    n = cfg.chart.dim
    b = cfg.b
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = upsilon_k(b[j], i + 1) - upsilon_k(b[i], j + 1) \
                + clifford_mul_fields(b[i], b[j]) \
                - clifford_mul_fields(b[j], b[i])
    return out


def field_strengths(cfg: FieldConfig, p):
    """Numeric (f_ij, G_ij) arrays at a point."""
    n = cfg.chart.dim
    memo = {}
    f_exprs = f_strength_exprs(cfg)
    f = np.array([[f_exprs[i][j].evaluate(p, memo) for j in range(n)]
                  for i in range(n)])
    g_fields = g_strength_fields(cfg)
    g = [[g_fields[i][j].eval_at(p, memo) for j in range(n)]
         for i in range(n)]
    return f, g


def lagrangian_l1(cfg: FieldConfig, p) -> complex:
    memo = {}
    c = c_form(cfg)
    total = c + conjugate_field(c)
    return trace_field(clifford_mul_fields(cfg.h, total)).evaluate(p, memo)


def _raise_pair(cfg, lower, i, j):
    """g^{ir} g^{js} X_rs for a matrix of scalar expressions or fields."""
    n = cfg.chart.dim
    gu = cfg.chart.g_upper_exprs
    acc = None
    for r in range(n):
        for s in range(n):
            x = lower[r][s]
            term = x.scale(CExpr(gu[i][r] * gu[j][s])) \
                if isinstance(x, FormField) else CExpr(gu[i][r] * gu[j][s]) * x
            acc = term if acc is None else acc + term
    return acc


def lagrangian_l0(cfg: FieldConfig, p, c1: float = 1.0,
                  c2: float = 1.0) -> complex:
    n = cfg.chart.dim
    memo = {}
    sqrtg = evaluate(cfg.chart.sqrt_abs_det, p, memo)
    f_exprs = f_strength_exprs(cfg)
    f_low = np.array([[f_exprs[i][j].evaluate(p, memo) for j in range(n)]
                      for i in range(n)])
    metric = cfg.chart.metric_at(p)
    gu = metric.g_upper
    f_up = gu @ f_low @ gu.T
    total = c1 * sqrtg * np.sum(f_low * f_up)
    g_fields = g_strength_fields(cfg)
    g_low = [[g_fields[i][j].eval_at(p, memo) for j in range(n)]
             for i in range(n)]
    table = build_product_table(metric)
    for i in range(n):
        for j in range(n):
            g_up = Multivector(n)
            for r in range(n):
                for s in range(n):
                    g_up = g_up + gu[i, r] * gu[j, s] * g_low[r][s]
            total += c2 * sqrtg * table.mul(g_low[i][j], g_up).coeffs[0]
    return complex(total)


def lagrangian_total(cfg: FieldConfig, p, c1: float = 1.0,
                     c2: float = 1.0) -> complex:
    return lagrangian_l0(cfg, p, c1, c2) + lagrangian_l1(cfg, p)


# ---------------------------------------------------------------------------
# The Euler-Lagrange system.

def current_j_fields(cfg: FieldConfig):
    """J^j = i bar-Psi dx^j Psi as symbolic fields."""
    bp = bar_psi_field(cfg)
    out = []
    for j in range(1, cfg.chart.dim + 1):
        out.append(clifford_mul_fields(
            clifford_mul_fields(bp, dx(cfg.chart, j)), cfg.psi).scale(1j))
    return out


def system_residuals(cfg: FieldConfig, p, c1: float = 1.0,
                     c2: float = 1.0) -> dict:
    """Max-norm residuals of every equation of the coupled system."""
    chart = cfg.chart
    n = chart.dim
    memo = {}
    gu_exprs = chart.g_upper_exprs
    sqrtg_expr = chart.sqrt_abs_det
    sqrtg = evaluate(sqrtg_expr, p, memo)
    out = {}

    out["main"] = main_residual(cfg, p).norm()

    j_fields = current_j_fields(cfg)

    # Maxwell-type equations
    f_exprs = f_strength_exprs(cfg)
    f_upper = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = CZERO
            for r in range(n):
                for s in range(n):
                    acc = acc + CExpr(gu_exprs[i][r] * gu_exprs[j][s]) \
                        * f_exprs[r][s]
            f_upper[i][j] = acc
    maxwell = 0.0
    for j in range(n):
        acc = CZERO
        for i in range(n):
            fij = f_upper[i][j]
            acc = acc + CExpr(diff(sqrtg_expr * fij.re, i + 1),
                              diff(sqrtg_expr * fij.im, i + 1))
        lhs = acc.evaluate(p, memo) / sqrtg
        p0 = trace_field(j_fields[j]).evaluate(p, memo)
        rhs = 1j * p0.imag / c1
        maxwell = max(maxwell, abs(lhs - rhs))
    out["maxwell"] = maxwell

    # Yang-Mills-type equations
    gm = chart.gamma_exprs()
    g_fields = g_strength_fields(cfg)
    g_upper = [[_raise_pair(cfg, g_fields, i, j) for j in range(n)]
               for i in range(n)]
    ym = 0.0
    for j in range(n):
        acc = FormField(chart)
        for i in range(n):
            scaled = g_upper[i][j].scale(CExpr(sqrtg_expr))
            term = upsilon_k(scaled, i + 1)
            # the sqrt|g| factor absorbs the contracted Christoffel of the
            # first index; the second free upper index still needs its own
            for s in range(n):
                term = term + g_upper[i][s].scale(
                    CExpr(sqrtg_expr * gm[j][i][s]))
            comm = clifford_mul_fields(g_upper[i][j], cfg.b[i]) \
                - clifford_mul_fields(cfg.b[i], g_upper[i][j])
            acc = acc + term - comm.scale(CExpr(sqrtg_expr))
        lhs = acc.eval_at(p, memo) * (1.0 / sqrtg)
        jj = j_fields[j].eval_at(p, memo)
        rhs = Multivector(n)
        for mask in range(1 << n):
            if bin(mask).count("1") == 2:
                rhs.coeffs[mask] = jj.coeffs[mask].real / c2
        ym = max(ym, (lhs - rhs).norm())
    out["yang_mills"] = ym

    sq, forms = h_residual(cfg, p)
    out["h_scalar"] = sq.norm()
    out["h_forms"] = max(f.norm() for f in forms) if forms else 0.0
    out["curvature_link"] = curvature_link_check(cfg, p)
    return out


def curvature_link_check(cfg: FieldConfig, p) -> float:
    """Max norm of G_ij + (1/2) D_ij over all index pairs."""
    n = cfg.chart.dim
    memo = {}
    g_fields = g_strength_fields(cfg)
    d = cfg.chart.curvature(p).d_forms
    worst = 0.0
    for i in range(n):
        for j in range(n):
            defect = g_fields[i][j].eval_at(p, memo) + 0.5 * d[i][j]
            worst = max(worst, defect.norm())
    return worst


# ---------------------------------------------------------------------------
# Covariance under coordinate changes.

def transform_config(cfg: FieldConfig, change: CoordinateChange,
                     new_chart: Chart = None) -> FieldConfig:
    """Rewrite the configuration in new coordinates: Psi, H transform as
    forms, a_k and B_k additionally as covectors in k."""
    if new_chart is None:
        new_chart = change.transform_chart(cfg.chart)
    n = cfg.chart.dim
    psi2 = change.transform_form(cfg.psi, new_chart)
    h2 = change.transform_form(cfg.h, new_chart)
    a2, b2 = [], []
    for k in range(n):
        acc_a = FormField(new_chart)
        acc_b = FormField(new_chart)
        for j in range(n):
            q = CExpr(change.jacobian[j][k])  # dx^j / d(new x^k)
            acc_a = acc_a + change.transform_form(cfg.a[j], new_chart).scale(q)
            acc_b = acc_b + change.transform_form(cfg.b[j], new_chart).scale(q)
        a2.append(acc_a)
        b2.append(acc_b)
    return FieldConfig(new_chart, psi2, a2, b2, h2, cfg.m, validate=False)


def covariance_check(cfg: FieldConfig, change: CoordinateChange,
                     points) -> float:
    """Max defect between the transformed residual form and the residual of
    the transformed configuration, over new-coordinate sample points."""
    new_chart = change.transform_chart(cfg.chart)
    cfg2 = transform_config(cfg, change, new_chart)
    res_old = main_form(cfg)
    res_old_t = change.transform_form(res_old, new_chart)
    res_new = main_form(cfg2)
    worst = 0.0
    for p in points:
        memo = {}
        d = (res_new.eval_at(p, memo) - res_old_t.eval_at(p, memo)).norm()
        worst = max(worst, d)
    return worst
