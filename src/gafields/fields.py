"""Gauge field model on a Riemannian chart.

The configuration bundles a complex wave form Psi, an imaginary scalar
covector potential a_k, a real 2-form potential B_k, a real 1-form H and
a mass.  Everything the model states about them is evaluated here:
the main equation residual, the H-equation defects, the conserved
current, gauge transformations, field strengths, Lagrangians, the
Euler-Lagrange system residuals, the curvature link and covariance under
coordinate changes.

The residuals of the coupled system are split into a build step and an
evaluate step.  `ResidualSystem(cfg)` builds each residual family (main,
maxwell, yang_mills, h, curvature_link, conservation) once: symbolic
forms plus a numeric reduction of their values to defects.  Its
`evaluate(points)` then evaluates every form over all points in one
vectorised pass, and `at(p)` evaluates them at one point with plain
floats.  `system_residuals`, `h_residual`, `conservation_defect` and
`curvature_link_check` are one-point calls of the same two steps.
"""

from __future__ import annotations

import json

import numpy as np

from .blades import popcount
from .expr import CExpr, CZERO, ExprError, check_finite, diff, evaluate
from .manifold import (
    Chart,
    ChartError,
    CoordinateChange,
    FormField,
    chart_from_json,
    chart_to_json,
    clifford_mul_fields,
    conjugate_field,
    curvature_forms,
    dx,
    field_from_json,
    field_to_json,
    scalar_field,
    trace_field,
    upsilon_k,
)
from .metric import ArgumentError, MetricError
from .multivector import Multivector, build_product_table
from .spin import is_spin_member

CHECK_TOL = 1e-8
H_TOL = 1e-6  # H counts as solving its equations up to this defect


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
    try:
        data = json.loads(text)
        chart = chart_from_json(json.dumps(data["chart"]))
        psi = field_from_json(json.dumps(data["psi"]), chart)
        a = [field_from_json(json.dumps(blk), chart) for blk in data["a"]]
        b = [field_from_json(json.dumps(blk), chart) for blk in data["b"]]
        h = field_from_json(json.dumps(data["h"]), chart)
        m = float(data["m"])
    except (ArgumentError, ChartError, ExprError, MetricError):
        raise
    except KeyError as exc:
        raise FieldConfigError(f"missing config key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        # wrong JSON types: a number where a list or object belongs, ...
        raise FieldConfigError(f"malformed config: {exc}") from exc
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


def h_forms(cfg: FieldConfig):
    """The H system as symbolic fields: the scalar H*H - e and the n forms
    Y_k H - (H B_k - B_k H)."""
    sq = clifford_mul_fields(cfg.h, cfg.h) - scalar_field(cfg.chart, 1.0)
    forms = [upsilon_k(cfg.h, k) - clifford_mul_fields(cfg.h, bk)
             + clifford_mul_fields(bk, cfg.h)
             for k, bk in enumerate(cfg.b, start=1)]
    return sq, forms


def h_residual(cfg: FieldConfig, p):
    """Defects of the H system at a point, as multivectors."""
    sq, forms = h_forms(cfg)
    return sq.eval_at(p), [f.eval_at(p) for f in forms]


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
    _require_h(ResidualSystem(cfg, ("h",)).at(p), p)
    memo = {}
    vals = [c.evaluate(p, memo) for c in current_exprs(cfg)]
    worst = max(abs(z.imag) for z in vals)
    if worst > CHECK_TOL * max(1.0, max(abs(z) for z in vals)):
        raise FieldConfigError(f"current has imaginary part {worst:.3e}")
    return np.array([z.real for z in vals])


def _require_h(res: dict, p):
    """Raise unless the H defects evaluated at p pass."""
    worst = max(res["h_scalar"], res["h_forms"])
    if not worst <= H_TOL:
        raise FieldConfigError(f"H does not satisfy its equations at "
                               f"{tuple(p)} (defect {worst:.3e})")


def conservation_defect(cfg: FieldConfig, p) -> float:
    """Identity defect d_k(sqrt|g| j^k)/sqrt|g| - Tr(-iH(C - C*)),
    valid for arbitrary smooth Psi when H solves its equations."""
    res = ResidualSystem(cfg, ("h", "conservation")).at(p)
    _require_h(res, p)
    return res["conservation"]


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


# Each family builder returns the family's output forms (FormFields, CExprs
# or Exprs) and a reduction of their values to named defects.  The values
# are complex arrays at a batch and Python numbers at a point of floats,
# so one reduction serves both, and keeps the plain float arithmetic at a
# single point.

def _norm(values):
    """Max-abs norm over the blade axis, at every point."""
    return np.abs(values).max(axis=0)


def _worst(defects):
    """Pointwise maximum of a sequence of defects (0 when empty)."""
    out = 0.0
    for d in defects:
        out = np.maximum(out, d)
    return out


def _main_family(cfg):
    return [main_form(cfg)], lambda v: {"main": _norm(v[0])}


def _maxwell_family(cfg, j_fields, c1):
    """d_i(sqrt|g| f^ij)/sqrt|g| against the source i Im Tr(J^j)/c1."""
    n = cfg.chart.dim
    sqrtg = cfg.chart.sqrt_abs_det
    f_exprs = f_strength_exprs(cfg)
    lhs = []
    for j in range(n):
        acc = CZERO
        for i in range(n):
            fij = _raise_pair(cfg, f_exprs, i, j)
            acc = acc + CExpr(diff(sqrtg * fij.re, i + 1),
                              diff(sqrtg * fij.im, i + 1))
        lhs.append(acc)
    sources = [trace_field(jf) for jf in j_fields]

    def reduce(v):
        s, div, src = v[0], v[1:n + 1], v[n + 1:]
        return {"maxwell": _worst(abs(d / s - 1j * p0.imag / c1)
                                  for d, p0 in zip(div, src))}
    return [sqrtg] + lhs + sources, reduce


def _yang_mills_family(cfg, j_fields, c2):
    """Covariant divergence of G^ij with the [G^ij, B_i] term, against the
    grade-2 real part of J^j/c2."""
    chart = cfg.chart
    n = chart.dim
    sqrtg = chart.sqrt_abs_det
    gm = chart.gamma_exprs()
    g_fields = g_strength_fields(cfg)
    g_upper = [[_raise_pair(cfg, g_fields, i, j) for j in range(n)]
               for i in range(n)]
    lhs = []
    for j in range(n):
        acc = FormField(chart)
        for i in range(n):
            scaled = g_upper[i][j].scale(CExpr(sqrtg))
            term = upsilon_k(scaled, i + 1)
            # the sqrt|g| factor absorbs the contracted Christoffel of the
            # first index; the second free upper index still needs its own
            for s in range(n):
                term = term + g_upper[i][s].scale(CExpr(sqrtg * gm[j][i][s]))
            comm = clifford_mul_fields(g_upper[i][j], cfg.b[i]) \
                - clifford_mul_fields(cfg.b[i], g_upper[i][j])
            acc = acc + term - comm.scale(CExpr(sqrtg))
        lhs.append(acc)
    two = [mask for mask in range(1 << n) if popcount(mask) == 2]

    def reduce(v):
        s, div, src = v[0], v[1:n + 1], v[n + 1:]
        worst = 0.0
        for d, jj in zip(div, src):
            rhs = np.zeros_like(d)
            rhs[two] = jj[two].real / c2
            worst = np.maximum(worst, _norm(d * (1.0 / s) - rhs))
        return {"yang_mills": worst}
    return [sqrtg] + lhs + list(j_fields), reduce


def _h_family(cfg):
    sq, forms = h_forms(cfg)
    return [sq] + forms, lambda v: {"h_scalar": _norm(v[0]),
                                    "h_forms": _worst(map(_norm, v[1:]))}


def _curvature_link_family(cfg):
    """G_ij + (1/2) D_ij over all index pairs."""
    n = cfg.chart.dim
    g_fields = g_strength_fields(cfg)
    d_forms = curvature_forms(cfg.chart)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    terms = [g_fields[i][j] for i, j in pairs] + [d_forms[i][j]
                                                  for i, j in pairs]
    k = len(pairs)
    return terms, lambda v: {"curvature_link": _worst(
        _norm(g + 0.5 * d) for g, d in zip(v[:k], v[k:]))}


def _conservation_family(cfg):
    sqrtg = cfg.chart.sqrt_abs_det
    div = CZERO
    for k, jk in enumerate(current_exprs(cfg), start=1):
        div = div + CExpr(diff(sqrtg * jk.re, k), diff(sqrtg * jk.im, k))
    c = c_form(cfg)
    rhs = trace_field(clifford_mul_fields(cfg.h, c - conjugate_field(c))
                      .scale(-1j))
    return [div, sqrtg, rhs], lambda v: {"conservation": abs(v[0] / v[1]
                                                             - v[2])}


FAMILIES = ("main", "maxwell", "yang_mills", "h", "curvature_link",
            "conservation")
SYSTEM_FAMILIES = FAMILIES[:-1]


def _value(term, point):
    """One output form at a point or batch, with a memo of its own."""
    if isinstance(term, FormField):
        return term.eval_array(point)
    if isinstance(term, CExpr):
        return term.evaluate(point)
    return evaluate(term, point)


def _reduce(family, point) -> dict:
    terms, reduce = family
    values = [_value(t, point) for t in terms]
    with np.errstate(all="ignore"):  # a non-finite defect raises below
        out = reduce(values)
    for v in out.values():
        check_finite(v, point, "defect")
    return out


class ResidualSystem:
    """Build step of the coupled system: the named residual families of
    one configuration, each built once.  `families` maps a family name to
    its (output forms, reduction).  The conservation identity holds only
    where H solves its equations, so its family is built on first use,
    when the evaluated h defects pass somewhere."""

    def __init__(self, cfg: FieldConfig, families=FAMILIES,
                 c1: float = 1.0, c2: float = 1.0):
        unknown = set(families) - set(FAMILIES)
        if unknown:
            raise ArgumentError(f"unknown residual families {sorted(unknown)}")
        if "conservation" in families and "h" not in families:
            raise ArgumentError("the conservation family needs the h family")
        self.cfg = cfg
        self.families = {}
        if "main" in families:
            self.families["main"] = _main_family(cfg)
        if "maxwell" in families or "yang_mills" in families:
            j_fields = current_j_fields(cfg)
        if "maxwell" in families:
            self.families["maxwell"] = _maxwell_family(cfg, j_fields, c1)
        if "yang_mills" in families:
            self.families["yang_mills"] = _yang_mills_family(cfg, j_fields,
                                                             c2)
        if "h" in families:
            self.families["h"] = _h_family(cfg)
        if "curvature_link" in families:
            self.families["curvature_link"] = _curvature_link_family(cfg)
        self._with_conservation = "conservation" in families

    def _defects(self, point) -> dict:
        out = {}
        for family in self.families.values():
            out.update(_reduce(family, point))
        return out

    def _conservation_built(self):
        if "conservation" not in self.families:
            self.families["conservation"] = _conservation_family(self.cfg)
        return self.families["conservation"]

    def _h_passes(self, res):
        return np.maximum(res["h_scalar"], res["h_forms"]) <= H_TOL

    def at(self, p) -> dict:
        """Evaluate step at one point, with plain float arithmetic:
        output name -> defect, 'conservation' only where H passes."""
        self.cfg.chart.check_point(p)
        p = tuple(float(x) for x in p)
        res = self._defects(p)
        if self._with_conservation and self._h_passes(res):
            res.update(_reduce(self._conservation_built(), p))
        return {name: float(v) for name, v in res.items()}

    def evaluate(self, points) -> list:
        """Evaluate step over all points in one vectorised pass: one dict
        per point, as `at` gives it."""
        for p in points:
            self.cfg.chart.check_point(p)
        if not points:
            return []
        xs = tuple(np.array(points, dtype=float).T)
        res = {name: np.broadcast_to(v, len(points))
               for name, v in self._defects(xs).items()}
        rows = [{name: float(v[i]) for name, v in res.items()}
                for i in range(len(points))]
        if self._with_conservation:
            ok = self._h_passes(res)
            if ok.any():
                cons = _reduce(self._conservation_built(),
                               tuple(x[ok] for x in xs))["conservation"]
                for i, v in zip(np.flatnonzero(ok),
                                np.broadcast_to(cons, ok.sum())):
                    rows[i]["conservation"] = float(v)
        return rows


def system_residuals(cfg: FieldConfig, p, c1: float = 1.0,
                     c2: float = 1.0) -> dict:
    """Max-norm residuals of every equation of the coupled system."""
    return ResidualSystem(cfg, SYSTEM_FAMILIES, c1, c2).at(p)


def curvature_link_check(cfg: FieldConfig, p) -> float:
    """Max norm of G_ij + (1/2) D_ij over all index pairs."""
    return ResidualSystem(cfg, ("curvature_link",)).at(p)["curvature_link"]


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
