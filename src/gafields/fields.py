"""Gauge field model on a Riemannian chart.

The configuration bundles a complex wave form Psi, an imaginary scalar
covector potential a_k, a real 2-form potential B_k, a real 1-form H and
a mass.  Everything the model states about them is evaluated here:
the main equation residual, the H-equation defects, the conserved
current, gauge transformations, field strengths, Lagrangians, the
Euler-Lagrange system residuals, the curvature link and covariance under
coordinate changes.

The residuals of the coupled system come in named families (main,
gauge, h, curvature_link, conservation).  Each family is a per-config
form like the others: its output forms, and a numeric reduction of their
values to named defects that takes the couplings c1 and c2.  The gauge
family gives two: its left side is the divergence of the one field
strength F_ij = f_ij + G_ij of the potential a_k + B_k, whose scalar
blade is the Maxwell side (`maxwell`) and whose other blades are the
Yang-Mills side (`yang_mills`).
`residuals(cfg, points)` evaluates every form of the families it is
asked for over all points in one vectorised pass.
A batch is a sequence of N points, shape (N, n) to `np.asarray`, and a
field's values at it are one row per point, shape (N, 2^n).
Each output form is evaluated in a call of its own, so the values of one
form's subtrees are held at a time.  Elsewhere, forms that are read
together are evaluated together, in one `evaluate_many` or `eval_fields`
call, and a subtree they share is evaluated once.

Every symbolic form of a configuration is built once: `FieldConfig` is
immutable, and the main form, C, the L1 form, the two scalars of L0, the
current, the H system, the field strengths G_ij, F_ij and F^ij (each an
antisymmetric table built for i < j, so F^ij is raised once per pair)
and the residual families are kept in a memo on the config the first
time they are asked for; every number here is one of these forms
evaluated.  So calling
`main_residual`, `current`, `residuals`, `system_residuals`,
`conservation_defect`, `curvature_link_check` or the Lagrangians (at a
point or a batch) at many points, or with other couplings, builds
nothing after the first.  A product is built only on
the blades its residuals read: the current J on grades 0 and 2, C on the
blades that pair with H into a scalar, L0 and L1 on the scalar blade.
"""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np

from .blades import grade_array, popcount
from .expr import CExpr, CZERO, ExprError, check_finite, diff, evaluate_many
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
    eval_fields,
    field_from_json,
    field_to_json,
    grade_project_field,
    scalar_field,
    trace_field,
    upsilon_k,
)
from .metric import ArgumentError, MetricError
from .multivector import Multivector, grade_masks, row_norm
from .spin import is_spin_member

CHECK_TOL = 1e-8
H_TOL = 1e-6  # H counts as solving its equations up to this defect


class FieldConfigError(ValueError):
    pass


def _check_shape(name: str, f: FormField, grades, real: bool,
                 imaginary: bool, p) -> None:
    for mask in f.coeffs:
        if popcount(mask) not in grades:
            raise FieldConfigError(f"{name} has a grade-{popcount(mask)} "
                                   f"component, expected grades {grades}")
    for z in evaluate_many(f.coeffs.values(), p):
        if real and abs(z.imag) > CHECK_TOL * max(1.0, abs(z)):
            raise FieldConfigError(f"{name} is not real at {tuple(p)}")
        if imaginary and abs(z.real) > CHECK_TOL * max(1.0, abs(z)):
            raise FieldConfigError(f"{name} is not purely imaginary at "
                                   f"{tuple(p)}")


class FieldConfig:
    """Psi, a_k, B_k, H and m on a chart.  Immutable after construction:
    the symbolic forms derived from it are built once, on first use, and
    kept in `_built` (see `_per_config`), so they can never go stale."""

    __slots__ = ("chart", "psi", "a", "b", "h", "m", "_built")

    def __init__(self, chart: Chart, psi: FormField, a, b, h: FormField,
                 m: float, validate: bool = True):
        n = chart.dim
        if len(a) != n or len(b) != n:
            raise FieldConfigError(f"need {n} components for a and B")
        m = float(m)
        if not np.isfinite(m):
            raise FieldConfigError(f"mass m = {m} is not finite")
        init = super().__setattr__
        init("chart", chart)
        init("psi", psi)
        init("a", tuple(a))
        init("b", tuple(b))
        init("h", h)
        init("m", m)
        init("_built", {})
        if validate:
            p = chart.midpoint()
            for k in range(n):
                _check_shape(f"a_{k + 1}", self.a[k], {0}, False, True, p)
                _check_shape(f"B_{k + 1}", self.b[k], {2}, True, False, p)
            _check_shape("H", self.h, {1}, True, False, p)

    def __setattr__(self, name, value):
        raise AttributeError(f"FieldConfig is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FieldConfig is immutable; cannot delete "
                             f"{name!r}")


def _per_config(build):
    """Make a form builder `build(cfg)` one memo lookup per config: the
    result is built on the first call and kept in cfg's memo under the
    builder's name, so builder names are unique.  Every caller gets the
    same result, so builders return tuples, not lists."""
    @functools.wraps(build)
    def form(cfg: FieldConfig):
        built, key = cfg._built, build.__name__
        if key not in built:
            built[key] = build(cfg)
        return built[key]
    return form


def config_from_json(text: str) -> FieldConfig:
    try:
        data = json.loads(text)
        chart = chart_from_json(json.dumps(data["chart"]))
        psi = field_from_json(json.dumps(data["psi"]), chart)
        a = [field_from_json(json.dumps(blk), chart) for blk in data["a"]]
        b = [field_from_json(json.dumps(blk), chart) for blk in data["b"]]
        h = field_from_json(json.dumps(data["h"]), chart)
        m = data["m"]
    except (ArgumentError, ChartError, ExprError, MetricError):
        raise
    except KeyError as exc:
        raise FieldConfigError(f"missing config key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        # wrong JSON types: a number where a list or object belongs, ...
        raise FieldConfigError(f"malformed config: {exc}") from exc
    if type(m) not in (int, float):  # a JSON true is a Python int too
        raise FieldConfigError(f"mass m must be a number, got {m!r}")
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

@_per_config
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


def _scalar_partners(u: FormField) -> set:
    """The blades b for which e_a e_b has a scalar part for some blade a
    of u: the only blades of X that Tr(U X) reads."""
    chart = u.chart
    return {b for b in range(1 << chart.dim)
            if any(c == 0 for a in u.coeffs
                   for c, _ in chart.blade_product(a, b))}


@_per_config
def c_form(cfg: FieldConfig) -> FormField:
    """The form C = Psi* (main equation left side), built only on the
    blades that pair with a blade of H into a scalar: its callers read
    C through Tr(H (C +- C*)) alone."""
    return clifford_mul_fields(conjugate_field(cfg.psi), main_form(cfg),
                               keep=_scalar_partners(cfg.h))


@_per_config
def h_forms(cfg: FieldConfig):
    """The H system as symbolic fields: the scalar H*H - e and the n forms
    Y_k H - (H B_k - B_k H)."""
    sq = clifford_mul_fields(cfg.h, cfg.h) - scalar_field(cfg.chart, 1.0)
    forms = tuple(upsilon_k(cfg.h, k) - clifford_mul_fields(cfg.h, bk)
                  + clifford_mul_fields(bk, cfg.h)
                  for k, bk in enumerate(cfg.b, start=1))
    return sq, forms


# ---------------------------------------------------------------------------
# Current and conservation.

@_per_config
def bar_psi_field(cfg: FieldConfig) -> FormField:
    return clifford_mul_fields(cfg.h, conjugate_field(cfg.psi))


@_per_config
def current_j_fields(cfg: FieldConfig):
    """J^j = i bar-Psi dx^j Psi as symbolic fields, built only on the
    blades the residuals read: grade 0 (the trace, for Maxwell and the
    conservation identity) and grade 2 (for Yang-Mills)."""
    chart = cfg.chart
    keep = {0, *grade_masks(chart.dim, 2)}
    bp = bar_psi_field(cfg)
    return tuple(clifford_mul_fields(clifford_mul_fields(bp, dx(chart, j)),
                                     cfg.psi, keep=keep).scale(1j)
                 for j in range(1, chart.dim + 1))


@_per_config
def current_exprs(cfg: FieldConfig):
    """The n complex scalars j^k = Tr(bar-Psi dx^k Psi) = -i Tr(J^k).
    Multiplying by -i folds back to the parts of the trace of the
    triple product, so no product is built a second time."""
    return tuple(CExpr(0.0, -1.0) * trace_field(jf)
                 for jf in current_j_fields(cfg))


def current(cfg: FieldConfig, p) -> np.ndarray:
    _require_h(residuals(cfg, [p], ("h",)), [p])
    vals = evaluate_many(current_exprs(cfg), p)
    worst = max(abs(z.imag) for z in vals)
    if worst > CHECK_TOL * max(1.0, max(abs(z) for z in vals)):
        raise FieldConfigError(f"current has imaginary part {worst:.3e}")
    return np.array([z.real for z in vals])


def _require_h(rows, points):
    """Raise unless the H defects of every row pass, naming the first
    point where they fail."""
    for res, p in zip(rows, points):
        worst = max(res["h_scalar"], res["h_forms"])
        if not worst <= H_TOL:
            raise FieldConfigError(f"H does not satisfy its equations at "
                                   f"{tuple(map(float, p))} (defect "
                                   f"{worst:.3e})")


def conservation_defect(cfg: FieldConfig, p):
    """Identity defect d_k(sqrt|g| j^k)/sqrt|g| - Tr(-iH(C - C*)),
    valid for arbitrary smooth Psi when H solves its equations: a float
    at a point, an array at a batch.  Raises `FieldConfigError` at the
    first point where H fails its equations."""
    x = np.asarray(p, dtype=float)
    points = x if x.ndim == 2 else x[None]
    rows = residuals(cfg, points, ("h", "conservation"))
    _require_h(rows, points)
    defects = np.array([res["conservation"] for res in rows])
    return defects if x.ndim == 2 else float(defects[0])


# ---------------------------------------------------------------------------
# Gauge transformation.

def _check_gauge_pair(cfg: FieldConfig, u: FormField, v: CExpr):
    chart = cfg.chart
    p = chart.midpoint()
    v_at, u_at = eval_fields((scalar_field(chart, v), u), p)
    if abs(abs(v_at[0]) - 1.0) > CHECK_TOL:
        raise FieldConfigError(f"|v| = {abs(v_at[0]):.6f} at {tuple(p)}, "
                               f"expected 1")
    if not is_spin_member(Multivector._of(chart.dim, u_at),
                          chart.metric_at(p), tol=1e-7):
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

@_per_config
def g_strength_fields(cfg: FieldConfig):
    """G_ij = Y_i B_j - Y_j B_i + [B_i, B_j] as 2-form fields, built for
    i < j: G_ji = -G_ij, and G_ii is the zero field.  The commutator of
    two 2-forms is a 2-form, so it is built on grade 2 alone."""
    b = cfg.b
    two = set(grade_masks(cfg.chart.dim, 2))
    return _antisymmetric(cfg.chart, lambda i, j: upsilon_k(b[j], i + 1)
                          - upsilon_k(b[i], j + 1)
                          + clifford_mul_fields(b[i], b[j], keep=two)
                          - clifford_mul_fields(b[j], b[i], keep=two))


@_per_config
def strength_fields(cfg: FieldConfig):
    """F_ij = f_ij + G_ij, the strength of the one gauge potential
    a_k + B_k.  The a_k are scalars and commute with the B_k, so its
    scalar blade is f_ij = d_i a_j - d_j a_i and the rest is G_ij.  Built
    for i < j: F_ji = -F_ij, and F_ii is the zero field."""
    chart = cfg.chart
    a = [trace_field(f) for f in cfg.a]
    g = g_strength_fields(cfg)
    return _antisymmetric(chart, lambda i, j: scalar_field(
        chart, a[j].diff(i + 1) - a[i].diff(j + 1)) + g[i][j])


@_per_config
def raised_strength_fields(cfg: FieldConfig):
    """F^ij = g^ir g^js F_rs, raised once for each pair i < j."""
    low = strength_fields(cfg)
    return _antisymmetric(cfg.chart, lambda i, j: _raise_pair(cfg, low, i, j))


def _antisymmetric(chart, build):
    """The n x n table of fields X_ij = build(i, j) for i < j, with
    X_ji = -X_ij and X_ii the zero field."""
    out = [[FormField(chart)] * chart.dim for _ in range(chart.dim)]
    for i, j in itertools.combinations(range(chart.dim), 2):
        out[i][j] = build(i, j)
        out[j][i] = -out[i][j]
    return tuple(map(tuple, out))


def _raise_pair(cfg, lower, i, j):
    """g^ir g^js X_rs for a table of fields.  A pair whose g^ir or g^js
    is zero adds nothing and is skipped."""
    chart = cfg.chart
    gu = chart.g_upper_exprs
    acc = FormField(chart)
    for r in range(chart.dim):
        if gu[i][r].is_zero():
            continue
        for s in range(chart.dim):
            if not gu[j][s].is_zero():
                acc = acc + lower[r][s].scale(CExpr(gu[i][r] * gu[j][s]))
    return acc


@_per_config
def _l1_form(cfg: FieldConfig) -> CExpr:
    """L1 = Tr(H (C + C*)) as a complex scalar expression."""
    c = c_form(cfg)
    return trace_field(clifford_mul_fields(cfg.h, c + conjugate_field(c),
                                           keep={0}))


def lagrangian_l1(cfg: FieldConfig, p) -> complex:
    """L1 at a point or a batch."""
    cfg.chart.check_point(p)
    return _l1_form(cfg).evaluate(p)


@_per_config
def _l0_forms(cfg: FieldConfig):
    """The complex scalars f_ij f^ij and Tr(G_ij G^ij), summed over i and
    j: the scalar blades and the rest of F_ij and F^ij."""
    low, up = strength_fields(cfg), raised_strength_fields(cfg)
    ff, gg = CZERO, FormField(cfg.chart)
    for i, j in itertools.product(range(cfg.chart.dim), repeat=2):
        ff = ff + trace_field(low[i][j]) * trace_field(up[i][j])
        gg = gg + clifford_mul_fields(grade_project_field(low[i][j], 2),
                                      grade_project_field(up[i][j], 2),
                                      keep={0})
    return ff, trace_field(gg)


def lagrangian_l0(cfg: FieldConfig, p, c1: float = 1.0,
                  c2: float = 1.0) -> complex:
    """sqrt|g| (c1 f_ij f^ij + c2 Tr(G_ij G^ij)) at a point or a batch,
    its three scalars evaluated in one call."""
    cfg.chart.check_point(p)
    s, ff, gg = evaluate_many((cfg.chart.sqrt_abs_det, *_l0_forms(cfg)), p)
    return s * (c1 * ff + c2 * gg)


def lagrangian_total(cfg: FieldConfig, p, c1: float = 1.0,
                     c2: float = 1.0) -> complex:
    return lagrangian_l0(cfg, p, c1, c2) + lagrangian_l1(cfg, p)


# ---------------------------------------------------------------------------
# The Euler-Lagrange system.

# Each family builder is a per-config form: the family's output forms
# (FormFields, CExprs or Exprs) and a reduction reduce(values, c1, c2) of
# their values at a batch of points, arrays with one row per point, to
# named defects.  The couplings enter the reductions alone, so a family
# is built once for every c1 and c2.

def _worst(defects):
    """Pointwise maximum of a sequence of defects (0 when empty)."""
    return functools.reduce(np.maximum, defects, 0.0)


@_per_config
def _main_family(cfg):
    return (main_form(cfg),), lambda v, c1, c2: {"main": row_norm(v[0])}


@_per_config
def _gauge_family(cfg):
    """The divergence Y_i(sqrt|g| F^ij) - sqrt|g| [F^ij, B_i] of the gauge
    strength, over sqrt|g|, against the current J^j.  Its scalar blade is
    the Maxwell left side d_i(sqrt|g| f^ij), against i Im Tr(J^j)/c1; its
    other blades are the Yang-Mills one, against the grade-2 real part of
    J^j/c2.  The sqrt|g| factor absorbs the contracted Christoffel of the
    first index, and the one of the second vanishes: Gamma^j_is is
    symmetric in (i, s) and F^is antisymmetric.  f^ij commutes with B_i,
    so the commutator is that of the 2-forms G^ij and B_i, a 2-form."""
    chart = cfg.chart
    n = chart.dim
    sqrtg = CExpr(chart.sqrt_abs_det)
    up = raised_strength_fields(cfg)
    two = set(grade_masks(n, 2))
    lhs = []
    for j in range(n):
        acc = FormField(chart)
        for i in range(n):
            g_ij = grade_project_field(up[i][j], 2)
            comm = clifford_mul_fields(g_ij, cfg.b[i], keep=two) \
                - clifford_mul_fields(cfg.b[i], g_ij, keep=two)
            acc = acc + upsilon_k(up[i][j].scale(sqrtg), i + 1) \
                - comm.scale(sqrtg)
        lhs.append(acc)
    src_two = grade_array(n)[1:] == 2

    def reduce(v, c1, c2):
        s, div, src = v[0], v[1:n + 1], v[n + 1:]
        return {"maxwell": _worst(abs(d[:, 0] / s - 1j * jj[:, 0].imag / c1)
                                  for d, jj in zip(div, src)),
                "yang_mills": _worst(row_norm(
                    d[:, 1:] * (1.0 / s)[:, None]
                    - np.where(src_two, jj[:, 1:].real / c2, 0.0))
                    for d, jj in zip(div, src))}
    return (chart.sqrt_abs_det, *lhs, *current_j_fields(cfg)), reduce


@_per_config
def _h_family(cfg):
    sq, forms = h_forms(cfg)
    return (sq, *forms), lambda v, c1, c2: {
        "h_scalar": row_norm(v[0]), "h_forms": _worst(map(row_norm, v[1:]))}


@_per_config
def _curvature_link_family(cfg):
    """G_ij + (1/2) D_ij over the index pairs i < j; both sides are
    antisymmetric in (i, j)."""
    g_fields = g_strength_fields(cfg)
    d_forms = curvature_forms(cfg.chart)
    pairs = list(itertools.combinations(range(cfg.chart.dim), 2))
    terms = [g_fields[i][j] for i, j in pairs] + [d_forms[i][j]
                                                  for i, j in pairs]
    k = len(pairs)
    return tuple(terms), lambda v, c1, c2: {"curvature_link": _worst(
        row_norm(g + 0.5 * d) for g, d in zip(v[:k], v[k:]))}


@_per_config
def _conservation_family(cfg):
    sqrtg = cfg.chart.sqrt_abs_det
    div = CZERO
    for k, jk in enumerate(current_exprs(cfg), start=1):
        div = div + CExpr(diff(sqrtg * jk.re, k), diff(sqrtg * jk.im, k))
    c = c_form(cfg)
    rhs = trace_field(clifford_mul_fields(cfg.h, c - conjugate_field(c),
                                          keep={0}).scale(-1j))
    return (div, sqrtg, rhs), lambda v, c1, c2: {
        "conservation": abs(v[0] / v[1] - v[2])}


# name -> family builder, in the order a row of `residuals` lists them
_FAMILY_BUILDERS = {"main": _main_family, "gauge": _gauge_family,
                    "h": _h_family,
                    "curvature_link": _curvature_link_family,
                    "conservation": _conservation_family}
FAMILIES = tuple(_FAMILY_BUILDERS)
SYSTEM_FAMILIES = FAMILIES[:-1]


def _value(term, point):
    """One output form at a point or batch, in an evaluation call of its
    own: no memo holds the values of all of a system's forms at once."""
    if isinstance(term, FormField):
        return term.eval_array(point)
    return evaluate_many((term,), point)[0]


def residuals(cfg: FieldConfig, points, families=FAMILIES, c1: float = 1.0,
              c2: float = 1.0) -> list:
    """The named defects of these residual families over a batch of
    points, in one vectorised pass: one dict per point, output name ->
    defect.  Each family is built on first use and kept with the config.
    The conservation identity holds only where H solves its equations, so
    'conservation' is built when the h defects pass somewhere and reported
    only at those points.  A flat sequence of floats reads as points of
    one coordinate, which the chart check rejects unless n = 1."""
    unknown = set(families) - set(FAMILIES)
    if unknown:
        raise ArgumentError(f"unknown residual families {sorted(unknown)}")
    if "conservation" in families and "h" not in families:
        raise ArgumentError("the conservation family needs the h family")
    if len(points) == 0:
        return []
    points = np.reshape(np.asarray(points, dtype=float), (len(points), -1))
    cfg.chart.check_point(points)

    def reduce(name, at) -> dict:
        """The family's named defects at the batch `at`, one per point; a
        reduction over no forms, such as the curvature link on a 1-chart,
        which has no index pairs, gives 0 at every point."""
        terms, defects = _FAMILY_BUILDERS[name](cfg)
        values = [_value(t, at) for t in terms]
        with np.errstate(all="ignore"):  # a non-finite defect raises below
            out = defects(values, c1, c2)
        for v in out.values():
            check_finite(v, at, "defect")
        return {key: np.broadcast_to(v, len(at)) for key, v in out.items()}

    res = {}
    for name in SYSTEM_FAMILIES:
        if name in families:
            res.update(reduce(name, points))
    rows = [{name: float(v[i]) for name, v in res.items()}
            for i in range(len(points))]
    if "conservation" in families:
        ok = np.maximum(res["h_scalar"], res["h_forms"]) <= H_TOL
        if ok.any():
            cons = reduce("conservation", points[ok])["conservation"]
            for i, v in zip(np.flatnonzero(ok), cons):
                rows[i]["conservation"] = float(v)
    return rows


def system_residuals(cfg: FieldConfig, p, c1: float = 1.0,
                     c2: float = 1.0) -> dict:
    """Max-norm residuals of every equation of the coupled system."""
    return residuals(cfg, [p], SYSTEM_FAMILIES, c1, c2)[0]


def curvature_link_check(cfg: FieldConfig, p) -> float:
    """Max norm of G_ij + (1/2) D_ij over all index pairs."""
    return residuals(cfg, [p], ("curvature_link",))[0]["curvature_link"]


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
    a1 = [change.transform_form(f, new_chart) for f in cfg.a]
    b1 = [change.transform_form(f, new_chart) for f in cfg.b]
    a2, b2 = [], []
    for k in range(n):
        acc_a = FormField(new_chart)
        acc_b = FormField(new_chart)
        for j in range(n):
            q = CExpr(change.jacobian[j][k])  # dx^j / d(new x^k)
            acc_a = acc_a + a1[j].scale(q)
            acc_b = acc_b + b1[j].scale(q)
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
    if len(points) == 0:
        return 0.0
    new, old = eval_fields((res_new, res_old_t), points)
    return float(np.abs(new - old).max())
