"""Riemannian charts and differential operators on multivector fields.

A Chart holds covariant metric components as symbolic expressions of the
coordinates, from which the inverse metric, Christoffel symbols and the
curvature tensor are derived symbolically; numbers appear only when a
field or tensor is finally evaluated at a point.  FormFields are
multivector-valued functions written in the coordinate Grassmann basis
dx^{i1} ^ ... ^ dx^{ik}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import blades
from .expr import (
    CExpr,
    CZERO,
    Const,
    Expr,
    ZERO,
    call,
    diff,
    evaluate,
    lift,
    parse,
    subst,
    to_str,
)
from .metric import ArgumentError, Metric, new_metric
from .multivector import Multivector, grade_masks


class ChartError(ValueError):
    pass


class DomainError(ChartError):
    pass


def _sym_det(mat) -> Expr:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = ZERO
    for j in range(n):
        sub_rows = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _sym_det(sub_rows)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _sym_inverse(mat):
    """Adjugate-over-determinant inverse of a matrix of expressions."""
    n = len(mat)
    det = _sym_det(mat)
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows = [r for r in range(n) if r != j]
            cols = [c for c in range(n) if c != i]
            minor = [[mat[r][c] for c in cols] for r in rows]
            cof = _sym_det(minor) if minor else lift(1.0)
            if (i + j) % 2 == 1:
                cof = -cof
            inv[i][j] = cof / det
    return inv, det


@dataclass
class CurvatureData:
    point: tuple
    gamma: np.ndarray      # gamma[k, i, j] = Gamma^k_{ij}
    r_mixed: np.ndarray    # r_mixed[i, j, r, k] = R^{...k}_{ij,r}
    r_lower: np.ndarray    # r_lower[i, j, r, l] = R_{ij,rl}
    d_forms: list          # d_forms[r][l] = D_{rl} as a 2-form Multivector


class Chart:
    """Coordinate box with a symbolic covariant metric g_ij(x)."""

    def __init__(self, g_lower_exprs, domain):
        n = len(g_lower_exprs)
        if any(len(row) != n for row in g_lower_exprs):
            raise ChartError("metric expression matrix is not square")
        if len(domain) != n:
            raise ChartError(f"domain needs {n} coordinate ranges")
        self.dim = n
        self.g_lower_exprs = [[lift(e) for e in row] for row in g_lower_exprs]
        self.domain = [(float(lo), float(hi)) for lo, hi in domain]
        if any(lo >= hi for lo, hi in self.domain):
            raise ChartError("empty domain interval")

        self.g_upper_exprs, self.det_expr = _sym_inverse(self.g_lower_exprs)
        mid = self.midpoint()
        ref = self.metric_at(mid)  # validates symmetry and nondegeneracy
        self.sign = ref.sign
        self.sqrt_abs_det = call("sqrt", Const(float(self.sign)) * self.det_expr)
        self._gamma = None
        self._dgamma = None

    def midpoint(self):
        return tuple((lo + hi) / 2 for lo, hi in self.domain)

    def contains(self, p) -> bool:
        return len(p) == self.dim and all(
            lo <= x <= hi for x, (lo, hi) in zip(p, self.domain))

    def check_point(self, p):
        if not self.contains(p):
            raise DomainError(f"point {tuple(p)} outside chart domain")

    def metric_at(self, p) -> Metric:
        memo = {}
        g = np.array([[evaluate(e, p, memo) for e in row]
                      for row in self.g_lower_exprs])
        return new_metric(g, convention="lower")

    def g_upper_cexpr(self, i: int, j: int) -> CExpr:
        return CExpr(self.g_upper_exprs[i - 1][j - 1])

    def gamma_exprs(self):
        """Christoffel symbols Gamma^k_{ij} as expressions, [k][i][j]."""
        if self._gamma is None:
            n = self.dim
            g, gu = self.g_lower_exprs, self.g_upper_exprs
            dg = [[[diff(g[l][j], i + 1) for j in range(n)] for l in range(n)]
                  for i in range(n)]  # dg[i][l][j] = d_i g_lj
            gamma = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
            for k in range(n):
                for i in range(n):
                    for j in range(i, n):
                        acc = ZERO
                        for l in range(n):
                            acc = acc + gu[k][l] * (dg[i][l][j] + dg[j][i][l]
                                                    - dg[l][i][j])
                        val = Const(0.5) * acc
                        gamma[k][i][j] = val
                        gamma[k][j][i] = val
            self._gamma = gamma
        return self._gamma

    def _dgamma_exprs(self):
        if self._dgamma is None:
            n = self.dim
            gm = self.gamma_exprs()
            self._dgamma = [[[[diff(gm[k][j][r], i + 1) for r in range(n)]
                              for j in range(n)] for k in range(n)]
                            for i in range(n)]  # [i][k][j][r] = d_i Gamma^k_{jr}
        return self._dgamma

    def christoffel(self, p) -> np.ndarray:
        self.check_point(p)
        gm = self.gamma_exprs()
        n = self.dim
        memo = {}
        out = np.zeros((n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    out[k, i, j] = evaluate(gm[k][i][j], p, memo)
        return out

    def curvature(self, p) -> CurvatureData:
        self.check_point(p)
        n = self.dim
        gamma = self.christoffel(p)
        dg = self._dgamma_exprs()
        memo = {}
        dgam = np.zeros((n, n, n, n))
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    for r in range(n):
                        dgam[i, k, j, r] = evaluate(dg[i][k][j][r], p, memo)
        r_mixed = np.zeros((n, n, n, n))
        for i in range(n):
            for j in range(n):
                for r in range(n):
                    for k in range(n):
                        quad = gamma[k, :, i] @ gamma[:, j, r] \
                            - gamma[k, :, j] @ gamma[:, i, r]
                        r_mixed[i, j, r, k] = -(dgam[i, k, j, r]
                                                - dgam[j, k, i, r] + quad)
        g_low = self.metric_at(p).g_lower
        r_lower = np.einsum("ijrk,kl->ijrl", r_mixed, g_low)
        d_forms = [[Multivector(n) for _ in range(n)] for _ in range(n)]
        for r in range(n):
            for l in range(n):
                for i in range(n):
                    for j in range(i + 1, n):
                        mask = (1 << i) | (1 << j)
                        d_forms[r][l].coeffs[mask] = r_lower[i, j, r, l]
        return CurvatureData(tuple(p), gamma, r_mixed, r_lower, d_forms)


def curvature_forms(chart: Chart):
    """The curvature 2-forms D_rl as symbolic fields, [r][l]: built once,
    they evaluate at any point or batch to what `Chart.curvature` gives
    numerically at one point."""
    n = chart.dim
    gm = chart.gamma_exprs()
    dg = chart._dgamma_exprs()
    g = chart.g_lower_exprs
    coeffs = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mask = (1 << i) | (1 << j)
            for r in range(n):
                # R^k_{ij,r} for every k, then lowered with g_kl
                r_mixed = []
                for k in range(n):
                    quad = ZERO
                    for m in range(n):
                        quad = quad + gm[k][m][i] * gm[m][j][r] \
                            - gm[k][m][j] * gm[m][i][r]
                    r_mixed.append(-(dg[i][k][j][r] - dg[j][k][i][r] + quad))
                for l in range(n):
                    acc = ZERO
                    for k in range(n):
                        acc = acc + r_mixed[k] * g[k][l]
                    coeffs[r][l][mask] = CExpr(acc)
    return [[FormField(chart, coeffs[r][l]) for l in range(n)]
            for r in range(n)]


def chart_from_json(text: str) -> Chart:
    data = json.loads(text)
    n = int(data["dim"])
    rows = data["g_lower"]
    exprs = [[parse(src, n) for src in row] for row in rows]
    return Chart(exprs, data["domain"])


def chart_to_json(c: Chart) -> str:
    return json.dumps({
        "dim": c.dim,
        "g_lower": [[to_str(e) for e in row] for row in c.g_lower_exprs],
        "domain": [list(rng) for rng in c.domain],
    })


# ---------------------------------------------------------------------------
# Multivector-valued fields.

class FormField:
    """Multivector field: sparse map blade mask -> complex coefficient
    expression, in the coordinate Grassmann basis."""

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart: Chart, coeffs=None):
        self.chart = chart
        self.coeffs = {}
        if coeffs:
            for mask, c in coeffs.items():
                if mask >> chart.dim:
                    raise ArgumentError("blade mask out of range for chart")
                c = CExpr.of(c)
                if not c.is_zero():
                    self.coeffs[mask] = c

    def _check(self, other: "FormField"):
        if self.chart is not other.chart:
            raise ArgumentError("fields live on different charts")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            blades.add_term(out, mask, c)
        return FormField(self.chart, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FormField(self.chart, {m: -c for m, c in self.coeffs.items()})

    def scale(self, z) -> "FormField":
        z = CExpr.of(z)
        return FormField(self.chart, {m: z * c for m, c in self.coeffs.items()})

    def eval_at(self, p, memo=None) -> Multivector:
        self.chart.check_point(p)
        out = Multivector(self.chart.dim)
        out.coeffs = self.eval_array(p, memo)
        return out

    def eval_array(self, point, memo=None) -> np.ndarray:
        """Coefficient array at a point of floats, shape (2^n,), or at a
        batch of N points given as n coordinate arrays, shape (2^n, N).
        The caller checks that the points lie in the chart."""
        if memo is None:
            memo = {}
        shape = (1 << self.chart.dim,) + np.shape(point[0])
        out = np.zeros(shape, dtype=complex)
        for mask, c in self.coeffs.items():
            out[mask] = c.evaluate(point, memo)
        return out

    def grades(self):
        return sorted({blades.popcount(m) for m in self.coeffs})

    def __repr__(self):
        return f"FormField({len(self.coeffs)} terms on {self.chart.dim}-chart)"


def scalar_field(chart: Chart, c) -> FormField:
    return FormField(chart, {0: CExpr.of(c)})


def dx(chart: Chart, k: int) -> FormField:
    """The coordinate basis 1-form dx^k."""
    if not 1 <= k <= chart.dim:
        raise ArgumentError(f"index {k} out of range")
    return FormField(chart, {1 << (k - 1): CExpr.of(1.0)})


def volume_field(chart: Chart) -> FormField:
    full = (1 << chart.dim) - 1
    return FormField(chart, {full: CExpr(chart.sqrt_abs_det)})


def field_from_json(text: str, chart: Chart) -> FormField:
    data = json.loads(text)
    coeffs = {}
    for term in data["terms"]:
        mask = blades.mask_of(term["indices"])
        re = parse(term.get("re", "0"), chart.dim)
        im = parse(term.get("im", "0"), chart.dim)
        blades.add_term(coeffs, mask, CExpr(re, im))
    return FormField(chart, coeffs)


def field_to_json(u: FormField) -> str:
    terms = []
    for mask in sorted(u.coeffs):
        c = u.coeffs[mask]
        terms.append({"indices": blades.blade_indices(mask),
                      "re": to_str(c.re), "im": to_str(c.im)})
    return json.dumps({"basis": "grassmann", "terms": terms})


# ---------------------------------------------------------------------------
# Pointwise algebra of fields.

def wedge_fields(u: FormField, v: FormField) -> FormField:
    u._check(v)
    return FormField(u.chart, blades.wedge_dicts(u.coeffs, v.coeffs))


def clifford_mul_fields(u: FormField, v: FormField) -> FormField:
    u._check(v)
    out = blades.clifford_mul_dicts(u.coeffs, v.coeffs, u.chart.g_upper_cexpr)
    return FormField(u.chart, out)


def reversion_field(u: FormField) -> FormField:
    out = {}
    for mask, c in u.coeffs.items():
        k = blades.popcount(mask)
        out[mask] = -c if (k // 2) % 2 == 1 else c
    return FormField(u.chart, out)


def conjugate_field(u: FormField) -> FormField:
    out = {}
    for mask, c in u.coeffs.items():
        k = blades.popcount(mask)
        cc = c.conj()
        out[mask] = -cc if (k // 2) % 2 == 1 else cc
    return FormField(u.chart, out)


def trace_field(u: FormField) -> CExpr:
    return u.coeffs.get(0, CZERO)


def grade_project_field(u: FormField, k: int) -> FormField:
    return FormField(u.chart, {m: c for m, c in u.coeffs.items()
                               if blades.popcount(m) == k})


def hodge_field(u: FormField) -> FormField:
    return clifford_mul_fields(reversion_field(u), volume_field(u.chart))


def star_inverse_field(u: FormField) -> FormField:
    n = u.chart.dim
    out = FormField(u.chart)
    for k in u.grades():
        sign = u.chart.sign * (-1.0 if (k * (n + 1)) % 2 == 1 else 1.0)
        out = out + hodge_field(grade_project_field(u, k)).scale(sign)
    return out


# ---------------------------------------------------------------------------
# Clifford differentiation and the derived operators.

def upsilon_k(u: FormField, k: int) -> FormField:
    """Clifford derivative in the k-th coordinate direction: the covariant
    derivative of the Grassmann coefficients."""
    chart = u.chart
    if not 1 <= k <= chart.dim:
        raise ArgumentError(f"index {k} out of range")
    gm = chart.gamma_exprs()
    out: dict = {}
    for mask, c in u.coeffs.items():
        blades.add_term(out, mask, c.diff(k))
        idx = blades.blade_indices(mask)
        for m_idx in idx:
            rest = mask ^ (1 << (m_idx - 1))
            for i in range(1, chart.dim + 1):
                if i != m_idx and rest & (1 << (i - 1)):
                    continue
                gamma = gm[m_idx - 1][k - 1][i - 1]
                if gamma.is_zero():
                    continue
                # parity of moving the substituted index back into order
                lo, hi = min(i, m_idx), max(i, m_idx)
                between = blades.popcount(rest & (((1 << (hi - 1)) - 1)
                                                  >> lo) << lo)
                term = gamma * c
                if between % 2 == 1:
                    term = -term
                blades.add_term(out, rest | (1 << (i - 1)), -term)
    return FormField(chart, out)


def d_op(u: FormField) -> FormField:
    out = FormField(u.chart)
    for k in range(1, u.chart.dim + 1):
        out = out + wedge_fields(dx(u.chart, k), upsilon_k(u, k))
    return out


def upsilon_op(u: FormField) -> FormField:
    out = FormField(u.chart)
    for k in range(1, u.chart.dim + 1):
        out = out + clifford_mul_fields(dx(u.chart, k), upsilon_k(u, k))
    return out


def delta_op(u: FormField) -> FormField:
    return d_op(u) - upsilon_op(u)


def laplace(u: FormField) -> FormField:
    return upsilon_op(upsilon_op(u))


# ---------------------------------------------------------------------------
# Plain tensor fields and the covariant derivative.

class TensorField:
    """Tensor field with expression components and a slot signature, a
    string of 'u' (upper) and 'l' (lower) characters, one per index."""

    __slots__ = ("chart", "slots", "comps")

    def __init__(self, chart: Chart, slots: str, comps):
        if any(s not in "ul" for s in slots):
            raise ArgumentError(f"bad slot signature {slots!r}")
        comps = np.asarray(comps, dtype=object)
        if comps.shape != (chart.dim,) * len(slots):
            raise ArgumentError(f"component shape {comps.shape} does not "
                                f"match signature {slots!r}")
        self.chart = chart
        self.slots = slots
        self.comps = comps

    def eval_at(self, p) -> np.ndarray:
        self.chart.check_point(p)
        memo = {}
        out = np.zeros(self.comps.shape)
        for idx in np.ndindex(*self.comps.shape):
            out[idx] = evaluate(lift(self.comps[idx]), p, memo)
        return out if self.comps.shape else float(out)


def nabla(t: TensorField) -> TensorField:
    """Covariant derivative; the new derivative index is the first slot."""
    chart = t.chart
    n = chart.dim
    gm = chart.gamma_exprs()
    rank = len(t.slots)
    out = np.empty((n,) + t.comps.shape, dtype=object)
    for k in range(n):
        for idx in np.ndindex(*t.comps.shape):
            acc = diff(lift(t.comps[idx]), k + 1)
            for s in range(rank):
                for j in range(n):
                    swapped = idx[:s] + (j,) + idx[s + 1:]
                    if t.slots[s] == "u":
                        acc = acc + gm[idx[s]][k][j] * lift(t.comps[swapped])
                    else:
                        acc = acc - gm[j][k][idx[s]] * lift(t.comps[swapped])
            out[(k,) + idx] = acc
    return TensorField(chart, "l" + t.slots, out)


def metric_tensor_field(chart: Chart) -> TensorField:
    return TensorField(chart, "ll", chart.g_lower_exprs)


# ---------------------------------------------------------------------------
# Coordinate changes with exact symbolic Jacobians.

class CoordinateChange:
    """Analytic coordinate change, given as the old coordinates expressed
    through the new ones; the Jacobian d(old)/d(new) is exact."""

    def __init__(self, old_exprs, new_domain):
        self.dim = len(old_exprs)
        self.old_exprs = [lift(e) for e in old_exprs]
        self.new_domain = [(float(lo), float(hi)) for lo, hi in new_domain]
        self.jacobian = [[diff(self.old_exprs[i], a + 1)
                          for a in range(self.dim)] for i in range(self.dim)]

    def old_point(self, p_new):
        memo = {}
        return tuple(evaluate(e, p_new, memo) for e in self.old_exprs)

    def jacobian_at(self, p_new) -> np.ndarray:
        memo = {}
        return np.array([[evaluate(self.jacobian[i][a], p_new, memo)
                          for a in range(self.dim)] for i in range(self.dim)])

    def _subst_map(self):
        return {i + 1: self.old_exprs[i] for i in range(self.dim)}

    def transform_chart(self, chart: Chart) -> Chart:
        if chart.dim != self.dim:
            raise ArgumentError("dimension mismatch")
        mapping = self._subst_map()
        n = self.dim
        g_new = [[ZERO] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                acc = ZERO
                for i in range(n):
                    for j in range(n):
                        acc = acc + self.jacobian[i][a] * self.jacobian[j][b] \
                            * subst(chart.g_lower_exprs[i][j], mapping)
                g_new[a][b] = acc
        return Chart(g_new, self.new_domain)

    def transform_form(self, u: FormField, new_chart: Chart) -> FormField:
        """Pull the covariant components back to the new coordinates."""
        mapping = self._subst_map()
        n = self.dim
        out: dict = {}
        for mask, c in u.coeffs.items():
            k = blades.popcount(mask)
            rows = [i - 1 for i in blades.blade_indices(mask)]
            c_new = CExpr(subst(c.re, mapping), subst(c.im, mapping))
            if k == 0:
                blades.add_term(out, 0, c_new)
                continue
            for nmask in grade_masks(n, k):
                cols = [a - 1 for a in blades.blade_indices(nmask)]
                det = _sym_det([[self.jacobian[i][a] for a in cols]
                                for i in rows])
                if det.is_zero():
                    continue
                blades.add_term(out, nmask, det * c_new)
        return FormField(new_chart, out)
