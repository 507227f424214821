"""Riemannian charts and differential operators on multivector fields.

A Chart holds covariant metric components as symbolic expressions of the
coordinates, from which the inverse metric, Christoffel symbols and the
curvature tensor are derived symbolically; numbers appear only when a
field or tensor is finally evaluated at a point.  FormFields are
multivector-valued functions written in the coordinate Grassmann basis
dx^{i1} ^ ... ^ dx^{ik}.
"""

from __future__ import annotations

import itertools
import json

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
    evaluate_many,
    lift,
    mul,
    parse,
    subst,
    to_str,
)
from .metric import ArgumentError, Metric, new_metric
from .multivector import GRASSMANN, Multivector, grade_masks


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


def _structure_constant(x):
    """A Clifford structure constant (a number or a real expression) as
    +-1 or as a real expression."""
    x = lift(x)
    if isinstance(x, Const) and abs(x.val) == 1.0:
        return int(x.val)
    return x


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
        self._metric_key = self._metric = None
        mid = self.midpoint()
        ref = self.metric_at(mid)  # validates symmetry and nondegeneracy
        self.sign = ref.sign
        self.sqrt_abs_det = call("sqrt", Const(float(self.sign)) * self.det_expr)
        self._gamma = None
        self._riemann = None
        self._blade_products = {}

    def midpoint(self):
        return tuple((lo + hi) / 2 for lo, hi in self.domain)

    def check_point(self, p):
        """Raise `DomainError` unless p is a point of `dim` coordinates in
        the domain box, or a batch (N, dim) of such points; the error
        names the first point outside."""
        x = np.asarray(p, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise DomainError(f"a point of this chart has {self.dim} "
                              f"coordinates; got shape {x.shape}")
        lo, hi = np.array(self.domain).T
        out = ~((lo <= x) & (x <= hi)).all(axis=-1)
        if np.count_nonzero(out):
            bad = x[np.argmax(out)] if x.ndim == 2 else x
            raise DomainError(f"point {tuple(bad.tolist())} outside chart "
                              f"domain")

    def metric_at(self, p) -> Metric:
        """The metric at p.  The chart keeps the last Metric it built and
        returns it again while the metric's exact values repeat, so a
        constant chart has one Metric and one product table."""
        g = np.reshape(evaluate_many(itertools.chain(*self.g_lower_exprs), p),
                       (self.dim,) * 2)
        key = g.tobytes()
        if key != self._metric_key:
            self._metric = new_metric(g, convention="lower")
            self._metric_key = key
        return self._metric

    def blade_product(self, a: int, b: int):
        r"""The Clifford product of the Grassmann blades a and b, e_a e_b =
        sum_c C^c_ab e_c, as (c, C) pairs: C is +1 or -1 where the term is
        a signed blade, else a real expression in the g^ij.  Built on
        first use by the recurrence of `ProductTable`, and kept along with
        every entry it reads: for a = e^i ^ B with lowest index i,

            e_a e_b = e^i (e_B e_b)
                      - sum_{j in B} (-1)^(pos_j - 1) g^{ij} e_{B \ j} e_b."""
        key = (a, b)
        terms = self._blade_products.get(key)
        if terms is None:
            prod = {b: 1}
            if a:
                rest = a & (a - 1)
                i = (a ^ rest).bit_length()
                gu = self.g_upper_exprs
                prod = blades.gen_mul(i, dict(self.blade_product(rest, b)),
                                      lambda p, q: gu[p - 1][q - 1])
                for pos, j in enumerate(blades.blade_indices(rest)):
                    gij = gu[i - 1][j - 1]
                    if gij.is_zero():
                        continue
                    for c, k in self.blade_product(rest ^ (1 << (j - 1)), b):
                        term = gij * k
                        blades.add_term(prod, c, -term if pos % 2 == 0
                                        else term)
            terms = self._blade_products[key] = tuple(
                (c, _structure_constant(x)) for c, x in prod.items()
                if not blades.is_zero(x))
        return terms

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

    def riemann_exprs(self):
        """R^k_{ij,r} as expressions, [i][j][r][k], for i < j; the
        entries with i >= j are ZERO, since R is antisymmetric in (i, j)."""
        if self._riemann is None:
            n = self.dim
            gm = self.gamma_exprs()
            riem = [[[[ZERO] * n for _ in range(n)] for _ in range(n)]
                    for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                for r, k in itertools.product(range(n), repeat=2):
                    quad = ZERO
                    for m in range(n):
                        quad = quad + gm[k][m][i] * gm[m][j][r] \
                            - gm[k][m][j] * gm[m][i][r]
                    riem[i][j][r][k] = -(diff(gm[k][j][r], i + 1)
                                         - diff(gm[k][i][r], j + 1) + quad)
            self._riemann = riem
        return self._riemann

    def curvature(self, p) -> np.ndarray:
        """The mixed Riemann tensor R^k_{ij,r} at p, as [i, j, r, k], or at
        a batch of N points as [point, i, j, r, k]: the entries i < j are
        evaluated, the rest follow by antisymmetry."""
        self.check_point(p)
        n, riem = self.dim, self.riemann_exprs()
        lead = np.shape(p)[:-1]  # () at a point, (N,) at a batch
        i, j = np.triu_indices(n, 1)
        values = np.reshape(evaluate_many(
            [e for a, b in zip(i, j) for row in riem[a][b] for e in row], p),
            (len(i), n, n) + lead)
        upper = np.zeros(lead + (n,) * 4)
        upper[..., i, j, :, :] = np.moveaxis(values, (0, 1, 2), (-3, -2, -1))
        return upper - upper.swapaxes(-4, -3)


def curvature_forms(chart: Chart):
    """The curvature 2-forms D_rl as symbolic fields, [r][l]: the
    Riemann table of `Chart.riemann_exprs` lowered with g_kl."""
    n = chart.dim
    riem = chart.riemann_exprs()
    g = chart.g_lower_exprs
    coeffs = [[{} for _ in range(n)] for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        mask = (1 << i) | (1 << j)
        for r, l in itertools.product(range(n), repeat=2):
            acc = ZERO
            for k in range(n):
                acc = acc + riem[i][j][r][k] * g[k][l]
            coeffs[r][l][mask] = CExpr(acc)
    return [[FormField(chart, coeffs[r][l]) for l in range(n)]
            for r in range(n)]


def chart_from_json(text: str) -> Chart:
    data = json.loads(text)
    n, rows = data["dim"], data["g_lower"]
    # a JSON true is a Python int too, and 2.0 is no dimension
    if type(n) is not int or n != len(rows):
        raise ChartError(f"dim must be an integer equal to the number of "
                         f"metric rows, {len(rows)}; got {n!r}")
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

    def eval_at(self, p) -> Multivector:
        return Multivector._of(self.chart.dim, self.eval_array(p))

    def eval_array(self, point) -> np.ndarray:
        """`eval_fields` of this field alone."""
        return eval_fields((self,), point)[0]

    def grades(self):
        return sorted({blades.popcount(m) for m in self.coeffs})

    def __repr__(self):
        return f"FormField({len(self.coeffs)} terms on {self.chart.dim}-chart)"


def eval_fields(fields, point) -> list:
    """The coefficient array of each field at a point of floats, shape
    (2^n,), or at a batch of N points, shape (N, 2^n): one row per point,
    blade last, as `ProductTable.mul` and `row_norm` take them.  The
    points are checked against each chart once, then every coefficient
    is evaluated in one `evaluate_many` call, so a subtree the fields
    share is evaluated once."""
    fields = list(fields)
    for chart in dict.fromkeys(f.chart for f in fields):
        chart.check_point(point)
    values = iter(evaluate_many(
        [c for f in fields for c in f.coeffs.values()], point))
    rows = np.shape(point)[:-1]
    out = []
    for f in fields:
        arr = np.zeros(rows + (1 << f.chart.dim,), dtype=complex)
        for mask in f.coeffs:
            arr[..., mask] = next(values)
        out.append(arr)
    return out


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
    # the coefficients are expressions: no Clifford-basis import
    basis = data.get("basis", GRASSMANN)
    if basis != GRASSMANN:
        raise ArgumentError(f"unknown basis {basis!r}; expected {GRASSMANN}")
    coeffs = {}
    for term in data["terms"]:
        idx = term["indices"]
        # a JSON true is a Python int too, and 1.0 is no blade index
        if len(set(idx)) != len(idx) or not all(
                type(i) is int and 1 <= i <= chart.dim for i in idx):
            raise ArgumentError(f"blade indices {idx} are not distinct "
                                f"values in 1..{chart.dim}")
        mask = blades.mask_of(idx)
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
    return json.dumps({"basis": GRASSMANN, "terms": terms})


# ---------------------------------------------------------------------------
# Pointwise algebra of fields.

def wedge_fields(u: FormField, v: FormField) -> FormField:
    u._check(v)
    return FormField(u.chart, blades.wedge_dicts(u.coeffs, v.coeffs))


def clifford_mul_fields(u: FormField, v: FormField, *,
                        keep=None) -> FormField:
    """U V from the chart's blade products: each u_a v_b is formed once
    and added to every blade of e_a e_b, with a sign or times C^c_ab.

    `keep`, a set of blade masks, builds only those blades of U V: a pair
    (a, b) whose e_a e_b has no kept blade is skipped before u_a v_b is
    formed.  Each kept blade gets the same terms, in the same order, as
    in the full product."""
    u._check(v)
    product = u.chart.blade_product
    out: dict = {}
    for a, ca in u.coeffs.items():
        for b, cb in v.coeffs.items():
            terms = product(a, b)
            if keep is not None:
                terms = [(c, k) for c, k in terms if c in keep]
                if not terms:
                    continue
            p = ca * cb
            for c, k in terms:
                if isinstance(k, Expr):
                    term = CExpr(mul(k, p.re), mul(k, p.im))
                else:
                    term = p if k > 0 else -p
                blades.add_term(out, c, term)
    return FormField(u.chart, out)


def reversion_field(u: FormField) -> FormField:
    return FormField(u.chart, {
        mask: c if blades.reversion_sign(blades.popcount(mask)) > 0 else -c
        for mask, c in u.coeffs.items()})


def conjugate_field(u: FormField) -> FormField:
    return FormField(u.chart, {mask: c.conj() for mask, c
                               in reversion_field(u).coeffs.items()})


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
        sign = blades.star_inverse_sign(k, n, u.chart.sign)
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
        return tuple(evaluate_many(self.old_exprs, p_new))

    def _subst_map(self):
        return {i + 1: self.old_exprs[i] for i in range(self.dim)}

    def transform_chart(self, chart: Chart) -> Chart:
        if chart.dim != self.dim:
            raise ArgumentError("dimension mismatch")
        n = self.dim
        flat = subst([g for row in chart.g_lower_exprs for g in row],
                     self._subst_map())
        g_old = [flat[i * n:(i + 1) * n] for i in range(n)]
        g_new = [[ZERO] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                acc = ZERO
                for i in range(n):
                    for j in range(n):
                        acc = acc + self.jacobian[i][a] * self.jacobian[j][b] \
                            * g_old[i][j]
                g_new[a][b] = acc
        return Chart(g_new, self.new_domain)

    def transform_form(self, u: FormField, new_chart: Chart) -> FormField:
        """Pull the covariant components back to the new coordinates, all
        in one substitution, so the subtrees they share stay shared."""
        n = self.dim
        parts = [x for c in u.coeffs.values() for x in (c.re, c.im)]
        parts = iter(subst(parts, self._subst_map()))
        out: dict = {}
        for mask in u.coeffs:
            k = blades.popcount(mask)
            rows = [i - 1 for i in blades.blade_indices(mask)]
            c_new = CExpr(next(parts), next(parts))
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
