"""Shared fixtures: random multivectors, charts, plane waves and
curvature-linked configs; the blade-chain Clifford kernel that the
numeric structure tensor and the charts' blade products are checked
against; the ordered-pair Maxwell and Yang-Mills left sides that the
gauge family is checked against; and a node count of expression DAGs."""

import itertools
from math import factorial

import numpy as np

from gafields.blades import (add_term, blade_indices, gen_mul, is_zero,
                             mask_of, popcount)

from gafields.checks import flat_minkowski_chart, mv_sample, random_form_field
from gafields.expr import CExpr, CZERO, ZERO, Const, parse
from gafields.fields import FieldConfig, _raise_pair
from gafields.manifold import (Chart, FormField, clifford_mul_fields,
                               curvature_forms, scalar_field, trace_field,
                               upsilon_k)
from gafields.multivector import Multivector, grade_masks
from gafields.dirac import column_embed, gamma_matrices, plane_wave_spinor


def random_mv(n: int, rng: np.random.Generator) -> Multivector:
    """A multivector with complex standard normal coefficients, all real
    parts drawn first."""
    return Multivector._of(n, mv_sample(n, rng.normal(size=2 << n)))


# coefficient expressions of the smooth random fields on the flat chart
FLAT_POOL = ("x1*x2", "sin(x1)", "cos(x2)*x3", "x4^2", "x3 + 1",
             "sin(x4)*x1", "exp(0.2*x2)", "x1 - x3")


def smooth_config(rng, with_b=True, chart=None):
    """Configuration with smooth psi, imaginary a and real B, on the flat
    Minkowski chart unless a 4-chart is given."""
    if chart is None:
        chart = flat_minkowski_chart()
    psi = random_form_field(chart, rng, FLAT_POOL)
    a = [scalar_field(chart, CExpr(ZERO, parse(src, 4)))
         for src in ("0.3*x2", "x1*x3", "0.1*x4", "x1 + x2")]
    b = []
    for k in range(4):
        if with_b:
            coeffs = {}
            for mask in (0b0011, 0b0101, 0b1010):
                coeffs[mask] = CExpr(parse(f"0.2*x{k + 1}", 4), ZERO)
            b.append(FormField(chart, coeffs))
        else:
            b.append(FormField(chart))
    h = FormField(chart, {0b1000: CExpr.of(1.0)})
    return FieldConfig(chart, psi, a, b, h, 1.1)


def phase_cexpr(k_vec, dim=4):
    """exp(-i k_j x^j) as a complex expression."""
    theta = None
    for j, kj in enumerate(k_vec):
        if kj == 0.0:
            continue
        term = Const(float(kj)) * parse(f"x{j + 1}", dim)
        theta = term if theta is None else theta + term
    if theta is None:
        theta = ZERO
    from gafields.expr import call
    return CExpr(call("cos", theta), -1.0 * call("sin", theta))


def plane_wave_config(k_vec=(1.0, 0.0, 0.0, 2.0), chart=None):
    """Exact solution of the flat main equation from a Dirac plane wave."""
    k_vec = np.asarray(k_vec, dtype=float)
    m = float(np.sqrt(k_vec[3] ** 2 - k_vec[0] ** 2
                      - k_vec[1] ** 2 - k_vec[2] ** 2))
    rep = gamma_matrices()
    u = plane_wave_spinor(k_vec, m, rep)
    psi0 = column_embed(u, rep)
    if chart is None:
        chart = flat_minkowski_chart()
    phase = phase_cexpr(k_vec)
    coeffs = {int(mk): CExpr.of(complex(psi0.coeffs[mk])) * phase
              for mk in np.nonzero(psi0.coeffs)[0]}
    psi = FormField(chart, coeffs)
    zero = [FormField(chart) for _ in range(4)]
    h = FormField(chart, {0b1000: CExpr.of(1.0)})
    return FieldConfig(chart, psi, zero,
                       [FormField(chart) for _ in range(4)], h, m)


def curved_link_chart():
    """Sphere block times a flat (-,+) block."""
    g = [["1", "0", "0", "0"],
         ["0", "sin(x1)^2", "0", "0"],
         ["0", "0", "-1", "0"],
         ["0", "0", "0", "1"]]
    return Chart([[parse(s, 4) for s in row] for row in g],
                 [(0.5, 2.6), (0.1, 3.0), (-1.0, 1.0), (-1.0, 1.0)])


def skew_chart(n, sign):
    """A curved n-chart whose metric has every off-diagonal entry nonzero
    and, for sign -1, a negative last diagonal entry."""
    def entry(i, j):
        if i != j:
            return f"0.2*sin(x{i + 1} + x{j + 1})"
        return "-3 + x1*x2" if sign < 0 and i == n - 1 else f"3 + x{i + 1}^2"
    return Chart([[parse(entry(i, j), n) for j in range(n)] for i in range(n)],
                 [(0.1, 0.9)] * n)


def skew_config(rng):
    """`smooth_config` on `skew_chart(4, -1)`: every g^{ij} is nonzero, so
    the chart's blade products take their contraction terms."""
    return smooth_config(rng, chart=skew_chart(4, -1))


def line_config():
    """A config on a 1-chart, which has no index pair i < j: the
    curvature link holds vacuously there, 0 at every point."""
    chart = Chart([[parse("1 + x1^2", 1)]], [(0.0, 1.0)])
    psi = FormField(chart, {0: CExpr(parse("x1", 1)),
                            1: CExpr(ZERO, parse("x1^2", 1))})
    a = [FormField(chart, {0: CExpr(ZERO, parse("x1", 1))})]
    return FieldConfig(chart, psi, a, [FormField(chart)],
                       FormField(chart, {1: CExpr.of(1.0)}), 1.0)


def curvature_linked_config():
    """Config whose gravitational strength matches the curvature forms at
    the chart midpoint: B_j = sum_i (x^i - p0^i) C_ij with C = -D/4."""
    chart = curved_link_chart()
    p0 = chart.midpoint()
    d = [[form.eval_array(p0) for form in row]
         for row in curvature_forms(chart)]
    n = chart.dim
    b = []
    for j in range(n):
        coeffs = {}
        for mask in grade_masks(n, 2):
            expr = None
            for i in range(n):
                c = -0.25 * d[i][j][mask].real
                if c == 0.0:
                    continue
                term = Const(c) * (parse(f"x{i + 1}", n) - Const(p0[i]))
                expr = term if expr is None else expr + term
            if expr is not None:
                coeffs[mask] = CExpr(expr, ZERO)
        b.append(FormField(chart, coeffs))
    psi = FormField(chart)
    a = [FormField(chart) for _ in range(n)]
    h = FormField(chart, {0b1000: CExpr.of(1.0)})
    return FieldConfig(chart, psi, a, b, h, 1.0), p0


# ---------------------------------------------------------------------------
# The blade-chain Clifford kernel: an algorithm of its own (chain expansion
# with 1/r! factors, then one generator at a time), so it is an independent
# reference for the Chevalley recurrence the library builds products with.

def grassmann_to_chains(mask: int, g) -> dict:
    """Expand a Grassmann blade over Clifford generator chains.

    Returns {chain_mask: scalar} with e^{i1}^...^e^{ik} =
    sum_r (-1)^r/r! Q^r applied to the generator chain; every chain keeps
    ascending indices, so chain masks are Clifford basis monomials.
    """
    k = popcount(mask)
    acc = {mask: 1.0}
    cur = {tuple(blade_indices(mask)): 1.0}
    for r in range(1, k // 2 + 1):
        cur = _q_step(cur, g)
        factor = (-1.0) ** r / factorial(r)
        for chain, coeff in cur.items():
            if is_zero(coeff):
                continue
            add_term(acc, mask_of(chain), coeff * factor)
    return {m: c for m, c in acc.items() if not is_zero(c)}


def _q_step(chains: dict, g) -> dict:
    out: dict = {}
    for chain, coeff in chains.items():
        k = len(chain)
        for p in range(k):
            for q in range(p + 1, k):
                gpq = g(chain[p], chain[q])
                if is_zero(gpq):
                    continue
                reduced = chain[:p] + chain[p + 1:q] + chain[q + 1:]
                term = gpq * coeff
                if (q - p - 1) % 2 == 1:
                    term = -term
                cur = out.get(reduced)
                out[reduced] = term if cur is None else cur + term
    return out


def blade_clifford_mul(mask: int, v: dict, g) -> dict:
    """Clifford product (Grassmann blade `mask`) * V."""
    out: dict = {}
    for chain_mask, coeff in grassmann_to_chains(mask, g).items():
        w = v
        for i in reversed(blade_indices(chain_mask)):
            w = gen_mul(i, w, g)
        for b, c in w.items():
            if not is_zero(c):
                add_term(out, b, coeff * c)
    return out


def clifford_mul_dicts(u: dict, v: dict, g) -> dict:
    out: dict = {}
    for a, ca in u.items():
        if is_zero(ca):
            continue
        part = blade_clifford_mul(a, v, g)
        for b, cb in part.items():
            if not is_zero(cb):
                add_term(out, b, ca * cb)
    return out


# ---------------------------------------------------------------------------
# The Maxwell and Yang-Mills left sides with every ordered index pair built
# on its own, f_ii, G_ii, f_ji and G_ji included, and with the Christoffel
# sum of the second upper index: the reference for the library's gauge
# family, which builds each antisymmetric pair of F_ij = f_ij + G_ij once
# and drops that sum, as Gamma^j_is is symmetric in (i, s).

def ordered_pair_maxwell_lhs(cfg):
    """For each j, the sum over all n^2 pairs (i, r) and all s of
    d_i(sqrt|g| g^ir g^js f_rs), with f_rs = d_r a_s - d_s a_r."""
    chart = cfg.chart
    n, gu, sqrtg = chart.dim, chart.g_upper_exprs, chart.sqrt_abs_det
    a = [trace_field(f) for f in cfg.a]
    f = [[a[s].diff(r + 1) - a[r].diff(s + 1) for s in range(n)]
         for r in range(n)]
    lhs = []
    for j in range(n):
        acc = CZERO
        for i, r, s in itertools.product(range(n), repeat=3):
            term = CExpr(sqrtg * gu[i][r] * gu[j][s]) * f[r][s]
            acc = acc + term.diff(i + 1)
        lhs.append(acc)
    return lhs


def ordered_pair_g_strength(cfg):
    """G_ij = Y_i B_j - Y_j B_i + [B_i, B_j] for all n^2 pairs (i, j)."""
    n, b = cfg.chart.dim, cfg.b
    return [[upsilon_k(b[j], i + 1) - upsilon_k(b[i], j + 1)
             + clifford_mul_fields(b[i], b[j])
             - clifford_mul_fields(b[j], b[i]) for j in range(n)]
            for i in range(n)]


def ordered_pair_yang_mills_lhs(cfg):
    """For each j, sum over i of Y_i(sqrt|g| G^ij), the Christoffel terms
    sqrt|g| Gamma^j_is G^is, and -sqrt|g| [G^ij, B_i]."""
    chart = cfg.chart
    n = chart.dim
    sqrtg = chart.sqrt_abs_det
    gm = chart.gamma_exprs()
    g_low = ordered_pair_g_strength(cfg)
    g_up = [[_raise_pair(cfg, g_low, i, j) for j in range(n)]
            for i in range(n)]
    lhs = []
    for j in range(n):
        acc = FormField(chart)
        for i in range(n):
            acc = acc + upsilon_k(g_up[i][j].scale(CExpr(sqrtg)), i + 1)
            for s in range(n):
                acc = acc + g_up[i][s].scale(CExpr(sqrtg * gm[j][i][s]))
            comm = clifford_mul_fields(g_up[i][j], cfg.b[i]) \
                - clifford_mul_fields(cfg.b[i], g_up[i][j])
            acc = acc - comm.scale(CExpr(sqrtg))
        lhs.append(acc)
    return lhs


def distinct_nodes(*roots) -> int:
    """The number of distinct expression nodes under the roots, a shared
    node counted once."""
    seen, stack = set(), list(roots)
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            stack += [getattr(x, f) for f in ("a", "b", "base", "arg")
                      if hasattr(x, f)]
    return len(seen)
