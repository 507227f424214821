"""Seeded generators, identity kernels and the `verify` suites.

The generators draw from a numpy Generator in a fixed order, so a seed
fixes every input.  A kernel takes inputs that were already drawn and
returns the defects of one identity of the model, so the suites and the
acceptance tests share the arithmetic while each keeps its own draws.
`SUITES` maps a suite name to a function of (seed, count) that returns
its cases as (id, defect, tolerance).
"""

from __future__ import annotations

import itertools

import numpy as np

from .blades import star_inverse_sign
from .dirac import (MINKOWSKI_DIAG, gamma_matrices, minkowski_metric,
                    multivector_from_matrix, rep_map)
from .expr import CExpr, ZERO, call, parse
from .fields import (FieldConfig, conservation_defect, gauge_transform,
                     lagrangian_l0, lagrangian_l1, main_residual)
from .manifold import (Chart, FormField, d_op, delta_op, dx,
                       grade_project_field, hodge_field, scalar_field,
                       star_inverse_field, upsilon_k, volume_field)
from .metric import Metric, is_isometry, new_metric
from .multivector import (CLIFFORD, GRASSMANN, Multivector, basis_convert,
                          build_product_table, clifford_via_star,
                          conjugate_star, exterior_metric_block, grade_masks,
                          grade_project, hodge_star, hodge_star_components,
                          scalar_product, star_inverse)
from .spin import (adjoint_action, factor_isometry, isometry_of,
                   random_spin_element)

# coefficient expressions of the suites' random fields
_POOL = ("x1*x2", "sin(x1)", "cos(x2)*x1", "x1^2 - x2", "exp(0.3*x2)",
         "x2^2", "1 + x1", "sin(x2)*cos(x1)")


# ---------------------------------------------------------------------------
# Seeded generators.

def random_metric(n: int, rng: np.random.Generator) -> Metric:
    """Random symmetric g^ij with |det g| above 0.05."""
    while True:
        a = rng.normal(size=(n, n))
        g = (a + a.T) / 2 + np.diag(rng.normal(size=n)) * 0.5
        if abs(np.linalg.det(g)) > 0.05:
            return new_metric(g, convention="upper")


def random_mv(n: int, rng: np.random.Generator) -> Multivector:
    return Multivector(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))


def random_kform(n: int, k: int, rng: np.random.Generator) -> Multivector:
    """Complex normal coefficients on the grade-k blades, drawn real
    part then imaginary part, blade by blade in mask order."""
    masks = grade_masks(n, k)
    z = rng.normal(size=(len(masks), 2))
    coeffs = np.zeros(1 << n, dtype=complex)
    coeffs[masks] = z[:, 0] + 1j * z[:, 1]
    return Multivector._of(n, coeffs)


def random_form_field(chart: Chart, rng: np.random.Generator,
                      pool) -> FormField:
    """A field whose real and imaginary part on every blade are drawn
    from the expression sources in `pool`."""
    coeffs = {}
    for mask in range(1 << chart.dim):
        re = parse(pool[int(rng.integers(len(pool)))], chart.dim)
        im = parse(pool[int(rng.integers(len(pool)))], chart.dim)
        coeffs[mask] = CExpr(re, im)
    return FormField(chart, coeffs)


def random_point(chart: Chart, rng: np.random.Generator) -> tuple:
    """A point drawn uniformly from the chart's domain box."""
    return tuple(lo + (hi - lo) * rng.random() for lo, hi in chart.domain)


def flat_minkowski_chart(lo: float = -1.0, hi: float = 1.0) -> Chart:
    """The constant metric diag(-1, -1, -1, 1) on the box [lo, hi]^4."""
    diag = ("-1", "-1", "-1", "1")
    return Chart([[parse(diag[i] if i == j else "0", 4) for j in range(4)]
                  for i in range(4)], [(lo, hi)] * 4)


def constant_field(chart: Chart, u: Multivector) -> FormField:
    """The constant field whose coefficients are those of U."""
    return FormField(chart, {int(mk): CExpr.of(complex(u.coeffs[mk]))
                             for mk in np.nonzero(u.coeffs)[0]})


# ---------------------------------------------------------------------------
# Identity kernels: defects of one identity on inputs already drawn.

def hodge_defects(u: Multivector, m: Metric) -> tuple:
    """For a k-form U: the algebraic star against the component formula,
    and **U against sgn(g) (-1)^(k(n+1)) U."""
    star = hodge_star(u, m)
    sign = star_inverse_sign(u.grade(), m.dim, m.sign)
    return ((star - hodge_star_components(u, m)).norm(),
            (hodge_star(star, m) - sign * u).norm())


def spin_defects(f: Multivector, u: Multivector, m: Metric) -> tuple:
    """For a spin element F and a multivector U: F F* = e, U -> F* U F
    preserving grades, the induced P an isometry (0 or 1) with det P = 1,
    and factor_isometry(P) = +-F."""
    table = build_product_table(m)
    unit = (table.mul(f, conjugate_star(f)) - Multivector.unit(m.dim)).norm()
    img = adjoint_action(f, u, m)
    grades = max((grade_project(img, k)
                  - adjoint_action(f, grade_project(u, k), m)).norm()
                 for k in range(m.dim + 1))
    p = isometry_of(f, m)
    g = factor_isometry(p, m)
    return (unit, grades, 0.0 if is_isometry(m, p) else 1.0,
            abs(np.linalg.det(p) - 1.0), min((g - f).norm(), (g + f).norm()))


def curvature_commutator_defect(chart: Chart, p) -> float:
    """(Y_i Y_j - Y_j Y_i) dx^k against R^r_k of the pair (i, j) on dx^r,
    the worst over i, j, k at p."""
    n = chart.dim
    r_mixed = chart.curvature(p).r_mixed
    gens = [1 << r for r in range(n)]
    worst = 0.0
    for i, j, k in itertools.product(range(1, n + 1), repeat=3):
        f = dx(chart, k)
        got = (upsilon_k(upsilon_k(f, j), i)
               - upsilon_k(upsilon_k(f, i), j)).eval_at(p)
        want = Multivector(n)
        want.coeffs[gens] = r_mixed[i - 1, j - 1, :, k - 1]
        worst = max(worst, (got - want).norm())
    return worst


def form_calculus_defects(u: FormField, p) -> tuple:
    """At p: d d U, delta delta U, and delta W against (-1)^k *^-1 d * W
    on each grade k part W of U, the worst over k."""
    via_star = 0.0
    for k in range(u.chart.dim + 1):
        w = grade_project_field(u, k)
        lhs = delta_op(w).eval_at(p)
        rhs = star_inverse_field(d_op(hodge_field(w))).eval_at(p)
        if k % 2 == 1:
            rhs = -rhs
        via_star = max(via_star, (lhs - rhs).norm())
    return (d_op(d_op(u)).eval_at(p).norm(),
            delta_op(delta_op(u)).eval_at(p).norm(), via_star)


def gauge_defects(cfg: FieldConfig, cfg2: FieldConfig, f: Multivector,
                  v: CExpr, table, p, c1: float, c2: float) -> tuple:
    """At p, for cfg2 the gauge transform of cfg by (F, v): its main
    residual against R F v, and the changes of L1 and of L0(c1, c2)."""
    want = table.mul(main_residual(cfg, p), f) * v.evaluate(p)
    return ((main_residual(cfg2, p) - want).norm(),
            abs(lagrangian_l1(cfg2, p) - lagrangian_l1(cfg, p)),
            abs(lagrangian_l0(cfg2, p, c1, c2) - lagrangian_l0(cfg, p, c1, c2)))


def gamma_anticommutator_defect(rep) -> float:
    """gamma_k gamma_l + gamma_l gamma_k against 2 g_kl, the worst entry."""
    g = np.diag(MINKOWSKI_DIAG)
    return max(float(np.abs(a @ b + b @ a - 2 * g[k, l] * np.eye(4)).max())
               for (k, a), (l, b) in itertools.product(enumerate(rep.gammas),
                                                      repeat=2))


def rep_defects(u: Multivector, v: Multivector, table, rep) -> tuple:
    """rep_map as an algebra map on U V, and the matrix round trip of U."""
    hom = float(np.abs(rep_map(table.mul(u, v), rep)
                       - rep_map(u, rep) @ rep_map(v, rep)).max())
    return hom, (multivector_from_matrix(rep_map(u, rep), rep) - u).norm()


def _max_each(worst, defects) -> list:
    return [max(w, d) for w, d in zip(worst, defects)]


# ---------------------------------------------------------------------------
# The verify suites.  Each returns a list of (id, defect, tolerance).

def suite_algebra(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    anti = assoc = round_trip = sp = 0.0
    for n in (2, 3, 4):
        m = random_metric(n, rng)
        t = build_product_table(m)
        unit = Multivector.unit(n)
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            ei = Multivector.blade(n, [i])
            ej = Multivector.blade(n, [j])
            anti = max(anti, (t.mul(ei, ej) + t.mul(ej, ei)
                              - 2 * m.g_upper[i - 1, j - 1] * unit).norm())
        for _ in range(max(count // 3, 1)):
            u, v, w = (random_mv(n, rng) for _ in range(3))
            scale = max(u.norm() * v.norm() * w.norm(), 1.0)
            assoc = max(assoc, (t.mul(t.mul(u, v), w)
                                - t.mul(u, t.mul(v, w))).norm() / scale)
            round_trip = max(round_trip, (basis_convert(
                basis_convert(u, GRASSMANN, CLIFFORD, m),
                CLIFFORD, GRASSMANN, m) - u).norm())
            sp = max(sp, abs(scalar_product(u, v, t)
                             - np.conj(scalar_product(v, u, t))))
    tab = 0.0
    for n in (2, 3, 4):
        m = random_metric(n, rng)
        t = build_product_table(m)
        for r, s in itertools.product(range(n + 1), repeat=2):
            for _ in range(max(count // 20, 1)):
                u = random_kform(n, r, rng)
                v = random_kform(n, s, rng)
                tab = max(tab, (clifford_via_star(u, v, m)
                                - t.mul(u, v)).norm())
    return [("anticommutator", anti, 1e-10),
            ("associativity", assoc, 1e-9),
            ("basis_round_trip", round_trip, 1e-12),
            ("scalar_product_hermitian", sp, 1e-10),
            ("product_via_star_tables", tab, 1e-10)]


def suite_hodge(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    star = [0.0, 0.0]
    inv = blocks = 0.0
    for n in (2, 3, 4, 5):
        m = random_metric(n, rng)
        t = build_product_table(m)
        for k in range(n + 1):
            u = random_kform(n, k, rng)
            star = _max_each(star, hodge_defects(u, m))
            inv = max(inv, (star_inverse(hodge_star(u, m), m) - u).norm())
        for k in range(n + 1):
            block = exterior_metric_block(m, k)
            basis = [Multivector.from_dict(n, {mask: 1.0})
                     for mask in grade_masks(n, k)]
            for (a, ea), (b, eb) in itertools.product(enumerate(basis),
                                                      repeat=2):
                blocks = max(blocks, abs(scalar_product(ea, eb, t)
                                         - block[a, b]))
    return [("component_vs_algebraic", star[0], 1e-12),
            ("double_star", star[1], 1e-12),
            ("star_inverse", inv, 1e-12),
            ("metric_blocks_vs_scalar_product", blocks, 1e-10)]


def suite_spin(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    worst = [0.0] * 5
    for n in (2, 3, 4):
        for sig in itertools.product((1.0, -1.0), repeat=n):
            m = new_metric(np.diag(sig), convention="upper")
            for _ in range(max(count // 16, 2)):
                f = random_spin_element(m, rng, 0.6)
                u = random_mv(n, rng)
                worst = _max_each(worst, spin_defects(f, u, m))
    names = ("unit_norm", "grade_preservation", "isometry_property",
             "determinant_one", "factor_round_trip")
    tols = (1e-8, 1e-8, 0.5, 1e-8, 1e-8)
    return list(zip(names, worst, tols))


def suite_manifold(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    polar = Chart([[parse("1", 2), ZERO], [ZERO, parse("x1^2", 2)]],
                  [(0.5, 2.0), (0.1, 1.0)])
    flat = max(float(np.abs(polar.curvature(random_point(polar, rng))
                            .r_mixed).max()) for _ in range(10))
    sphere = Chart([[parse("1", 2), ZERO], [ZERO, parse("sin(x1)^2", 2)]],
                   [(0.4, 2.7), (0.0, 3.0)])
    comm = curvature_commutator_defect(sphere, random_point(sphere, rng))
    ops = [0.0] * 3
    vol = 0.0
    for _ in range(max(count // 10, 3)):
        u = random_form_field(sphere, rng, _POOL)
        p = random_point(sphere, rng)
        ops = _max_each(ops, form_calculus_defects(u, p))
        for j in (1, 2):
            vol = max(vol, upsilon_k(volume_field(sphere), j).eval_at(p).norm())
    return [("flat_chart_curvature", flat, 1e-9),
            ("curvature_commutator", comm, 1e-8),
            ("d_squared", ops[0], 1e-8),
            ("delta_squared", ops[1], 1e-8),
            ("delta_via_star", ops[2], 1e-8),
            ("volume_parallel", vol, 1e-8)]


def suite_field(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    chart = flat_minkowski_chart()
    psi = random_form_field(chart, rng, _POOL)
    a = [scalar_field(chart, CExpr(ZERO, parse(src, 4)))
         for src in ("0.3*x2", "x1*x3", "0.1*x4", "x1")]
    h = FormField(chart, {0b1000: CExpr.of(1.0)})
    cfg = FieldConfig(chart, psi, a, [FormField(chart) for _ in range(4)],
                      h, 1.1)
    pts = [tuple(rng.uniform(-0.8, 0.8, size=4)) for _ in range(5)]
    cons = max(conservation_defect(cfg, p) for p in pts)
    real = max(abs(lagrangian_l1(cfg, p).imag) for p in pts)

    mref = chart.metric_at(chart.midpoint())
    f = random_spin_element(mref, rng, 0.4)
    chi = parse("0.6*x1 - 0.3*x4", 4)
    v = CExpr(call("cos", chi), call("sin", chi))
    cfg2 = gauge_transform(cfg, constant_field(chart, f), v)
    table = build_product_table(mref)
    gauge = lag = 0.0
    for p in pts:
        main, l1, l0 = gauge_defects(cfg, cfg2, f, v, table, p, 0.8, 1.2)
        gauge, lag = max(gauge, main), max(lag, l1, l0)
    return [("conservation_identity", cons, 1e-7),
            ("lagrangian_real", real, 1e-10),
            ("gauge_main_residual", gauge, 1e-9),
            ("gauge_lagrangians", lag, 1e-9)]


def suite_dirac(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    rep = gamma_matrices()
    t = build_product_table(minkowski_metric())
    worst = [0.0, 0.0]
    for _ in range(max(count, 50)):
        u = random_mv(4, rng)
        v = random_mv(4, rng)
        worst = _max_each(worst, rep_defects(u, v, t, rep))
    return [("anticommutators", gamma_anticommutator_defect(rep), 1e-12),
            ("representation_homomorphism", worst[0], 1e-12),
            ("matrix_round_trip", worst[1], 1e-12)]


SUITES = {
    "algebra": suite_algebra,
    "hodge": suite_hodge,
    "spin": suite_spin,
    "manifold": suite_manifold,
    "field": suite_field,
    "dirac": suite_dirac,
}
