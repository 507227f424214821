"""Seeded generators, identity kernels and the `verify` suites.

The generators draw from a numpy Generator in a fixed order, so a seed
fixes every input.  `draw_samples` draws a block of samples in one call,
as the stream of the per-sample loop, and the `*_sample` functions (with
`spin.spin_sample`) lay a block's rows out as multivectors.  A kernel
takes inputs that were already drawn, one multivector or a stack
(..., 2^n), and returns the defects of one identity of the model, one
per row; so the suites and the acceptance tests share the arithmetic
while each keeps its own draws.
`SUITES` maps a suite name to a function of (seed, count) that returns
its cases as (id, defect, tolerance).
"""

from __future__ import annotations

import itertools

import numpy as np

from .blades import grade_array, star_inverse_sign
from .dirac import (MINKOWSKI_DIAG, gamma_matrices, minkowski_metric,
                    multivector_from_matrix, rep_map)
from .expr import CExpr, Const, Expr, ZERO, call, parse
from .fields import (FieldConfig, conservation_defect, gauge_transform,
                     lagrangian_l0, lagrangian_l1, main_form)
from .manifold import (Chart, FormField, d_op, delta_op, dx, eval_fields,
                       grade_project_field, hodge_field, scalar_field,
                       star_inverse_field, upsilon_k, volume_field)
from .metric import Metric, MetricStack, is_isometry, new_metric
from .multivector import (CLIFFORD, GRASSMANN, Multivector, basis_convert,
                          build_product_table, clifford_via_star, coeffs_of,
                          conjugate_star, exterior_metric_block,
                          grade_masks, hodge_star,
                          hodge_star_components, row_norm, scalar_product,
                          star_inverse)
from .spin import (adjoint_action, factor_isometry, isometry_of,
                   random_spin_element, spin_sample)

# the most (signature, sample) pairs of one stacked spin pass: its
# largest products hold 2^(2n) complex values per pair and grade (about
# 1 MB at n = 4 for 48 pairs), and past it every row would also wait for
# the slowest exponential of a larger stack
SPIN_PASS_SAMPLES = 48

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


def draw_samples(rng: np.random.Generator, count: int, *widths) -> list:
    """`count` samples in one draw, each sample being standard normal
    vectors of these widths drawn one after another: the block is the
    stream of the per-sample loop, returned as one (count, width) array
    per width."""
    z = rng.normal(size=(count, sum(widths)))
    return np.split(z, np.cumsum(widths)[:-1], axis=1)


def mv_sample(n: int, z: np.ndarray) -> np.ndarray:
    """Complex coefficients from 2^(n+1) normals per row: all real parts,
    then all imaginary parts."""
    return z[..., :1 << n] + 1j * z[..., 1 << n:]


def kform_sample(n: int, k: int, z: np.ndarray) -> np.ndarray:
    """Complex coefficients on the grade-k blades from two normals per
    blade and row, real part then imaginary part, blade by blade in mask
    order."""
    coeffs = np.zeros(z.shape[:-1] + (1 << n,), dtype=complex)
    coeffs[..., grade_masks(n, k)] = z[..., 0::2] + 1j * z[..., 1::2]
    return coeffs


def random_kform(n: int, k: int, rng: np.random.Generator) -> Multivector:
    """Complex normal coefficients on the grade-k blades, drawn real
    part then imaginary part, blade by blade in mask order."""
    z = rng.normal(size=2 * len(grade_masks(n, k)))
    return Multivector._of(n, kform_sample(n, k, z))


def random_form_field(chart: Chart, rng: np.random.Generator,
                      pool) -> FormField:
    """A field whose real and imaginary part on every blade are drawn
    from the expression sources in `pool`.  Each source is parsed once,
    so the parts that draw it share one tree, whose derivatives and
    values are then formed once."""
    trees = {}

    def draw() -> Expr:
        src = pool[int(rng.integers(len(pool)))]
        if src not in trees:
            trees[src] = parse(src, chart.dim)
        return trees[src]

    coeffs = {}
    for mask in range(1 << chart.dim):
        re = draw()  # the real part first
        coeffs[mask] = CExpr(re, draw())
    return FormField(chart, coeffs)


def random_point(chart: Chart, rng: np.random.Generator) -> tuple:
    """A point drawn uniformly from the chart's domain box."""
    return tuple(lo + (hi - lo) * rng.random() for lo, hi in chart.domain)


def flat_minkowski_chart(lo: float = -1.0, hi: float = 1.0) -> Chart:
    """The constant metric diag(-1, -1, -1, 1) on the box [lo, hi]^4."""
    return Chart([[Const(d) if i == j else ZERO for j in range(4)]
                  for i, d in enumerate(MINKOWSKI_DIAG)], [(lo, hi)] * 4)


def polar_chart(domain) -> Chart:
    """The flat plane in polar coordinates, dr^2 + r^2 dphi^2, on the box
    `domain` of (r, phi)."""
    return Chart([[parse("1", 2), ZERO], [ZERO, parse("x1^2", 2)]], domain)


def sphere_chart(domain) -> Chart:
    """The unit sphere, dtheta^2 + sin^2(theta) dphi^2, on the box `domain`
    of (theta, phi)."""
    return Chart([[parse("1", 2), ZERO], [ZERO, parse("sin(x1)^2", 2)]],
                 domain)


def constant_field(chart: Chart, u: Multivector) -> FormField:
    """The constant field whose coefficients are those of U."""
    return FormField(chart, {int(mk): CExpr.of(complex(u.coeffs[mk]))
                             for mk in np.nonzero(u.coeffs)[0]})


# ---------------------------------------------------------------------------
# Identity kernels: defects of one identity on inputs already drawn, one
# per row of a stack (a float for a single multivector).

def worst(defects) -> float:
    """The largest of some defects (numbers or arrays), NaN if any is NaN:
    Python's max(0.0, nan) is 0.0 and would let a NaN defect pass."""
    return float(np.max([np.max(d) for d in defects]))


def hodge_defects(u, m: Metric) -> tuple:
    """For forms U: the algebraic star against the component formula,
    and **U against sgn(g) (-1)^(k(n+1)) U on each grade k part."""
    c = coeffs_of(u)
    star = hodge_star(c, m)
    sign = star_inverse_sign(grade_array(m.dim), m.dim, m.sign)
    return (row_norm(star - hodge_star_components(c, m)),
            row_norm(hodge_star(star, m) - sign * c))


def spin_defects(f, u, m: Metric | MetricStack) -> tuple:
    """For spin elements F and multivectors U: F F* = e, U -> F* U F
    preserving grades, the induced P an isometry (0 or 1) with det P = 1,
    and factor_isometry(P) = +-F.  On a `MetricStack`, the first axis of
    F and U runs over its metrics."""
    f, u = coeffs_of(f), coeffs_of(u)
    table = build_product_table(m)
    unit = table.mul(f, conjugate_star(f))
    unit[..., 0] -= 1.0
    img = adjoint_action(f, u, m)
    # the grade-k parts of U and of its image on a grade axis, placed
    # after the stack's axis, so every grade is conjugated in one call
    at = m.g_upper.ndim - 2
    parts = grade_array(m.dim) == np.arange(m.dim + 1).reshape(
        (-1,) + (1,) * (u.ndim - at))
    each = np.where(parts, np.expand_dims(img, at), 0.0) \
        - adjoint_action(np.expand_dims(f, at),
                         np.where(parts, np.expand_dims(u, at), 0.0), m)
    grades = row_norm(each).max(axis=at)
    p = isometry_of(f, m)
    g = coeffs_of(factor_isometry(p, m))
    return (row_norm(unit), grades, np.where(is_isometry(m, p), 0.0, 1.0),
            np.abs(np.linalg.det(p) - 1.0),
            np.minimum(row_norm(g - f), row_norm(g + f)))


def curvature_commutator_defect(chart: Chart, p) -> float:
    """(Y_i Y_j - Y_j Y_i) dx^k against R^r_k of the pair (i, j) on dx^r,
    the worst over i, j, k at p."""
    n = chart.dim
    r_mixed = chart.curvature(p)  # checks that p lies in the chart
    triples = list(itertools.product(range(1, n + 1), repeat=3))
    # every form is read at p, so one call evaluates them all
    got = eval_fields([upsilon_k(upsilon_k(dx(chart, k), j), i)
                       - upsilon_k(upsilon_k(dx(chart, k), i), j)
                       for i, j, k in triples], p)
    gens = [1 << r for r in range(n)]
    for (i, j, k), g in zip(triples, got):
        g[gens] -= r_mixed[i - 1, j - 1, :, k - 1]
    return worst(map(row_norm, got))


def form_calculus_defects(u: FormField, p) -> tuple:
    """At p: d d U, delta delta U, and delta W against (-1)^k *^-1 d * W
    on each grade k part W of U, the worst over k."""
    forms = [d_op(d_op(u)), delta_op(delta_op(u))]
    for k in range(u.chart.dim + 1):
        w = grade_project_field(u, k)
        forms += [delta_op(w), star_inverse_field(d_op(hodge_field(w)))]
    # every form is read at p, so one call evaluates them all
    dd, deldel, *sides = eval_fields(forms, p)
    via_star = [row_norm(lhs - (-rhs if k % 2 == 1 else rhs))
                for k, (lhs, rhs) in enumerate(zip(sides[::2], sides[1::2]))]
    return (float(row_norm(dd)), float(row_norm(deldel)), worst(via_star))


def gauge_defects(cfg: FieldConfig, cfg2: FieldConfig, f: Multivector,
                  v: CExpr, table, pts, c1: float, c2: float) -> tuple:
    """At the points, for cfg2 the gauge transform of cfg by (F, v): its
    main residual against R F v, and the changes of L1 and of L0(c1, c2).
    Each form is evaluated once over all points as a batch, so each defect
    is an array over the points."""
    want = table.mul(main_form(cfg).eval_array(pts), f) \
        * v.evaluate(pts)[:, None]
    return (row_norm(main_form(cfg2).eval_array(pts) - want),
            np.abs(lagrangian_l1(cfg2, pts) - lagrangian_l1(cfg, pts)),
            np.abs(lagrangian_l0(cfg2, pts, c1, c2)
                   - lagrangian_l0(cfg, pts, c1, c2)))


def gamma_anticommutator_defect(rep) -> float:
    """gamma_k gamma_l + gamma_l gamma_k against 2 g_kl, the worst entry."""
    g = np.diag(MINKOWSKI_DIAG)
    return worst(np.abs(a @ b + b @ a - 2 * g[k, l] * np.eye(4))
                 for (k, a), (l, b) in itertools.product(enumerate(rep.gammas),
                                                         repeat=2))


def rep_defects(u, v, table, rep) -> tuple:
    """rep_map as an algebra map on U V, and the matrix round trip of U."""
    u, v = coeffs_of(u), coeffs_of(v)
    hom = np.abs(rep_map(table.mul(u, v), rep)
                 - rep_map(u, rep) @ rep_map(v, rep)).max(axis=(-2, -1))
    back = coeffs_of(multivector_from_matrix(rep_map(u, rep), rep))
    return hom, row_norm(back - u)


# ---------------------------------------------------------------------------
# The verify suites.  Each returns a list of (id, defect, tolerance), and
# evaluates each (n, metric, grade) block of samples as one stack.

def suite_algebra(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    anti, assoc, round_trip, sp = [], [], [], []
    for n in (2, 3, 4):
        m = random_metric(n, rng)
        t = build_product_table(m)
        e = np.eye(1 << n)[[1 << i for i in range(n)]]
        unit = np.eye(1 << n)[0]
        # every pair (i, j) of generators at once
        anti.append(row_norm(t.mul(e[:, None], e[None])
                             + t.mul(e[None], e[:, None])
                             - 2 * m.g_upper[:, :, None] * unit))
        u, v, w = (mv_sample(n, z) for z in
                   draw_samples(rng, max(count // 3, 1), *[2 << n] * 3))
        scale = np.maximum(row_norm(u) * row_norm(v) * row_norm(w), 1.0)
        assoc.append(row_norm(t.mul(t.mul(u, v), w)
                              - t.mul(u, t.mul(v, w))) / scale)
        round_trip.append(row_norm(basis_convert(
            basis_convert(u, GRASSMANN, CLIFFORD, m),
            CLIFFORD, GRASSMANN, m) - u))
        sp.append(np.abs(scalar_product(u, v, t)
                         - np.conj(scalar_product(v, u, t))))
    tab = []
    for n in (2, 3, 4):
        m = random_metric(n, rng)
        t = build_product_table(m)
        for r, s in itertools.product(range(n + 1), repeat=2):
            zu, zv = draw_samples(rng, max(count // 20, 1),
                                  2 * len(grade_masks(n, r)),
                                  2 * len(grade_masks(n, s)))
            u, v = kform_sample(n, r, zu), kform_sample(n, s, zv)
            tab.append(row_norm(clifford_via_star(u, v, m) - t.mul(u, v)))
    return [("anticommutator", worst(anti), 1e-10),
            ("associativity", worst(assoc), 1e-9),
            ("basis_round_trip", worst(round_trip), 1e-12),
            ("scalar_product_hermitian", worst(sp), 1e-10),
            ("product_via_star_tables", worst(tab), 1e-10)]


def suite_hodge(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    star, double, inv, blocks = [], [], [], []
    for n in (2, 3, 4, 5):
        m = random_metric(n, rng)
        t = build_product_table(m)
        # one random k-form of every grade k, as one stack
        u = np.array([random_kform(n, k, rng).coeffs for k in range(n + 1)])
        comp, dbl = hodge_defects(u, m)
        star.append(comp)
        double.append(dbl)
        inv.append(row_norm(star_inverse(hodge_star(u, m), m) - u))
        for k in range(n + 1):
            basis = np.eye(1 << n)[grade_masks(n, k)]
            blocks.append(np.abs(scalar_product(basis[:, None], basis[None],
                                                t)
                                 - exterior_metric_block(m, k)))
    return [("component_vs_algebraic", worst(star), 1e-12),
            ("double_star", worst(double), 1e-12),
            ("star_inverse", worst(inv), 1e-12),
            ("metric_blocks_vs_scalar_product", worst(blocks), 1e-10)]


def suite_spin(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    defects = []
    rows = max(count // 16, 2)
    for n in (2, 3, 4):
        metrics = [new_metric(np.diag(sig), convention="upper")
                   for sig in itertools.product((1.0, -1.0), repeat=n)]
        # per signature, per sample: a spin element, then a multivector;
        # one draw is the stream of the per-signature blocks
        zf, zu = (z.reshape(1 << n, rows, -1) for z in
                  draw_samples(rng, rows << n, len(grade_masks(n, 2)),
                               2 << n))
        # a pass takes at most SPIN_PASS_SAMPLES (signature, sample)
        # pairs: a stack of signatures, with one table, and all their
        # samples, or else one signature and a part of its samples
        per_stack = max(SPIN_PASS_SAMPLES // rows, 1)
        for sigs in np.array_split(np.arange(1 << n),
                                   -(-(1 << n) // per_stack)):
            m = MetricStack(metrics[s] for s in sigs)
            for part in np.array_split(np.arange(rows),
                                       -(-rows // SPIN_PASS_SAMPLES)):
                at = np.ix_(sigs, part)
                defects.append(spin_defects(spin_sample(m, zf[at], 0.6),
                                            mv_sample(n, zu[at]), m))
    names = ("unit_norm", "grade_preservation", "isometry_property",
             "determinant_one", "factor_round_trip")
    tols = (1e-8, 1e-8, 0.5, 1e-8, 1e-8)
    return [(name, worst(d[i] for d in defects), tol)
            for i, (name, tol) in enumerate(zip(names, tols))]


def suite_manifold(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    polar = polar_chart([(0.5, 2.0), (0.1, 1.0)])
    flat = worst([np.abs(polar.curvature([random_point(polar, rng)
                                          for _ in range(10)]))])
    sphere = sphere_chart([(0.4, 2.7), (0.0, 3.0)])
    comm = curvature_commutator_defect(sphere, random_point(sphere, rng))
    ops, pts = [], []
    for _ in range(max(count // 10, 3)):
        u = random_form_field(sphere, rng, _POOL)
        pts.append(random_point(sphere, rng))
        ops.append(form_calculus_defects(u, pts[-1]))
    # Y_j of the volume form at every point the loop drew, as one batch
    vol = [row_norm(v) for v in eval_fields(
        [upsilon_k(volume_field(sphere), j) for j in (1, 2)], pts)]
    return [("flat_chart_curvature", flat, 1e-9),
            ("curvature_commutator", comm, 1e-8),
            ("d_squared", worst(d[0] for d in ops), 1e-8),
            ("delta_squared", worst(d[1] for d in ops), 1e-8),
            ("delta_via_star", worst(d[2] for d in ops), 1e-8),
            ("volume_parallel", worst(vol), 1e-8)]


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
    # all points as one batch; it raises where H fails its equations
    cons = worst([conservation_defect(cfg, pts)])
    real = worst(np.abs(np.imag(lagrangian_l1(cfg, pts))))

    mref = chart.metric_at(chart.midpoint())
    f = random_spin_element(mref, rng, 0.4)
    chi = parse("0.6*x1 - 0.3*x4", 4)
    v = CExpr(call("cos", chi), call("sin", chi))
    cfg2 = gauge_transform(cfg, constant_field(chart, f), v)
    main, l1, l0 = gauge_defects(cfg, cfg2, f, v, build_product_table(mref),
                                 pts, 0.8, 1.2)
    return [("conservation_identity", cons, 1e-7),
            ("lagrangian_real", real, 1e-10),
            ("gauge_main_residual", worst([main]), 1e-9),
            ("gauge_lagrangians", worst([l1, l0]), 1e-9)]


def suite_dirac(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    rep = gamma_matrices()
    t = build_product_table(minkowski_metric())
    u, v = (mv_sample(4, z) for z in draw_samples(rng, max(count, 50), 32, 32))
    hom, round_trip = rep_defects(u, v, t, rep)
    return [("anticommutators", gamma_anticommutator_defect(rep), 1e-12),
            ("representation_homomorphism", worst([hom]), 1e-12),
            ("matrix_round_trip", worst([round_trip]), 1e-12)]


SUITES = {
    "algebra": suite_algebra,
    "hodge": suite_hodge,
    "spin": suite_spin,
    "manifold": suite_manifold,
    "field": suite_field,
    "dirac": suite_dirac,
}
