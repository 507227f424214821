"""Charts, Christoffel symbols, curvature and the form calculus."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gafields import blades
from gafields.checks import (curvature_commutator_defect,
                             flat_minkowski_chart, form_calculus_defects,
                             polar_chart, random_form_field, random_point,
                             sphere_chart)
from gafields.expr import CExpr, ZERO, evaluate_many, parse, to_str
from gafields.manifold import (
    Chart,
    ChartError,
    CoordinateChange,
    DomainError,
    FormField,
    clifford_mul_fields,
    curvature_forms,
    d_op,
    delta_op,
    eval_fields,
    laplace,
    scalar_field,
    upsilon_k,
    upsilon_op,
    volume_field,
    wedge_fields,
)
from gafields.fields import FieldConfig, config_from_json, config_to_json
from gafields.metric import ArgumentError, MetricError
from gafields.multivector import grade_masks
from helpers import (clifford_mul_dicts, curved_link_chart, line_config,
                     skew_chart)


# the (r, phi) and (theta, phi) boxes of the polar and sphere charts
POLAR_BOX = [(0.5, 2.0), (0.2, 1.2)]
SPHERE_BOX = [(0.5, 2.6), (0.1, 3.0)]


def random_points(chart, rng, count):
    return [random_point(chart, rng) for _ in range(count)]


def christoffel(chart, p):
    """Gamma^k_{ij} at p as a [k, i, j] array."""
    n = chart.dim
    return np.reshape(evaluate_many([e for plane in chart.gamma_exprs()
                                     for row in plane for e in row], p),
                      (n, n, n))


# coefficient expressions of the random fields on the 2-charts
POOL = ("x1*x2", "sin(x1)", "cos(x2)", "x1^2", "x2 + 1", "sin(x2)*x1")


def test_eval_fields_matches_each_field_alone(rng):
    # the forms share subtrees (u is inside v and w), which one call
    # evaluates once; every value must be the one each field gets alone
    chart = sphere_chart(SPHERE_BOX)
    u = random_form_field(chart, rng, POOL)
    forms = [u, upsilon_k(u, 1), d_op(u), FormField(chart)]
    points = random_points(chart, rng, 5)
    for point in (points[0], points):
        together = eval_fields(forms, point)
        assert len(together) == len(forms)
        for f, got in zip(forms, together):
            alone = f.eval_array(point)
            assert got.shape == alone.shape
            assert np.array_equal(got, alone)
    # a batch of N points gives one row per point, blade last, and each
    # row is that point's value
    for f, got in zip(forms, eval_fields(forms, points)):
        assert got.shape == (5, 4)
        for p, row in zip(points, got):
            assert np.array_equal(row, f.eval_array(p))
    # the same points as 2 coordinate rows of 5 values are no batch
    with pytest.raises(DomainError):
        eval_fields(forms, np.transpose(points))


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature

def test_random_form_field_shares_one_tree_per_source():
    # the draws are those of one parse per part, real part first, and
    # the parts that draw one source share its tree
    chart = sphere_chart(SPHERE_BOX)
    u = random_form_field(chart, np.random.default_rng(4), POOL)
    loop = np.random.default_rng(4)
    trees = {}
    for mask in range(4):
        for part in (u.coeffs[mask].re, u.coeffs[mask].im):
            src = POOL[int(loop.integers(len(POOL)))]
            assert trees.setdefault(src, part) is part
            assert to_str(part) == to_str(parse(src, 2))
    assert len(trees) < 8  # 8 parts drawn from 6 sources


def test_polar_christoffels_oracle(rng):
    # hand values: Gamma^1_{22} = -r, Gamma^2_{12} = Gamma^2_{21} = 1/r
    chart = polar_chart(POLAR_BOX)
    for p in random_points(chart, rng, 5):
        r = p[0]
        gamma = christoffel(chart, p)
        want = np.zeros((2, 2, 2))
        want[0, 1, 1] = -r
        want[1, 0, 1] = want[1, 1, 0] = 1.0 / r
        assert np.allclose(gamma, want, atol=1e-12)


def test_christoffel_finite_difference(rng):
    # 0.5 g^{kl} (d_i g_lj + d_j g_il - d_l g_ij) via numeric differentiation
    chart = Chart([[parse("1 + x2^2", 2), parse("x1*x2", 2)],
                   [parse("x1*x2", 2), parse("2 + x1^2", 2)]],
                  [(0.2, 1.0), (0.2, 1.0)])
    p = (0.6, 0.4)
    h = 1e-6

    def g_low(q):
        return np.array([[chart.g_lower_exprs[i][j] for j in range(2)]
                         for i in range(2)], dtype=object)

    def g_at(q):
        from gafields.expr import evaluate
        return np.array([[evaluate(chart.g_lower_exprs[i][j], q)
                          for j in range(2)] for i in range(2)])

    dg = np.zeros((2, 2, 2))
    for l in range(2):
        q1, q2 = list(p), list(p)
        q1[l] += h
        q2[l] -= h
        dg[l] = (g_at(q1) - g_at(q2)) / (2 * h)
    g_up = np.linalg.inv(g_at(p))
    want = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                want[k, i, j] = 0.5 * sum(
                    g_up[k, l] * (dg[i, l, j] + dg[j, i, l] - dg[l, i, j])
                    for l in range(2))
    assert np.allclose(christoffel(chart, p), want, atol=1e-5)


def test_flat_chart_curvature_vanishes(rng):
    chart = polar_chart(POLAR_BOX)
    d_forms = curvature_forms(chart)
    for p in random_points(chart, rng, 10):
        assert np.abs(chart.curvature(p)).max() < 1e-10
        assert max(form.eval_at(p).norm() for row in d_forms
                   for form in row) < 1e-10


def test_sphere_curvature_oracle(rng):
    # unit sphere: R_{12,12} = sin^2(x1), the dx^1 ^ dx^2 part of D_12
    chart = sphere_chart(SPHERE_BOX)
    d12 = curvature_forms(chart)[0][1]
    for p in random_points(chart, rng, 5):
        assert d12.eval_at(p).coeffs[0b11] == pytest.approx(
            np.sin(p[0]) ** 2, rel=1e-9)


@pytest.mark.parametrize("name", ["sphere", "line"])
def test_curvature_at_a_batch_is_one_tensor_per_point(name, rng):
    chart = {"sphere": lambda: sphere_chart(SPHERE_BOX),
             "line": lambda: line_config().chart}[name]()
    n = chart.dim
    points = random_points(chart, rng, 3)
    batch = chart.curvature(points)
    assert batch.shape == (3,) + (n,) * 4
    for p, got in zip(points, batch):
        assert np.array_equal(got, chart.curvature(p))
    assert np.array_equal(batch, -batch.swapaxes(1, 2))
    if name == "sphere":  # R^1_{12,2} = -sin^2(x1), as [i, j, r, k]
        assert np.allclose(batch[:, 0, 1, 1, 0],
                           [-np.sin(p[0]) ** 2 for p in points])


def test_commutator_curvature_identity(rng):
    # (Y_i Y_j - Y_j Y_i) dx^k = R^{...k}_{ij,r} dx^r
    chart = sphere_chart(SPHERE_BOX)
    assert curvature_commutator_defect(chart, random_point(chart, rng)) < 1e-9


def test_curvature_forms_antisymmetry(rng):
    chart = sphere_chart(SPHERE_BOX)
    p = random_point(chart, rng)
    d_forms = curvature_forms(chart)
    for r in range(2):
        for l in range(2):
            assert (d_forms[r][l].eval_at(p)
                    + d_forms[l][r].eval_at(p)).norm() < 1e-12


def riemann_by_differences(chart, p, h=1e-5):
    """R^k_{ij,r} = -(d_i G^k_{jr} - d_j G^k_{ir} + G^k_{mi} G^m_{jr}
    - G^k_{mj} G^m_{ir}), [i, j, r, k], from central differences of the
    Christoffel symbols G."""
    n = chart.dim
    gam = christoffel(chart, p)
    dgam = np.zeros((n, n, n, n))  # dgam[i, k, j, r] = d_i G^k_{jr}
    for i in range(n):
        step = h * np.eye(n)[i]
        dgam[i] = (christoffel(chart, tuple(p + step))
                   - christoffel(chart, tuple(p - step))) / (2 * h)
    d = np.einsum("ikjr->ijrk", dgam)
    quad = np.einsum("kmi,mjr->ijrk", gam, gam)
    return -(d - d.swapaxes(0, 1) + quad - quad.swapaxes(0, 1))


def test_symbolic_curvature_forms_match_numeric(rng):
    # a 3-chart mixing a sphere block with a warped third coordinate
    chart = Chart([[parse(s, 3) for s in row] for row in
                   [["1", "0", "0"], ["0", "sin(x1)^2", "0"],
                    ["0", "0", "-(1 + x1*x2^2)"]]],
                  [(0.5, 2.6), (0.1, 1.0), (-1.0, 1.0)])
    forms = curvature_forms(chart)
    points = random_points(chart, rng, 4)
    for p in points:
        want = riemann_by_differences(chart, np.array(p))
        assert np.abs(want).max() > 0.1
        assert np.allclose(chart.curvature(p), want, atol=1e-7)
    pairs = np.triu_indices(3, 1)
    masks = (1 << pairs[0]) | (1 << pairs[1])
    for r in range(3):
        for l in range(3):
            at_batch = forms[r][l].eval_array(points)
            assert at_batch.shape == (4, 8)
            for i, p in enumerate(points):
                # the numeric oracle: R_{ij,rl} = R^k_{ij,r} g_kl on the
                # blade dx^i ^ dx^j, i < j
                r_lower = chart.curvature(p) @ chart.metric_at(p).g_lower
                want = np.zeros(8, dtype=complex)
                want[masks] = r_lower[pairs[0], pairs[1], r, l]
                assert np.abs(forms[r][l].eval_at(p).coeffs
                              - want).max() < 1e-12
                assert np.abs(at_batch[i] - want).max() < 1e-12


# ---------------------------------------------------------------------------
# the chart's blade-product table

def sparse_field(chart, rng, pool, terms):
    """A field on `terms` random blades, its coefficients drawn from the
    expression sources in `pool`."""
    masks = rng.choice(1 << chart.dim, size=terms, replace=False)
    return FormField(chart, {int(m): CExpr(parse(rng.choice(pool), chart.dim),
                                           parse(rng.choice(pool), chart.dim))
                             for m in masks})


def dense_constant_chart():
    """A constant indefinite 3-metric with every entry nonzero: its
    structure constants C^c_ab are Const nodes other than +-1."""
    rows = [["2", "0.3", "0.1"], ["0.3", "-1.5", "0.2"],
            ["0.1", "0.2", "1.2"]]
    return Chart([[parse(src, 3) for src in row] for row in rows],
                 [(0.1, 0.9)] * 3)


@pytest.mark.parametrize("chart", [
    *(skew_chart(n, sign) for n in (2, 3, 4) for sign in (1, -1)),
    skew_chart(5, -1),
    flat_minkowski_chart(), curved_link_chart(), dense_constant_chart()],
    ids=["skew2+", "skew2-", "skew3+", "skew3-", "skew4+", "skew4-",
         "skew5-", "minkowski", "diagonal4", "dense3"])
def test_clifford_mul_fields_matches_chain_kernel(chart, rng):
    # the blade-chain product of whole coefficient dicts is the reference;
    # a product kept to some blades is the full one on exactly those,
    # bitwise, since each kept blade gets the same terms in the same order.
    # Last, the full blade times every blade: its recurrence contracts at
    # every position of its rest, up to position n - 2 (3 at n = 5)
    n = chart.dim
    two = set(grade_masks(n, 2))
    keeps = ({0}, two, {0} | two, set())
    full = FormField(chart, {(1 << n) - 1: CExpr.of(1.0)})
    pairs = [(sparse_field(chart, rng, POOL, min(6, 1 << n)),
              sparse_field(chart, rng, POOL, min(6, 1 << n)))
             for _ in range(3)]
    pairs.append((full, sparse_field(chart, rng, POOL, 1 << n)))
    for u, v in pairs:
        got = clifford_mul_fields(u, v)
        want = FormField(chart, clifford_mul_dicts(
            u.coeffs, v.coeffs,
            lambda i, j: CExpr(chart.g_upper_exprs[i - 1][j - 1])))
        kept = [clifford_mul_fields(u, v, keep=keep) for keep in keeps]
        assert kept[-1].coeffs == {}
        for keep, part in zip(keeps, kept):
            assert set(part.coeffs) <= keep
        for p in random_points(chart, rng, 3):
            a, b = got.eval_array(p), want.eval_array(p)
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())
            for keep, part in zip(keeps, kept):
                rows = sorted(keep)
                assert np.array_equal(part.eval_array(p)[rows], a[rows])


def test_blade_products_are_built_once_per_chart(rng, monkeypatch):
    # each entry of a nonzero left blade takes one `gen_mul` step when it
    # is built, and the recurrence reads only entries (r, b) with r a
    # subset of the left blade
    chart = skew_chart(3, 1)
    steps = []
    kernel = blades.gen_mul

    def counted(i, w, g):
        steps.append(i)
        return kernel(i, w, g)

    def built(before=()):
        new = set(chart.blade_product) - set(before)
        assert len(steps) == sum(1 for a, _ in new if a)
        del steps[:]
        return new

    monkeypatch.setattr(blades, "gen_mul", counted)
    u, v = (sparse_field(chart, rng, POOL, 5) for _ in range(2))
    clifford_mul_fields(u, v)
    first = dict(chart.blade_product)
    assert {(a, b) for a in u.coeffs for b in v.coeffs} <= built()
    clifford_mul_fields(u, v)
    assert not built(first) and chart.blade_product == first
    w = sparse_field(chart, rng, POOL, 5)
    clifford_mul_fields(u, w)
    new = built(first)
    assert {(a, b) for a in u.coeffs for b in w.coeffs} - set(first) <= new
    assert all(b in w.coeffs and any(r & ~a == 0 for a in u.coeffs)
               for r, b in new)
    assert all(chart.blade_product[key] is terms
               for key, terms in first.items())


# ---------------------------------------------------------------------------
# differential operators

def test_upsilon_leibniz(rng):
    chart = sphere_chart(SPHERE_BOX)
    u = random_form_field(chart, rng, POOL)
    v = random_form_field(chart, rng, POOL)
    p = random_points(chart, rng, 2)
    for k in (1, 2):
        lhs = upsilon_k(clifford_mul_fields(u, v), k)
        rhs = (clifford_mul_fields(upsilon_k(u, k), v)
               + clifford_mul_fields(u, upsilon_k(v, k)))
        for q in p:
            assert (lhs.eval_at(q) - rhs.eval_at(q)).norm() < 1e-9


# entries of the random dense charts on [0.1, 0.9]^n, as formats over the
# row index i and a second index j: every entry is nonzero on the box, an
# off-diagonal one at most 0.25 in size and a diagonal one at least 2, so
# the metric is strictly diagonally dominant, hence nondegenerate there
DIAGONAL_POOL = ("3 + x{i}^2", "2 + sin(x{j})", "2.5", "4 - x{i}*x{j}")
OFF_DIAGONAL_POOL = ("0.2*sin(x{i} + x{j})", "0.1*x{i}*x{j}",
                     "0.25*cos(x{j})", "-0.2*x{i}^2", "0.15")
# coefficient expressions of the random fields on the dense charts
DENSE_POOL = ("x1*x2", "sin(x3)", "cos(x2)*x1", "x3^2 - x1", "exp(0.3*x2)",
              "1 + x3")


@st.composite
def dense_charts(draw):
    """A 3- or 4-chart with every g_ij nonzero, drawn from the pools, each
    diagonal entry with a sign of its own."""
    n = draw(st.sampled_from((3, 4)))
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        src = draw(st.sampled_from(DIAGONAL_POOL))
        sign = draw(st.sampled_from(("", "-")))
        g[i][i] = parse(f"{sign}({src.format(i=i + 1, j=(i + 1) % n + 1)})",
                        n)
        for j in range(i + 1, n):
            src = draw(st.sampled_from(OFF_DIAGONAL_POOL))
            g[i][j] = g[j][i] = parse(src.format(i=i + 1, j=j + 1), n)
    return Chart(g, [(0.1, 0.9)] * n)


@given(dense_charts(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=4, deadline=None)
def test_upsilon_is_a_derivation_on_dense_charts(chart, seed):
    # Y_k (U V) = (Y_k U) V + U (Y_k V) for both products: the metric
    # compatibility of the Levi-Civita connection, which on a dense chart
    # reads every Christoffel symbol and every sign of Y_k's index swap
    rng = np.random.default_rng(seed)
    u, v = (random_form_field(chart, rng, DENSE_POOL) for _ in range(2))
    points = random_points(chart, rng, 4)
    for product in (clifford_mul_fields, wedge_fields):
        for k in range(1, chart.dim + 1):
            lhs = upsilon_k(product(u, v), k)
            rhs = product(upsilon_k(u, k), v) + product(u, upsilon_k(v, k))
            a, b = eval_fields((lhs, rhs), points)
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


def test_delta_builds_each_upsilon_once(rng, monkeypatch):
    # d and Upsilon both take Y_k U; the field keeps each Y_k U, so delta
    # differentiates every coefficient of U once per direction
    chart = sphere_chart(SPHERE_BOX)
    u = random_form_field(chart, rng, POOL)
    diffs = []
    kernel = CExpr.diff

    def counted(c, var):
        diffs.append((id(c), var))
        return kernel(c, var)

    monkeypatch.setattr(CExpr, "diff", counted)
    delta_op(u)
    want = [(id(c), k) for k in (1, 2) for c in u.coeffs.values()]
    assert sorted(diffs) == sorted(want)
    for k in (1, 2):
        assert upsilon_k(u, k) is upsilon_k(u, k)
    assert len(diffs) == len(want)


def test_upsilon_kills_metric_volume(rng):
    chart = sphere_chart(SPHERE_BOX)
    vol = volume_field(chart)
    for p in random_points(chart, rng, 3):
        for k in (1, 2):
            assert upsilon_k(vol, k).eval_at(p).norm() < 1e-10


def test_d_squared_and_delta_squared(rng):
    chart = sphere_chart(SPHERE_BOX)
    for _ in range(5):
        u = random_form_field(chart, rng, POOL)
        p = random_point(chart, rng)
        dd, ss, _ = form_calculus_defects(u, p)
        assert dd < 1e-9 and ss < 1e-9


def test_d_is_exterior_derivative_on_scalars(rng):
    chart = sphere_chart(SPHERE_BOX)
    f = parse("sin(x1)*x2", 2)
    u = scalar_field(chart, CExpr(f, ZERO))
    from gafields.expr import diff, evaluate
    for p in random_points(chart, rng, 3):
        got = d_op(u).eval_at(p)
        for k in (1, 2):
            assert got.coeffs[1 << (k - 1)] == pytest.approx(
                evaluate(diff(f, k), p), rel=1e-12)


def test_delta_via_star_conjugation(rng):
    # delta = (-1)^k star^{-1} d star on homogeneous k-form fields
    chart = sphere_chart(SPHERE_BOX)
    for _ in range(4):
        u = random_form_field(chart, rng, POOL)
        p = random_point(chart, rng)
        assert form_calculus_defects(u, p)[2] < 1e-9


def test_scalar_laplacian_oracle(rng):
    # Laplace-Beltrami of f = sin(x1)*cos(x2) on the flat Euclidean chart
    chart = Chart([[parse("1", 2), ZERO], [ZERO, parse("1", 2)]],
                  [(0.1, 2.0), (0.1, 2.0)])
    f = parse("sin(x1)*cos(x2)", 2)
    u = scalar_field(chart, CExpr(f, ZERO))
    for p in random_points(chart, rng, 3):
        got = laplace(u).eval_at(p)
        want = -2.0 * np.sin(p[0]) * np.cos(p[1])
        assert got.coeffs[0] == pytest.approx(want, rel=1e-10)


def test_scalar_laplacian_divergence_form(rng):
    # Delta f = (1/sqrt g) d_k (sqrt g g^{kl} d_l f), checked on the sphere
    chart = sphere_chart(SPHERE_BOX)
    f = parse("sin(x1)*cos(x2) + x1", 2)
    u = scalar_field(chart, CExpr(f, ZERO))
    from gafields.expr import diff, evaluate

    def oracle(p):
        h = 1e-5
        total = 0.0
        for k in range(2):
            def flux(q, k=k):
                gu = np.linalg.inv([[evaluate(chart.g_lower_exprs[i][j], q)
                                     for j in range(2)] for i in range(2)])
                sg = np.sqrt(abs(np.linalg.det(np.linalg.inv(gu))))
                return sg * sum(gu[k, l] * evaluate(diff(f, l + 1), q)
                                for l in range(2))
            q1, q2 = list(p), list(p)
            q1[k] += h
            q2[k] -= h
            total += (flux(q1) - flux(q2)) / (2 * h)
        gl = [[evaluate(chart.g_lower_exprs[i][j], p) for j in range(2)]
              for i in range(2)]
        return total / np.sqrt(abs(np.linalg.det(gl)))

    for p in random_points(chart, rng, 3):
        got = laplace(u).eval_at(p).coeffs[0]
        assert got == pytest.approx(oracle(p), abs=1e-5)


def test_upsilon_decomposition(rng):
    # d - delta = Upsilon (the Clifford derivative dx^k . Y_k)
    chart = sphere_chart(SPHERE_BOX)
    u = random_form_field(chart, rng, POOL)
    p = random_points(chart, rng, 2)
    for q in p:
        got = (d_op(u) - delta_op(u)).eval_at(q)
        want = upsilon_op(u).eval_at(q)
        assert (got - want).norm() < 1e-10


# ---------------------------------------------------------------------------
# coordinate changes

def test_cartesian_to_polar_metric():
    # old coords cartesian (identity metric), new coords polar
    cart = Chart([[parse("1", 2), ZERO], [ZERO, parse("1", 2)]],
                 [(-3.0, 3.0), (-3.0, 3.0)])
    change = CoordinateChange([parse("x1*cos(x2)", 2), parse("x1*sin(x2)", 2)],
                              [(0.5, 2.0), (0.2, 1.2)])
    polar = change.transform_chart(cart)
    p = (1.3, 0.7)
    g = np.array([[1.0, 0.0], [0.0, p[0] ** 2]])
    assert np.allclose(polar.metric_at(p).g_lower, g, atol=1e-12)


def test_form_pullback_scalar_invariance(rng):
    cart = Chart([[parse("1", 2), ZERO], [ZERO, parse("1", 2)]],
                 [(-3.0, 3.0), (-3.0, 3.0)])
    change = CoordinateChange([parse("x1*cos(x2)", 2), parse("x1*sin(x2)", 2)],
                              [(0.5, 2.0), (0.2, 1.2)])
    u = scalar_field(cart, CExpr(parse("x1^2 + x2", 2), ZERO))
    pulled = change.transform_form(u, change.transform_chart(cart))
    p = (1.1, 0.6)
    x = change.old_point(p)
    assert pulled.eval_at(p).coeffs[0] == pytest.approx(
        x[0] ** 2 + x[1], rel=1e-12)


def test_volume_form_pullback(rng):
    # the volume form is invariant under orientation-preserving changes
    cart = Chart([[parse("1", 2), ZERO], [ZERO, parse("1", 2)]],
                 [(-3.0, 3.0), (-3.0, 3.0)])
    change = CoordinateChange([parse("x1*cos(x2)", 2), parse("x1*sin(x2)", 2)],
                              [(0.5, 2.0), (0.2, 1.2)])
    polar = change.transform_chart(cart)
    pulled = change.transform_form(volume_field(cart), polar)
    for p in random_points(polar, rng, 3):
        assert (pulled.eval_at(p)
                - volume_field(polar).eval_at(p)).norm() < 1e-10


# ---------------------------------------------------------------------------
# validation and serialization

def test_domain_guard():
    chart = polar_chart(POLAR_BOX)
    with pytest.raises(DomainError):
        chart.curvature((5.0, 0.5))


def test_degenerate_chart_rejected():
    with pytest.raises((ChartError, MetricError)):
        Chart([[ZERO, ZERO], [ZERO, ZERO]], [(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(MetricError, match="no entries"):
        Chart([], [])


# Charts and fields are read and written as parts of a config: these
# tests run the chart and field steps of the config codec.

def config_text(chart, psi=None) -> str:
    """The JSON of a config on `chart` with this Psi (else zero) and
    every other field zero."""
    zero = [FormField(chart) for _ in range(chart.dim)]
    return config_to_json(FieldConfig(chart, psi or FormField(chart), zero,
                                      zero, FormField(chart), 1.0))


def test_chart_json_round_trip(rng):
    chart = sphere_chart(SPHERE_BOX)
    again = config_from_json(config_text(chart)).chart
    p = (1.0, 0.8)
    assert np.allclose(again.metric_at(p).g_lower,
                       chart.metric_at(p).g_lower, atol=1e-15)


@pytest.mark.parametrize("dim", [5, 3, 0, True, 1.5, 2.0, "2", None],
                         ids=["5", "3", "0", "true", "1.5", "2.0", "string",
                              "null"])
def test_chart_json_dim_must_be_the_matrix_size(dim):
    # a JSON true is a Python int, and 2.0 == 2 in Python
    data = json.loads(config_text(sphere_chart(SPHERE_BOX)))
    data["chart"]["dim"] = dim
    with pytest.raises(ChartError, match="dim must be an integer"):
        config_from_json(json.dumps(data))


def config_with_psi(psi: dict) -> str:
    """A config on the sphere chart whose Psi reads as this JSON."""
    data = json.loads(config_text(sphere_chart(SPHERE_BOX)))
    data["psi"] = psi
    return json.dumps(data)


@pytest.mark.parametrize("indices", [[3], [0], [1, 1], [True, 2], [1.0, 2]],
                         ids=["beyond_dim", "zero", "repeated", "bool",
                              "float"])
def test_field_json_bad_indices_is_argument_error(indices):
    text = config_with_psi({"terms": [{"indices": indices, "re": "1"}]})
    with pytest.raises(ArgumentError, match="not distinct values in 1..2"):
        config_from_json(text)


@pytest.mark.parametrize("basis", ["clifford", "bogus", None])
def test_field_json_non_grassmann_basis_is_argument_error(basis):
    text = config_with_psi({"basis": basis,
                            "terms": [{"indices": [1], "re": "1"}]})
    with pytest.raises(ArgumentError, match="unknown basis"):
        config_from_json(text)


def test_field_json_round_trip(rng):
    chart = sphere_chart(SPHERE_BOX)
    u = random_form_field(chart, rng, POOL)
    again = config_from_json(config_text(chart, u)).psi
    p = (1.0, 0.8)
    assert (again.eval_at(p) - u.eval_at(p)).norm() < 1e-12
