"""Charts, Christoffel symbols, curvature and the form calculus."""

import numpy as np
import pytest

from gafields.expr import CExpr, ZERO, parse
from gafields.manifold import (
    Chart,
    ChartError,
    CoordinateChange,
    DomainError,
    FormField,
    TensorField,
    chart_from_json,
    chart_to_json,
    curvature_forms,
    d_op,
    delta_op,
    dx,
    field_from_json,
    field_to_json,
    grade_project_field,
    hodge_field,
    laplace,
    metric_tensor_field,
    nabla,
    scalar_field,
    star_inverse_field,
    upsilon_k,
    upsilon_op,
    volume_field,
    wedge_fields,
)


def polar_chart():
    return Chart([[parse("1", 2), ZERO], [ZERO, parse("x1^2", 2)]],
                 [(0.5, 2.0), (0.2, 1.2)])


def sphere_chart():
    return Chart([[parse("1", 2), ZERO], [ZERO, parse("sin(x1)^2", 2)]],
                 [(0.5, 2.6), (0.1, 3.0)])


def random_points(chart, rng, count):
    return [tuple(lo + (hi - lo) * rng.random() for lo, hi in chart.domain)
            for _ in range(count)]


def random_field(chart, rng, grades=None):
    pool = ["x1*x2", "sin(x1)", "cos(x2)", "x1^2", "x2 + 1", "sin(x2)*x1"]
    coeffs = {}
    for mask in range(1 << chart.dim):
        k = bin(mask).count("1")
        if grades is not None and k not in grades:
            continue
        coeffs[mask] = CExpr(parse(pool[int(rng.integers(len(pool)))],
                                   chart.dim),
                             parse(pool[int(rng.integers(len(pool)))],
                                   chart.dim))
    return FormField(chart, coeffs)


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature

def test_polar_christoffels_oracle(rng):
    # hand values: Gamma^1_{22} = -r, Gamma^2_{12} = Gamma^2_{21} = 1/r
    chart = polar_chart()
    for p in random_points(chart, rng, 5):
        r = p[0]
        gamma = chart.christoffel(p)
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
    assert np.allclose(chart.christoffel(p), want, atol=1e-5)


def test_flat_chart_curvature_vanishes(rng):
    chart = polar_chart()
    for p in random_points(chart, rng, 10):
        cd = chart.curvature(p)
        assert np.abs(cd.r_mixed).max() < 1e-10
        assert np.abs(cd.r_lower).max() < 1e-10


def test_sphere_curvature_oracle(rng):
    # unit sphere: R_{12,12} = sin^2(x1)
    chart = sphere_chart()
    for p in random_points(chart, rng, 5):
        cd = chart.curvature(p)
        assert cd.r_lower[0, 1, 0, 1] == pytest.approx(np.sin(p[0]) ** 2,
                                                       rel=1e-9)


def test_commutator_curvature_identity(rng):
    # (Y_i Y_j - Y_j Y_i) dx^k = R^{...k}_{ij,r} dx^r
    chart = sphere_chart()
    p = random_points(chart, rng, 1)[0]
    cd = chart.curvature(p)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                f = dx(chart, k)
                got = (upsilon_k(upsilon_k(f, j), i)
                       - upsilon_k(upsilon_k(f, i), j)).eval_at(p)
                for r in (1, 2):
                    want = cd.r_mixed[i - 1, j - 1, r - 1, k - 1]
                    assert got.coeffs[1 << (r - 1)] == pytest.approx(
                        want, abs=1e-9)


def test_curvature_forms_antisymmetry(rng):
    chart = sphere_chart()
    p = random_points(chart, rng, 1)[0]
    cd = chart.curvature(p)
    for r in range(2):
        for l in range(2):
            assert (cd.d_forms[r][l] + cd.d_forms[l][r]).norm() < 1e-12


def test_symbolic_curvature_forms_match_numeric(rng):
    # a 3-chart mixing a sphere block with a warped third coordinate
    chart = Chart([[parse(s, 3) for s in row] for row in
                   [["1", "0", "0"], ["0", "sin(x1)^2", "0"],
                    ["0", "0", "-(1 + x1*x2^2)"]]],
                  [(0.5, 2.6), (0.1, 1.0), (-1.0, 1.0)])
    forms = curvature_forms(chart)
    points = random_points(chart, rng, 4)
    batch = tuple(np.array(points).T)
    for r in range(3):
        for l in range(3):
            at_batch = forms[r][l].eval_array(batch)
            assert at_batch.shape == (8, 4)
            for i, p in enumerate(points):
                want = chart.curvature(p).d_forms[r][l]
                assert (forms[r][l].eval_at(p) - want).norm() < 1e-12
                assert np.abs(at_batch[:, i] - want.coeffs).max() < 1e-12


# ---------------------------------------------------------------------------
# differential operators

def test_upsilon_leibniz(rng):
    chart = sphere_chart()
    u = random_field(chart, rng)
    v = random_field(chart, rng)
    p = random_points(chart, rng, 2)
    from gafields.manifold import clifford_mul_fields
    for k in (1, 2):
        lhs = upsilon_k(clifford_mul_fields(u, v), k)
        rhs = (clifford_mul_fields(upsilon_k(u, k), v)
               + clifford_mul_fields(u, upsilon_k(v, k)))
        for q in p:
            assert (lhs.eval_at(q) - rhs.eval_at(q)).norm() < 1e-9


def test_upsilon_kills_metric_volume(rng):
    chart = sphere_chart()
    vol = volume_field(chart)
    for p in random_points(chart, rng, 3):
        for k in (1, 2):
            assert upsilon_k(vol, k).eval_at(p).norm() < 1e-10


def test_d_squared_and_delta_squared(rng):
    chart = sphere_chart()
    for _ in range(5):
        u = random_field(chart, rng)
        p = random_points(chart, rng, 1)[0]
        assert d_op(d_op(u)).eval_at(p).norm() < 1e-9
        assert delta_op(delta_op(u)).eval_at(p).norm() < 1e-9


def test_d_is_exterior_derivative_on_scalars(rng):
    chart = sphere_chart()
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
    chart = sphere_chart()
    for _ in range(4):
        u = random_field(chart, rng)
        p = random_points(chart, rng, 1)[0]
        for k in (0, 1, 2):
            w = grade_project_field(u, k)
            lhs = delta_op(w).eval_at(p)
            rhs = star_inverse_field(d_op(hodge_field(w))).eval_at(p)
            if k % 2 == 1:
                rhs = -rhs
            assert (lhs - rhs).norm() < 1e-9


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
    chart = sphere_chart()
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
    chart = sphere_chart()
    u = random_field(chart, rng)
    p = random_points(chart, rng, 2)
    for q in p:
        got = (d_op(u) - delta_op(u)).eval_at(q)
        want = upsilon_op(u).eval_at(q)
        assert (got - want).norm() < 1e-10


# ---------------------------------------------------------------------------
# tensor fields

def test_metric_is_covariantly_constant(rng):
    chart = sphere_chart()
    g = metric_tensor_field(chart)
    dg = nabla(g)
    for p in random_points(chart, rng, 3):
        assert np.abs(dg.eval_at(p)).max() < 1e-10


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
    chart = polar_chart()
    with pytest.raises(DomainError):
        chart.christoffel((5.0, 0.5))


def test_degenerate_chart_rejected():
    from gafields.metric import MetricError
    with pytest.raises((ChartError, MetricError)):
        Chart([[ZERO, ZERO], [ZERO, ZERO]], [(0.0, 1.0), (0.0, 1.0)])


def test_chart_json_round_trip(rng):
    chart = sphere_chart()
    again = chart_from_json(chart_to_json(chart))
    p = (1.0, 0.8)
    assert np.allclose(again.metric_at(p).g_lower,
                       chart.metric_at(p).g_lower, atol=1e-15)


def test_field_json_round_trip(rng):
    chart = sphere_chart()
    u = random_field(chart, rng)
    again = field_from_json(field_to_json(u), chart)
    p = (1.0, 0.8)
    assert (again.eval_at(p) - u.eval_at(p)).norm() < 1e-12
