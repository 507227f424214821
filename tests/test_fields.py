"""Gauge field model: main equation, conservation, gauge symmetry, sources."""

import numpy as np
import pytest

from gafields.expr import CExpr, EvalDomainError, ZERO, call, parse
from gafields.fields import (
    FieldConfig,
    FieldConfigError,
    ResidualSystem,
    bar_psi,
    c_form,
    config_from_json,
    config_to_json,
    conservation_defect,
    covariance_check,
    current,
    curvature_link_check,
    field_strengths,
    gauge_transform,
    h_residual,
    lagrangian_l0,
    lagrangian_l1,
    lagrangian_total,
    main_residual,
    system_residuals,
    transform_config,
)
from gafields.fields import _value as form_value
from gafields.manifold import CoordinateChange, FormField, scalar_field
from gafields.multivector import build_product_table
from gafields.spin import random_spin_element
from helpers import (
    curvature_linked_config,
    flat_minkowski_chart,
    plane_wave_config,
    random_form_field,
    smooth_config,
)


def sample_points(chart, rng, count=5, margin=0.1):
    pts = []
    for _ in range(count):
        pts.append(tuple(lo + margin + (hi - lo - 2 * margin) * rng.random()
                         for lo, hi in chart.domain))
    return pts


# ---------------------------------------------------------------------------
# shape validation

def test_config_shape_checks(rng):
    chart = flat_minkowski_chart()
    psi = random_form_field(chart, rng)
    zero = [FormField(chart) for _ in range(4)]
    h = FormField(chart, {0b1000: CExpr.of(1.0)})
    # a_k must be imaginary scalars
    bad_a = [scalar_field(chart, CExpr.of(1.0)) for _ in range(4)]
    with pytest.raises(FieldConfigError):
        FieldConfig(chart, psi, bad_a, zero, h, 1.0)
    # B_k must be real two-forms
    bad_b = [FormField(chart, {0b0011: CExpr.of(1.0j)}) for _ in range(4)]
    with pytest.raises(FieldConfigError):
        FieldConfig(chart, psi, zero, bad_b, h, 1.0)
    # H must be a real one-form
    bad_h = FormField(chart, {0b0011: CExpr.of(1.0)})
    with pytest.raises(FieldConfigError):
        FieldConfig(chart, psi, zero, zero, bad_h, 1.0)


def test_config_json_round_trip(rng):
    cfg = smooth_config(rng)
    again = config_from_json(config_to_json(cfg))
    p = (0.2, -0.3, 0.4, 0.1)
    assert (main_residual(again, p) - main_residual(cfg, p)).norm() < 1e-12


# ---------------------------------------------------------------------------
# H equation and conjugation

def test_h_relations_flat(rng):
    cfg = smooth_config(rng, with_b=False)
    for p in sample_points(cfg.chart, rng, 3):
        scal, forms = h_residual(cfg, p)
        assert scal.norm() < 1e-12
        assert all(f.norm() < 1e-12 for f in forms)


def test_bar_psi_is_h_psi_star(rng):
    cfg = smooth_config(rng)
    t = build_product_table(cfg.chart.metric_at(cfg.chart.midpoint()))
    from gafields.multivector import conjugate_star
    for p in sample_points(cfg.chart, rng, 2):
        h = cfg.h.eval_at(p)
        psi = cfg.psi.eval_at(p)
        assert (bar_psi(cfg, p) - t.mul(h, conjugate_star(psi))).norm() < 1e-12


# ---------------------------------------------------------------------------
# conservation

def test_current_is_real(rng):
    cfg = smooth_config(rng, with_b=False)
    for p in sample_points(cfg.chart, rng, 3):
        j = current(cfg, p)
        assert np.abs(np.imag(j)).max() < 1e-10


def test_conservation_identity_arbitrary_psi(rng):
    # Tr(-iH(C - C*)) = (1/sqrt g) d_k(sqrt g j^k) holds off shell
    cfg = smooth_config(rng, with_b=False)
    for p in sample_points(cfg.chart, rng, 5):
        assert conservation_defect(cfg, p) < 1e-7


def test_plane_wave_solves_main_equation(rng):
    cfg = plane_wave_config()
    for p in sample_points(cfg.chart, rng, 5):
        assert main_residual(cfg, p).norm() < 1e-12


def test_plane_wave_current_divergence_free(rng):
    cfg = plane_wave_config()
    h = 1e-5
    for p in sample_points(cfg.chart, rng, 3):
        div = 0.0
        for k in range(4):
            q1, q2 = list(p), list(p)
            q1[k] += h
            q2[k] -= h
            div += (current(cfg, q1)[k] - current(cfg, q2)[k]).real / (2 * h)
        assert abs(div) < 1e-7


# ---------------------------------------------------------------------------
# gauge transformations

def gauge_pair(cfg, rng, scale=0.4):
    mref = cfg.chart.metric_at(cfg.chart.midpoint())
    f = random_spin_element(mref, rng, scale)
    u = FormField(cfg.chart, {int(mk): CExpr.of(complex(f.coeffs[mk]))
                              for mk in np.nonzero(f.coeffs)[0]})
    chi = parse("0.5*x1 - 0.2*x4 + 0.1*x2*x3", 4)
    v = CExpr(call("cos", chi), call("sin", chi))
    return u, v, f


def test_gauge_covariance_of_main_form(rng):
    # residual(cfg') = residual(cfg) U v pointwise
    cfg = smooth_config(rng)
    u, v, f = gauge_pair(cfg, rng)
    cfg2 = gauge_transform(cfg, u, v)
    t = build_product_table(cfg.chart.metric_at(cfg.chart.midpoint()))
    for p in sample_points(cfg.chart, rng, 4):
        want = t.mul(main_residual(cfg, p), f) * v.evaluate(p)
        assert (main_residual(cfg2, p) - want).norm() < 1e-9


def test_gauge_invariance_of_lagrangians(rng):
    cfg = smooth_config(rng)
    u, v, f = gauge_pair(cfg, rng)
    cfg2 = gauge_transform(cfg, u, v)
    for p in sample_points(cfg.chart, rng, 4):
        assert abs(lagrangian_l1(cfg2, p) - lagrangian_l1(cfg, p)) < 1e-9
        assert abs(lagrangian_l0(cfg2, p, 0.7, 1.3)
                   - lagrangian_l0(cfg, p, 0.7, 1.3)) < 1e-9
        assert abs(lagrangian_total(cfg2, p, 0.7, 1.3)
                   - lagrangian_total(cfg, p, 0.7, 1.3)) < 1e-9


def test_gauge_rejects_non_spin_u(rng):
    cfg = smooth_config(rng)
    bad = FormField(cfg.chart, {0: CExpr.of(2.0)})
    with pytest.raises(FieldConfigError):
        gauge_transform(cfg, bad, CExpr.of(1.0))


def test_gauge_rejects_non_unit_v(rng):
    cfg = smooth_config(rng)
    u, v, _ = gauge_pair(cfg, rng)
    with pytest.raises(FieldConfigError):
        gauge_transform(cfg, u, CExpr.of(2.0))


def test_lagrangian_l1_real(rng):
    cfg = smooth_config(rng)
    for p in sample_points(cfg.chart, rng, 5):
        assert abs(lagrangian_l1(cfg, p).imag) < 1e-10


# ---------------------------------------------------------------------------
# field strengths and the full system

def test_field_strength_antisymmetry(rng):
    cfg = smooth_config(rng)
    for p in sample_points(cfg.chart, rng, 2):
        f_ij, g_ij = field_strengths(cfg, p)
        for i in range(4):
            for j in range(4):
                assert abs(f_ij[i][j] + f_ij[j][i]) < 1e-12
                assert (g_ij[i][j] + g_ij[j][i]).norm() < 1e-12


def test_zero_field_system_residuals(rng):
    chart = flat_minkowski_chart()
    cfg = FieldConfig(chart, FormField(chart),
                      [FormField(chart) for _ in range(4)],
                      [FormField(chart) for _ in range(4)],
                      FormField(chart, {0b1000: CExpr.of(1.0)}), 1.0)
    for p in sample_points(chart, rng, 2):
        res = system_residuals(cfg, p)
        assert max(res.values()) < 1e-12


def test_plane_wave_maxwell_source_consistency(rng):
    # with a = B = 0 the sources must vanish for the equations to close;
    # the plane-wave current is constant so only the projection matters
    cfg = plane_wave_config()
    p = (0.1, -0.2, 0.3, 0.0)
    res = system_residuals(cfg, p, c1=1e12, c2=1e12)
    # enormous couplings suppress the source side: lhs must be ~0
    assert res["main"] < 1e-10
    assert res["maxwell"] < 1e-10
    assert res["yang_mills"] < 1e-10


def test_curvature_link_on_constructed_config():
    cfg, p0 = curvature_linked_config()
    assert curvature_link_check(cfg, p0) < 1e-8


def test_curvature_link_detects_mismatch():
    cfg, p0 = curvature_linked_config()
    # away from the anchor point the linear model drifts from the curvature
    p = tuple(x + 0.3 for x in p0[:1]) + p0[1:]
    assert curvature_link_check(cfg, p) > 1e-4


# ---------------------------------------------------------------------------
# build once, evaluate a batch

def _close(a, b, rtol=1e-12):
    # identity defects sit at rounding level, where numpy's exp and pow may
    # round differently from math's: their scale is that of the terms
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("name", ["smooth", "smooth_without_b", "plane_wave",
                                  "curvature_linked"])
def test_batch_matches_one_point_wrappers(name, rng):
    cfg = {"smooth": lambda: smooth_config(rng),
           "smooth_without_b": lambda: smooth_config(rng, with_b=False),
           "plane_wave": plane_wave_config,
           "curvature_linked": lambda: curvature_linked_config()[0]}[name]()
    points = sample_points(cfg.chart, rng, 8)
    system = ResidualSystem(cfg)
    rows = system.evaluate(points)
    batch = tuple(np.array(points).T)

    # every built form: the batch column equals the float-point value
    for terms, _ in system.families.values():
        for term in terms:
            values = form_value(term, batch)
            for i, p in enumerate(points):
                want = np.asarray(form_value(term, p))
                got = np.asarray(values)[..., i] if np.ndim(values) else values
                assert np.abs(got - want).max() \
                    <= 1e-12 * np.abs(want).max()

    # every defect: the batch row equals the one-point wrappers
    for p, row in zip(points, rows):
        one = system_residuals(cfg, p)
        assert list(row)[:len(one)] == list(one)
        for key, value in one.items():
            assert _close(row[key], value), key
        assert _close(row["curvature_link"], curvature_link_check(cfg, p))
        try:
            cons = conservation_defect(cfg, p)
        except FieldConfigError:
            assert "conservation" not in row
        else:
            assert _close(row["conservation"], cons)
    if name != "smooth":  # B = 0: H = dx^4 solves its system everywhere
        assert all("conservation" in row for row in rows)


def test_batch_domain_error_names_an_input_point(rng):
    chart = flat_minkowski_chart()
    zero = [FormField(chart) for _ in range(4)]
    cfg = FieldConfig(chart, FormField(chart, {0: CExpr(parse("log(x3)", 4))}),
                      zero, zero, FormField(chart, {0b1000: CExpr.of(1.0)}),
                      1.0)
    points = [(0.1, 0.2, x3, 0.3) for x3 in (0.5, 0.25, -0.4, 0.0, 0.7)]
    with pytest.raises(EvalDomainError) as info:
        ResidualSystem(cfg).evaluate(points)
    assert info.value.point in points and info.value.point[2] <= 0.0
    with pytest.raises(EvalDomainError):
        system_residuals(cfg, points[2])


# ---------------------------------------------------------------------------
# coordinate covariance

def test_covariance_under_linear_change(rng):
    cfg = smooth_config(rng)
    # mild linear reparametrization of the flat chart
    a = np.eye(4) + 0.1 * np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                                    [0, 0, 0, 1], [0, 0, 1, 0]])
    old = [sum((parse(f"x{j + 1}", 4) * float(a[i][j]) for j in range(4)),
               start=ZERO) for i in range(4)]
    change = CoordinateChange(old, [(-0.5, 0.5)] * 4)
    pts = sample_points_change(change, rng)
    assert covariance_check(cfg, change, pts) < 1e-9


def sample_points_change(change, rng, count=3):
    return [tuple(lo + 0.1 + (hi - lo - 0.2) * rng.random()
                  for lo, hi in change.new_domain) for _ in range(count)]
