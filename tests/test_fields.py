"""Gauge field model: main equation, conservation, gauge symmetry, sources."""

import itertools
import json
import time

import numpy as np
import pytest

from gafields.expr import (CExpr, EvalDomainError, ZERO, call, check_finite,
                           evaluate, parse)
from gafields.fields import (
    FieldConfig,
    FieldConfigError,
    bar_psi_field,
    c_form,
    config_from_json,
    config_to_json,
    conservation_defect,
    covariance_check,
    current,
    curvature_link_check,
    gauge_transform,
    h_forms,
    lagrangian_l0,
    lagrangian_l1,
    lagrangian_total,
    main_residual,
    residuals,
    system_residuals,
    transform_config,
)
from gafields import fields, manifold, multivector
from gafields.fields import _value as form_value
from gafields.manifold import (CoordinateChange, DomainError, FormField,
                               scalar_field)
from gafields.metric import ArgumentError
from gafields.multivector import Multivector, build_product_table, trace
from gafields.spin import random_spin_element
from gafields.checks import (constant_field, flat_minkowski_chart,
                             gauge_defects, random_form_field)
from helpers import (
    FLAT_POOL,
    curvature_linked_config,
    curved_link_chart,
    distinct_nodes,
    ordered_pair_g_strength,
    ordered_pair_maxwell_lhs,
    ordered_pair_yang_mills_lhs,
    plane_wave_config,
    skew_chart,
    skew_config,
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
    psi = random_form_field(chart, rng, FLAT_POOL)
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


@pytest.mark.parametrize("m", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_config_mass_must_be_finite(m, rng):
    cfg = smooth_config(rng)
    with pytest.raises(FieldConfigError, match="not finite"):
        FieldConfig(cfg.chart, cfg.psi, cfg.a, cfg.b, cfg.h, m)


@pytest.mark.parametrize("m", [True, "1.0", None, [1.0]],
                         ids=["true", "string", "null", "list"])
def test_config_json_mass_must_be_a_number(m, rng):
    data = json.loads(config_to_json(smooth_config(rng)))
    data["m"] = m
    with pytest.raises(FieldConfigError, match="mass m must be a number"):
        config_from_json(json.dumps(data))


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
        scal, forms = h_forms(cfg)
        assert scal.eval_at(p).norm() < 1e-12
        assert all(f.eval_at(p).norm() < 1e-12 for f in forms)


def test_bar_psi_is_h_psi_star(rng):
    cfg = smooth_config(rng)
    t = build_product_table(cfg.chart.metric_at(cfg.chart.midpoint()))
    from gafields.multivector import conjugate_star
    for p in sample_points(cfg.chart, rng, 2):
        h = cfg.h.eval_at(p)
        psi = cfg.psi.eval_at(p)
        assert (bar_psi_field(cfg).eval_at(p)
                - t.mul(h, conjugate_star(psi))).norm() < 1e-12


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
    points = sample_points(cfg.chart, rng, 5)
    batch = conservation_defect(cfg, points)
    assert batch.shape == (5,)
    for p, got in zip(points, batch):
        assert conservation_defect(cfg, p) == got < 1e-7


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
    u = constant_field(cfg.chart, f)
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


def noncommuting_b_config(rng):
    """Flat config whose B_k do not commute, so G_ij is not zero."""
    chart = flat_minkowski_chart()
    b_srcs = ({0b0011: "0.5", 0b1100: "0.2*x2"}, {0b0110: "0.4 + 0.1*x1"},
              {0b0101: "0.3*x4"}, {0b1001: "0.6", 0b1010: "0.2*x3"})
    b = [FormField(chart, {mask: CExpr(parse(src, 4), ZERO)
                           for mask, src in srcs.items()})
         for srcs in b_srcs]
    a = [scalar_field(chart, CExpr(ZERO, parse(src, 4)))
         for src in ("0.3*x2", "x1*x3", "0.1*x4", "x1 + x2")]
    h = FormField(chart, {0b1000: CExpr.of(1.0)})
    return FieldConfig(chart, random_form_field(chart, rng, FLAT_POOL), a, b,
                       h, 1.1)


def test_lagrangian_l0_gauge_part_with_noncommuting_b(rng):
    # the c2 part of L0 is sqrt|g| sum_ij Tr(G_ij G^ij), here nonzero, and
    # it is invariant under a constant spin gauge transformation
    cfg = noncommuting_b_config(rng)
    mref = cfg.chart.metric_at(cfg.chart.midpoint())
    t = build_product_table(mref)
    gu = mref.g_upper
    f = random_spin_element(mref, rng, 0.4)
    cfg2 = gauge_transform(cfg, constant_field(cfg.chart, f), CExpr.of(1.0))
    pairs = list(itertools.product(range(4), repeat=2))
    for p in sample_points(cfg.chart, rng, 3):
        g = [[gij.eval_at(p) for gij in row]
             for row in fields.g_strength_fields(cfg)]
        want = 0.0
        for i, j in pairs:
            g_up = Multivector(4)
            for r, s in pairs:
                g_up = g_up + gu[i, r] * gu[j, s] * g[r][s]
            want += trace(t.mul(g[i][j], g_up))
        want *= evaluate(cfg.chart.sqrt_abs_det, p)
        got = lagrangian_l0(cfg, p, 0.0, 1.0)
        assert abs(got) > 0.1
        assert abs(got - want) < 1e-12
        assert abs(lagrangian_l0(cfg2, p, 0.0, 1.0) - got) < 1e-12


def test_lagrangian_l1_real(rng):
    cfg = smooth_config(rng)
    for p in sample_points(cfg.chart, rng, 5):
        assert abs(lagrangian_l1(cfg, p).imag) < 1e-10


# ---------------------------------------------------------------------------
# field strengths and the full system

def test_field_strength_antisymmetry(rng):
    # F_ij = f_ij + G_ij: its scalar blade is f_ij, the rest is G_ij
    cfg = smooth_config(rng)
    for p in sample_points(cfg.chart, rng, 2):
        f_ij = [[fij.eval_array(p) for fij in row]
                for row in fields.strength_fields(cfg)]
        g_ij = [[gij.eval_array(p) for gij in row]
                for row in fields.g_strength_fields(cfg)]
        for i, j in itertools.product(range(4), repeat=2):
            assert np.abs(f_ij[i][j] + f_ij[j][i]).max() < 1e-12
            assert np.abs(g_ij[i][j] + g_ij[j][i]).max() < 1e-12
            g_part = f_ij[i][j].copy()
            g_part[0] = 0.0
            assert np.array_equal(g_part, g_ij[i][j])
        assert abs(f_ij[0][1][0]) > 1e-3  # a != 0
    assert all(gij.grades() in ([], [2])
               for row in fields.g_strength_fields(cfg) for gij in row)


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


CURVED_CHARTS = pytest.mark.parametrize(
    "make_chart", [curved_link_chart, lambda: skew_chart(4, -1)],
    ids=["sphere_times_flat", "skew"])


@CURVED_CHARTS
def test_yang_mills_left_sides_match_ordered_pairs(make_chart):
    # the family builds G_ij and G^ij for i < j only and drops the sum
    # sqrt|g| Gamma^j_is G^is, which the reference keeps: the match pins
    # that the sum vanishes on a curved chart with B != 0
    cfg = smooth_config(np.random.default_rng(11), chart=make_chart())
    n = cfg.chart.dim
    xs = sample_points(cfg.chart, np.random.default_rng(12))
    g = [[f.eval_array(xs) for f in row]
         for row in fields.g_strength_fields(cfg)]
    ref = np.array([[f.eval_array(xs) for f in row]
                    for row in ordered_pair_g_strength(cfg)])
    for i, j in itertools.product(range(n), repeat=2):
        assert np.array_equal(g[i][j], -g[j][i])
    assert np.abs(np.array(g) - ref).max() <= 1e-12 * np.abs(ref).max()
    lhs = fields._gauge_family(cfg)[0]
    for got, want in zip(lhs[1:n + 1], ordered_pair_yang_mills_lhs(cfg)):
        got, want = got.eval_array(xs)[:, 1:], want.eval_array(xs)[:, 1:]
        assert np.abs(want).max() > 1e-3
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@CURVED_CHARTS
def test_maxwell_left_sides_match_ordered_pairs(make_chart):
    # the scalar blade of the gauge family's left side is the Maxwell one,
    # d_i(sqrt|g| f^ij), which the reference sums over all n^2 pairs
    cfg = smooth_config(np.random.default_rng(11), chart=make_chart())
    n = cfg.chart.dim
    xs = sample_points(cfg.chart, np.random.default_rng(12))
    lhs = fields._gauge_family(cfg)[0][1:n + 1]
    got = np.array([f.eval_array(xs)[:, 0] for f in lhs])
    want = np.array([f.evaluate(xs) for f in ordered_pair_maxwell_lhs(cfg)])
    assert np.abs(want).max() > 1e-3
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
    rows = residuals(cfg, points)

    # every form of every family: the batch row equals the float-point value
    for family in fields.FAMILIES:
        terms, _ = fields._FAMILY_BUILDERS[family](cfg)
        for term in terms:
            values = form_value(term, points)
            for i, p in enumerate(points):
                want = np.asarray(form_value(term, p))
                assert np.abs(values[i] - want).max() \
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


def test_conservation_stays_where_h_passes_on_every_call(rng):
    # B_k = x1 dx^1 ^ dx^4 does not commute with H = dx^4, so H solves its
    # system on x1 = 0 alone; building the conservation family for the
    # first point must not report it at the second on a later call
    chart = flat_minkowski_chart()
    b = [FormField(chart, {0b1001: CExpr(parse("x1", 4), ZERO)})
         for _ in range(4)]
    cfg = FieldConfig(chart, random_form_field(chart, rng, FLAT_POOL),
                      [FormField(chart) for _ in range(4)], b,
                      FormField(chart, {0b1000: CExpr.of(1.0)}), 1.0)
    points = [(0.0, 0.1, 0.2, 0.3), (0.5, 0.1, 0.2, 0.3)]
    for _ in range(2):
        rows = residuals(cfg, points)
        assert ["conservation" in row for row in rows] == [True, False]
        assert "conservation" not in residuals(cfg, points[1:])[0]
    assert conservation_defect(cfg, points[0]) < 1e-7
    for p in (points[1], points, points[::-1]):
        with pytest.raises(FieldConfigError, match=r"H does not satisfy its "
                           r"equations at \(0\.5, 0\.1, 0\.2, 0\.3\)"):
            conservation_defect(cfg, p)


def test_residuals_reject_unknown_families(rng):
    cfg = smooth_config(rng, with_b=False)
    points = sample_points(cfg.chart, rng, 2)
    with pytest.raises(ArgumentError, match=r"unknown residual families "
                                            r"\['gravity'\]"):
        residuals(cfg, points, ("main", "gravity"))
    with pytest.raises(ArgumentError, match="needs the h family"):
        residuals(cfg, points, ("main", "conservation"))


def test_batch_domain_error_names_an_input_point(rng):
    chart = flat_minkowski_chart()
    zero = [FormField(chart) for _ in range(4)]
    cfg = FieldConfig(chart, FormField(chart, {0: CExpr(parse("log(x3)", 4))}),
                      zero, zero, FormField(chart, {0b1000: CExpr.of(1.0)}),
                      1.0)
    points = [(0.1, 0.2, x3, 0.3) for x3 in (0.5, 0.25, -0.4, 0.0, 0.7)]
    with pytest.raises(EvalDomainError) as info:
        residuals(cfg, points)
    assert info.value.point in points and info.value.point[2] <= 0.0
    with pytest.raises(EvalDomainError):
        system_residuals(cfg, points[2])
    # a non-finite defect names its point of the batch the family read
    with pytest.raises(EvalDomainError) as info:
        check_finite(np.array([0.0, 0.0, np.inf, 0.0, 0.0]), points, "defect")
    assert info.value.point == points[2]


# ---------------------------------------------------------------------------
# every form built once per config

def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so each call appends to the returned list."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def one_point_values(cfg, p):
    return (main_residual(cfg, p).coeffs, lagrangian_l1(cfg, p),
            conservation_defect(cfg, p), current(cfg, p),
            lagrangian_l0(cfg, p, 0.8, 1.2))


def test_one_point_calls_build_each_form_once(rng, monkeypatch):
    cfg = smooth_config(rng, with_b=False)  # H passes: conservation exists
    points = sample_points(cfg.chart, rng, 4)
    upsilon = count_calls(monkeypatch, fields, "upsilon_k")
    first = one_point_values(cfg, points[0])
    built = len(upsilon)
    assert built > 0
    values = [first] + [one_point_values(cfg, p) for p in points[1:]]
    assert len(upsilon) == built  # later points only evaluate

    # bitwise the values of a freshly built equal config, in another order
    fresh = FieldConfig(cfg.chart, cfg.psi, cfg.a, cfg.b, cfg.h, cfg.m)
    for p, want in reversed(list(zip(points, values))):
        got = one_point_values(fresh, p)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_residual_families_are_built_once_for_every_coupling(monkeypatch):
    # the couplings enter the reductions alone: after one full evaluation,
    # other couplings and other family subsets build no form again
    cfg = smooth_config(np.random.default_rng(0), with_b=False)
    points = sample_points(cfg.chart, np.random.default_rng(1), 3)
    rows = residuals(cfg, points)
    assert all("conservation" in row for row in rows)
    upsilon = count_calls(monkeypatch, fields, "upsilon_k")
    products = count_calls(monkeypatch, fields, "clifford_mul_fields")
    p = points[0]
    moved = system_residuals(cfg, p, c1=2.0, c2=0.5)
    curvature_link_check(cfg, p)
    conservation_defect(cfg, points)
    current(cfg, p)
    assert upsilon == [] and products == []
    assert moved["main"] == rows[0]["main"]
    assert moved["maxwell"] != rows[0]["maxwell"]


def test_system_build_forms_each_current_product_once(rng, monkeypatch):
    # bar-Psi dx^k Psi is built once per k, for J^k; the scalar current
    # j^k of the conservation identity is -i Tr(J^k), not a second product
    cfg = smooth_config(rng, with_b=False)  # H passes: conservation built
    products = count_calls(monkeypatch, fields, "clifford_mul_fields")
    points = sample_points(cfg.chart, rng, 3)
    rows = residuals(cfg, points)
    assert all("conservation" in row for row in rows)
    assert sum(args[1] is cfg.psi for args in products) == cfg.chart.dim
    j_fields = fields.current_j_fields(cfg)
    for p in points:
        for jk, jf in zip(fields.current_exprs(cfg), j_fields):
            assert jk.evaluate(p) == -1j * fields.trace_field(jf).evaluate(p)


def test_raise_pair_skips_zero_metric_factors(monkeypatch):
    # on a diagonal chart g^ir g^js vanishes unless r = i and s = j; an
    # all-zero raise is still a field
    cfg, _ = curvature_linked_config()
    scales = count_calls(monkeypatch, FormField, "scale")
    strengths = fields.strength_fields(cfg)
    n = cfg.chart.dim
    for i, j in itertools.product(range(n), repeat=2):
        del scales[:]
        raised = fields._raise_pair(cfg, strengths, i, j)
        assert len(scales) == 1 and not scales[0][1].is_zero()
        assert isinstance(raised, FormField)
        assert 0 not in raised.coeffs  # a_k = 0: F^ij is G^ij
    empty = [[FormField(cfg.chart)] * n] * n
    assert fields._raise_pair(cfg, empty, 0, 1).coeffs == {}


def test_gauge_strength_is_raised_once_per_pair(monkeypatch):
    # the gauge family and L0 read one table F^ij, raised for i < j alone
    cfg = skew_config(np.random.default_rng(0))
    raises = count_calls(monkeypatch, fields, "_raise_pair")
    points = sample_points(cfg.chart, np.random.default_rng(1), 2)
    residuals(cfg, points)
    lagrangian_l0(cfg, points)
    assert sorted(args[2:] for args in raises) \
        == list(itertools.combinations(range(cfg.chart.dim), 2))


def test_config_is_immutable(rng):
    cfg = smooth_config(rng)
    main_residual(cfg, cfg.chart.midpoint())  # memo filled
    with pytest.raises(AttributeError):
        cfg.m = 2.0
    with pytest.raises(AttributeError):
        cfg.psi = cfg.h
    with pytest.raises(AttributeError):
        del cfg.h
    with pytest.raises(TypeError):
        cfg.b[0] = cfg.b[1]
    assert cfg.m == 1.1


def test_constant_chart_builds_one_product_table(rng, monkeypatch):
    # the chart keeps its Metric while the metric's values repeat, and the
    # Metric keeps its product table
    cfg = smooth_config(rng)
    tables = count_calls(monkeypatch, multivector.ProductTable, "__init__")
    p, q = sample_points(cfg.chart, rng, 2)
    for point in (p, q, p):
        multivector.build_product_table(cfg.chart.metric_at(point))
    assert len(tables) == 1


def test_lagrangian_l0_builds_no_metric_and_no_table(rng, monkeypatch):
    # L0 is a form evaluated: on a curved chart, where every point has a
    # metric of its own, it builds no Metric and no product table
    cfg, _ = curvature_linked_config()
    metrics = count_calls(monkeypatch, manifold, "new_metric")
    tables = count_calls(monkeypatch, multivector.ProductTable, "__init__")
    points = sample_points(cfg.chart, rng, 3)
    values = [lagrangian_l0(cfg, p, 0.7, 1.3) for p in points]
    assert min(abs(v) for v in values) > 0.0
    lagrangian_l0(cfg, points)
    assert metrics == [] and tables == []


def test_lagrangian_l0_batch_matches_points(rng):
    for cfg in (smooth_config(rng), noncommuting_b_config(rng),
                curvature_linked_config()[0]):
        points = sample_points(cfg.chart, rng, 4)
        batch = lagrangian_l0(cfg, points, 0.7, 1.3)
        assert batch.shape == (4,)
        for p, got in zip(points, batch):
            want = lagrangian_l0(cfg, p, 0.7, 1.3)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_lagrangians_of_constant_forms_give_one_value_per_point(rng):
    # a_1 = 0.3i x2 alone on the flat chart: f_ij f^ij and L1 are both
    # constant forms, and a batch of N points still gives N values
    chart = flat_minkowski_chart()
    a = [scalar_field(chart, CExpr(ZERO, parse("0.3*x2", 4)))]
    a += [FormField(chart) for _ in range(3)]
    cfg = FieldConfig(chart, FormField(chart), a,
                      [FormField(chart) for _ in range(4)],
                      FormField(chart, {0b1000: CExpr.of(1.0)}), 1.0)
    points = sample_points(chart, rng, 5)
    for lagrangian in (lagrangian_l0, lagrangian_l1):
        batch = lagrangian(cfg, points)
        assert batch.shape == (5,)
        assert [complex(z) for z in batch] == [lagrangian(cfg, p)
                                               for p in points]


def identity_change(chart):
    return CoordinateChange([parse(f"x{k}", chart.dim)
                             for k in range(1, chart.dim + 1)], chart.domain)


# each entry that takes points on a config's chart, called at a batch
CHART_AWARE = {
    "residual_system": residuals,
    "lagrangian_l0": lagrangian_l0,
    "lagrangian_l1": lagrangian_l1,
    "lagrangian_total": lagrangian_total,
    "covariance_check": lambda cfg, pts: covariance_check(
        cfg, identity_change(cfg.chart), pts),
    "gauge_defects": lambda cfg, pts: gauge_defects(
        cfg, cfg, Multivector.scalar(4, 1.0), CExpr.of(1.0),
        build_product_table(cfg.chart.metric_at(cfg.chart.midpoint())),
        pts, 1.0, 1.0),
}


@pytest.mark.parametrize("name", list(CHART_AWARE))
def test_chart_aware_entries_reject_points_off_the_chart(name):
    entry = CHART_AWARE[name]
    cfg = smooth_config(np.random.default_rng(0))  # on [-1, 1]^4
    inside = sample_points(cfg.chart, np.random.default_rng(1), 3)
    entry(cfg, inside)
    outside = (6.0, 6.0, 6.0, 6.0)
    with pytest.raises(DomainError):
        entry(cfg, outside)
    for points in ([outside], inside + [outside]):
        with pytest.raises(DomainError, match=r"point \(6\.0, 6\.0, 6\.0, "
                                              r"6\.0\) outside chart domain"):
            entry(cfg, points)
    # the 3 points as 4 coordinate rows of 3 values are no batch
    with pytest.raises(DomainError, match="has 4 coordinates"):
        entry(cfg, np.transpose(inside))


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


def test_covariance_under_identity_change_of_a_shared_dag():
    # the skew config's main form shares most of its subtrees; pulling it
    # back must keep them shared, or the pullback and its evaluation grow
    # with the tree the DAG stands for
    cfg = skew_config(np.random.default_rng(0))
    points = sample_points(cfg.chart, np.random.default_rng(1), 3)
    start = time.perf_counter()
    assert covariance_check(cfg, identity_change(cfg.chart), points) == 0.0
    assert time.perf_counter() - start < 2.0


def test_pullback_keeps_the_sharing_of_its_form():
    # the coefficients of the skew config's main form share most of their
    # subtrees; one substitution for the whole pullback keeps them shared
    cfg = skew_config(np.random.default_rng(0))
    change = identity_change(cfg.chart)
    form = fields.main_form(cfg)
    pulled = change.transform_form(form, change.transform_chart(cfg.chart))

    def parts(u):
        return [x for c in u.coeffs.values() for x in (c.re, c.im)]
    assert distinct_nodes(*parts(pulled)) <= distinct_nodes(*parts(form))


def sample_points_change(change, rng, count=3):
    return [tuple(lo + 0.1 + (hi - lo - 0.2) * rng.random()
                  for lo, hi in change.new_domain) for _ in range(count)]
