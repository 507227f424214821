"""Spin elements: adjoint action, isometries, factorization."""

import itertools

import numpy as np
import pytest

from gafields.metric import ArgumentError, is_isometry, new_metric
from gafields.multivector import (
    Multivector,
    build_product_table,
    conjugate_star,
    exp_mv,
    grade_project,
    scalar_product,
)
from gafields.spin import (
    NotSpinIsometry,
    adjoint_action,
    factor_isometry,
    is_spin_member,
    isometry_of,
    random_spin_element,
)
from helpers import random_mv


def all_signatures(n):
    for sig in itertools.product((1.0, -1.0), repeat=n):
        yield new_metric(np.diag(sig), convention="upper")


def test_rotation_convention_2d():
    # exp((theta/2) e^{12}) acts as the rotation by theta
    m = new_metric(np.eye(2))
    t = build_product_table(m)
    th = 0.9
    f = exp_mv((th / 2) * Multivector.blade(2, [1, 2]), t)
    p = isometry_of(f, m)
    want = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    assert np.allclose(p, want, atol=1e-12)


def test_membership_and_rejections(rng):
    m = new_metric(np.eye(3))
    f = random_spin_element(m, rng)
    assert is_spin_member(f, m)
    assert not is_spin_member(f + Multivector.blade(3, [1]), m)  # odd part
    assert not is_spin_member(1j * f, m)  # not real
    assert not is_spin_member(2.0 * f, m)  # FF* = 4e


def test_adjoint_preserves_grades(rng):
    for m in all_signatures(3):
        f = random_spin_element(m, rng, 0.7)
        u = random_mv(3, rng)
        for k in range(4):
            lhs = grade_project(adjoint_action(f, u, m), k)
            rhs = adjoint_action(f, grade_project(u, k), m)
            assert (lhs - rhs).norm() < 1e-10


def test_adjoint_preserves_scalar_product(rng):
    m = new_metric(np.diag([1.0, -1.0, 1.0, 1.0]))
    t = build_product_table(m)
    f = random_spin_element(m, rng, 0.5)
    u, v = random_mv(4, rng), random_mv(4, rng)
    a = scalar_product(adjoint_action(f, u, m), adjoint_action(f, v, m), t)
    assert abs(a - scalar_product(u, v, t)) < 1e-9


def test_isometry_of_properties(rng):
    for n in (2, 3, 4):
        for m in all_signatures(n):
            f = random_spin_element(m, rng, 0.6)
            p = isometry_of(f, m)
            assert is_isometry(m, p)
            assert abs(np.linalg.det(p) - 1.0) < 1e-9


def test_isometry_of_rejects_grade_breaking(rng):
    m = new_metric(np.eye(2))
    bad = Multivector.unit(2) + Multivector.blade(2, [1])
    with pytest.raises(ArgumentError):
        isometry_of(bad, m)


def test_factor_round_trip(rng):
    metrics = [m for n in (2, 3, 4) for m in all_signatures(n)]
    metrics += [new_metric(np.eye(5)),
                new_metric(np.diag([1.0, -1.0, 1.0, -1.0, -1.0]))]
    for m in metrics:
        for _ in range(3):
            f = random_spin_element(m, rng, 0.5)
            p = isometry_of(f, m)
            g = factor_isometry(p, m)
            assert min((g - f).norm(), (g + f).norm()) < 1e-8
            assert is_spin_member(g, m)


def test_factor_rejects_reflection():
    m = new_metric(np.eye(2))
    refl = np.diag([1.0, -1.0])
    assert is_isometry(m, refl)
    with pytest.raises(NotSpinIsometry):
        factor_isometry(refl, m)


def test_factor_rejects_non_isometry():
    m = new_metric(np.eye(3))
    with pytest.raises((NotSpinIsometry, ArgumentError)):
        factor_isometry(np.diag([2.0, 1.0, 1.0]), m)


def test_lorentz_boost_factorization():
    # a pure boost is in the image of the spin group of (+,-)
    m = new_metric(np.diag([1.0, -1.0]))
    ch, sh = np.cosh(0.8), np.sinh(0.8)
    boost = np.array([[ch, -sh], [-sh, ch]])
    if not is_isometry(m, boost):
        pytest.skip("boost convention mismatch")
    try:
        f = factor_isometry(boost, m)
    except NotSpinIsometry:
        # the other sign convention of the off-diagonal entries
        boost = np.array([[ch, sh], [sh, ch]])
        f = factor_isometry(boost, m)
    assert np.allclose(isometry_of(f, m), boost, atol=1e-10)
