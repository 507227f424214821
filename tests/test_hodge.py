"""Hodge duality, volume form, exterior metric blocks."""

import itertools

import numpy as np
import pytest

from gafields.metric import minor, new_metric
from gafields.multivector import (
    Multivector,
    build_product_table,
    conjugate_star,
    exterior_metric_block,
    grade_masks,
    hodge_star,
    hodge_star_components,
    star_inverse,
    volume_form,
    wedge,
)
from gafields import blades
from gafields.checks import random_kform, random_metric
from helpers import random_mv


def test_euclidean_2d_oracle():
    m = new_metric(np.eye(2))
    e1, e2 = Multivector.blade(2, [1]), Multivector.blade(2, [2])
    assert (hodge_star(e1, m) - e2).norm() < 1e-15
    assert (hodge_star(e2, m) + e1).norm() < 1e-15
    assert (hodge_star(Multivector.unit(2), m)
            - Multivector.blade(2, [1, 2])).norm() < 1e-15


def test_euclidean_3d_oracle():
    m = new_metric(np.eye(3))
    pairs = {(1,): (2, 3), (2,): (3, 1)}
    star = hodge_star(Multivector.blade(3, [1]), m)
    assert (star - Multivector.blade(3, [2, 3])).norm() < 1e-15
    star = hodge_star(Multivector.blade(3, [2]), m)
    assert (star + Multivector.blade(3, [1, 3])).norm() < 1e-15


def test_volume_form_scaling(rng):
    m = random_metric(3, rng)
    vol = volume_form(m)
    top = Multivector.blade(3, [1, 2, 3])
    assert (vol - np.sqrt(m.abs_det) * top).norm() < 1e-13


def test_component_formula_matches_algebraic(rng):
    for n in (2, 3, 4, 5):
        m = random_metric(n, rng)
        for k in range(n + 1):
            u = random_kform(n, k, rng)
            a = hodge_star(u, m)
            b = hodge_star_components(u, m)
            assert (a - b).norm() < 1e-12


def test_double_star_sign(rng):
    for n in (2, 3, 4, 5):
        m = random_metric(n, rng)
        for k in range(n + 1):
            u = random_kform(n, k, rng)
            sign = m.sign * (-1.0 if (k * (n + 1)) % 2 else 1.0)
            assert (hodge_star(hodge_star(u, m), m) - sign * u).norm() < 1e-12


def test_star_inverse(rng):
    for n in (2, 3, 4, 5):
        m = random_metric(n, rng)
        u = random_mv(n, rng)
        assert (star_inverse(hodge_star(u, m), m) - u).norm() < 1e-12
        assert (hodge_star(star_inverse(u, m), m) - u).norm() < 1e-12


def test_volume_identities(rng):
    # I I = (-1)^{[n/2]} sgn(g) e: reversion of the top blade then *I = sgn e
    for n in (2, 3, 4, 5):
        m = random_metric(n, rng)
        t = build_product_table(m)
        vol = volume_form(m)
        got = t.mul(vol, vol)
        want = float((-1) ** (n // 2) * m.sign) * Multivector.unit(n)
        assert (got - want).norm() < 1e-12
        # *e = I and *I = sgn(g) e
        assert (hodge_star(Multivector.unit(n), m) - vol).norm() < 1e-12
        assert (hodge_star(vol, m)
                - float(m.sign) * Multivector.unit(n)).norm() < 1e-12


def test_wedge_with_dual_gives_pairing(rng):
    # u ^ *(v bar) = (-1)^{[k/2]} Tr(u v bar) I for same-grade forms
    for n in (3, 4):
        m = random_metric(n, rng)
        t = build_product_table(m)
        vol = volume_form(m)
        for k in range(n + 1):
            u = random_kform(n, k, rng)
            v = random_kform(n, k, rng)
            pairing = t.mul(u, conjugate_star(v)).coeffs[0]
            sign = (-1.0) ** (k // 2)
            got = wedge(u, hodge_star(conjugate_star(v), m))
            assert (got - sign * pairing * vol).norm() < 1e-11


def test_metric_blocks_are_minor_matrices(rng):
    for n in (2, 3, 4, 5):
        m = random_metric(n, rng)
        for k in range(n + 1):
            masks = grade_masks(n, k)
            block = exterior_metric_block(m, k)
            for a, ma in enumerate(masks):
                for b, mb in enumerate(masks):
                    want = minor(m, blades.blade_indices(ma),
                                 blades.blade_indices(mb))
                    assert abs(block[a, b] - want) < 1e-10


def test_blocks_match_scalar_pairing(rng):
    # the (a, b) block entry is the grade-0 part of t^a (t^b)*
    n = 3
    m = random_metric(n, rng)
    t = build_product_table(m)
    for k in range(n + 1):
        masks = grade_masks(n, k)
        block = exterior_metric_block(m, k)
        for a, ma in enumerate(masks):
            for b, mb in enumerate(masks):
                ta = Multivector.blade(n, blades.blade_indices(ma), 1.0)
                tb = Multivector.blade(n, blades.blade_indices(mb), 1.0)
                got = t.mul(ta, conjugate_star(tb)).coeffs[0]
                assert abs(got - block[a, b]) < 1e-11
