"""Multivector core: wedge, Clifford product, bases, grading."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gafields import blades
from gafields.metric import ArgumentError, new_metric
from gafields.multivector import (
    CLIFFORD,
    GRASSMANN,
    Multivector,
    NumericError,
    basis_convert,
    build_product_table,
    clifford_via_star,
    conjugate_star,
    exp_mv,
    grade_masks,
    grade_project,
    reversion,
    scalar_product,
    structure_tensor,
    trace,
    wedge,
)
from gafields.checks import (constant_field, flat_minkowski_chart,
                             random_kform, random_metric)
from gafields.manifold import conjugate_field, reversion_field
from conftest import random_metric_signed
from helpers import (clifford_mul_dicts, generator_step, grassmann_to_chains,
                     order_sign, random_mv)


def blade(n, idx):
    return Multivector.blade(n, idx)


# ---------------------------------------------------------------------------
# wedge product

def test_wedge_antisymmetry_oracle():
    n = 4
    e1, e2 = blade(n, [1]), blade(n, [2])
    assert (wedge(e1, e2) + wedge(e2, e1)).norm() == 0.0
    assert wedge(e1, e1).norm() == 0.0


def test_wedge_permutation_sign():
    # e^3 ^ e^1 ^ e^2 = +e^{123}: the permutation (3,1,2) is even
    n = 3
    w = wedge(wedge(blade(n, [3]), blade(n, [1])), blade(n, [2]))
    assert (w - blade(n, [1, 2, 3])).norm() == 0.0
    # odd permutation flips the sign
    w = wedge(wedge(blade(n, [2]), blade(n, [1])), blade(n, [3]))
    assert (w + blade(n, [1, 2, 3])).norm() == 0.0


def test_sign_rule_is_an_inversion_parity(rng):
    # every sign of a product is `blades.pass_sign`; against the parity of
    # index lists, for every generator and blade up to n = 6: the rule,
    # its array, `wedge_sign`, and the one Clifford step `gen_mul` against
    # the test's own generator step, on a dense metric
    for n in range(1, 7):
        size = 1 << n
        array = blades.pass_sign_array(n)
        gu = random_metric(n, rng).g_upper
        g = lambda i, j: gu[i - 1, j - 1]
        for b in range(size):
            idx = blades.blade_indices(b)
            for j in range(1, n + 1):
                want = order_sign([j] + [x for x in idx if x != j])
                assert blades.pass_sign(j, b) == array[j - 1, b] == want
                assert blades.gen_mul(j, {b: 1.0}, g) == \
                    generator_step(j, {b: 1.0}, g)
            for a in range(size):
                if not a & b:
                    assert blades.wedge_sign(a, b) == \
                        order_sign(blades.blade_indices(a) + idx)


def test_zero_form_tensor_is_wedge_sign():
    # the structure tensor of g = 0 holds the sign of e_a ^ e_b at
    # [a, a | b, b] for disjoint a, b, and nothing else
    for n in range(1, 7):
        size = 1 << n
        want = np.zeros((size, size, size))
        for a in range(size):
            for b in range(size):
                if not a & b:
                    want[a, a | b, b] = order_sign(blades.blade_indices(a)
                                                   + blades.blade_indices(b))
        assert np.array_equal(structure_tensor(np.zeros((n, n))), want)


def test_wedge_associative_random(rng):
    for n in (3, 4, 5):
        u, v, w = (random_mv(n, rng) for _ in range(3))
        lhs = wedge(wedge(u, v), w)
        rhs = wedge(u, wedge(v, w))
        assert (lhs - rhs).norm() < 1e-12 * max(1.0, lhs.norm())


def test_wedge_graded_commutativity(rng):
    n = 5
    for p, q in itertools.product(range(n + 1), repeat=2):
        u = random_kform(n, p, rng)
        v = random_kform(n, q, rng)
        sign = -1.0 if (p * q) % 2 else 1.0
        assert (wedge(u, v) - sign * wedge(v, u)).norm() < 1e-12


# ---------------------------------------------------------------------------
# Clifford product

def test_generator_relation(rng):
    for n in (2, 3, 4):
        m = random_metric(n, rng)
        t = build_product_table(m)
        e = Multivector.unit(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = t.mul(blade(n, [i]), blade(n, [j])) \
                    + t.mul(blade(n, [j]), blade(n, [i]))
                assert (got - 2 * m.g_upper[i - 1, j - 1] * e).norm() < 1e-12


def test_clifford_associativity(rng):
    for n in (2, 3, 4, 5):
        m = random_metric(n, rng)
        t = build_product_table(m)
        u, v, w = (random_mv(n, rng) for _ in range(3))
        lhs = t.mul(t.mul(u, v), w)
        rhs = t.mul(u, t.mul(v, w))
        assert (lhs - rhs).norm() < 1e-10 * max(1.0, lhs.norm())


def reference_metrics(n, rng):
    """A diagonal metric, dense ones with det g > 0 and det g < 0, and
    for n > 2 the last of these with g^{1j} = 0 for j > 1."""
    diag = new_metric(np.diag(rng.uniform(0.5, 2.0, n)
                              * rng.choice([-1.0, 1.0], n)),
                      convention="upper")
    ms = [diag, random_metric_signed(n, rng, 1), random_metric_signed(n, rng, -1)]
    if n > 2:
        g = np.array(ms[-1].g_upper)
        g[0, 1:] = g[1:, 0] = 0.0
        ms.append(new_metric(g, convention="upper"))
    return ms


def clifford_to_grassmann_blade(mask, g) -> dict:
    """Clifford monomial `mask` over Grassmann blades: the chain
    expansion of `grassmann_to_chains` with all-plus signs, which
    is that expansion for the metric -g."""
    return grassmann_to_chains(mask, lambda i, j: -g(i, j))


def test_structure_tensor_matches_chain_kernel(rng):
    # the blade-chain kernel of the symbolic layer is the reference
    for n in range(1, 7):
        for m in reference_metrics(n, rng):
            left = build_product_table(m).left
            g = lambda i, j: float(m.g_upper[i - 1, j - 1])
            # the generator slices are the test's own generator steps, bit
            # for bit
            for i in range(1, n + 1):
                want = np.zeros((1 << n, 1 << n))
                for b in range(1 << n):
                    for c, val in generator_step(i, {b: 1.0}, g).items():
                        want[c, b] = val
                assert np.array_equal(left[1 << (i - 1)], want)
            for a in range(1 << n):
                for b in range(1 << n):
                    want = np.zeros(1 << n)
                    for c, val in clifford_mul_dicts(
                            {a: 1.0}, {b: 1.0}, g).items():
                        want[c] += val
                    got = left[a][:, b]  # left[a] @ e_b
                    scale = max(1.0, np.abs(want).max())
                    assert np.abs(got - want).max() <= 1e-12 * scale


def test_basis_matrices_match_chain_kernel(rng):
    for n in range(1, 7):
        for m in reference_metrics(n, rng):
            t = build_product_table(m)
            g = lambda i, j: float(m.g_upper[i - 1, j - 1])
            c2g, g2c = (t.clifford_to_grassmann_matrix,
                        t.grassmann_to_clifford_matrix)
            for got, convert in ((c2g, clifford_to_grassmann_blade),
                                 (g2c, grassmann_to_chains)):
                want = np.zeros_like(got)
                for b in range(1 << n):
                    for c, val in convert(b, g).items():
                        want[c, b] = val
                scale = max(1.0, np.abs(want).max())
                assert np.abs(got - want).max() <= 1e-12 * scale
            assert np.abs(g2c @ c2g - np.eye(1 << n)).max() <= 1e-12


def test_table_dimension_guard():
    with pytest.raises(ArgumentError):
        build_product_table(new_metric(np.eye(9)))
    u = np.zeros(1 << 9)
    with pytest.raises(ArgumentError):
        wedge(u, u)


def test_unit_is_identity(rng):
    m = random_metric(3, rng)
    t = build_product_table(m)
    u = random_mv(3, rng)
    e = Multivector.unit(3)
    assert (t.mul(e, u) - u).norm() < 1e-14
    assert (t.mul(u, e) - u).norm() < 1e-14


def test_example_product_e13_e234(rng):
    # e^{13} e^{234} = -g^{33} e^{124} + 2 g^{23} e^{134} in the Clifford basis
    m = random_metric(4, rng)
    g = m.g_upper
    u = basis_convert(blade(4, [1, 3]), CLIFFORD, GRASSMANN, m)
    v = basis_convert(blade(4, [2, 3, 4]), CLIFFORD, GRASSMANN, m)
    prod = basis_convert(build_product_table(m).mul(u, v),
                         GRASSMANN, CLIFFORD, m)
    want = -g[2, 2] * blade(4, [1, 2, 4]) + 2 * g[1, 2] * blade(4, [1, 3, 4])
    assert (prod - want).norm() < 1e-12


def test_example_product_grassmann_pair(rng):
    # (e^1^e^3)(e^2^e^3) = -g33 e^1^e^2 + g23 e^1^e^3 - g13 e^2^e^3
    #                      + (g13 g23 - g12 g33) e
    m = random_metric(3, rng)
    g = m.g_upper
    t = build_product_table(m)
    prod = t.mul(blade(3, [1, 3]), blade(3, [2, 3]))
    want = (-g[2, 2] * blade(3, [1, 2]) + g[1, 2] * blade(3, [1, 3])
            - g[0, 2] * blade(3, [2, 3])
            + (g[0, 2] * g[1, 2] - g[0, 1] * g[2, 2]) * Multivector.unit(3))
    assert (prod - want).norm() < 1e-13


# ---------------------------------------------------------------------------
# basis conversion

def test_diagonal_metric_bases_coincide(rng):
    m = new_metric(np.diag([1.0, -1.0, 1.0]), convention="upper")
    u = random_mv(3, rng)
    assert (basis_convert(u, GRASSMANN, CLIFFORD, m) - u).norm() < 1e-14


def test_basis_round_trip(rng):
    for n in range(1, 7):
        m = random_metric(n, rng)
        for mask in range(1 << n):
            u = Multivector.blade(n, blades.blade_indices(mask), 1.0)
            back = basis_convert(basis_convert(u, CLIFFORD, GRASSMANN, m),
                                 GRASSMANN, CLIFFORD, m)
            assert (back - u).norm() < 1e-12


def test_conversion_two_blade_oracle(rng):
    # e^{i1 i2} = e^{i1} ^ e^{i2} + g^{i1 i2} e
    m = random_metric(4, rng)
    for i, j in itertools.combinations(range(1, 5), 2):
        got = basis_convert(blade(4, [i, j]), CLIFFORD, GRASSMANN, m)
        want = blade(4, [i, j]) + m.g_upper[i - 1, j - 1] * Multivector.unit(4)
        assert (got - want).norm() < 1e-13


def test_basis_tag_guard(rng):
    m = random_metric(2, rng)
    with pytest.raises(ArgumentError):
        basis_convert(random_mv(2, rng), "fourier", GRASSMANN, m)


# ---------------------------------------------------------------------------
# grading, involutions, trace

def ref_grade(mask):
    return bin(mask).count("1")


def test_grade_decomposition(rng):
    # the grade arrays against per-mask reference loops, every mask to n = 8
    for n in range(9):
        grades = blades.grade_array(n)
        assert not grades.flags.writeable
        assert grades.tolist() == [ref_grade(mask) for mask in range(1 << n)]
        u = random_mv(n, rng)
        total = Multivector(n)
        for k in range(n + 1):
            part = grade_project(u, k)
            masks = [mask for mask in range(1 << n) if ref_grade(mask) == k]
            assert grade_masks(n, k) == masks
            for mask in range(1 << n):
                want = u.coeffs[mask] if ref_grade(mask) == k else 0.0
                assert part.coeffs[mask] == want
            total = total + part
        assert (total - u).norm() == 0.0
        for mask in range(1 << n):
            e = Multivector.blade(n, blades.blade_indices(mask), 1.0 + 2.0j)
            assert e.grades() == [ref_grade(mask)]
            assert e.is_even() == (ref_grade(mask) % 2 == 0)


def test_reversion_signs(rng):
    n = 4
    signs = [1, 1, -1, -1, 1]  # (-1)^{k(k-1)/2} read off by grade
    for k in range(n + 1):
        masks = grade_masks(n, k)
        u = Multivector.blade(n, blades.blade_indices(masks[0]), 1.0 + 2.0j)
        assert (reversion(u) - signs[k] * u).norm() == 0.0
        got = conjugate_star(u)
        want = signs[k] * Multivector.blade(
            n, blades.blade_indices(masks[0]), 1.0 - 2.0j)
        assert (got - want).norm() == 0.0
    # every mask to n = 8 against the per-mask rule
    for n in range(9):
        assert not blades.reversion_array(n).flags.writeable
        u = random_mv(n, rng)
        rev, conj = reversion(u), conjugate_star(u)
        for mask in range(1 << n):
            k = ref_grade(mask)
            sign = (-1) ** (k * (k - 1) // 2)
            assert blades.reversion_sign(k) == sign
            assert blades.reversion_array(n)[mask] == sign
            assert rev.coeffs[mask] == sign * u.coeffs[mask]
            assert conj.coeffs[mask] == sign * u.coeffs[mask].conjugate()
    # the symbolic involutions agree with the numeric ones on a constant field
    chart = flat_minkowski_chart()
    u = random_mv(4, rng)
    p = chart.midpoint()
    field = constant_field(chart, u)
    assert (reversion_field(field).eval_at(p) - reversion(u)).norm() == 0.0
    assert (conjugate_field(field).eval_at(p) - conjugate_star(u)).norm() == 0.0


def test_reversion_antihomomorphism(rng):
    m = random_metric(4, rng)
    t = build_product_table(m)
    u, v = random_mv(4, rng), random_mv(4, rng)
    lhs = reversion(t.mul(u, v))
    rhs = t.mul(reversion(v), reversion(u))
    assert (lhs - rhs).norm() < 1e-11


def test_trace_of_commutator_vanishes(rng):
    m = random_metric(4, rng)
    t = build_product_table(m)
    u, v = random_mv(4, rng), random_mv(4, rng)
    assert abs(trace(t.mul(u, v)) - trace(t.mul(v, u))) < 1e-11


def test_scalar_product_hermitian(rng):
    m = random_metric(3, rng)
    t = build_product_table(m)
    u, v = random_mv(3, rng), random_mv(3, rng)
    assert abs(scalar_product(u, v, t)
               - np.conj(scalar_product(v, u, t))) < 1e-12


# ---------------------------------------------------------------------------
# product via star tables

def test_tables_match_direct_product(rng):
    for n in (2, 3, 4):
        for sign in (1, -1):
            m = random_metric_signed(n, rng, sign)
            t = build_product_table(m)
            for r, s in itertools.product(range(n + 1), repeat=2):
                for _ in range(3):
                    u = random_kform(n, r, rng)
                    v = random_kform(n, s, rng)
                    assert (clifford_via_star(u, v, m)
                            - t.mul(u, v)).norm() < 1e-10


def test_tables_dimension_guard(rng):
    m = random_metric(5, rng)
    with pytest.raises(ArgumentError):
        clifford_via_star(random_kform(5, 2, rng), random_kform(5, 2, rng), m)


# ---------------------------------------------------------------------------
# exponential

def test_exp_rotation_oracle():
    # exp(t e^{12}) = cos t + sin t e^{12} in the Euclidean plane
    m = new_metric(np.eye(2))
    t = 0.77
    got = exp_mv(t * blade(2, [1, 2]), build_product_table(m))
    want = np.cos(t) * Multivector.unit(2) + np.sin(t) * blade(2, [1, 2])
    assert (got - want).norm() < 1e-14


def test_exp_boost_oracle():
    # (e^{12})^2 = +1 for signature (+,-): exp gives cosh/sinh
    m = new_metric(np.diag([1.0, -1.0]))
    t = 0.43
    got = exp_mv(t * blade(2, [1, 2]), build_product_table(m))
    want = np.cosh(t) * Multivector.unit(2) + np.sinh(t) * blade(2, [1, 2])
    assert (got - want).norm() < 1e-14


def test_exp_diverges_cleanly(rng):
    m = new_metric(np.eye(2))
    with pytest.raises(NumericError):
        exp_mv(1e6 * random_mv(2, rng), build_product_table(m))


# ---------------------------------------------------------------------------
# generators and blade signs

def test_random_kform_matches_per_mask_draws():
    # one batched draw gives the stream of a real-then-imaginary draw per
    # mask, bit for bit, and leaves the generator where the loop does
    for n in range(1, 6):
        for k in range(n + 1):
            rng = np.random.default_rng(n * 10 + k)
            ref_rng = np.random.default_rng(n * 10 + k)
            got = random_kform(n, k, rng)
            want = np.zeros(1 << n, dtype=complex)
            for mask in grade_masks(n, k):
                want[mask] = ref_rng.normal() + 1j * ref_rng.normal()
            assert np.array_equal(got.coeffs, want)
            assert rng.normal() == ref_rng.normal()


@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=80, deadline=None)
def test_wedge_blade_signs_exhaustive(a, b, c):
    # pairwise wedge of basis blades in n=3: nonzero iff disjoint masks
    n = 3
    u = Multivector.blade(n, blades.blade_indices(a), 1.0)
    v = Multivector.blade(n, blades.blade_indices(b), 1.0)
    w = wedge(u, v)
    if a & b:
        assert w.norm() == 0.0
    else:
        nz = np.nonzero(w.coeffs)[0]
        assert list(nz) == [a | b]
        assert abs(w.coeffs[a | b]) == 1.0
