"""Stacked coefficient arrays: every kernel on a stack (..., 2^n) against
its one-element call, bad rows, and block draws against per-sample
streams."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gafields.checks import (draw_samples, kform_sample, mv_sample,
                             random_kform, random_metric)
from gafields.dirac import gamma_matrices, multivector_from_matrix, rep_map
from gafields.metric import (ArgumentError, MetricStack, is_isometry,
                             new_metric)
from gafields.multivector import (CLIFFORD, GRASSMANN, DimensionMismatch,
                                  Multivector, NumericError, basis_convert,
                                  build_product_table, clifford_via_star,
                                  conjugate_star, exp_mv, grade_masks,
                                  grade_project, hodge_star,
                                  hodge_star_components, reversion,
                                  scalar_product, star_inverse,
                                  structure_tensor, wedge)
from gafields.spin import (adjoint_action, factor_isometry, isometry_of,
                           random_spin_element, spin_sample)
from helpers import random_mv

# n = 1..6 with stacks of 1 and 3 rows, and one case with two leading axes
SHAPES = [(n, (rows,)) for n in range(1, 7) for rows in (1, 3)] + [(3, (2, 3))]
SEEDS = st.integers(0, 2**32 - 1)


@functools.lru_cache(maxsize=None)
def metric(n):
    """One random metric per dimension, so each table is built once."""
    return random_metric(n, np.random.default_rng(n))


@functools.lru_cache(maxsize=None)
def signature(n):
    return new_metric(np.diag([(-1.0) ** i for i in range(n)]))


def rows_of(stack):
    """(index, row) over the leading axes of a stack."""
    return [(idx, stack[idx]) for idx in np.ndindex(stack.shape[:-1])]


def assert_rows(stacked, one, *stacks):
    """Row idx of `stacked` equals `one` applied to row idx of each stack,
    to rounding (a stack and a single row take different BLAS calls)."""
    for idx, _ in rows_of(stacks[0]):
        want = one(*(Multivector._of(s.shape[-1].bit_length() - 1, s[idx])
                     for s in stacks))
        want = want.coeffs if isinstance(want, Multivector) else want
        np.testing.assert_allclose(stacked[idx], want, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(want).max()))


def draw(n, shape, seed, count=1):
    rng = np.random.default_rng(seed)
    return [mv_sample(n, rng.normal(size=shape + (2 << n,)))
            for _ in range(count)]


@pytest.mark.parametrize("n, shape", SHAPES)
@given(seed=SEEDS)
@settings(max_examples=3, deadline=None)
def test_algebra_kernels_match_rows(n, shape, seed):
    m = metric(n)
    t = build_product_table(m)
    u, v = draw(n, shape, seed, 2)
    k = seed % (n + 1)
    for stacked, one, args in [
            (t.mul(u, v), t.mul, (u, v)),
            (wedge(u, v), wedge, (u, v)),
            (grade_project(u, k), lambda a: grade_project(a, k), (u,)),
            (reversion(u), reversion, (u,)),
            (conjugate_star(u), conjugate_star, (u,)),
            (scalar_product(u, v, t), lambda a, b: scalar_product(a, b, t),
             (u, v)),
            (basis_convert(u, GRASSMANN, CLIFFORD, m),
             lambda a: basis_convert(a, GRASSMANN, CLIFFORD, m), (u,)),
            (basis_convert(u, CLIFFORD, GRASSMANN, m),
             lambda a: basis_convert(a, CLIFFORD, GRASSMANN, m), (u,)),
            (hodge_star(u, m), lambda a: hodge_star(a, m), (u,)),
            (hodge_star_components(u, m),
             lambda a: hodge_star_components(a, m), (u,)),
            (star_inverse(u, m), lambda a: star_inverse(a, m), (u,)),
            (exp_mv(0.3 * u, t), lambda a: exp_mv(a, t), (0.3 * u,))]:
        assert stacked.shape == shape + (() if stacked.ndim == len(shape)
                                         else (1 << n,))
        assert_rows(stacked, one, *args)


@pytest.mark.parametrize("n, shape", SHAPES)
@given(seed=SEEDS)
@settings(max_examples=2, deadline=None)
def test_spin_kernels_match_rows(n, shape, seed):
    m = signature(n)
    rng = np.random.default_rng(seed)
    f = spin_sample(m, rng.normal(size=shape + (len(grade_masks(n, 2)),)),
                    0.5)
    (u,) = draw(n, shape, seed + 1)
    assert_rows(adjoint_action(f, u, m),
                lambda a, b: adjoint_action(a, b, m), f, u)
    p = isometry_of(f, m)
    assert p.shape == shape + (n, n)
    g = factor_isometry(p, m)
    for idx, row in rows_of(f):
        one = Multivector._of(n, row)
        np.testing.assert_allclose(p[idx], isometry_of(one, m), atol=1e-12)
        np.testing.assert_allclose(g[idx], factor_isometry(p[idx], m).coeffs,
                                   atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
@given(seed=SEEDS)
@settings(max_examples=4, deadline=None)
def test_via_star_matches_rows(n, seed):
    m = metric(n)
    rng = np.random.default_rng(seed)
    r, s = rng.integers(n + 1, size=2)
    zu, zv = draw_samples(rng, 3, 2 * len(grade_masks(n, r)),
                          2 * len(grade_masks(n, s)))
    u, v = kform_sample(n, r, zu), kform_sample(n, s, zv)
    assert_rows(clifford_via_star(u, v, m),
                lambda a, b: clifford_via_star(a, b, m), u, v)


@given(seed=SEEDS)
@settings(max_examples=5, deadline=None)
def test_dirac_kernels_match_rows(seed):
    rep = gamma_matrices()
    (u,) = draw(4, (2, 3), seed)
    mats = rep_map(u, rep)
    assert mats.shape == (2, 3, 4, 4)
    back = multivector_from_matrix(mats, rep)
    for idx, row in rows_of(u):
        one = rep_map(Multivector._of(4, row), rep)
        np.testing.assert_allclose(mats[idx], one, atol=1e-12)
        np.testing.assert_allclose(
            back[idx], multivector_from_matrix(one, rep).coeffs, atol=1e-12)


def signature_stack(n):
    """The 2^n diagonal signatures, as `suite_spin` stacks them."""
    return [new_metric(np.diag(sig))
            for sig in itertools.product((1.0, -1.0), repeat=n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_structure_tensor_of_a_stack_is_the_stack_of_tensors(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(3, n, n))
    forms = np.concatenate([a + np.swapaxes(a, -1, -2),
                            [m.g_upper for m in signature_stack(n)],
                            np.zeros((1, n, n))])
    # a zero entry in one form only, of either sign
    forms[0, 0, 1] = forms[0, 1, 0] = 0.0
    forms[1, 0, 1] = forms[1, 1, 0] = -0.0
    stacked = structure_tensor(forms)
    assert stacked.shape == (len(forms),) + (1 << n,) * 3
    for form, tensor in zip(forms, stacked):
        one = structure_tensor(form)
        assert one.tobytes() == tensor.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("rows", [1, 3])
def test_spin_kernels_on_a_table_stack_match_each_signature(n, rows):
    # every row gets the bits it gets on its own signature's table
    metrics = signature_stack(n)
    stack = MetricStack(metrics)
    rng = np.random.default_rng(10 * n + rows)
    z = rng.normal(size=(len(metrics), rows, len(grade_masks(n, 2))))
    (u,) = draw(n, (len(metrics), rows), n)
    f = spin_sample(stack, z, 0.6)
    img = adjoint_action(f, u, stack)
    p = isometry_of(f, stack)
    g = factor_isometry(p, stack)
    assert f.shape == img.shape == g.shape == (len(metrics), rows, 1 << n)
    assert p.shape == (len(metrics), rows, n, n)
    for s, m in enumerate(metrics):
        for got, want in [(f[s], spin_sample(m, z[s], 0.6)),
                          (img[s], adjoint_action(f[s], u[s], m)),
                          (p[s], isometry_of(f[s], m)),
                          (g[s], factor_isometry(p[s], m))]:
            assert got.tobytes() == want.tobytes()
    assert np.array_equal(is_isometry(stack, p),
                          [is_isometry(m, p[s]) for s, m in enumerate(metrics)])


def test_a_stack_product_pairs_each_table_with_its_rows():
    metrics = signature_stack(2)
    stack = build_product_table(MetricStack(metrics))
    # one row per table, a row for every table, and rows on more axes
    (u, v) = draw(2, (4,), 7, 2)
    (w,) = draw(2, (4, 2, 3), 8)
    for a, b in [(u, v), (u[0], v), (u, v[0]), (u[:, None, None], w),
                 (w, v[0])]:
        got = stack.mul(a, b)
        lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        assert got.shape == lead + (4,)
        for s, m in enumerate(metrics):
            # table s meets index s of the first broadcast leading axis
            at = [x.reshape((1,) * (len(lead) + 1 - x.ndim) + x.shape)
                  for x in (a, b)]
            want = build_product_table(m).mul(
                *(x[s if len(x) > 1 else 0] for x in at))
            assert got[s].tobytes() == want.tobytes()
    with pytest.raises(DimensionMismatch):
        stack.mul(u[0], v[0])  # no axis to meet the tables
    with pytest.raises(ArgumentError):
        MetricStack([new_metric(np.eye(2)), new_metric(np.eye(3))])
    with pytest.raises(ArgumentError):
        factor_isometry(np.eye(2), MetricStack(metrics))


def test_one_bad_row_raises_the_row_error():
    m = signature(3)
    rng = np.random.default_rng(3)
    f = spin_sample(m, rng.normal(size=(3, 3)), 0.5)
    p = isometry_of(f, m)
    p[1] = np.diag([2.0, 1.0, 1.0])
    with pytest.raises(ArgumentError):
        factor_isometry(np.diag([2.0, 1.0, 1.0]), m)
    with pytest.raises(ArgumentError):
        factor_isometry(p, m)

    t = build_product_table(new_metric(np.eye(2)))
    u = 0.3 * mv_sample(2, rng.normal(size=(3, 8)))
    u[2] *= 1e6
    with pytest.raises(NumericError):
        exp_mv(Multivector._of(2, u[2]), t)
    with pytest.raises(NumericError):
        exp_mv(u, t)
    # the good rows alone converge, each to its one-row result
    assert_rows(exp_mv(u[:2], t), lambda a: exp_mv(a, t), u[:2])


def test_block_draws_match_per_sample_streams():
    # one block draw is the stream of the per-sample loop, array for
    # array, and leaves the generator where the loop does
    for n in (2, 3, 4):
        widths = (len(grade_masks(n, 2)), 2 << n, 2 << n)
        block, loop = np.random.default_rng(n), np.random.default_rng(n)
        zf, zu, zv = draw_samples(block, 5, *widths)
        for i in range(5):
            assert np.array_equal(zf[i], loop.normal(size=widths[0]))
            assert np.array_equal(zu[i], loop.normal(size=widths[1]))
            assert np.array_equal(zv[i], loop.normal(size=widths[2]))
        assert block.normal() == loop.normal()

    # the samples are those of the per-sample generators
    for n in (2, 3, 4):
        block, loop = np.random.default_rng(n), np.random.default_rng(n)
        for r, s in itertools.product(range(n + 1), repeat=2):
            zu, zv = draw_samples(block, 4, 2 * len(grade_masks(n, r)),
                                  2 * len(grade_masks(n, s)))
            u, v = kform_sample(n, r, zu), kform_sample(n, s, zv)
            for i in range(4):
                assert np.array_equal(u[i], random_kform(n, r, loop).coeffs)
                assert np.array_equal(v[i], random_kform(n, s, loop).coeffs)
        zf, zu = draw_samples(block, 4, len(grade_masks(n, 2)), 2 << n)
        m = signature(n)
        f, u = spin_sample(m, zf, 0.6), mv_sample(n, zu)
        for i in range(4):
            want = random_spin_element(m, loop, 0.6).coeffs
            np.testing.assert_allclose(f[i], want, rtol=0, atol=1e-15)
            assert np.array_equal(u[i], random_mv(n, loop).coeffs)
        assert block.normal() == loop.normal()
