"""Spin group of the exterior algebra and its two-to-one cover of the
special orthogonal group.

A spin element is an even real form F with F F* = e.  Conjugation
U -> F* U F preserves grade 1 and acts there as an isometry of the
metric; factor_isometry inverts that map up to the overall sign.  Like
the multivector operations, the adjoint action, `isometry_of` and
`factor_isometry` take one element or a stack of them, and
`spin_sample` gives a stack.  Each also runs on a `MetricStack`, with
one stacked table, for operands whose first axis runs over its metrics;
a row gets the bits it gets on its own metric.
"""

from __future__ import annotations

import numpy as np

from .metric import (ArgumentError, GafieldsError, Metric, MetricStack,
                     is_isometry)
from . import blades
from .multivector import (
    Multivector,
    coeffs_of,
    build_product_table,
    conjugate_star,
    exp_mv,
    grade_project,
    grade_masks,
    row_norm,
)

SPIN_TOL = 1e-9
FACTOR_TOL = 1e-8  # relative singular-value and F F* = e tolerance


class NotSpinIsometry(GafieldsError):
    """Raised when an isometry has no preimage in the spin group."""


def _generators(n: int) -> np.ndarray:
    """The n generators e^1 .. e^n as a stack (n, 2^n)."""
    return np.eye(1 << n)[[1 << j for j in range(n)]]


def is_spin_member(f: Multivector, m: Metric, tol: float = SPIN_TOL) -> bool:
    if f.dim != m.dim:
        raise ArgumentError("dimension mismatch")
    if not f.is_real(tol) or not f.is_even(tol):
        return False
    table = build_product_table(m)
    unit_defect = table.mul(f, conjugate_star(f)) - Multivector.unit(f.dim)
    if unit_defect.norm() > tol:
        return False
    if m.dim >= 6:
        # grade preservation is automatic only for dim <= 5
        img = adjoint_action(f.coeffs, _generators(m.dim), m)
        if np.any(row_norm(img - grade_project(img, 1)) > tol):
            return False
    return True


def adjoint_action(f, u, m: Metric | MetricStack):
    """The twisted conjugation U -> F* U F."""
    table = build_product_table(m)
    return table.mul(table.mul(conjugate_star(f), u), f)


def isometry_of(f, m: Metric | MetricStack) -> np.ndarray:
    """Matrix P with F* e^i F = P[i][j] e^j, rows indexed by i; a stack
    of elements (..., 2^n) gives a stack of matrices (..., n, n)."""
    n = m.dim
    gens = _generators(n)
    # img[..., i, :] = F* e^i F, all generators as one stack
    img = adjoint_action(coeffs_of(f)[..., None, :], gens, m)
    scale = np.maximum(row_norm(img), 1.0)
    if np.any(row_norm(img - grade_project(img, 1)) > SPIN_TOL * scale) or \
            np.any(np.abs(img.imag).max(axis=-1) > SPIN_TOL * scale):
        raise ArgumentError("conjugation does not preserve grade 1, "
                            "not a spin element")
    return img[..., [1 << j for j in range(n)]].real


def factor_isometry(p: np.ndarray, m: Metric | MetricStack):
    """Find a spin element F with F* e^i F = p[i][j] e^j.

    Solves the equivalent linear condition e^i F = F (p[i][j] e^j) on the
    even subalgebra; the nullspace is one-dimensional when a preimage
    exists, and F is fixed by rescaling to F F* = e.  Raises
    NotSpinIsometry when no solution exists (including improper isometries,
    where only F F* = -e solutions occur).  A stack of matrices
    (..., n, n) is solved with one stacked SVD and gives a stack of
    elements (..., 2^n); it raises if any matrix does.  On a
    `MetricStack` of S metrics, p has shape (S, ..., n, n).
    """
    n = m.dim
    p = np.asarray(p, dtype=float)
    table = build_product_table(m)
    lead = table.left.shape[:-3]  # (S,) on a stack, else ()
    if p.ndim < 2 + len(lead) or p.shape[-2:] != (n, n) \
            or p.shape[:len(lead)] != lead:
        raise ArgumentError(f"expected a {n}x{n} matrix" + (
            f", for each of {lead[0]} metrics on the first axis"
            if lead else ""))
    if not np.all(is_isometry(m, p)):
        raise ArgumentError("matrix is not an isometry of the metric")
    parity = blades.grade_array(n) % 2
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity)
    full = len(even)
    gens = [1 << j for j in range(n)]
    mats = p.reshape(lead + (-1, n, n))
    # the odd-grade output components of e^i F - F (p[i][j] e^j) on an
    # even input: left[e^i][c, a] less sum_j left[a, c, e^j] p[i][j],
    # with table s of a stack for the matrices at index s
    by_gen = table.left[(...,) + np.ix_(gens, odd, even)]
    on_gen = table.left[(...,) + np.ix_(even, odd, gens)]
    right = on_gen[..., None, None, :, :, :] @ mats[..., None, :, None]
    diff = by_gen[..., None, :, :, :] - np.swapaxes(right[..., 0], -1, -2)
    _, s, vt = np.linalg.svd(diff.reshape(-1, n * len(odd), full))
    count = len(vt)
    cutoff = FACTOR_TOL * np.maximum(s[:, 0], 1.0)
    null_dim = full - np.count_nonzero(s > cutoff[:, None], axis=1)
    if np.any(null_dim < 1):
        raise NotSpinIsometry("no even form intertwines this isometry")

    # each row takes the first null vector with F F* a positive scalar;
    # every row makes the j-th try on its own table (a row with fewer
    # null vectors on a stand-in), and it is kept where the row has a
    # j-th null vector and no F yet
    out = np.zeros((count, 1 << n), dtype=complex)
    found = np.zeros(count, dtype=bool)
    for j in range(null_dim.max()):
        f = np.zeros((count, 1 << n), dtype=complex)
        f[:, even] = vt[np.arange(count),
                        np.minimum(full - null_dim + j, full - 1)]
        stacked = f.reshape(lead + (-1, 1 << n))
        ff = table.mul(stacked, conjugate_star(stacked)).reshape(f.shape)
        scale = ff[:, 0]
        good = ~found & (null_dim > j) \
            & ~(row_norm(ff - grade_project(ff, 0))
                > FACTOR_TOL * np.maximum(np.abs(scale), 1.0)) \
            & ~(np.abs(scale.imag) > FACTOR_TOL) & (scale.real > FACTOR_TOL)
        out[good] = f[good] * (1.0 / np.sqrt(scale.real[good]))[:, None]
        found |= good
    if not found.all():
        raise NotSpinIsometry("isometry lifts only to F F* = -e, "
                              "not in the spin group")
    # normalize the overall sign: largest coefficient positive
    top = out[np.arange(count), np.argmax(np.abs(out), axis=1)]
    flip = top.real < 0
    out[flip] = -out[flip]
    if p.ndim == 2:
        return Multivector._of(n, out[0])
    return out.reshape(p.shape[:-2] + (1 << n,))


def spin_sample(m: Metric | MetricStack, z: np.ndarray,
                scale: float) -> np.ndarray:
    """Exponentials of real bivectors, spin elements by construction: row
    by row, the bivector's grade-2 coefficients are `scale` times the
    normals in z, in mask order."""
    b = np.zeros(z.shape[:-1] + (1 << m.dim,), dtype=complex)
    b[..., grade_masks(m.dim, 2)] = scale * z
    return exp_mv(b, build_product_table(m))


def random_spin_element(m: Metric, rng: np.random.Generator,
                        scale: float = 1.0) -> Multivector:
    """Exponential of a random real bivector, a spin element by construction."""
    z = rng.normal(size=len(grade_masks(m.dim, 2)))
    return Multivector._of(m.dim, spin_sample(m, z, scale))
