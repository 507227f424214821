"""Spin group of the exterior algebra and its two-to-one cover of the
special orthogonal group.

A spin element is an even real form F with F F* = e.  Conjugation
U -> F* U F preserves grade 1 and acts there as an isometry of the
metric; factor_isometry inverts that map up to the overall sign.
"""

from __future__ import annotations

import numpy as np

from .metric import ArgumentError, Metric, is_isometry
from . import blades
from .multivector import (
    Multivector,
    build_product_table,
    clifford_mul,
    conjugate_star,
    exp_mv,
    grade_project,
    grade_masks,
)

SPIN_TOL = 1e-9
FACTOR_TOL = 1e-8  # relative singular-value and F F* = e tolerance


class NotSpinIsometry(ValueError):
    """Raised when an isometry has no preimage in the spin group."""


def is_spin_member(f: Multivector, m: Metric, tol: float = SPIN_TOL) -> bool:
    if f.dim != m.dim:
        raise ArgumentError("dimension mismatch")
    if not f.is_real(tol) or not f.is_even(tol):
        return False
    table = build_product_table(m)
    unit_defect = clifford_mul(f, conjugate_star(f), table) - Multivector.unit(f.dim)
    if unit_defect.norm() > tol:
        return False
    if m.dim >= 6:
        # grade preservation is automatic only for dim <= 5
        for i in range(1, m.dim + 1):
            img = adjoint_action(f, Multivector.blade(m.dim, [i]), m)
            rest = img - grade_project(img, 1)
            if rest.norm() > tol:
                return False
    return True


def adjoint_action(f: Multivector, u: Multivector, m: Metric) -> Multivector:
    """The twisted conjugation U -> F* U F."""
    table = build_product_table(m)
    return clifford_mul(clifford_mul(conjugate_star(f), u, table), f, table)


def isometry_of(f: Multivector, m: Metric) -> np.ndarray:
    """Matrix P with F* e^i F = P[i][j] e^j, rows indexed by i."""
    n = m.dim
    p = np.zeros((n, n))
    for i in range(1, n + 1):
        img = adjoint_action(f, Multivector.blade(n, [i]), m)
        rest = img - grade_project(img, 1)
        scale = max(img.norm(), 1.0)
        if rest.norm() > SPIN_TOL * scale or \
                np.abs(img.coeffs.imag).max() > SPIN_TOL * scale:
            raise ArgumentError("conjugation does not preserve grade 1, "
                                "not a spin element")
        for j in range(1, n + 1):
            p[i - 1, j - 1] = img.coeffs[1 << (j - 1)].real
    return p


def factor_isometry(p: np.ndarray, m: Metric) -> Multivector:
    """Find a spin element F with F* e^i F = p[i][j] e^j.

    Solves the equivalent linear condition e^i F = F (p[i][j] e^j) on the
    even subalgebra; the nullspace is one-dimensional when a preimage
    exists, and F is fixed by rescaling to F F* = e.  Raises
    NotSpinIsometry when no solution exists (including improper isometries,
    where only F F* = -e solutions occur).
    """
    n = m.dim
    p = np.asarray(p, dtype=float)
    if p.shape != (n, n):
        raise ArgumentError(f"expected a {n}x{n} matrix")
    if not is_isometry(m, p):
        raise ArgumentError("matrix is not an isometry of the metric")
    table = build_product_table(m)
    parity = blades.grade_array(n) % 2
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity)
    full = len(even)
    gens = [1 << j for j in range(n)]
    # right_gens[a, c, j]: coefficient of c in e_a e^j, so x -> x e^j is
    # right_gens[:, :, j].T
    right_gens = table.left[:, :, gens]

    rows = []
    for i in range(n):
        diff = table.left[gens[i]] - (right_gens @ p[i]).T
        # odd-grade output components of (e^i F - F p e) on even input
        rows.append(diff[np.ix_(odd, even)])
    system = np.vstack(rows)

    _, s, vt = np.linalg.svd(system)
    cutoff = FACTOR_TOL * max(s[0] if s.size else 1.0, 1.0)
    null_dim = full - np.count_nonzero(s > cutoff)
    if null_dim < 1:
        raise NotSpinIsometry("no even form intertwines this isometry")

    for idx in range(full - null_dim, full):
        coeffs = np.zeros(1 << n, dtype=complex)
        coeffs[even] = vt[idx]
        f = Multivector._of(n, coeffs)
        ff = clifford_mul(f, conjugate_star(f), table)
        rest = ff - grade_project(ff, 0)
        scale = complex(ff.coeffs[0])
        if rest.norm() > FACTOR_TOL * max(abs(scale), 1.0) \
                or abs(scale.imag) > FACTOR_TOL:
            continue
        if scale.real > FACTOR_TOL:
            f = f * (1.0 / np.sqrt(scale.real))
            # normalize the overall sign: largest coefficient positive
            if f.coeffs[np.argmax(np.abs(f.coeffs))].real < 0:
                f = -f
            return f
    raise NotSpinIsometry("isometry lifts only to F F* = -e, "
                          "not in the spin group")


def random_spin_element(m: Metric, rng: np.random.Generator,
                        scale: float = 1.0) -> Multivector:
    """Exponential of a random real bivector, a spin element by construction."""
    n = m.dim
    b = Multivector(n)
    masks = grade_masks(n, 2)
    b.coeffs[masks] = scale * rng.normal(size=len(masks))
    return exp_mv(b, build_product_table(m))
