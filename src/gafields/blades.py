"""Blade-level engine shared by the numeric and symbolic layers.

Multivectors at this level are sparse dicts {bitmask: scalar}; bit i-1 of
the mask set means generator e^i is present, and a mask stands for the
Grassmann blade with its indices in ascending order.  The scalars only
need +, -, * (with numbers on either side) and an is-zero test, so the
same routines serve numbers, real expressions and expression pairs.

`gen_mul` is the one Clifford step: e^i W = e^i ^ W + e^i _| W, a
generator times a multivector, the wedge plus the metric contraction.
A Grassmann blade a = e^i ^ B with lowest index i follows from
Chevalley's identity e^i ^ B = e^i B - e^i _| B, so the product of two
blades is a recurrence over `gen_mul` steps.  The symbolic layer builds
a chart's blade-product tables by that recurrence (`Chart.blade_product`,
and `Chart.wedge_product` at g = 0); the numeric layer runs the same
recurrence over whole arrays (`multivector.structure_tensor`), for the
Clifford product of a metric and, with g = 0, the exterior product.

This module is also the one place that knows blade grades and signs.
Every sign of a product, in both layers, is the one rule
`pass_sign(j, b)` = (-1)^(number of generators of b below e^j).
`grade_array(n)`, `pass_sign_array(n)` and `reversion_array(n)` are
read-only arrays built once per dimension, and `reversion_sign(k)` and
`star_inverse_sign(k, n, sgn g)` are the sign rules of whole grades.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .metric import ArgumentError


popcount = int.bit_count


def reversion_sign(k):
    """(-1)^(k(k-1)/2), the sign reversion gives a grade-k blade; k may
    be an int or an integer array."""
    return 1 - 2 * ((k // 2) % 2)


def star_inverse_sign(k, n: int, det_sign: int):
    """sgn(g) (-1)^(k(n+1)): the double Hodge star of a grade-k form in
    n dimensions is this sign times the form, so the inverse star of a
    grade-k form is this sign times its star; k may be an int or an
    integer array."""
    return det_sign * (1 - 2 * (k * (n + 1) % 2))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def grade_array(n: int) -> np.ndarray:
    """Grade of every blade mask 0 .. 2^n - 1."""
    return _frozen(np.array([m.bit_count() for m in range(1 << n)]))


def pass_sign(j: int, b: int) -> int:
    """(-1)^(number of generators of b below e^j), the sign e^j takes in
    passing them: the sign of e^j ^ e_b for j not in b, and, for j in b,
    of bringing e^j to the front of e_b to contract it out."""
    return 1 - 2 * (popcount(b & ((1 << (j - 1)) - 1)) & 1)


@lru_cache(maxsize=None)
def pass_sign_array(n: int) -> np.ndarray:
    """`pass_sign(j, b)` at [j - 1, b], for j = 1 .. n and every blade
    mask b 0 .. 2^n - 1."""
    return _frozen(np.array([[pass_sign(j, b) for b in range(1 << n)]
                             for j in range(1, n + 1)]))


@lru_cache(maxsize=None)
def reversion_array(n: int) -> np.ndarray:
    """Reversion sign of every blade mask 0 .. 2^n - 1."""
    return _frozen(reversion_sign(grade_array(n)))


def blade_indices(mask: int):
    """Ascending 1-based generator indices of a blade mask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def mask_of(indices) -> int:
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if mask & bit:
            raise ArgumentError(f"repeated index {i}")
        mask |= bit
    return mask


def wedge_sign(a: int, b: int) -> int:
    """Sign of merging two disjoint ascending blades a, b into a | b: each
    generator of a passes the generators of b below it."""
    sign = 1
    for j in blade_indices(a):
        sign *= pass_sign(j, b)
    return sign


def is_zero(s) -> bool:
    if isinstance(s, (int, float, complex)):
        return s == 0
    return s.is_zero()


def add_term(d: dict, mask: int, value) -> None:
    cur = d.get(mask)
    d[mask] = value if cur is None else cur + value


def gen_mul(i: int, w: dict, g) -> dict:
    """Clifford product e^i * W for a multivector W in the Grassmann basis.

    Splits into the exterior part e^i ^ W and the metric contraction of
    e^i into each blade; g(i, j) supplies the scalar g^{ij}.
    """
    out: dict = {}
    for mask, c in w.items():
        if is_zero(c):
            continue
        # e^i ^ (blade containing i) = 0: only its contractions survive
        if not (mask >> (i - 1)) & 1:
            add_term(out, mask | (1 << (i - 1)),
                     c if pass_sign(i, mask) > 0 else -c)
        for j in blade_indices(mask):
            gij = g(i, j)
            if not is_zero(gij):
                term = gij * c
                add_term(out, mask ^ (1 << (j - 1)),
                         term if pass_sign(j, mask) > 0 else -term)
    return out
