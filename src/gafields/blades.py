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
a chart's blade-product table by that recurrence (`Chart.blade_product`)
and takes `wedge_dicts` from here directly; the numeric layer runs the
same recurrence over whole arrays (`multivector.structure_tensor`), for
the Clifford product of a metric and, with g = 0, the exterior product.

This module is also the one place that knows blade grades and signs:
`grade_array(n)` and `reversion_array(n)` are read-only arrays built
once per dimension, and `reversion_sign(k)` and
`star_inverse_sign(k, n, sgn g)` are the sign rules themselves; the
numeric layer reads its grade projections, parities and involutions off
these arrays.
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
    """Sign of merging two disjoint ascending blades a, b into a | b."""
    swaps = 0
    rest = a
    bb = b
    i = 0
    while bb:
        if bb & 1:
            swaps += popcount(rest >> (i + 1))
        bb >>= 1
        i += 1
    return -1 if swaps & 1 else 1


def is_zero(s) -> bool:
    if isinstance(s, (int, float, complex)):
        return s == 0
    return s.is_zero()


def add_term(d: dict, mask: int, value) -> None:
    cur = d.get(mask)
    d[mask] = value if cur is None else cur + value


def wedge_dicts(u: dict, v: dict) -> dict:
    out: dict = {}
    for a, ca in u.items():
        if is_zero(ca):
            continue
        for b, cb in v.items():
            if a & b or is_zero(cb):
                continue
            s = wedge_sign(a, b)
            term = ca * cb
            add_term(out, a | b, term if s > 0 else -term)
    return out


def gen_mul(i: int, w: dict, g) -> dict:
    """Clifford product e^i * W for a multivector W in the Grassmann basis.

    Splits into the exterior part e^i ^ W and the metric contraction of
    e^i into each blade; g(i, j) supplies the scalar g^{ij}.
    """
    bit = 1 << (i - 1)
    out: dict = {}
    for mask, c in w.items():
        if is_zero(c):
            continue
        if not mask & bit:
            below = popcount(mask & (bit - 1))
            add_term(out, mask | bit, c if below % 2 == 0 else -c)
        else:
            # e^i ^ (blade containing i) = 0; only the contraction of the
            # repeated index survives, handled by the loop below.
            pass
        pos = 0
        mm = mask
        j = 1
        while mm:
            if mm & 1:
                pos += 1
                gij = g(i, j)
                if not is_zero(gij):
                    term = gij * c
                    add_term(out, mask ^ (1 << (j - 1)),
                             term if pos % 2 == 1 else -term)
            mm >>= 1
            j += 1
    return out
