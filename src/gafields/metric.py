"""Symmetric nondegenerate metrics, minors and isometry tests, and
`GafieldsError`, the base of every error the package raises on an input
it rejects."""

from __future__ import annotations

import json

import numpy as np

SYMMETRY_RTOL = 1e-9
DEGENERACY_GATE = 1e-12
ISOMETRY_RTOL = 1e-9


class GafieldsError(ValueError):
    """An input gafields rejects."""


class MetricError(GafieldsError):
    pass


class ArgumentError(GafieldsError):
    pass


class Metric:
    """A nondegenerate symmetric metric with both index positions.

    Stores contravariant components ``g_upper`` (the g^{ij} used by the
    algebra layer), covariant components ``g_lower`` (their inverse),
    and determinant data of the covariant matrix.  Immutable after
    construction.
    """

    __slots__ = ("dim", "g_upper", "g_lower", "det_lower", "sign", "abs_det",
                 "_table")

    def __init__(self, g_upper: np.ndarray, g_lower: np.ndarray):
        self.dim = g_upper.shape[0]
        self.g_upper = g_upper
        self.g_lower = g_lower
        self.det_lower = float(np.linalg.det(g_lower))
        self.sign = 1 if self.det_lower > 0 else -1
        self.abs_det = abs(self.det_lower)
        self._table = None
        g_upper.setflags(write=False)
        g_lower.setflags(write=False)

    def __repr__(self):
        return f"Metric(dim={self.dim}, sign={self.sign}, abs_det={self.abs_det:.6g})"


class MetricStack:
    """Metrics of one dimension held as one stack: ``g_upper`` has shape
    (S, n, n).  `build_product_table` gives it one stacked table, on which
    the products, the exponential and the spin kernels act; their
    operands' first leading axis runs over the S metrics.  The basis
    changes, the volume form and the Hodge star need one Metric."""

    __slots__ = ("dim", "g_upper", "_table")

    def __init__(self, metrics):
        metrics = list(metrics)
        dims = {m.dim for m in metrics}
        if len(dims) != 1:
            raise ArgumentError(f"a metric stack needs metrics of one "
                                f"dimension, got {sorted(dims)}")
        self.dim = dims.pop()
        self.g_upper = np.stack([m.g_upper for m in metrics])
        self.g_upper.setflags(write=False)
        self._table = None


def _validated_symmetric(g: np.ndarray, name: str) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise MetricError(f"{name} must be a square matrix, got shape {g.shape}")
    if g.size == 0:
        raise MetricError(f"{name} has no entries")
    if not np.isfinite(g).all():
        raise MetricError(f"{name} has a non-finite entry")
    scale = np.abs(g).max()
    if scale == 0.0:
        raise MetricError(f"{name} is the zero matrix")
    # an overflow reads as asymmetry or a non-finite entry, and a det lost
    # to underflow as singular, so numpy's warnings are not needed
    with np.errstate(all="ignore"):
        if np.abs(g - g.T).max() > SYMMETRY_RTOL * scale:
            raise MetricError(f"{name} is asymmetric beyond tolerance")
        g = (g + g.T) / 2.0
        if not np.isfinite(g).all():
            raise MetricError(f"{name} overflows double precision")
        # |det g| / scale^n would underflow to 0 / 0 for a small multiple
        # of I
        ratio = abs(np.linalg.det(g / scale))
    if not ratio > DEGENERACY_GATE:
        raise MetricError(f"{name} is singular (|det(g / scale)| = "
                          f"{ratio:.3e})")
    return g


def new_metric(g: np.ndarray, convention: str = "upper") -> Metric:
    """Build a Metric from contravariant ('upper') or covariant ('lower')
    components; the other index position is derived by inversion."""
    if convention not in ("upper", "lower"):
        raise ArgumentError(f"convention must be 'upper' or 'lower', got {convention!r}")
    g = _validated_symmetric(g, f"g_{convention}")
    with np.errstate(over="ignore", invalid="ignore"):
        inv = np.linalg.inv(g)
        inv = (inv + inv.T) / 2.0
        m = Metric(g, inv) if convention == "upper" else Metric(inv, g)
    if not np.isfinite(inv).all():
        raise MetricError(f"the inverse of g_{convention} overflows")
    if not 0.0 < m.abs_det < np.inf:
        raise MetricError(f"det g_lower = {m.det_lower:.3e} is out of "
                          f"double-precision range")
    return m


def minor(m: Metric, rows, cols) -> float:
    """Determinant of the submatrix of g^{ij} at the given 1-based
    strictly increasing row/column index lists."""
    rows = list(rows)
    cols = list(cols)
    if len(rows) != len(cols):
        raise ArgumentError("row and column index lists must have equal length")
    for name, idx in (("rows", rows), ("cols", cols)):
        if any(not 1 <= i <= m.dim for i in idx):
            raise ArgumentError(f"{name} indices out of range 1..{m.dim}: {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ArgumentError(f"{name} indices must be strictly increasing: {idx}")
    if not rows:
        return 1.0
    sub = m.g_upper[np.ix_([i - 1 for i in rows], [j - 1 for j in cols])]
    return float(np.linalg.det(sub))


def is_isometry(m: Metric | MetricStack, P: np.ndarray):
    """True iff the linear change with matrix p^i_j preserves the metric,
    i.e. the transformed contravariant components P g^ P^T equal g^.  A
    stack of matrices (..., n, n) gives one bool per matrix; on a
    `MetricStack`, metric s tests the matrices at index s of the first
    axis."""
    P = np.asarray(P, dtype=float)
    if P.ndim < 2 or P.shape[-2:] != (m.dim, m.dim):
        raise ArgumentError(f"P must be {m.dim}x{m.dim}, got {P.shape}")
    if np.any(np.abs(np.linalg.det(P)) < 1e-12):
        raise ArgumentError("P is singular")
    g = m.g_upper
    g = g.reshape(g.shape[:-2] + (1,) * (P.ndim - g.ndim) + g.shape[-2:])
    transformed = P @ g @ np.swapaxes(P, -1, -2)
    scale = np.abs(g).max(axis=(-2, -1))
    ok = np.abs(transformed - g).max(axis=(-2, -1)) \
        <= ISOMETRY_RTOL * scale
    return bool(ok) if ok.ndim == 0 else ok


def metric_from_json(text: str) -> Metric:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # a nesting deeper than the recursion limit is a RecursionError
        raise MetricError(f"metric is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MetricError("metric JSON must be an object")
    if "g_upper" in data:
        g, conv = data["g_upper"], "upper"
    elif "g_lower" in data:
        g, conv = data["g_lower"], "lower"
    else:
        raise MetricError("metric JSON needs a 'g_upper' or 'g_lower' key")
    try:
        g = np.asarray(g, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        # an integer past double range is an OverflowError
        raise MetricError(f"metric components must be a rectangular array "
                          f"of numbers: {exc}") from exc
    m = new_metric(g, conv)
    # a JSON true is a Python int too, and 2.0 is no dimension
    if "dim" in data and (type(data["dim"]) is not int
                          or data["dim"] != m.dim):
        raise MetricError(f"declared dim {data['dim']!r} is not the integer "
                          f"size of matrix shape {g.shape}")
    return m
