"""The 2^n-dimensional exterior bialgebra over a numeric metric.

Coefficients are complex doubles indexed by blade bitmask; the internal
basis is always the Grassmann one, and `basis_convert` changes to and
from Clifford-basis coefficients.  Both products of the bialgebra are
slices or contractions of one kind of real array, the structure tensor
that `structure_tensor(g)` builds for a contravariant form g: a metric's
g_upper gives ``ProductTable.left`` and its Clifford product, and the
zero form gives the exterior product of `wedge`.  Blade
grades and signs come from ``blades.grade_array``,
``blades.pass_sign_array`` and ``blades.reversion_array``; the tensors,
grade projection, parity and the involutions are array expressions over
them.

Every operation takes a `Multivector` or a stack of coefficient arrays of
shape (..., 2^n), blade axis last, and applies one array kernel to all
rows at once.  A `Multivector` is the one-element wrapper: its operations
run the same kernels on `u.coeffs`, and return a `Multivector` when every
operand is one, else an array.  Tables stack too: the structure tensor
of a stack of S forms has shape (S, 2^n, 2^n, 2^n), and a product or an
exponential on it takes operands whose first leading axis (after
broadcasting) runs over the S tables, so the rows at index s meet table
s.  Each row goes through the same array operations as it would on its
own table, so a stacked result equals the per-table one bit for bit.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from . import blades
from .metric import ArgumentError, GafieldsError, Metric, MetricStack

MAX_TABLE_DIM = 8  # a dense structure tensor takes 128 MB at n = 8
EXP_RTOL = 1e-16  # exp_mv stops at a term this small against the sum or 1
EXP_MAX_TERMS = 200


class DimensionMismatch(GafieldsError):
    pass


class NumericError(GafieldsError, ArithmeticError):
    pass


class Multivector:
    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs=None):
        self.dim = dim
        if coeffs is None:
            self.coeffs = np.zeros(1 << dim, dtype=complex)
        else:
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.shape != (1 << dim,):
                raise ArgumentError(f"expected {1 << dim} coefficients, "
                                    f"got {coeffs.shape}")
            if not np.all(np.isfinite(coeffs)):
                raise ArgumentError("non-finite coefficient")
            self.coeffs = coeffs.copy()

    # -- constructors ------------------------------------------------------
    @classmethod
    def _of(cls, dim: int, coeffs: np.ndarray) -> "Multivector":
        """Wrap a complex array the engine computed: no copy, no check."""
        out = cls.__new__(cls)
        out.dim, out.coeffs = dim, coeffs
        return out

    @classmethod
    def unit(cls, dim: int) -> "Multivector":
        return cls.scalar(dim, 1.0)

    @classmethod
    def blade(cls, dim: int, indices, coeff=1.0) -> "Multivector":
        u = cls(dim)
        mask = blades.mask_of(indices)
        if mask >> dim:
            raise ArgumentError(f"index out of range for dimension {dim}")
        u.coeffs[mask] = coeff
        return u

    @classmethod
    def scalar(cls, dim: int, value) -> "Multivector":
        u = cls(dim)
        u.coeffs[0] = value
        return u

    # -- structure ---------------------------------------------------------
    def norm(self) -> float:
        """Max-abs coefficient norm, the identity-test yardstick."""
        return float(np.abs(self.coeffs).max())

    def grades(self):
        return _grades(self.coeffs)

    def is_real(self, tol: float = 1e-12) -> bool:
        scale = max(self.norm(), 1.0)
        return float(np.abs(self.coeffs.imag).max()) <= tol * scale

    def is_even(self, tol: float = 1e-12) -> bool:
        scale = max(self.norm(), 1.0)
        odd = self.coeffs[blades.grade_array(self.dim) % 2 == 1]
        return float(np.abs(odd).max()) <= tol * scale if odd.size else True

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "Multivector"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} and {other.dim}")

    def __add__(self, other):
        self._check(other)
        return Multivector._of(self.dim, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return Multivector._of(self.dim, self.coeffs - other.coeffs)

    def __neg__(self):
        return Multivector._of(self.dim, -self.coeffs)

    def __mul__(self, scalar):
        if isinstance(scalar, Multivector):
            raise TypeError("use ProductTable.mul or wedge for multivector "
                            "products")
        return Multivector._of(self.dim, self.coeffs * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        terms = []
        for mask in np.nonzero(self.coeffs)[0]:
            c = self.coeffs[mask]
            name = "e" if mask == 0 else "e^" + "^e^".join(
                str(i) for i in blades.blade_indices(int(mask)))
            terms.append(f"({c:.6g})*{name}")
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# Structure tensors: the product of a contravariant form, and its table.

def structure_tensor(g) -> np.ndarray:
    r"""The product of the contravariant form g^{ij} as a dense structure
    tensor, ``[a, c, b]`` the coefficient of Grassmann blade c in e_a e_b,
    so ``[a]`` is the matrix of x -> e_a x and ``[:, :, b].T`` that of
    x -> x e_b.  A metric's g_upper gives its Clifford product, and the
    zero form its exterior product, ``[a, a | b, b]`` the sign of
    e_a ^ e_b for disjoint masks a, b.  A stack of forms (S, n, n) gives
    the stack (S, 2^n, 2^n, 2^n) of their tensors.

    Every sign is `blades.pass_sign(j, b)`, (-1)^(number of generators
    of b below e^j).  A generator slice is filled over all masks b at
    once: e^i e_b = e^i ^ e_b + e^i _| e_b, the wedge signed by
    pass_sign(i, b), and the contraction sum_{j in b} pass_sign(j, b)
    g^{ij} e_{b \ j}.  A blade a = e^i ^ B with lowest index i follows
    from e^i ^ B = e^i B - e^i _| B:

        [a] = [e^i] @ [B] - sum_{j in B} pass_sign(j, B) g^{ij} [B \ j]

    Dense: 2 MB at n = 6, 128 MB at n = 8, so n is at most
    `MAX_TABLE_DIM`.
    """
    g = np.asarray(g)
    n = g.shape[-1]
    if n > MAX_TABLE_DIM:
        raise ArgumentError(f"product tables cover dimensions up to "
                            f"{MAX_TABLE_DIM}, got {n}")
    size = 1 << n
    masks = np.arange(size)
    sign = blades.pass_sign_array(n)
    stack = g.shape[:-2]
    # blade a leads while building, so left[a] holds slice a of every form
    left = np.zeros((size,) + stack + (size, size))
    left[0] = np.eye(size)
    # g^{ij} scales a slice: a scalar, or one (1, 1) block per form
    coef = np.moveaxis(g, (-2, -1), (0, 1))[..., None, None] if stack else g
    # no entry where every form has g^{ij} == 0, not even a signed zero
    unused = np.all(g == 0, axis=tuple(range(len(stack))))
    for i in range(n):
        gen = left[1 << i]
        free = masks[(masks >> i) & 1 == 0]
        gen[..., free | (1 << i), free] = sign[i, free]
        for j in range(n):
            if unused[i, j]:
                continue
            held = masks[(masks >> j) & 1 == 1]
            # + 0.0 turns a -0.0 of one form of a stack into the +0.0 its
            # own tensor has
            gen[..., held ^ (1 << j), held] = \
                g[..., i, j, None] * sign[j, held] + 0.0
    for a in range(1, size):
        rest = a & (a - 1)
        if not rest:
            continue
        low = a ^ rest
        i = low.bit_length() - 1
        left[a] = left[low] @ left[rest]
        for j in blades.blade_indices(rest):
            left[a] -= (blades.pass_sign(j, rest) * coef[i, j - 1]
                        * left[rest ^ (1 << (j - 1))])
    return np.ascontiguousarray(np.moveaxis(left, 0, len(stack)))


@lru_cache(maxsize=None)
def _wedge_tensor(n: int) -> np.ndarray:
    """The exterior product's structure tensor, read-only, once per n."""
    out = structure_tensor(np.zeros((n, n)))
    out.flags.writeable = False
    return out


class ProductTable:
    """The Clifford product of one metric: ``left``, its structure tensor
    (see `structure_tensor`), built eagerly; the basis changes and the
    volume form are built on first use.  The table of a `MetricStack`
    holds the stack of its tensors, and serves `mul` and `exp_mv`."""

    def __init__(self, metric: Metric | MetricStack):
        self.metric = metric
        self.dim = metric.dim
        self.left = structure_tensor(metric.g_upper)

    def mul(self, u, v):
        """Clifford product U V, row by row over broadcast stacks."""
        a, b = coeffs_of(u), coeffs_of(v)
        if _dim_of(a) != self.dim or _dim_of(b) != self.dim:
            raise DimensionMismatch("multivector dimension does not match table")
        return _like(self.dim, _contract(self.left, a, b), u, v)

    def clifford_left(self, a: int) -> np.ndarray:
        """The matrix of x -> e_a x for the Clifford monomial a, in the
        Clifford basis: ``left`` conjugated by the two basis changes.
        Column a of the Clifford-to-Grassmann matrix is nonzero only on
        the subsets of a with a's parity, so only those slices of
        ``left`` enter the sum."""
        c2g = self.clifford_to_grassmann_matrix
        acc = np.zeros(self.left.shape[1:])
        for r in np.flatnonzero(c2g[:, a]):
            acc += c2g[r, a] * self.left[r]
        return self.grassmann_to_clifford_matrix @ acc @ c2g

    @cached_property
    def grassmann_to_clifford_matrix(self) -> np.ndarray:
        """The inverse of `clifford_to_grassmann_matrix`, which is unit
        upper triangular in mask order."""
        return np.linalg.inv(self.clifford_to_grassmann_matrix)

    @cached_property
    def clifford_to_grassmann_matrix(self) -> np.ndarray:
        """Column a holds the Clifford monomial a in the Grassmann basis,
        built from e_0 up: the monomial of a with lowest index i is e^i
        times the monomial of a without i."""
        size = 1 << self.dim
        c2g = np.zeros((size, size))
        c2g[0, 0] = 1.0
        for a in range(1, size):
            low = a & -a
            c2g[:, a] = self.left[low] @ c2g[:, a ^ low]
        return c2g

    @cached_property
    def volume(self) -> Multivector:
        return Multivector.blade(self.dim, range(1, self.dim + 1),
                                 np.sqrt(self.metric.abs_det))


def build_product_table(m: Metric | MetricStack) -> ProductTable:
    if m._table is None:
        m._table = ProductTable(m)
    return m._table


# ---------------------------------------------------------------------------
# Stacks: coefficient arrays of shape (..., 2^n), blade axis last.

def coeffs_of(u) -> np.ndarray:
    """The coefficient array of a Multivector, or a stack as an array."""
    return u.coeffs if isinstance(u, Multivector) else np.asarray(u)


def _dim_of(c: np.ndarray) -> int:
    """n for a blade axis of length 2^n."""
    size = c.shape[-1] if c.ndim else 0
    if size < 1 or size & (size - 1):
        raise DimensionMismatch(f"a blade axis of length {size} is not 2^n")
    return size.bit_length() - 1


def _like(dim: int, out: np.ndarray, *operands):
    """A Multivector when every operand is one, else the array."""
    if all(isinstance(w, Multivector) for w in operands):
        return Multivector._of(dim, out)
    return out


def _contract(tensor: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_{i,j} a[..., i] tensor[i, k, j] b[..., j] for a real tensor,
    over the broadcast leading axes of a and b.  A stack of tensors
    (S, size, size, size) meets the first of those axes: row s of it goes
    with tensor s.  Each tensor multiplies a's rows in the matrix shape
    they have on their own, so a stacked row takes the BLAS call, and
    gives the bits, of its one-table product."""
    size = tensor.shape[-1]
    flat = tensor.reshape(tensor.shape[:-3] + (size, size * size))
    if tensor.ndim == 4:
        lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        if not lead:
            raise DimensionMismatch("a stack of tables takes operands with "
                                    "a leading axis over the tables")
        if len(lead) == 1:
            # one row per tensor: a stack of one row on each
            return _contract(tensor, a[..., None, :], b[..., None, :])[:, 0]
        a = a.reshape((1,) * (len(lead) + 1 - a.ndim) + a.shape)
        flat = flat.reshape(flat.shape[:1] + (1,) * (a.ndim - 3)
                            + flat.shape[1:])
    # la[..., c, j] = sum_i a[..., i] tensor[i, c, j], its real and
    # imaginary parts apart: the tensor is never made complex
    la = np.empty(np.broadcast_shapes(a.shape[:-2], flat.shape[:-2])
                  + a.shape[-2:-1] + (size, size), dtype=complex)
    la.real = (a.real @ flat).reshape(la.shape)
    la.imag = (a.imag @ flat).reshape(la.shape)
    return (la @ b[..., None])[..., 0]


def row_norm(c) -> np.ndarray:
    """Max-abs coefficient norm of every row of a stack."""
    return np.abs(coeffs_of(c)).max(axis=-1)


def _grades(c: np.ndarray) -> list:
    """The grades with a nonzero coefficient in some row."""
    nonzero = np.any(c != 0, axis=tuple(range(c.ndim - 1)))
    return sorted(set(blades.grade_array(_dim_of(c))[nonzero].tolist()))


def _grade(c: np.ndarray) -> int:
    """The one grade of a homogeneous stack (0 when it is zero)."""
    gs = _grades(c)
    if len(gs) > 1:
        raise ArgumentError(f"inhomogeneous multivector with grades {gs}")
    return gs[0] if gs else 0


# ---------------------------------------------------------------------------
# Operations.

def wedge(u, v):
    """Exterior product U ^ V: one contraction with the structure tensor
    of the zero form."""
    a, b = coeffs_of(u), coeffs_of(v)
    n = _dim_of(a)
    if _dim_of(b) != n:
        raise DimensionMismatch(f"dimensions {n} and {_dim_of(b)}")
    return _like(n, _contract(_wedge_tensor(n), a, b), u, v)


def grade_project(u, k: int):
    c = coeffs_of(u)
    n = _dim_of(c)
    if not 0 <= k <= n:
        raise ArgumentError(f"grade {k} out of range 0..{n}")
    return _like(n, np.where(blades.grade_array(n) == k, c, 0.0), u)


def reversion(u):
    c = coeffs_of(u)
    n = _dim_of(c)
    return _like(n, c * blades.reversion_array(n), u)


def conjugate_star(u):
    c = coeffs_of(u)
    n = _dim_of(c)
    return _like(n, (c * blades.reversion_array(n)).conjugate(), u)


def trace(u):
    """The scalar coefficient: a complex number of a Multivector, an array
    of a stack."""
    if isinstance(u, Multivector):
        return complex(u.coeffs[0])
    return np.asarray(u)[..., 0]


def scalar_product(u, v, table: ProductTable):
    return trace(table.mul(u, conjugate_star(v)))


def exterior_metric_block(m: Metric, k: int) -> np.ndarray:
    """Gram matrix of the grade-k Grassmann blades: the matrix of k-by-k
    minors of g^{ij}, rows/columns ordered by blade mask."""
    if not 0 <= k <= m.dim:
        raise ArgumentError(f"grade {k} out of range 0..{m.dim}")
    # idx[a] holds the 0-based generator indices of the a-th grade-k blade
    bits = (np.array(grade_masks(m.dim, k))[:, None] >> np.arange(m.dim)) & 1
    idx = np.nonzero(bits)[1].reshape(len(bits), k)
    return np.linalg.det(m.g_upper[idx[:, None, :, None], idx[None, :, None, :]])


def grade_masks(dim: int, k: int):
    return np.flatnonzero(blades.grade_array(dim) == k).tolist()


def volume_form(m: Metric) -> Multivector:
    return build_product_table(m).volume * 1.0


def hodge_star(u, m: Metric):
    """Hodge dual via the algebraic form: (reversion of U) * volume form."""
    table = build_product_table(m)
    star = table.mul(reversion(coeffs_of(u)), table.volume.coeffs)
    return _like(m.dim, star, u)


def hodge_star_components(u, m: Metric):
    """Hodge dual via the component formula: raise the indices with k-by-k
    minors, then pair each blade with the sign of its complement permutation."""
    c = coeffs_of(u)
    n = m.dim
    if _dim_of(c) != n:
        raise DimensionMismatch("multivector dimension does not match metric")
    full = (1 << n) - 1
    out = np.zeros(c.shape, dtype=complex)
    sqrtg = np.sqrt(m.abs_det)
    for k in range(n + 1):
        masks = grade_masks(n, k)
        raised = c[..., masks] @ exterior_metric_block(m, k).T
        eps = np.array([blades.wedge_sign(mask, full ^ mask) for mask in masks])
        out[..., np.bitwise_xor(full, masks)] += sqrtg * eps * raised
    return _like(n, out, u)


def star_inverse(u, m: Metric):
    """Inverse Hodge dual, gradewise closed form from star(star U)."""
    c = coeffs_of(u)
    n = m.dim
    if _dim_of(c) != n:
        raise DimensionMismatch("multivector dimension does not match metric")
    signs = blades.star_inverse_sign(blades.grade_array(n), n, m.sign)
    return _like(n, hodge_star(c * signs, m), u)


def commutator_2forms(u, v, table: ProductTable):
    for name, w in (("first", u), ("second", v)):
        gs = _grades(coeffs_of(w))
        if gs not in ([], [2]):
            raise ArgumentError(f"{name} operand is not a pure 2-form "
                                f"(grades {gs})")
    return table.mul(u, v) - table.mul(v, u)


def exp_mv(u, table: ProductTable):
    """Clifford exponential as a truncated power series.  Each row of a
    stack stops at its own term: a converged row is frozen by a mask (its
    sum is kept, and what the series computes for it later is dropped),
    so it equals its one-row result and the stack keeps its shape, table
    axis included."""
    c = coeffs_of(u)
    if _dim_of(c) != table.dim:
        raise DimensionMismatch("multivector dimension does not match table")
    out = np.empty(c.shape, dtype=complex)
    term = np.zeros(c.shape, dtype=complex)
    term[..., 0] = 1.0
    acc = term
    live = np.ones(c.shape[:-1], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, EXP_MAX_TERMS + 1):
            term = table.mul(term, c) * (1.0 / k)
            acc = acc + term
            size = row_norm(term)
            if not np.isfinite(size[live]).all():
                break
            done = live & (size < EXP_RTOL * np.maximum(row_norm(acc), 1.0))
            out[done] = acc[done]
            live &= ~done
            if not live.any():
                return _like(table.dim, out, u)
    raise NumericError(f"exponential series did not converge in "
                       f"{EXP_MAX_TERMS} terms (last term norm "
                       f"{row_norm(term)[live].max():.3e})")


# ---------------------------------------------------------------------------
# Basis conversion (Grassmann <-> Clifford coefficient conventions).

GRASSMANN = "grassmann"
CLIFFORD = "clifford"


def basis_convert(u, frm: str, to: str, m: Metric):
    for conv in (frm, to):
        if conv not in (GRASSMANN, CLIFFORD):
            raise ArgumentError(f"unknown basis convention {conv!r}")
    if frm == to:
        return u * 1.0
    table = build_product_table(m)
    if frm == CLIFFORD:
        # coefficients on Clifford monomials -> coefficients on Grassmann blades
        mat = table.clifford_to_grassmann_matrix
    else:
        mat = table.grassmann_to_clifford_matrix
    return _like(m.dim, coeffs_of(u) @ mat.T, u)


# ---------------------------------------------------------------------------
# Clifford product through wedge/star/com tables (dimensions 2..4).

# U V as a signed sum of terms, keyed by (n, grade U, grade V): "w" is
# U ^ V, "*v" is *(U ^ *V), "*u" is *(*U ^ V), "**" is *U ^ *V and "com"
# the 2-form commutator [U, V].  The starred terms carry the sign of
# det g as well; terms are added in the order listed.
_VIA_STAR = {
    (2, 1, 1): (("w", 1), ("*v", 1)),
    (2, 1, 2): (("**", 1),),
    (2, 2, 1): (("**", -1),),
    (2, 2, 2): (("**", -1),),
    (3, 1, 1): (("w", 1), ("*v", 1)),
    (3, 1, 2): (("w", 1), ("*v", -1)),
    (3, 1, 3): (("**", 1),),
    (3, 2, 1): (("w", 1), ("*u", -1)),
    (3, 2, 2): (("**", -1), ("*v", -1)),
    (3, 2, 3): (("**", -1),),
    (3, 3, 1): (("**", 1),),
    (3, 3, 2): (("**", -1),),
    (3, 3, 3): (("**", -1),),
    (4, 1, 1): (("w", 1), ("*v", 1)),
    (4, 1, 2): (("w", 1), ("*v", 1)),
    (4, 1, 3): (("w", 1), ("*v", 1)),
    (4, 1, 4): (("**", 1),),
    (4, 2, 1): (("w", 1), ("*u", -1)),
    (4, 2, 2): (("w", 1), ("*v", -1), ("com", 0.5)),
    (4, 2, 3): (("**", -1), ("*v", 1)),
    (4, 2, 4): (("**", -1),),
    (4, 3, 1): (("w", 1), ("*u", -1)),
    (4, 3, 2): (("**", 1), ("*u", 1)),
    (4, 3, 3): (("**", -1), ("*v", -1)),
    (4, 3, 4): (("**", -1),),
    (4, 4, 1): (("**", -1),),
    (4, 4, 2): (("**", -1),),
    (4, 4, 3): (("**", 1),),
    (4, 4, 4): (("**", 1),),
}


def clifford_via_star(u, v, m: Metric):
    n = m.dim
    if n > 4 or n < 2:
        raise ArgumentError(f"wedge/star product tables cover dimensions 2..4, "
                            f"got {n}")
    a, b = coeffs_of(u), coeffs_of(v)
    r, s = _grade(a), _grade(b)
    if r == 0 or s == 0:
        return wedge(u, v)
    entry = _VIA_STAR.get((n, r, s))
    if entry is None:
        raise ArgumentError(f"no table entry for grades {(r, s)} in "
                            f"dimension {n}")
    terms = {"w": lambda: wedge(a, b),
             "*v": lambda: hodge_star(wedge(a, hodge_star(b, m)), m),
             "*u": lambda: hodge_star(wedge(hodge_star(a, m), b), m),
             "**": lambda: wedge(hodge_star(a, m), hodge_star(b, m)),
             "com": lambda: commutator_2forms(a, b, build_product_table(m))}
    out = None
    for name, coeff in entry:
        if name.startswith("*"):
            coeff *= m.sign
        term = coeff * terms[name]()
        out = term if out is None else out + term
    return _like(n, out, u, v)
