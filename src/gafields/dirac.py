"""Dirac matrices and the matrix representation of the Minkowski algebra.

Everything here is tied to n = 4 with the metric diag(-1, -1, -1, 1),
where the Grassmann and Clifford bases coincide and the gamma chain of a
blade's indices represents the blade faithfully.
"""

from __future__ import annotations

import numpy as np

from . import blades
from .expr import CExpr, evaluate_many
from .metric import ArgumentError, Metric, new_metric
from .multivector import Multivector, coeffs_of

MINKOWSKI_DIAG = (-1.0, -1.0, -1.0, 1.0)


def minkowski_metric() -> Metric:
    return new_metric(np.diag(MINKOWSKI_DIAG), convention="upper")


class GammaRep:
    """The four Dirac-representation gamma matrices, with the matrices
    of the 16 blades, indexed by mask, (16, 4, 4), and the inverse of the
    16x16 matrix whose columns are the vectorized blade matrices, which
    decomposes a matrix back into a multivector."""

    __slots__ = ("gammas", "blade_mats", "basis_inv")

    def __init__(self, gammas):
        self.gammas = [np.asarray(g, dtype=complex) for g in gammas]
        self.blade_mats = np.empty((16, 4, 4), dtype=complex)
        for mask in range(16):
            mat = np.eye(4, dtype=complex)
            for i in blades.blade_indices(mask):
                mat = mat @ self.gammas[i - 1]
            self.blade_mats[mask] = mat
        self.basis_inv = np.linalg.inv(self.blade_mats.reshape(16, 16).T)


def gamma_matrices() -> GammaRep:
    g1 = [[0, 0, 0, -1],
          [0, 0, -1, 0],
          [0, 1, 0, 0],
          [1, 0, 0, 0]]
    g2 = [[0, 0, 0, 1j],
          [0, 0, -1j, 0],
          [0, -1j, 0, 0],
          [1j, 0, 0, 0]]
    g3 = [[0, 0, -1, 0],
          [0, 0, 0, 1],
          [1, 0, 0, 0],
          [0, -1, 0, 0]]
    g4 = [[1, 0, 0, 0],
          [0, 1, 0, 0],
          [0, 0, -1, 0],
          [0, 0, 0, -1]]
    return GammaRep([g1, g2, g3, g4])


def rep_map(u, rep: GammaRep) -> np.ndarray:
    """Matrix of a Minkowski multivector: sum of coefficient times the
    gamma chain of each blade (the two bases coincide here).  A stack of
    coefficients (..., 16) gives a stack of matrices (..., 4, 4)."""
    c = coeffs_of(u)
    if c.shape[-1:] != (16,):
        raise ArgumentError("gamma representation needs dimension 4")
    return np.einsum("...a,aij->...ij", c, rep.blade_mats)


def multivector_from_matrix(mat: np.ndarray, rep: GammaRep):
    """The multivector of a 4x4 matrix; a stack of matrices (..., 4, 4)
    gives a stack of coefficients (..., 16)."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-2:] != (4, 4):
        raise ArgumentError("expected a 4x4 matrix")
    coeffs = np.einsum("ak,...k->...a", rep.basis_inv,
                       mat.reshape(mat.shape[:-2] + (16,)))
    return Multivector(4, coeffs) if mat.ndim == 2 else coeffs


def column_embed(theta, rep: GammaRep) -> Multivector:
    """Multivector whose matrix carries the spinor column theta in the
    first column and zeros elsewhere."""
    theta = np.asarray(theta, dtype=complex)
    if theta.shape != (4,):
        raise ArgumentError("expected a 4-component column")
    mat = np.zeros((4, 4), dtype=complex)
    mat[:, 0] = theta
    return multivector_from_matrix(mat, rep)


def dirac_residual(theta_exprs, a_exprs, m: float, p, rep: GammaRep = None):
    """Residual column of (i gamma^k (d_k - a_k) - m) theta at a point.

    theta_exprs: four CExpr components; a_exprs: four CExpr potentials.
    """
    if rep is None:
        rep = gamma_matrices()
    theta_exprs = [CExpr.of(t) for t in theta_exprs]
    # theta, its 16 derivatives and the 4 potentials in one call
    vals = evaluate_many(theta_exprs + [t.diff(k) for k in range(1, 5)
                                        for t in theta_exprs]
                         + [CExpr.of(a) for a in a_exprs[:4]], p)
    theta = np.array(vals[:4])
    out = -m * theta
    for k in range(4):
        dtheta = np.array(vals[4 + 4 * k:8 + 4 * k])
        out = out + 1j * rep.gammas[k] @ (dtheta - vals[20 + k] * theta)
    return out


def plane_wave_spinor(k_vec, m: float, rep: GammaRep = None) -> np.ndarray:
    """Solve (gamma^k k_k - m) u = 0 for a momentum on the mass shell.

    k_vec holds the covariant components k_1..k_4; the shell condition
    g^{kl} k_k k_l = m^2 is required.
    """
    if rep is None:
        rep = gamma_matrices()
    k_vec = np.asarray(k_vec, dtype=float)
    shell = sum(d * kk * kk for d, kk in zip(MINKOWSKI_DIAG, k_vec))
    if abs(shell - m * m) > 1e-9 * max(1.0, m * m):
        raise ArgumentError(f"momentum off the mass shell: "
                            f"g^kl k_k k_l = {shell:.6g}, m^2 = {m * m:.6g}")
    slash = sum(kk * g for kk, g in zip(k_vec, rep.gammas))
    mat = slash - m * np.eye(4)
    _, s, vt = np.linalg.svd(mat)
    if s[-1] > 1e-9 * s[0]:
        raise ArgumentError("no nontrivial spinor for this momentum")
    return vt[-1].conj()
