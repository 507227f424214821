"""Gamma-matrix representation and the Dirac correspondence."""

import numpy as np
import pytest

from gafields.expr import CExpr, Const, ZERO, call, parse
from gafields.metric import ArgumentError
from gafields.multivector import Multivector, build_product_table
from gafields.dirac import (
    MINKOWSKI_DIAG,
    column_embed,
    dirac_residual,
    gamma_matrices,
    minkowski_metric,
    multivector_from_matrix,
    plane_wave_spinor,
    rep_map,
)
from helpers import random_mv


def test_anticommutators_exact():
    rep = gamma_matrices()
    g = np.diag(MINKOWSKI_DIAG).astype(float)
    for k in range(4):
        for l in range(4):
            got = rep.gammas[k] @ rep.gammas[l] + rep.gammas[l] @ rep.gammas[k]
            assert np.array_equal(got, 2 * g[k, l] * np.eye(4))


def test_gammas_traceless_and_invertible():
    rep = gamma_matrices()
    for k in range(4):
        assert abs(np.trace(rep.gammas[k])) == 0.0
        assert abs(np.linalg.det(rep.gammas[k])) == pytest.approx(1.0)


def test_rep_map_homomorphism(rng):
    rep = gamma_matrices()
    t = build_product_table(minkowski_metric())
    for _ in range(50):
        u, v = random_mv(4, rng), random_mv(4, rng)
        lhs = rep_map(t.mul(u, v), rep)
        rhs = rep_map(u, rep) @ rep_map(v, rep)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_rep_map_is_linear_iso(rng):
    rep = gamma_matrices()
    u = random_mv(4, rng)
    back = multivector_from_matrix(rep_map(u, rep), rep)
    assert (back - u).norm() < 1e-12


def test_rep_map_dimension_guard(rng):
    rep = gamma_matrices()
    with pytest.raises(ArgumentError):
        rep_map(random_mv(3, rng), rep)


def test_column_embed_round_trip(rng):
    rep = gamma_matrices()
    theta = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = column_embed(theta, rep)
    mat = rep_map(psi, rep)
    assert np.allclose(mat[:, 0], theta, atol=1e-12)
    assert np.abs(mat[:, 1:]).max() < 1e-12


def test_plane_wave_on_shell():
    k = np.array([1.0, 0.0, 0.0, 2.0])
    m = np.sqrt(3.0)
    u = plane_wave_spinor(k, m)
    rep = gamma_matrices()
    slash = sum(kk * g for kk, g in zip(k, rep.gammas))
    assert np.abs(slash @ u - m * u).max() < 1e-9
    assert np.linalg.norm(u) == pytest.approx(1.0)


def test_plane_wave_off_shell_rejected():
    with pytest.raises(ArgumentError):
        plane_wave_spinor([1.0, 0.0, 0.0, 2.0], 5.0)


def plane_wave_theta_exprs(k, m):
    u = plane_wave_spinor(k, m)
    from helpers import phase_cexpr
    phase = phase_cexpr(k)
    return [CExpr.of(complex(c)) * phase for c in u]


def test_plane_wave_dirac_residual():
    k = np.array([1.0, 0.0, 0.0, 2.0])
    m = np.sqrt(3.0)
    theta = plane_wave_theta_exprs(k, m)
    a = [CExpr.of(0.0) for _ in range(4)]
    for p in [(0.1, -0.2, 0.3, 0.4), (0.0, 0.0, 0.0, 0.0)]:
        res = dirac_residual(theta, a, m, p)
        assert np.abs(res).max() < 1e-12


def test_embedded_residual_matches_main_equation(rng):
    # gamma-matrix residual of theta == matrix rep of the form residual
    from gafields.fields import main_residual
    from helpers import plane_wave_config
    rep = gamma_matrices()
    k = np.array([1.0, 0.0, 0.0, 2.0])
    m = np.sqrt(3.0)
    theta = plane_wave_theta_exprs(k, m)
    cfg = plane_wave_config(k)
    a = [CExpr.of(0.0) for _ in range(4)]
    for p in [(0.2, -0.1, 0.5, -0.4), (0.3, 0.3, -0.3, 0.1)]:
        res_cols = dirac_residual(theta, a, m, p)
        res_form = rep_map(main_residual(cfg, p), rep)
        assert np.abs(res_form[:, 0] - res_cols).max() < 1e-12
        assert np.abs(res_form[:, 1:]).max() < 1e-12
