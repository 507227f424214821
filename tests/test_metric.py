"""Metric container: validation, minors, isometries, JSON."""

import json

import numpy as np
import pytest

from gafields.metric import (
    ArgumentError,
    MetricError,
    is_isometry,
    metric_from_json,
    minor,
    new_metric,
)
from gafields.checks import random_metric


def test_upper_lower_are_inverse(rng):
    for n in (1, 2, 3, 5):
        m = random_metric(n, rng)
        assert np.allclose(m.g_upper @ m.g_lower, np.eye(n), atol=1e-12)


def test_lower_convention(rng):
    gl = np.array([[2.0, 0.3], [0.3, 1.0]])
    m = new_metric(gl, convention="lower")
    assert np.allclose(m.g_lower, gl)
    assert np.allclose(m.g_upper, np.linalg.inv(gl))


def test_sign_tracks_determinant():
    assert new_metric(np.diag([1.0, 1.0])).sign == 1
    assert new_metric(np.diag([1.0, -1.0])).sign == -1
    assert new_metric(np.diag([-1.0, -1.0])).sign == 1


def test_rejects_bad_input():
    with pytest.raises(MetricError):
        new_metric(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(MetricError):
        new_metric(np.zeros((2, 2)))  # degenerate
    with pytest.raises(MetricError):
        new_metric(np.ones((2, 3)))  # not square
    with pytest.raises(ArgumentError):
        new_metric(np.eye(2), convention="sideways")
    # g - g^T overflows, and det(g / scale) underflows inside the
    # factorisation: each is a MetricError, not a numpy warning
    with pytest.raises(MetricError, match="asymmetric"):
        new_metric(np.array([[1e308, -1e308], [1e308, 1.0]]))
    g = np.ones((4, 4))
    g[0, 1], g[0, 2], g[3, 3] = 0.0, 1e-12, 1.45e299
    with pytest.raises(MetricError, match="singular"):
        new_metric(g)


@pytest.mark.parametrize("convention", ["upper", "lower"])
def test_empty_metric_is_metric_error(convention):
    with pytest.raises(MetricError, match="no entries"):
        new_metric(np.zeros((0, 0)), convention)


def test_small_multiple_of_identity_is_not_called_singular():
    # |det g| and scale^4 both underflow for 1e-100 I_4, and their ratio
    # would be NaN; det(g / scale) = 1 passes the gate, and what is out of
    # range is det g_lower = 1e400
    with pytest.raises(MetricError, match="det g_lower") as info:
        new_metric(1e-100 * np.eye(4))
    assert "singular" not in str(info.value)


def test_underflowing_det_lower_is_rejected():
    # 1e-200 I_2 is well conditioned, but det g_lower = 1e-400 would
    # leave a Metric with abs_det = 0
    with pytest.raises(MetricError, match="det g_lower"):
        new_metric(1e-200 * np.eye(2), convention="lower")


def test_minor_against_hand_determinant(rng):
    m = random_metric(4, rng)
    g = m.g_upper
    rows, cols = (1, 3), (2, 4)
    want = (g[0, 1] * g[2, 3] - g[0, 3] * g[2, 1])
    assert minor(m, rows, cols) == pytest.approx(want, rel=1e-12)
    # empty minor is the 0x0 determinant
    assert minor(m, (), ()) == 1.0


def test_minor_full_is_det(rng):
    m = random_metric(3, rng)
    idx = (1, 2, 3)
    assert minor(m, idx, idx) == pytest.approx(np.linalg.det(m.g_upper),
                                               rel=1e-12)


def test_is_isometry_rotation():
    m = new_metric(np.eye(2))
    th = 0.83
    rot = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    assert is_isometry(m, rot)
    assert not is_isometry(m, 1.1 * rot)


def test_is_isometry_lorentz_boost():
    m = new_metric(np.diag([1.0, -1.0]))
    ch, sh = np.cosh(0.6), np.sinh(0.6)
    boost = np.array([[ch, sh], [sh, ch]])
    assert is_isometry(m, boost)


@pytest.mark.parametrize("dim, size", [(3, 2), (2.0, 2), (True, 1), ("1", 1)],
                         ids=["mismatch", "float", "true", "string"])
def test_json_dim_must_be_the_integer_matrix_size(dim, size):
    text = json.dumps({"dim": dim, "g_upper": np.eye(size).tolist()})
    with pytest.raises(MetricError, match="declared dim"):
        metric_from_json(text)


def test_json_round_trip(rng):
    m = random_metric(3, rng)
    m2 = metric_from_json(json.dumps({"g_upper": m.g_upper.tolist()}))
    assert m2.dim == 3
    assert np.allclose(m2.g_upper, m.g_upper, atol=1e-15)
