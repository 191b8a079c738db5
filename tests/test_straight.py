import numpy as np
import pytest

from edgelab.evolution import Grid2D, apply_H
from edgelab.profiles import GaussianProfile, make_profile
from edgelab.straight import StraightWall, ballistic_wave, edge_spinor, edge_state, rotated_coords


def test_edge_state_trivial_values():
    w = StraightWall(theta=0.0, r=1.0, epsilon=1.0)
    v = edge_state(w, 0.0, np.array([0.0, 0.0]))
    assert np.allclose(v, [1.0, -1.0])
    v = edge_state(w, 0.0, np.array([0.0, 1.0]))
    assert np.allclose(v, np.exp(-0.5) * np.array([1.0, -1.0]))


def test_edge_state_stationary_pointwise():
    # analytic derivative of the exponent at random points, theta = pi/2, r = 2;
    # the zero-mode branch carries energy -xi (leftward group velocity), so the
    # stationarity relation reads (H + xi) F = 0
    w = StraightWall(theta=np.pi / 2, r=2.0, epsilon=0.1)
    xi = 1.0
    rng = np.random.default_rng(4)
    c, s = np.cos(w.theta), np.sin(w.theta)
    R = np.array([[c, s], [-s, c]])
    for x in rng.uniform(-0.5, 0.5, size=(20, 2)):
        F = edge_state(w, xi, x)
        u2 = (R @ x)[1]
        grad_g = (1j * xi / w.epsilon) * R.T[:, 0] - (w.r / w.epsilon) * u2 * R.T[:, 1]
        DF = -1j * grad_g[:, None] * F[None, :]  # D_j F = -i dg/dx_j F
        kappa = w.r * (-s * x[0] + c * x[1])
        HF = np.array([
            kappa * F[0] + w.epsilon * (DF[0, 1] - 1j * DF[1, 1]),
            w.epsilon * (DF[0, 0] + 1j * DF[1, 0]) - kappa * F[1],
        ])
        assert np.max(np.abs(HF + xi * F)) <= 1e-8 * np.max(np.abs(F))


def test_edge_state_stationary_spectral_grid():
    # theta = 0 with xi on the grid's frequency lattice: spectral derivatives apply
    eps, r, L, n = 0.5, 1.0, 8.0, 128
    grid = Grid2D(n, n, L, L)
    xi = eps * grid.k1[4]
    w = StraightWall(theta=0.0, r=r, epsilon=eps)
    X1, X2 = grid.mesh()
    pts = np.stack([X1, X2], axis=-1)
    F = np.moveaxis(edge_state(w, xi, pts), -1, 0)
    kappa = r * X2
    HF = apply_H(F, kappa, eps, grid)
    resid = np.sqrt(np.sum(np.abs(HF + xi * F) ** 2) * grid.dA)
    assert resid <= 1e-8 * np.sqrt(np.sum(np.abs(F) ** 2) * grid.dA)


def test_ballistic_wave_values_and_translation():
    w = StraightWall(theta=0.0, r=1.0, epsilon=1.0)
    f = GaussianProfile()
    v = ballistic_wave(w, f, 0.0, np.array([0.0, 0.0]))
    assert np.allclose(v, [1.0, -1.0])
    v = ballistic_wave(w, f, 2.0, np.array([-2.0, 0.0]))
    assert np.allclose(v, [1.0, -1.0])


def test_ballistic_wave_advects_at_unit_speed():
    w = StraightWall(theta=0.3, r=1.5, epsilon=0.2)
    f = GaussianProfile()
    rng = np.random.default_rng(9)
    v_theta = -np.array([np.cos(w.theta), np.sin(w.theta)])
    for x in rng.uniform(-1, 1, size=(10, 2)):
        a = ballistic_wave(w, f, 0.7, x)
        b = ballistic_wave(w, f, 0.0, x - 0.7 * v_theta)
        assert np.max(np.abs(a - b)) < 1e-12


def test_ballistic_wave_norm_is_time_independent():
    w = StraightWall(theta=np.pi / 6, r=1.0, epsilon=0.25)
    f = GaussianProfile()
    grid = Grid2D(128, 128, 8.0, 8.0)
    X1, X2 = grid.mesh()
    pts = np.stack([X1, X2], axis=-1)
    norms = []
    for t in (0.0, 0.5, 1.0):
        field = ballistic_wave(w, f, t, pts)
        norms.append(np.sqrt(np.sum(np.abs(field) ** 2) * grid.dA))
    assert np.max(np.abs(np.diff(norms))) < 1e-10 * norms[0]


def frame_gauge_map(theta, F, x):
    """Apply the rotation/gauge conjugation: (U_theta F)(x) = diag(e^{-i th/2}, e^{i th/2}) F(R_theta x).

    ``F`` maps points of shape (..., 2) to spinor fields of shape (..., 2).
    """
    val = np.asarray(F(np.stack(rotated_coords(theta, x[..., 0], x[..., 1]), axis=-1)))
    phase = np.array([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    return val * phase


def test_conjugation_reproduces_rotated_edge_state():
    eps, r, xi = 0.3, 1.2, 0.4
    theta = 1.1
    w0 = StraightWall(theta=0.0, r=r, epsilon=eps)
    wt = StraightWall(theta=theta, r=r, epsilon=eps)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(30, 2))
    via_map = frame_gauge_map(theta, lambda y: edge_state(w0, xi, y), pts)
    direct = edge_state(wt, xi, pts)
    assert np.max(np.abs(via_map - direct)) <= 1e-12


def test_edge_spinor_double_cover():
    s0 = edge_spinor(0.0)
    s2pi = edge_spinor(2.0 * np.pi)
    assert np.allclose(s2pi, -s0)  # the spinor flips sign over one revolution


def test_profile_family():
    g = make_profile("gaussian", (2.0,))
    assert g(0.0) == pytest.approx(1.0)
    h = 1e-5
    assert g.derivative(0.7) == pytest.approx((g(0.7 + h) - g(0.7 - h)) / (2 * h), abs=1e-8)

    hp = make_profile("hermite", (2, 1.0))
    assert hp(0.0) == pytest.approx(-2.0)  # H_2(0) = -2
    assert hp.derivative(0.4) == pytest.approx((hp(0.4 + h) - hp(0.4 - h)) / (2 * h), abs=1e-7)

    b = make_profile("bump", (2.0,))
    assert b(0.0) == pytest.approx(1.0)
    assert b(2.1) == 0.0
    assert b.derivative(1.0) == pytest.approx((b(1.0 + h) - b(1.0 - h)) / (2 * h), abs=1e-7)


def test_straight_wall_validation():
    with pytest.raises(ValueError):
        StraightWall(theta=0.0, r=-1.0, epsilon=0.1)
    with pytest.raises(ValueError):
        StraightWall(theta=0.0, r=1.0, epsilon=0.0)
