import dataclasses
import os

import numpy as np
import pytest
from scipy import fft as sfft

from edgelab import hermite, hierarchy
from edgelab.evolution import Grid2D, SolverError
from edgelab.geometry import integrate_trajectory
from edgelab.hierarchy import (
    CorrectorSolver,
    FrameContext,
    ansatz_residual,
    assemble_ansatz,
    sample_hermite_amplitude,
    sample_kernel_profile,
    sample_order0,
)
from edgelab.profiles import GaussianProfile
from edgelab.walls import make_wall, straight_wall

X1GRID = hermite.X1Grid(n=256, half_extent=12.0)


@pytest.fixture(scope="module")
def circle_solver():
    wall = make_wall("circle", (1.0,))
    traj = integrate_trajectory(wall, np.array([1.0, 0.0]), 1.0, 1e-3)
    return CorrectorSolver(GaussianProfile(), traj), traj


@pytest.fixture(scope="module")
def tanh_solver():
    wall = make_wall("tanh")
    traj = integrate_trajectory(wall, np.array([0.0, 0.0]), 0.52, 1e-3)
    return CorrectorSolver(GaussianProfile(), traj), traj


def test_leading_amplitude_trivial_samples():
    wall = straight_wall(0.0, 1.0)
    traj = integrate_trajectory(wall, np.array([0.0, 0.0]), 0.01, 1e-2)
    vals = sample_order0(GaussianProfile(), traj.theta[0], traj.r[0], np.zeros(2), 1.0,
                         np.array([0.0]), np.array([0.0, 1.0]))
    assert np.allclose(vals[:, 0, 0], [1.0, -1.0])
    assert np.allclose(vals[:, 0, 1], np.exp(-0.5) * np.array([1.0, -1.0]))


def test_leading_amplitude_spinor_at_theta_pi():
    # direct substitution: (e^{-i pi/2}, -e^{i pi/2}) = (-i, -i)
    vals = sample_order0(GaussianProfile(), np.pi, 1.0, np.zeros(2), 1.0, np.zeros(1), np.zeros(1))
    assert np.allclose(vals[:, 0, 0], [-1j, -1j])


def test_leading_amplitude_r_scaling():
    # r = 4: transverse width halves, norm of K_t f is r-independent (2 sqrt(pi) |f|^2)
    prof = GaussianProfile()
    grid = Grid2D(512, 512, 10.0, 10.0)
    norms = {}
    for r in (1.0, 4.0):
        vals = sample_order0(prof, 0.0, r, np.zeros(2), 1.0, grid.x1, grid.x2)
        norms[r] = np.sqrt(np.sum(np.abs(vals) ** 2) * grid.dA)
    assert norms[4.0] == pytest.approx(norms[1.0], rel=1e-10)
    expected = np.sqrt(2.0 * np.sqrt(np.pi) * np.sqrt(np.pi))  # |f|_2^2 = sqrt(pi)
    assert norms[1.0] == pytest.approx(expected, rel=1e-8)
    v = sample_order0(prof, 0.0, 4.0, np.zeros(2), 1.0, np.array([0.0]), np.array([0.5]))
    assert v[0, 0, 0] == pytest.approx(4.0**0.25 * np.exp(-4.0 * 0.25 / 2.0), rel=1e-12)


def test_straight_wall_correctors_vanish():
    wall = straight_wall(0.3, 1.0)
    traj = integrate_trajectory(wall, np.array([0.0, 0.0]), 0.1, 1e-3)
    solver = CorrectorSolver(GaussianProfile(), traj)
    i = traj.index_at(0.1)
    b1, f1 = solver.b1(i), solver.f1[i]
    assert b1.norm() <= 1e-12
    assert np.max(np.abs(f1)) <= 1e-12


def test_solvability_miracle_on_tanh(tanh_solver):
    solver, _ = tanh_solver
    assert solver.max_solvability_residual() <= 1e-8


def test_circle_corrector_matches_closed_forms(circle_solver):
    solver, traj = circle_solver
    x = solver.grid.x
    i = traj.index_at(1.0)
    b1 = solver.b1(i)
    # b1 in tilde coefficients: band 1 of the first component carries
    # (theta_dot/2)(1 - x1^2) e^{-x1^2/2} pi^{1/4}; everything else vanishes
    expected = 0.5 * (1.0 - x**2) * np.exp(-0.5 * x**2) * np.pi**0.25
    assert np.max(np.abs(b1.coeffs[0, :, 1] - expected)) <= 1e-6 * np.max(np.abs(expected))
    rest = b1.coeffs.copy()
    rest[0, :, 1] = 0.0
    assert np.max(np.abs(rest)) <= 1e-10
    f1 = solver.f1[i]
    expected_f1 = 0.5 * (2.0 * x - x**3) * np.exp(-0.5 * x**2) * traj.Theta[i]
    assert np.max(np.abs(f1 - expected_f1)) <= 1e-6 * np.max(np.abs(expected_f1))


def test_circle_b1_lab_value(circle_solver):
    # lab-frame value at the frame point (0, 1): (1/2) e^{-1/2} theta_dot spinor
    solver, traj = circle_solver
    i = traj.index_at(0.5)
    theta = traj.theta[i]
    c, s = np.cos(theta), np.sin(theta)
    z = np.array([[c * 0.0 - s * 1.0], [s * 0.0 + c * 1.0]])  # R^T (0,1)
    vals = sample_hermite_amplitude(solver.b1(i), theta, traj.r[i], np.zeros(2), 1.0, z[0], z[1])
    spinor = np.array([np.exp(-0.5j * theta), -np.exp(0.5j * theta)])
    expected = 0.5 * np.exp(-0.5) * traj.theta_dot[i] * spinor
    assert np.max(np.abs(vals[:, 0, 0] - expected)) <= 1e-6
    assert abs(expected[0]) == pytest.approx(0.30327, abs=1e-5)


def test_f1_interpolated_spot_value(circle_solver):
    solver, traj = circle_solver
    i = traj.index_at(1.0)
    val = hermite.eval_on_points(solver.f1[i], solver.grid, np.array([1.0]))[0]
    assert val.real == pytest.approx(0.5 * np.exp(-0.5) * traj.Theta[i], abs=1e-6)
    assert abs(val.imag) <= 1e-8


def test_corrector_equation_in_lab_frame(tanh_solver):
    # independent oracle: sample a0, a1 on a grid and apply the lab transport
    # operators spectrally; T0 a1 + T1 a0 must vanish to discretization error
    solver, traj = tanh_solver
    i = traj.index_at(0.1)
    grid = Grid2D(256, 256, 12.0, 12.0)
    X1, X2 = grid.mesh()
    y0 = np.zeros(2)
    k1 = grid.k1[:, None]
    k2 = grid.k2[None, :]

    def dx(f):
        fh = sfft.fft2(f)
        return sfft.ifft2(k1 * fh), sfft.ifft2(k2 * fh)

    wall = traj.wall
    g = wall.gradient(traj.y[i])
    H = wall.hessian(traj.y[i])
    mass = g[0] * X1 + g[1] * X2
    c, s = np.cos(traj.theta[i]), np.sin(traj.theta[i])

    def T0(a):
        out = np.empty_like(a)
        d11, d12 = dx(a[0])
        d21, d22 = dx(a[1])
        out[0] = c * d11 + s * d12 + mass * a[0] + (d21 - 1j * d22)
        out[1] = c * d21 + s * d22 - mass * a[1] + (d11 + 1j * d12)
        return out

    def samp_a0(j):
        return sample_order0(GaussianProfile(), traj.theta[j], traj.r[j], y0, 1.0, grid.x1, grid.x2)

    def samp_a1(j):
        frame = (traj.theta[j], traj.r[j], y0, 1.0, grid.x1, grid.x2)
        out = sample_hermite_amplitude(solver.b1(j), *frame)
        return out + sample_kernel_profile(solver.f1[j], solver.grid, *frame)

    a0 = samp_a0(i)
    a1 = samp_a1(i)
    delta = 5 * traj.dt
    dta0 = -1j * (samp_a0(traj.index_at(0.1 + delta)) - samp_a0(traj.index_at(0.1 - delta))) / (2 * delta)
    P2 = 0.5 * (H[0, 0] * X1 * X1 + 2 * H[0, 1] * X1 * X2 + H[1, 1] * X2 * X2)
    t1a0 = dta0 + P2[None] * np.stack([a0[0], -a0[1]])

    nrm = lambda f: np.sqrt(np.sum(np.abs(f) ** 2) * grid.dA)
    assert nrm(T0(a1) + t1a0) <= 2e-4 * nrm(t1a0)  # limited by the FD time derivative
    # the kernel part K f1 lies in the nullspace of T0
    f1 = solver.f1[i]
    kf1 = sample_kernel_profile(f1, solver.grid, traj.theta[i], traj.r[i], y0, 1.0, grid.x1, grid.x2)
    assert nrm(T0(kf1)) <= 1e-8 * max(nrm(kf1), 1e-300)


def test_order0_norm_time_independent():
    wall = make_wall("tanh")
    traj = integrate_trajectory(wall, np.array([0.0, 0.0]), 1.0, 2e-3)
    grid = Grid2D(256, 256, 5.0, 5.0)
    eps = 0.1
    prof = GaussianProfile()
    norms = [assemble_ansatz(0, prof, traj, t, grid, eps).norm() for t in (0.0, 0.5, 1.0)]
    assert np.max(np.abs(np.diff(norms))) <= 1e-3 * norms[0]


def test_order1_matches_order0_plus_closed_forms(circle_solver):
    # on the unit circle the order-1 ansatz equals order 0 plus sqrt(eps)
    # times the closed-form corrector terms
    solver, traj = circle_solver
    eps = 0.1
    grid = Grid2D(128, 128, 3.0, 3.0)
    t = 0.5
    i = traj.index_at(t)
    theta = traj.theta[i]
    w0 = assemble_ansatz(0, GaussianProfile(), traj, t, grid, eps, solver)
    w1 = assemble_ansatz(1, GaussianProfile(), traj, t, grid, eps, solver)
    X1, X2 = grid.mesh()
    z1 = (X1 - traj.y[i][0]) / np.sqrt(eps)
    z2 = (X2 - traj.y[i][1]) / np.sqrt(eps)
    c, s = np.cos(theta), np.sin(theta)
    u = c * z1 + s * z2
    v = -s * z1 + c * z2
    spinor = np.array([np.exp(-0.5j * theta), -np.exp(0.5j * theta)])
    gauss = np.exp(-0.5 * (u**2 + v**2))
    b1 = 0.5 * (1.0 - u**2) * v * gauss * traj.theta_dot[i]
    f1 = 0.5 * (2.0 * u - u**3) * np.exp(-0.5 * u**2) * traj.Theta[i]
    kf1 = f1 * np.exp(-0.5 * v**2)
    corr = (b1 + kf1)[None] * spinor[:, None, None] / np.sqrt(eps)
    expected = w0.data + np.sqrt(eps) * corr
    err = np.sqrt(np.sum(np.abs(w1.data - expected) ** 2) * grid.dA)
    assert err <= 1e-6 * np.sqrt(np.sum(np.abs(expected) ** 2) * grid.dA)


def test_assemble_rejects_unresolved_grid():
    wall = make_wall("tanh")
    traj = integrate_trajectory(wall, np.array([0.0, 0.0]), 0.01, 1e-2)
    coarse = Grid2D(32, 32, 6.0, 6.0)
    with pytest.raises(ValueError):
        assemble_ansatz(0, GaussianProfile(), traj, 0.0, coarse, 0.05)


def test_residual_scales_with_order(tanh_solver):
    solver, traj = tanh_solver
    prof = GaussianProfile()
    out = {}
    for m in (0, 1):
        rs = []
        for eps, half in ((0.2, 6.0), (0.1, 4.0), (0.05, 3.0)):
            g = Grid2D(256, 256, half, half)
            r, wn = ansatz_residual(m, prof, traj, 0.5, g, eps, solver=solver, dt_fd=1e-3)
            rs.append(r / wn)
        slope = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(rs), 1)[0]
        out[m] = slope
    assert out[0] == pytest.approx(1.0, abs=0.15)
    assert out[1] == pytest.approx(1.5, abs=0.15)


def test_b2_is_kernel_orthogonal_and_healthy(circle_solver):
    solver, traj = circle_solver
    b2 = solver.b2(traj.index_at(0.5))
    f, _ = hermite.kernel_project(b2)
    assert np.max(np.abs(f)) <= 1e-10
    assert b2.n_hermite == hierarchy.N_BANDS
    assert not np.any(b2.coeffs[:, :, 7:])
    assert b2.truncation_health() == 0.0
    assert solver.truncation_max == 0.0


def test_sample_hermite_amplitude_tube_mask_and_direct_sum():
    # zero wherever the canonical x1 coordinate leaves the amplitude's window;
    # inside, the x1 Fourier sum times the x2 oscillator functions, point by
    # point, on a square mesh and on one with n1 != n2 and l1 != l2
    grid = hermite.X1Grid(n=64, half_extent=6.0)
    rng = np.random.default_rng(5)
    amp = hermite.HermiteAmplitude.zeros(grid, hierarchy.N_BANDS)
    amp.coeffs[:, :, :7] = rng.standard_normal((2, 64, 7)) + 1j * rng.standard_normal((2, 64, 7))
    amp.coeffs *= np.exp(-0.5 * (grid.x / 1.5) ** 2)[None, :, None]
    theta, r = 0.7, 1.6
    eps, y = 0.1, np.array([0.3, -0.2])
    for lab in (Grid2D(32, 32, 3.0, 3.0), Grid2D(32, 64, 3.0, 2.5)):
        got = sample_hermite_amplitude(amp, theta, r, y, eps, lab.x1, lab.x2)
        assert got.shape == (2, lab.n1, lab.n2)
        got = got.reshape(2, -1)
        # canonical coordinates sqrt(r) R_theta (x - y)/sqrt(eps) at every mesh point
        X1, X2 = lab.mesh()
        z1, z2 = (X1.ravel() - y[0]) / np.sqrt(eps), (X2.ravel() - y[1]) / np.sqrt(eps)
        c, s = np.cos(theta), np.sin(theta)
        u, v = np.sqrt(r) * (c * z1 + s * z2), np.sqrt(r) * (-s * z1 + c * z2)
        outside = np.abs(u) >= grid.half_extent
        assert 100 < np.count_nonzero(outside) < u.size - 100
        assert np.all(got[:, outside] == 0.0)
        ui, vi = u[~outside], v[~outside]
        fourier = np.exp(1j * np.outer(ui + grid.half_extent, grid.k)) / grid.n
        tilde = np.einsum("pm,cmn,pn->cp", fourier, sfft.fft(amp.coeffs, axis=1),
                          hermite.hermite_functions(amp.n_hermite, vi))
        phase = np.array([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        direct = phase[:, None] * (hermite._UNTILDE @ tilde) / np.sqrt(eps)
        assert np.max(np.abs(got[:, ~outside] - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_sample_kernel_profile_matches_pointwise_interpolant(circle_solver):
    # the separable f1 packet equals sample_order0 of the pointwise interpolant,
    # with exact zeros where the profile variable leaves the x1 window
    solver, traj = circle_solver
    i = traj.index_at(0.5)
    theta, r, f1 = traj.theta[i], traj.r[i], solver.f1[i]
    lab = Grid2D(64, 32, 2.0, 1.5)
    y = traj.y[i] + np.array([0.8, 0.0])
    got = sample_kernel_profile(f1, solver.grid, theta, r, y, 0.01, lab.x1, lab.x2)
    ref = sample_order0(lambda u: hermite.eval_on_points(f1, solver.grid, u), theta, r, y, 0.01, lab.x1, lab.x2)
    zero = ref == 0.0
    assert np.any(zero[0]) and not np.all(zero[0])
    assert np.all(got[zero] == 0.0)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_residual_orders_share_one_pass(tanh_solver):
    # each single-order residual is the same-order entry of the all-orders pass, bit for bit
    solver, traj = tanh_solver
    grid = Grid2D(128, 128, 3.0, 3.0)
    both = hierarchy.ansatz_residuals((0, 1, 2), GaussianProfile(), traj, 0.5, grid, 0.1,
                                      solver=solver, dt_fd=1e-3)
    for m, pair in zip((0, 1, 2), both):
        assert ansatz_residual(m, GaussianProfile(), traj, 0.5, grid, 0.1, solver=solver, dt_fd=1e-3) == pair
    w2 = assemble_ansatz(2, GaussianProfile(), traj, 0.5, grid, 0.1, solver)
    assert w2.norm() == both[2][1]


def test_hierarchy_check_samples_each_term_once(monkeypatch, tmp_path):
    # orders 0,1,2 over 3 eps and 3 stencil times: b1 and b2 sampled once per
    # (eps, time), and b2 solved once per trajectory sample
    from edgelab import experiments
    from edgelab.config import load_config

    calls = {"sample": 0, "b2": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hierarchy, "sample_hermite_amplitude", counted("sample", sample_hermite_amplitude))
    monkeypatch.setattr(CorrectorSolver, "_solve_b2", counted("b2", CorrectorSolver._solve_b2))
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "hierarchy_tanh.cfg"))
    cfg.apply_overrides(["hierarchy.orders=0,1,2"])
    result = experiments.run_experiment(cfg, str(tmp_path))
    assert len(result["rows"]) == 9 and len(result["fits"]) == 3
    assert calls == {"sample": 18, "b2": 3}


def test_corrector_build_makes_no_phase_tables(monkeypatch):
    # the sqrt(r)-dilations of the sweep go through the chirp-z helper, so a build over the
    # hierarchy-tanh trajectory (503 samples) makes no per-sample phase table
    calls = {"mode_phases": 0, "trig_interp_matrix": 0}

    def counted(name):
        fn = getattr(hermite, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(hermite, name, counted(name))
    traj = integrate_trajectory(make_wall("tanh"), np.array([0.0, 0.0]), 0.502, 1e-3)
    solver = CorrectorSolver(GaussianProfile(), traj)
    solver.b2(len(traj) // 2)
    assert len(traj) == 503 and calls == {"mode_phases": 0, "trig_interp_matrix": 0}


class _SteeperDerivative(GaussianProfile):
    def derivative(self, s):
        return 1.5 * super().derivative(s)


@pytest.mark.parametrize("profile", [_SteeperDerivative(), GaussianProfile(sigma=6.0)])
def test_solvability_breach_raises(profile):
    # along tanh r_t changes, so the b1 source carries the dilation of a0 twice:
    # through the frame generator (spectral x1 derivative of the samples) and
    # through d/dt a0 (the profile's own derivative).  Their kernel bands cancel
    # only when the two agree: not for a wrong derivative, nor for a profile
    # too wide for the x1 window, whose periodic samples differentiate otherwise
    traj = integrate_trajectory(make_wall("tanh"), np.array([0.0, 0.0]), 0.02, 1e-3)
    assert CorrectorSolver(GaussianProfile(), traj).max_solvability_residual() <= 1e-12
    with pytest.raises(SolverError, match="solvability residual"):
        CorrectorSolver(profile, traj)


@pytest.mark.parametrize("family, params, y0", [("tanh", (), (0.0, 0.0)), ("circle", (1.0,), (1.0, 0.0))])
def test_derived_band_count_matches_64_bands(monkeypatch, family, params, y0):
    # b1 fills bands 0-3 and b2 bands 0-6, so widening the basis to 64 bands
    # changes no bit of f1, b1 or b2
    traj = integrate_trajectory(make_wall(family, params), np.array(y0), 0.1, 1e-3)
    samples = range(len(traj))
    lean = CorrectorSolver(GaussianProfile(), traj)
    lean_b = [(lean.b1(i), lean.b2(i)) for i in samples]
    nb = hierarchy.N_BANDS
    monkeypatch.setattr(hierarchy, "N_BANDS", 64)
    wide = CorrectorSolver(GaussianProfile(), traj)
    assert np.array_equal(lean.f1, wide.f1)
    for i, (b1, b2) in zip(samples, lean_b):
        wb1, wb2 = wide.b1(i), wide.b2(i)
        assert wb1.n_hermite == 64 and b1.n_hermite == nb
        assert np.array_equal(b1.coeffs, wb1.coeffs[:, :, :nb])
        assert np.array_equal(b2.coeffs, wb2.coeffs[:, :, :nb])
        assert not np.any(wb1.coeffs[:, :, 4:]) and not np.any(wb2.coeffs[:, :, 7:])
        assert b1.truncation_health() == 0.0 and b2.truncation_health() == 0.0


def test_too_few_bands_raise(monkeypatch):
    # with 4 bands the top two (2, 3) hold part of b1
    traj = integrate_trajectory(make_wall("tanh"), np.array([0.0, 0.0]), 0.01, 1e-3)
    monkeypatch.setattr(hierarchy, "N_BANDS", 4)
    with pytest.raises(SolverError, match="top two of 4 Hermite bands"):
        CorrectorSolver(GaussianProfile(), traj)


def _random_frames(rng, n):
    return hierarchy.FrameContext(
        theta=rng.uniform(-np.pi, np.pi, n), theta_dot=rng.standard_normal(n),
        r=rng.uniform(0.3, 3.0, n), r_dot=rng.standard_normal(n),
        hessian=rng.standard_normal((n, 2, 2)), third=rng.standard_normal((n, 2, 2, 2)))


def test_T2_of_leading_amplitude_has_no_first_component():
    # the corrector sweep skips T2 a0 in the f1 transport, which reads the
    # kernel band: a0 lies in the first component and T2 carries sigma1
    rng = np.random.default_rng(11)
    ctx = _random_frames(rng, 6)
    a0, _ = hierarchy._leading(GaussianProfile(), ctx, X1GRID, hierarchy.N_BANDS)
    a0[:, 0, :, 0] *= rng.standard_normal((6, X1GRID.n)) + 1j * rng.standard_normal((6, X1GRID.n))
    t2 = hierarchy.apply_T2(a0, ctx, X1GRID)
    assert np.all(t2[:, 0] == 0) and np.all(np.any(t2[:, 1], axis=(1, 2)))


@pytest.mark.parametrize("block", [16, 1])
def test_kernel_line_of_T1_matches_apply_T1_bit_for_bit(block):
    # the f1 transport reads one line of T1 b1, and _t1_kernel_line computes it from six input lines.
    # x2_mult and dx2_op are BLAS products whose last bits can depend on the shape, so the arrays are
    # the sweep's: a block of 16 samples or its one-sample tail, b1 on 6 bands (apply_T1 got a 4-band
    # view of them), with r_dot non-zero and zero
    rng = np.random.default_rng(12)
    ctx = _random_frames(rng, block)
    p2 = hierarchy._taylor_poly(ctx.hessian, ctx)
    shape = (2, block, 2, X1GRID.n, 6)
    c, dt_c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for frames in (ctx, dataclasses.replace(ctx, r_dot=np.zeros(block))):
        full = hierarchy.apply_T1(c[..., :4], dt_c[..., :4], frames, p2, X1GRID)
        assert hierarchy._t1_kernel_line(c, dt_c, frames, p2, X1GRID).tobytes() == full[:, 0, :, 0].tobytes()


def test_b1_inverted_on_its_bands_matches_the_six_band_inversion(tanh_solver):
    # b1 occupies bands 0-3, so invert_L on 4 bands gives the bits of the 6-band inversion there;
    # the guard bands 4-5 are zero either way (the 6-band inversion leaves some as -0.0)
    solver, _ = tanh_solver
    for lo, hi in ((0, 16), (500, 501)):
        ctx = solver._frames(lo, hi)
        a0, dt_a0 = hierarchy._leading(solver.profile, ctx, solver.grid, 3)
        src = hierarchy.apply_T1(a0, dt_a0, ctx, hierarchy._taylor_poly(ctx.hessian, ctx), solver.grid)
        six = hermite.invert_L(hierarchy._widen(hermite.kernel_project(src)[1], 6), solver.grid)
        six = six * hierarchy._per_sample(-1.0 / np.sqrt(ctx.r))
        b1 = solver._b1_block(lo, hi)
        assert b1.shape == six.shape == (hi - lo, 2, solver.grid.n, 6)
        assert b1[..., :4].tobytes() == six[..., :4].tobytes()
        assert not np.any(b1[..., 4:]) and not np.any(six[..., 4:])


def test_closed_form_frame_rotation_pointwise():
    # canonical p2, p3 at x equal the lab Taylor polynomials H[y, y]/2 and
    # T[y, y, y]/6 at y = R_theta^T x / sqrt(r), for a block of frames and for one frame
    rng = np.random.default_rng(8)
    ctx = _random_frames(rng, 5)
    p2, p3 = hierarchy._taylor_poly(ctx.hessian, ctx), hierarchy._taylor_poly(ctx.third, ctx)
    poly = lambda coeff, x: sum(coeff[i, j] * x[0] ** i * x[1] ** j
                                for i in range(coeff.shape[0]) for j in range(coeff.shape[1]))
    for k in range(5):
        c, s = np.cos(ctx.theta[k]), np.sin(ctx.theta[k])
        one = FrameContext(ctx.theta[k], 0.0, ctx.r[k], 0.0, ctx.hessian[k], ctx.third[k])
        assert np.allclose(hierarchy._taylor_poly(one.hessian, one), p2[k], rtol=0, atol=1e-15)
        assert np.allclose(hierarchy._taylor_poly(one.third, one), p3[k], rtol=0, atol=1e-15)
        for x in rng.standard_normal((5, 2)):
            y = np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]]) / np.sqrt(ctx.r[k])
            assert poly(p2[k], x) == pytest.approx(y @ ctx.hessian[k] @ y / 2.0, abs=1e-12)
            assert poly(p3[k], x) == pytest.approx(np.einsum("ijl,i,j,l", ctx.third[k], y, y, y) / 6.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 41])
def test_sweep_results_do_not_depend_on_block_size(monkeypatch, n):
    # every operator acts on each sample of a block alone, so splitting the
    # trajectory into other blocks changes no bit of f1, the solvability, b1 or b2
    traj = integrate_trajectory(make_wall("tanh"), np.array([-0.05, np.tanh(-0.05)]), (n - 1) * 1e-3, 1e-3)
    ref = CorrectorSolver(GaussianProfile(), traj)
    for block in (1, 7):
        monkeypatch.setattr(hierarchy, "SWEEP_BLOCK", block)
        other = CorrectorSolver(GaussianProfile(), traj)
        assert np.array_equal(ref.f1, other.f1) and np.array_equal(ref.solvability, other.solvability)
        for i in range(n):
            assert np.array_equal(ref.b1(i).coeffs, other.b1(i).coeffs)
            assert np.array_equal(ref.b2(i).coeffs, other.b2(i).coeffs)


def test_evolve_check_builds_one_solver_per_eps(monkeypatch, tmp_path):
    # orders 0,1,2 over 3 eps: one solver for the residual pass and one per
    # distinct trajectory step for the evolution check, shared by orders 1 and 2
    # (eps 0.2 and 0.1 both get dt 1e-3 and so the same trajectory)
    from edgelab import experiments
    from edgelab.config import load_config

    builds = []
    init = CorrectorSolver.__init__
    monkeypatch.setattr(CorrectorSolver, "__init__", lambda self, *a, **k: builds.append(1) or init(self, *a, **k))
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "hierarchy_tanh.cfg"))
    cfg.apply_overrides(["hierarchy.orders=0,1,2", "hierarchy.evolve_check=true", "hierarchy.times=0.05"])
    result = experiments.run_experiment(cfg, str(tmp_path))
    assert sorted(result["evolve_fits"]) == [0, 1, 2]
    assert len(builds) == 3
