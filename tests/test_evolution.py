import numpy as np
import pytest

from edgelab.evolution import (
    CrankNicolsonStepper,
    EvolutionConfig,
    Grid2D,
    SolverError,
    SpinorField,
    apply_H,
    evolve,
    overlap_diagnostics,
    phase_at,
)
from edgelab.geometry import integrate_trajectory
from edgelab.profiles import GaussianProfile
from edgelab.straight import StraightWall, ballistic_wave
from edgelab.walls import make_wall, straight_wall


def thm1_gaussian(grid, eps, y0, theta):
    X1, X2 = grid.mesh()
    g = np.exp(-((X1 - y0[0]) ** 2 + (X2 - y0[1]) ** 2) / (2 * eps)) / np.sqrt(eps)
    spinor = np.array([np.exp(-0.5j * theta), -np.exp(0.5j * theta)])
    return SpinorField(grid, g[None] * spinor[:, None, None], 0.0)


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid2D(100, 128, 4.0, 4.0)
    with pytest.raises(ValueError):
        Grid2D(128, 128, -1.0, 4.0)
    g = Grid2D(128, 128, 4.0, 4.0)
    with pytest.raises(ValueError):
        g.check_resolution(0.001)  # under-resolved packet
    g.check_resolution(0.25)


def test_plane_wave_cayley_phase():
    grid = Grid2D(64, 64, np.pi, np.pi)
    eps, dt = 1.0, 0.05
    X1, _ = grid.mesh()
    k0 = 3.0  # on the frequency lattice of [-pi, pi)
    data = np.exp(1j * k0 * X1)[None] * np.array([1.0, 1.0])[:, None, None] / np.sqrt(2)
    stepper = CrankNicolsonStepper(grid, np.zeros((64, 64)), EvolutionConfig(epsilon=eps, dt=dt))
    out = stepper.step(data)
    lam = eps * k0  # (1, 1) is the +|k| eigenvector of the free symbol
    cayley = (1.0 - 0.5j * dt * lam / eps) / (1.0 + 0.5j * dt * lam / eps)
    assert np.max(np.abs(out - cayley * data)) <= 1e-12
    assert stepper.last_iterations <= 1  # free preconditioner is exact


def test_apply_H_hermitian():
    grid = Grid2D(64, 64, 3.0, 3.0)
    wall = make_wall("tanh")
    kappa = grid.wall_values(wall)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((2, 64, 64)) + 1j * rng.standard_normal((2, 64, 64))
    v = rng.standard_normal((2, 64, 64)) + 1j * rng.standard_normal((2, 64, 64))
    eps = 0.3
    ip = lambda a, b: np.sum(np.conj(a) * b) * grid.dA
    lhs = ip(u, apply_H(v, kappa, eps, grid))
    rhs = ip(apply_H(u, kappa, eps, grid), v)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_symbol_eigenvalues_constant_mass():
    # kappa = m constant: plane-wave eigenvectors have energies +-sqrt(m^2 + |eps k|^2)
    grid = Grid2D(64, 64, np.pi, np.pi)
    eps, m = 0.5, 0.7
    k = np.array([grid.k1[3], grid.k2[5]])
    X1, X2 = grid.mesh()
    wave = np.exp(1j * (k[0] * X1 + k[1] * X2))
    xi = eps * k
    lam = np.sqrt(m**2 + xi[0] ** 2 + xi[1] ** 2)
    symbol = np.array([[m, xi[0] - 1j * xi[1]], [xi[0] + 1j * xi[1], -m]])
    evals, evecs = np.linalg.eigh(symbol)
    assert np.allclose(sorted(np.abs(evals)), [lam, lam])
    for which in (0, 1):
        vec = evecs[:, which]
        data = wave[None] * vec[:, None, None]
        out = apply_H(data, np.full((64, 64), m), eps, grid)
        assert np.max(np.abs(out - evals[which] * data)) <= 1e-10


def test_unitarity_invariant():
    wall = straight_wall(0.2, 1.0)
    eps = 0.25
    grid = Grid2D(128, 128, 5.0, 5.0)
    init = thm1_gaussian(grid, eps, np.zeros(2), 0.2)
    cfg = EvolutionConfig(epsilon=eps, dt=eps / 20, krylov_tol=1e-12)
    res = evolve(init, wall, cfg, 400 * cfg.dt)
    # norm drift <= 10x Krylov tolerance per 1000 steps
    assert res.norm_drift <= 10.0 * cfg.krylov_tol
    # guaranteed: A = I + i gamma H has singular values >= 1, so a step whose
    # residual is <= tol |psi| moves the norm by at most tol
    assert res.norm_drift <= res.steps * cfg.krylov_tol


@pytest.mark.parametrize("dt_over_eps", [0.1, 1.0])
def test_step_matches_dense_cayley_solve(dt_over_eps):
    # dt = eps takes the fixed-point solve through many more sweeps
    grid = Grid2D(16, 16, 3.0, 3.0)
    eps = 0.3
    dt = dt_over_eps * eps
    kappa = grid.wall_values(make_wall("tanh"))
    n = 2 * 16 * 16
    H = np.empty((n, n), dtype=complex)
    for col in range(n):
        e = np.zeros(n, dtype=complex)
        e[col] = 1.0
        H[:, col] = apply_H(e.reshape(2, 16, 16), kappa, eps, grid).ravel()
    gamma = dt / (2 * eps)
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = np.linalg.solve(np.eye(n) + 1j * gamma * H, psi - 1j * gamma * (H @ psi))
    stepper = CrankNicolsonStepper(grid, kappa, EvolutionConfig(epsilon=eps, dt=dt))
    out = stepper.step(psi.reshape(2, 16, 16)).ravel()
    assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref)


def _fixed_point_oracle(stepper, hat):
    """The u <- u + r fixed point with r = 2 psi - (I + E) u formed explicitly."""

    def apply_E(u):
        spatial = np.fft.ifft2(stepper._free_solve(u, np.empty_like(u)))
        z = np.fft.fft2(-stepper._remainder * spatial)  # _remainder carries the sign of -E
        return np.stack([stepper._off * z[1], stepper._off_c * z[0]])

    target = stepper.config.krylov_tol * np.linalg.norm(hat)
    u = 2.0 * hat
    for iters in range(1, stepper.config.max_krylov_iter + 1):
        r = 2.0 * hat - u - apply_E(u)
        if np.linalg.norm(r) <= target:
            break
        u = u + r
    w = np.fft.fft2(stepper._mass_inv * np.fft.ifft2(stepper._free_solve(u, np.empty_like(u))))
    return w - hat, iters


@pytest.mark.parametrize("dt_over_eps", [0.1, 1.0])
def test_residual_recursion_matches_explicit_fixed_point(dt_over_eps):
    grid = Grid2D(32, 32, 3.0, 3.0)
    eps = 0.3
    rng = np.random.default_rng(5)
    hat = np.fft.fft2(rng.standard_normal((2, 32, 32)) + 1j * rng.standard_normal((2, 32, 32)))
    stepper = CrankNicolsonStepper(grid, make_wall("tanh"), EvolutionConfig(epsilon=eps, dt=dt_over_eps * eps))
    out = stepper.step_hat(hat)
    ref, iters = _fixed_point_oracle(stepper, hat)
    assert stepper.last_iterations == iters
    assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("overwrite_x", [False, True])
def test_transforms_match_scipy_fft2_bit_for_bit(workers, overwrite_x, monkeypatch):
    from scipy import fft as sfft

    from edgelab import evolution

    monkeypatch.setattr(evolution, "_FFT_WORKERS", workers)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 64, 32)) + 1j * rng.standard_normal((2, 64, 32))
    for ours, ref in ((evolution._fft2, sfft.fft2), (evolution._ifft2, sfft.ifft2)):
        want = ref(a, axes=(-2, -1))
        x = a.copy()
        got = ours(x, overwrite_x=overwrite_x)
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
        if overwrite_x:
            assert got is x
        else:
            assert np.array_equal(x.view(np.float64), a.view(np.float64))


def test_step_counts_forward_and_inverse_transforms(monkeypatch):
    from edgelab import evolution

    calls = {"fft2": 0, "ifft2": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    grid = Grid2D(64, 64, 3.0, 3.0)
    hat = evolution._fft2(thm1_gaussian(grid, 0.1, np.zeros(2), 0.3).data)
    monkeypatch.setattr(evolution, "_fft2", counted("fft2", evolution._fft2))
    monkeypatch.setattr(evolution, "_ifft2", counted("ifft2", evolution._ifft2))
    # a certified last sweep skips its forward transform: k pairs for k sweeps; an uncertified
    # step transforms every sweep's product, and w = P^-1 u takes one forward transform more
    for tol, sweeps, forward in ((1e-12, 4, 4), (1e-6, 2, 3)):
        calls.update(fft2=0, ifft2=0)
        stepper = CrankNicolsonStepper(grid, make_wall("tanh"), EvolutionConfig(epsilon=0.1, dt=0.005, krylov_tol=tol))
        stepper.step_hat(hat)
        assert stepper.last_iterations == sweeps
        assert calls == {"fft2": forward, "ifft2": sweeps}


def test_step_and_evolve_make_no_blas_calls(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS call in the Crank-Nicolson step")

    eps = 0.25
    grid = Grid2D(64, 64, 4.0, 4.0)
    wall = make_wall("tanh")
    init = thm1_gaussian(grid, eps, np.zeros(2), 0.0)
    cfg = EvolutionConfig(epsilon=eps, dt=eps / 10)
    stepper = CrankNicolsonStepper(grid, wall, cfg)
    hat = np.fft.fft2(init.data)
    for target, name in ((np.linalg, "norm"), (np, "vdot"), (np, "dot")):
        monkeypatch.setattr(target, name, refuse)
    stepper.step_hat(hat)
    assert stepper.last_iterations > 0
    res = evolve(init, wall, cfg, 3 * cfg.dt)
    assert res.steps == 3 and res.norm_drift <= 3 * cfg.krylov_tol


def test_iteration_cap_raises_solver_error():
    grid = Grid2D(16, 16, 3.0, 3.0)
    eps = 0.3
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((2, 16, 16)) + 1j * rng.standard_normal((2, 16, 16))
    cfg = EvolutionConfig(epsilon=eps, dt=eps, max_krylov_iter=2)
    with pytest.raises(SolverError, match="after 2 iterations"):
        CrankNicolsonStepper(grid, make_wall("tanh"), cfg).step(psi)


def test_split_preconditioner_keeps_iterations_low():
    # the mass factor of the preconditioner leaves an O(gamma^2) remainder
    eps = 0.1
    grid = Grid2D(256, 256, 4.0, 4.0)
    stepper = CrankNicolsonStepper(grid, make_wall("tanh"), EvolutionConfig(epsilon=eps, dt=eps / 20))
    init = thm1_gaussian(grid, eps, np.zeros(2), 0.0)
    stepper.step(init.data)
    assert 0 < stepper.last_iterations <= 5


def test_time_accuracy_second_order():
    eps = 0.2
    grid = Grid2D(128, 128, 5.0, 5.0)
    wall = straight_wall(0.0, 1.0)
    sw = StraightWall(0.0, 1.0, eps)
    prof = GaussianProfile(sigma=np.sqrt(eps))
    X1, X2 = grid.mesh()
    pts = np.stack([X1, X2], axis=-1)
    init = SpinorField(grid, np.moveaxis(ballistic_wave(sw, prof, 0.0, pts), -1, 0), 0.0)
    ref = np.moveaxis(ballistic_wave(sw, prof, 0.4, pts), -1, 0)
    errs = []
    dts = [eps / 5, eps / 10, eps / 20]
    for dt in dts:
        res = evolve(init, wall, EvolutionConfig(epsilon=eps, dt=dt), 0.4)
        errs.append(np.sqrt(np.sum(np.abs(res.final.data - ref) ** 2) * grid.dA))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_spatial_spectral_accuracy():
    # apply_H error against a 2x finer grid decays faster than any power of N:
    # the test field is narrow enough that its spectrum is still visible at
    # the coarse Nyquist frequency and fully resolved two refinements later
    eps = 0.3
    wall = make_wall("tanh")
    sigma = 0.15

    def field_on(n):
        grid = Grid2D(n, n, 4.0, 4.0)
        X1, X2 = grid.mesh()
        g = np.exp(-(X1**2 + X2**2) / (2 * sigma**2))
        data = g[None] * np.array([1.0, -1.0])[:, None, None]
        return apply_H(data, grid.wall_values(wall), eps, grid)

    ref = field_on(1024)
    scale = np.max(np.abs(ref))
    errs = {}
    for n in (64, 128, 256):
        out = field_on(n)
        stride = 1024 // n
        errs[n] = np.max(np.abs(out - ref[:, ::stride, ::stride]))
    floor = 1e-11 * scale
    assert errs[64] / max(errs[128], floor) > 1e2
    assert errs[128] / max(errs[256], floor) > 1e2 or errs[256] <= floor


def test_evolution_matches_rotated_ballistic_wave():
    # theta = pi/4 straight wall: closed form vs the solver
    eps = 0.1
    theta, r = np.pi / 4, 1.0
    grid = Grid2D(128, 128, 4.0, 4.0)
    wall = straight_wall(theta, r)
    sw = StraightWall(theta, r, eps)
    prof = GaussianProfile(sigma=np.sqrt(eps))
    X1, X2 = grid.mesh()
    pts = np.stack([X1, X2], axis=-1)
    init = SpinorField(grid, np.moveaxis(ballistic_wave(sw, prof, 0.0, pts), -1, 0), 0.0)
    t_end = 0.5
    res = evolve(init, wall, EvolutionConfig(epsilon=eps, dt=eps / 20), t_end)
    ref = np.moveaxis(ballistic_wave(sw, prof, t_end, pts), -1, 0)
    err = np.sqrt(np.sum(np.abs(res.final.data - ref) ** 2) * grid.dA) / init.norm()
    assert err <= 5e-4


def test_zero_initial_data_stays_zero():
    grid = Grid2D(64, 64, 4.0, 4.0)
    wall = make_wall("tanh")
    init = SpinorField(grid, np.zeros((2, 64, 64), dtype=complex), 0.0)
    res = evolve(init, wall, EvolutionConfig(epsilon=0.25, dt=0.0125), 0.125)
    assert res.final.norm() == 0.0


def test_center_of_mass_tracks_interface():
    eps = 0.1
    wall = make_wall("tanh")
    dt = eps / 20
    traj = integrate_trajectory(wall, np.array([0.0, 0.0]), 0.5, dt / 5)
    grid = Grid2D(256, 256, 4.0, 4.0)
    init = thm1_gaussian(grid, eps, traj.y[0], traj.theta[0])
    res = evolve(init, wall, EvolutionConfig(epsilon=eps, dt=dt), 0.5, snapshot_times=[0.25, 0.5])
    for snap in res.snapshots[1:]:
        i = traj.index_at(round(snap.time / (dt / 5)) * (dt / 5), tol=dt)
        dist = np.hypot(*(snap.center_of_mass - traj.y[i]))
        assert dist <= 0.5 * np.sqrt(eps)


def test_snapshot_bookkeeping():
    grid = Grid2D(64, 64, 4.0, 4.0)
    wall = straight_wall(0.0, 1.0)
    eps = 0.25
    init = thm1_gaussian(grid, eps, np.zeros(2), 0.0)
    res = evolve(init, wall, EvolutionConfig(epsilon=eps, dt=0.0125), 0.125,
                 snapshot_times=[0.05, 0.1])
    times = [s.time for s in res.snapshots]
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.125)
    assert len(times) == 4
    for s in res.snapshots:
        assert s.field is None and s.norm > 0


def test_on_snapshot_streams_fields_in_order():
    grid = Grid2D(64, 64, 4.0, 4.0)
    wall = make_wall("tanh")
    eps, dt = 0.25, 0.0125
    init = thm1_gaussian(grid, eps, np.zeros(2), 0.0)
    seen = []
    res = evolve(init, wall, EvolutionConfig(epsilon=eps, dt=dt), 0.125,
                 snapshot_times=[0.051, 0.1], on_snapshot=seen.append)
    # times rounded to the step, with t = 0 and t_end always taken, in order
    assert [s.time for s in seen] == pytest.approx([0.0, 4 * dt, 8 * dt, 10 * dt], abs=1e-15)
    assert [s.time for s in seen] == [s.time for s in res.snapshots]
    for s, kept in zip(seen, res.snapshots):
        assert s.field.time == s.time
        assert s.norm == kept.norm == s.field.norm()
        assert np.array_equal(s.center_of_mass, kept.center_of_mass)
    assert np.allclose(seen[0].field.data, init.data, rtol=0.0, atol=1e-12)
    assert np.array_equal(seen[-1].field.data, res.final.data)


def test_evolve_frees_each_snapshot_field_after_its_callback():
    import weakref

    grid = Grid2D(64, 64, 4.0, 4.0)
    eps = 0.25
    init = thm1_gaussian(grid, eps, np.zeros(2), 0.0)
    refs = []

    def hook(snap):
        # no field of an earlier snapshot is alive when the next one arrives
        assert all(ref() is None for ref in refs)
        refs.append(weakref.ref(snap.field))

    res = evolve(init, make_wall("tanh"), EvolutionConfig(epsilon=eps, dt=0.0125), 0.125,
                 snapshot_times=[0.05, 0.1], on_snapshot=hook)
    assert len(refs) == 4
    assert all(ref() is None for ref in refs[:-1])
    assert refs[-1]() is res.final


def test_field_reductions_match_the_mesh_expressions():
    grid = Grid2D(64, 32, 3.0, 2.0)
    rng = np.random.default_rng(11)
    d = rng.standard_normal((2, 64, 32)) + 1j * rng.standard_normal((2, 64, 32))
    f = SpinorField(grid, d, 0.0)
    rho = np.abs(d[0]) ** 2 + np.abs(d[1]) ** 2
    X1, X2 = grid.mesh()
    assert f.norm() == float(np.sqrt(np.sum(np.abs(d) ** 2) * grid.dA))
    assert np.array_equal(f.density(), rho)
    assert np.array_equal(f.center_of_mass(), np.array([np.sum(X1 * rho), np.sum(X2 * rho)]) / np.sum(rho))


def test_true_residual_runs_in_the_step_buffers():
    import tracemalloc

    from edgelab import evolution

    # 256^2: a field is 2 MB, well above the fixed 128 kB buffer in which numpy casts kappa to complex
    grid = Grid2D(256, 256, 3.0, 3.0)
    stepper = CrankNicolsonStepper(grid, make_wall("tanh"), EvolutionConfig(epsilon=0.1, dt=0.005))
    hat_old = evolution._fft2(thm1_gaussian(grid, 0.1, np.zeros(2), 0.3).data)
    hat_new = stepper.step_hat(hat_old)
    # the audit may borrow the step's buffers only because a step returns none of them
    assert not any(np.shares_memory(hat_new, b) for b in (stepper._u, stepper._r, stepper._scratch))

    def apply_A(hat):  # reference: A = I + i gamma H in fresh arrays
        out = evolution._fft2(evolution._ifft2(hat) * stepper.kappa, overwrite_x=True)
        out[0] *= 1j * stepper._gamma
        out[1] *= -1j * stepper._gamma
        out[0] += hat[0] + stepper._off * hat[1]
        out[1] += hat[1] - stepper._off_c * hat[0]
        return out

    rhs = 2.0 * hat_old - apply_A(hat_old)
    want = evolution._norm(apply_A(hat_new) - rhs) / max(evolution._norm(rhs), 1e-300)
    tracemalloc.start()
    try:
        got = stepper.true_residual(hat_new, hat_old)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and 0.0 < got <= stepper.config.krylov_tol
    assert peak < hat_old.nbytes / 4


def test_evolve_validates_times():
    grid = Grid2D(64, 64, 4.0, 4.0)
    init = thm1_gaussian(grid, 0.25, np.zeros(2), 0.0)
    wall = straight_wall(0.0, 1.0)
    with pytest.raises(ValueError):
        evolve(init, wall, EvolutionConfig(epsilon=0.25, dt=0.0125), 0.13)
    with pytest.raises(ValueError):
        evolve(init, wall, EvolutionConfig(epsilon=0.25, dt=0.0125), 0.125, snapshot_times=[1.0])


def test_overlap_diagnostics_values():
    grid = Grid2D(64, 64, 4.0, 4.0)
    init = thm1_gaussian(grid, 0.25, np.zeros(2), 0.0)
    same = overlap_diagnostics(init, init, np.zeros(2))
    assert same.l2_error == 0.0 and same.relative_error == 0.0
    rotated = SpinorField(grid, np.exp(1j * np.pi / 3) * init.data, 0.0)
    diag = overlap_diagnostics(rotated, init, np.zeros(2))
    assert diag.relative_error == pytest.approx(abs(np.exp(1j * np.pi / 3) - 1.0), rel=1e-10)
    assert phase_at(rotated, np.zeros(2)) == pytest.approx(np.pi / 3, abs=1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(epsilon=-0.1, dt=0.01)
    with pytest.raises(ValueError):
        EvolutionConfig(epsilon=0.1, dt=0.01, krylov_tol=1e-3)
    with pytest.raises(ValueError):
        EvolutionConfig(epsilon=0.1, dt=0.01, max_krylov_iter=0)


def test_grid_and_config_reject_nan():
    for l1, l2 in ((np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError):
            Grid2D(64, 64, l1, l2)
    for eps, dt in ((np.nan, 0.01), (0.1, np.nan)):
        with pytest.raises(ValueError):
            EvolutionConfig(epsilon=eps, dt=dt)
    with pytest.raises(ValueError):  # below 1e-15 the step's residual target is rounding noise
        EvolutionConfig(epsilon=0.1, dt=0.01, krylov_tol=1e-16)
