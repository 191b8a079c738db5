"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The heavyweight evolutions are shared through module-scoped fixtures; every
evolution registers its norm drift so the unitarity criterion can audit the
whole suite.  Expected values are either closed-form oracles (straight wall,
circle corrector), invariants of the schemes (unitarity, operator algebra),
or the measured scaling exponents with their stated tolerance bands.
"""

import numpy as np
import pytest

import edgelab.evolution as ev
from edgelab import hermite
from edgelab.evolution import EvolutionConfig, Grid2D, SpinorField, evolve, overlap_diagnostics
from edgelab.geometry import hessian_frame_residual, integrate_trajectory, project_to_interface
from edgelab.hierarchy import CorrectorSolver, ansatz_residual, assemble_ansatz
from edgelab.profiles import GaussianProfile
from edgelab.straight import StraightWall, ballistic_wave
from edgelab.walls import make_wall, normalize_wall, straight_wall

ev.set_fft_workers(2)

DRIFTS = []  # (run name, norm drift) for the unitarity audit


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def run_and_register(name, initial, wall, config, t_end, snapshot_times=None, on_snapshot=None):
    res = evolve(initial, wall, config, t_end, snapshot_times=snapshot_times, on_snapshot=on_snapshot)
    DRIFTS.append((name, res.norm_drift))
    return res


def aligned_steps(eps, t_end, divisor=20, traj_target=1e-3):
    dt = eps / divisor
    n = max(1, int(round(t_end / dt)))
    dt = t_end / n
    dtt = dt / max(1, round(dt / traj_target))
    return dt, dtt


# ---------------------------------------------------------------------------
# fixtures: shared heavyweight runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def straight_runs():
    """Straight wall, Theorem-1 Gaussian data, dt and dt/2."""
    eps = 0.1
    grid = Grid2D(256, 256, 6.0, 6.0)
    wall = straight_wall(0.0, 1.0)
    sw = StraightWall(0.0, 1.0, eps)
    prof = GaussianProfile(sigma=np.sqrt(eps))
    X1, X2 = grid.mesh()
    pts = np.stack([X1, X2], axis=-1)
    init = SpinorField(grid, np.moveaxis(ballistic_wave(sw, prof, 0.0, pts), -1, 0), 0.0)
    ref = np.moveaxis(ballistic_wave(sw, prof, 1.0, pts), -1, 0)
    errs = {}
    for divisor in (20, 40):
        res = run_and_register(f"straight dt=eps/{divisor}", init, wall,
                               EvolutionConfig(epsilon=eps, dt=eps / divisor), 1.0)
        diff = res.final.data - ref
        errs[divisor] = float(np.sqrt(np.sum(np.abs(diff) ** 2) * grid.dA) / init.norm())
    return errs


@pytest.fixture(scope="module")
def tanh_scaling():
    """Order-0 ansatz errors on the tanh wall at eps in {0.2, 0.1, 0.05}."""
    prof = GaussianProfile()
    wall = make_wall("tanh")
    rows = {}
    for eps, half, n, t_end in ((0.2, 6.0, 128, 1.0), (0.1, 5.5, 256, 2.0), (0.05, 3.5, 256, 1.0)):
        dt, dtt = aligned_steps(eps, t_end)
        traj = integrate_trajectory(wall, np.array([0.0, 0.0]), t_end, dtt)
        grid = Grid2D(n, n, half, half)
        init = assemble_ansatz(0, prof, traj, 0.0, grid, eps)
        norm0 = init.norm()
        times = [0.5, 1.0, 2.0] if eps == 0.1 else [1.0]

        def on_snapshot(snap):
            if not any(abs(snap.time - t) < 1e-9 for t in times):
                return
            i = traj.index_at(round(snap.time / dtt) * dtt, tol=dtt)
            ref = assemble_ansatz(0, prof, traj, traj.t[i], grid, eps)
            diag = overlap_diagnostics(snap.field, ref, traj.y[i], norm_ref=norm0)
            rows[(eps, round(snap.time, 9))] = diag.relative_error

        run_and_register(f"tanh scaling eps={eps}", init, wall, EvolutionConfig(epsilon=eps, dt=dt),
                         t_end, snapshot_times=times, on_snapshot=on_snapshot)
    return rows


@pytest.fixture(scope="module")
def curvature_contrast():
    """Order-0 ansatz error at eps = 0.1, t = 4 on the circle versus the tanh wall."""
    prof = GaussianProfile()
    eps, t_end = 0.1, 4.0
    out = {}
    for name, wall, half, n, y0 in (
        ("circle", make_wall("circle", (1.0,)), 4.0, 128, (1.0, 0.0)),
        ("tanh", make_wall("tanh"), 7.5, 256, (0.0, 0.0)),
    ):
        dt, dtt = aligned_steps(eps, t_end)
        traj = integrate_trajectory(wall, np.array(y0), t_end, dtt)
        grid = Grid2D(n, n, half, half)
        init = assemble_ansatz(0, prof, traj, 0.0, grid, eps)
        res = run_and_register(f"contrast {name}", init, wall,
                               EvolutionConfig(epsilon=eps, dt=dt), t_end, snapshot_times=[t_end])
        i = traj.index_at(t_end)
        ref = assemble_ansatz(0, prof, traj, traj.t[i], grid, eps)
        diag = overlap_diagnostics(res.final, ref, traj.y[i], norm_ref=init.norm())
        out[name] = {"error": diag.relative_error, "Theta": float(traj.Theta[i])}
    return out


@pytest.fixture(scope="module")
def berry_run():
    """Unit circle, eps = 0.05, N = 512, one full revolution.

    The time step eps/10 keeps the longest acceptance run within its wall-time
    budget; at quarter scale the extracted phase changes by < 1e-4 between
    eps/10 and the default eps/20, far inside the criterion band.
    """
    eps, radius = 0.05, 1.0
    wall = make_wall("circle", (radius,))
    t_end = 2.0 * np.pi * radius
    dt, dtt = aligned_steps(eps, t_end, divisor=10)
    traj = integrate_trajectory(wall, np.array([radius, 0.0]), round(t_end / dtt) * dtt, dtt)
    grid = Grid2D(512, 512, 2.5, 2.5)
    X1, X2 = grid.mesh()
    th0 = traj.theta[0]
    gauss = np.exp(-((X1 - radius) ** 2 + X2**2) / (2 * eps)) / np.sqrt(eps)
    spinor = np.array([np.exp(-0.5j * th0), -np.exp(0.5j * th0)])
    init = SpinorField(grid, gauss[None] * spinor[:, None, None], 0.0)
    times = np.linspace(0.0, t_end, 64)
    raw = []

    def on_snapshot(snap):
        i = traj.index_at(round(snap.time / dtt) * dtt, tol=dtt)
        y = traj.y[i]
        i1 = int(np.argmin(np.abs(grid.x1 - y[0])))
        i2 = int(np.argmin(np.abs(grid.x2 - y[1])))
        raw.append(float(np.angle(snap.field.data[0, i1, i2])))

    run_and_register("berry N=512", init, wall, EvolutionConfig(epsilon=eps, dt=dt), t_end,
                     snapshot_times=times, on_snapshot=on_snapshot)
    phases = np.unwrap(np.array(raw))
    return phases - phases[0]


@pytest.fixture(scope="module")
def tanh_corrector():
    wall = make_wall("tanh")
    traj = integrate_trajectory(wall, np.array([0.0, 0.0]), 0.52, 1e-3)
    return CorrectorSolver(GaussianProfile(), traj), traj


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_straight_wall_exactness(straight_runs):
    err, err_half = straight_runs[20], straight_runs[40]
    ratio = err / err_half
    ok = err <= 1e-3 and abs(ratio - 4.0) <= 0.4
    report(1, ok, f"relative L2 error {err:.3e} (<= 1e-3), halving ratio {ratio:.3f} (4.0 +- 0.4)")


def test_criterion_3_transport_operator_algebra():
    rng = np.random.default_rng(42)
    grid = hermite.X1Grid(256, 12.0)
    nh = 64
    worst_kernel = 0.0
    basis = hermite.hermite_functions(6, grid.x)
    for _ in range(20):
        f = basis @ rng.standard_normal(6)
        k = hermite.kernel_amplitude(f, grid, nh)
        worst_kernel = max(worst_kernel, hermite.apply_L(k).norm() / max(k.norm(), 1e-300))
    worst_rt = 0.0
    for _ in range(20):
        a = hermite.HermiteAmplitude.zeros(grid, nh)
        a.coeffs[:, :, : nh - 6] = rng.standard_normal((2, grid.n, nh - 6)) + 1j * rng.standard_normal(
            (2, grid.n, nh - 6)
        )
        a.coeffs *= np.exp(-0.5 * (grid.x / 4.0) ** 2)[None, :, None]
        _, a = hermite.kernel_project(a)
        rt = hermite.apply_L(hermite.invert_L(a))
        worst_rt = max(worst_rt, (rt - a).norm() / a.norm())
    ok = worst_kernel <= 1e-10 and worst_rt <= 1e-8
    report(3, ok, f"kernel annihilation {worst_kernel:.2e} (<= 1e-10), "
                  f"invert round trip {worst_rt:.2e} (<= 1e-8)")


def test_criterion_4_lemma_closed_forms():
    wall = make_wall("circle", (1.0,))
    traj = integrate_trajectory(wall, np.array([1.0, 0.0]), 2.0, 1e-3)
    solver = CorrectorSolver(GaussianProfile(), traj)
    x = solver.grid.x
    worst_b1 = worst_f1 = 0.0
    for t in (0.5, 1.0, 2.0):
        i = traj.index_at(t)
        b1 = solver.b1(i)
        expected_band = 0.5 * (1.0 - x**2) * np.exp(-0.5 * x**2) * np.pi**0.25 * traj.theta_dot[i]
        scale = np.max(np.abs(expected_band))
        err = np.max(np.abs(b1.coeffs[0, :, 1] - expected_band))
        rest = b1.coeffs.copy()
        rest[0, :, 1] = 0.0
        worst_b1 = max(worst_b1, (err + np.max(np.abs(rest))) / scale)
        f1 = solver.f1[i]
        expected_f1 = 0.5 * (2.0 * x - x**3) * np.exp(-0.5 * x**2) * traj.Theta[i]
        worst_f1 = max(worst_f1, np.max(np.abs(f1 - expected_f1)) / np.max(np.abs(expected_f1)))
    ok = worst_b1 <= 1e-6 and worst_f1 <= 1e-6
    report(4, ok, f"b1 vs closed form {worst_b1:.2e}, f1 vs closed form {worst_f1:.2e} (<= 1e-6)")


def test_criterion_5_theorem_scaling(tanh_scaling):
    eps_list = (0.2, 0.1, 0.05)
    errs = [tanh_scaling[(e, 1.0)] for e in eps_list]
    slope = float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0])
    growth = tanh_scaling[(0.1, 2.0)] / tanh_scaling[(0.1, 1.0)]
    ok = 0.35 <= slope <= 0.65 and growth <= 2.6
    report(5, ok, f"slope at t=1: {slope:.3f} (0.5 +- 0.15), error growth "
                  f"err(2)/err(1) = {growth:.3f} (<= 2.6)")


def test_criterion_6_curvature_contrast(curvature_contrast):
    ratio = curvature_contrast["circle"]["error"] / curvature_contrast["tanh"]["error"]
    theta_err = abs(curvature_contrast["circle"]["Theta"] - 4.0)
    ok = ratio >= 2.0 and theta_err <= 1e-6
    report(6, ok, f"circle/tanh error ratio {ratio:.2f} (>= 2), |Theta_4 - 4| = {theta_err:.2e} (<= 1e-6)")


def test_criterion_7_berry_phase(berry_run):
    total = float(berry_run[-1])
    ok = -np.pi - 0.3 <= total <= -np.pi + 0.3
    report(7, ok, f"total phase after one revolution {total:.4f} (-pi +- 0.3)")


def test_criterion_8_hierarchy_residual_slopes(tanh_corrector):
    solver, traj = tanh_corrector
    prof = GaussianProfile()
    slopes = {}
    for m in (0, 1):
        rs = []
        for eps, half in ((0.2, 6.0), (0.1, 4.0), (0.05, 3.0)):
            grid = Grid2D(256, 256, half, half)
            r, wn = ansatz_residual(m, prof, traj, 0.5, grid, eps, solver=solver, dt_fd=1e-3)
            rs.append(r / wn)
        slopes[m] = float(np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(rs), 1)[0])
    ok = abs(slopes[0] - 1.0) <= 0.15 and abs(slopes[1] - 1.5) <= 0.15
    report(8, ok, f"order-0 slope {slopes[0]:.3f} (1.0 +- 0.15), order-1 slope {slopes[1]:.3f} (1.5 +- 0.15)")


def test_criterion_9_geometry_identities():
    circ = integrate_trajectory(make_wall("circle", (1.0,)), np.array([1.0, 0.0]), 2.0, 1e-3)
    resid_7x = hessian_frame_residual(circ, [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    nw = normalize_wall(make_wall("tanh"), 0.5)
    pts = np.array([project_to_interface(nw, np.array([x, np.tanh(x)]))
                    for x in np.linspace(-3, 3, 41)])
    g = nw.gradient(pts)
    gn = np.hypot(g[:, 0], g[:, 1])
    Hg = np.einsum("...ij,...j->...i", nw.hessian(pts), g)
    worst_7s = max(float(np.max(np.abs(gn - 1.0))), float(np.max(np.hypot(Hg[:, 0], Hg[:, 1]))))
    ok = resid_7x <= 1e-8 and worst_7s <= 1e-6
    report(9, ok, f"frame identity residual {resid_7x:.2e} (<= 1e-8), "
                  f"normalized-wall condition {worst_7s:.2e} (<= 1e-6)")


def test_criterion_10_dispersion_probe():
    # exploratory and non-gating: the fitted exponent is reported, only the
    # existence of a finite fit is asserted
    eps, t_end = 0.1, 2.0
    wall = make_wall("tanh")
    dt, dtt = aligned_steps(eps, t_end)
    traj = integrate_trajectory(wall, np.array([0.0, 0.0]), t_end, dtt)
    grid = Grid2D(256, 256, 5.0, 5.0)
    X1, X2 = grid.mesh()
    th0 = traj.theta[0]
    gauss = np.exp(-(X1**2 + X2**2) / (2 * eps)) / np.sqrt(eps)
    alpha = np.array([np.exp(-0.5j * th0), np.exp(0.5j * th0)])  # ansatz-orthogonal
    init = SpinorField(grid, gauss[None] * alpha[:, None, None], 0.0)
    times = np.linspace(0.0, t_end, 17)
    sups = []
    run_and_register("dispersion probe", init, wall, EvolutionConfig(epsilon=eps, dt=dt), t_end,
                     snapshot_times=times,
                     on_snapshot=lambda s: sups.append((s.time, float(np.sqrt(np.max(s.field.density()))))))
    window = [(t, s) for t, s in sups if 0.5 <= t <= 2.0]
    slope = float(np.polyfit(np.log([t for t, _ in window]), np.log([s for _, s in window]), 1)[0])
    in_band = -0.7 <= slope <= -0.3
    print(f"[{'PASS' if in_band else 'INFO'}] criterion 10 (non-gating): sup-norm time exponent "
          f"{slope:.3f}, heuristic band [-0.7, -0.3] {'matched' if in_band else 'missed'}")
    assert np.isfinite(slope)


def test_criterion_2_unitarity_audit(straight_runs, tanh_scaling, curvature_contrast, berry_run):
    # runs last among the evolution criteria: audits every registered run
    assert len(DRIFTS) >= 8
    worst = max(d for _, d in DRIFTS)
    ok = worst <= 1e-8
    detail = ", ".join(f"{name}: {d:.1e}" for name, d in DRIFTS)
    report(2, ok, f"worst relative norm drift {worst:.2e} (<= 1e-8) over {len(DRIFTS)} runs [{detail}]")
