"""Config-driven experiment runners.

Each runner reproduces one family of measurements: plain evolutions with
snapshot dumps, error-versus-epsilon scaling sweeps against the leading
ansatz, the Berry-phase trace around a circular interface, the dispersive
decay probe for orthogonally polarized data, and the transport-hierarchy
residual study.  No run draws random numbers; every run writes a
``meta.txt`` record sufficient to rerun it, and tables go to RFC-4180 CSV.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import math
import os
import platform

import numpy as np

from . import __version__, evolution, hierarchy, snapshots
from .config import ConfigError, ExperimentConfig, parse_dt_rule
from .evolution import EvolutionConfig, Grid2D, SpinorField
from .geometry import DEGENERATE_ERRORS, TRANSVERSALITY_FLOOR, Trajectory, integrate_trajectory
from .hermite import X1Grid
from .hierarchy import CorrectorSolver, assemble_ansatz
from .profiles import GaussianProfile, Profile, make_profile
from .straight import edge_spinor
from .walls import CircleWall, make_wall, normalize_wall, straight_wall

__all__ = [
    "FitResult",
    "fit_loglog",
    "run_experiment",
    "run_evolve",
    "run_scaling",
    "run_berry",
    "run_dispersion_probe",
    "run_hierarchy_check",
    "run_check_suite",
]


@dataclasses.dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    stderr: float
    ci_low: float
    ci_high: float
    n: int


def _t_quantile(dof):
    """Student-t 97.5% quantile for an integer dof: bisection to adjacent doubles on the closed-form
    two-sided probability P(|T| <= t) (Abramowitz & Stegun 26.7.3 odd dof, 26.7.4 even dof)."""

    def two_sided(t):
        c2 = dof / (dof + t * t)  # cos^2 theta with theta = atan(t / sqrt(dof))
        total = 1.0  # the series 1 + c2 r_1 (1 + c2 r_2 (1 + ...)) by Horner's rule
        for k in range((dof - dof % 2) // 2 - 1, 0, -1):
            total = 1.0 + c2 * (2 * k - 1 + dof % 2) / (2 * k + dof % 2) * total
        if dof % 2 == 0:
            return t / math.sqrt(dof + t * t) * total
        series = t * math.sqrt(dof) / (dof + t * t) * total if dof > 1 else 0.0
        return 2.0 / math.pi * (math.atan2(t, math.sqrt(dof)) + series)

    lo, hi = 0.0, 16.0  # the quantile is largest at dof 1, 12.706
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if two_sided(mid) < 0.95 else (lo, mid)
    return hi


def fit_loglog(x, y) -> FitResult:
    """Least-squares fit of log(y) against log(x) with a 95% slope interval.

    The interval comes from the residual variance and the Student-t quantile;
    with the usual 3..5 points it is wide by construction.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        raise ValueError("need at least 3 points for a scaling fit")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("scaling fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    dof = len(x) - 2
    if dof > 0:
        rss = float(res[0]) if res.size else float(np.sum((ly - A @ coef) ** 2))
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        stderr = float(np.sqrt(rss / dof / sxx))
        tq = _t_quantile(dof)
    else:
        stderr, tq = np.inf, np.inf
    return FitResult(
        slope=slope, intercept=intercept, stderr=stderr,
        ci_low=slope - tq * stderr, ci_high=slope + tq * stderr, n=len(x),
    )


# ---------------------------------------------------------------------------
# the run skeleton: inputs, one evolution, outputs
# ---------------------------------------------------------------------------


def _wall_and_profile(cfg: ExperimentConfig, wall=None):
    """The wall (the configured one unless given) and the initial profile; a value they reject
    is a config error."""
    try:
        if wall is None:
            wall = make_wall(cfg.get("wall.family"), cfg.get("wall.params"))
            if cfg.get("wall.normalize"):
                wall = normalize_wall(wall, cfg.get("wall.tube"))
        return wall, make_profile(cfg.get("init.profile"), cfg.get("init.profile_params"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


@contextlib.contextmanager
def _degenerate_is_config_error():
    """A start point or trajectory that meets a degenerate interface point is a config error."""
    try:
        yield
    except DEGENERATE_ERRORS as exc:
        raise ConfigError(f"degenerate interface point: {exc}") from exc


@dataclasses.dataclass
class _Run:
    """One evolution to t_end: solver settings, reference trajectory, lab grid and profile."""

    cfg: ExperimentConfig
    eps: float
    t_end: float
    ec: EvolutionConfig
    dt_traj: float
    traj: Trajectory
    grid: Grid2D
    profile: Profile

    @functools.cached_property
    def initial(self):
        """Initial data on the grid: ansatz, isotropic Gaussian, orthogonal, or spinor mix."""
        kind, eps, grid = self.cfg.get("init.kind"), self.eps, self.grid
        theta, y0 = self.traj.theta[0], self.traj.y[0]
        if kind == "ansatz":
            return assemble_ansatz(self.cfg.get("init.order"), self.profile, self.traj, 0.0, grid, eps)
        X1, X2 = grid.mesh()
        gauss = np.exp(-((X1 - y0[0]) ** 2 + (X2 - y0[1]) ** 2) / (2.0 * eps)) / np.sqrt(eps)
        if kind == "gaussian":
            alpha = edge_spinor(theta)
        elif kind == "orthogonal":
            alpha = np.array([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        else:
            alpha = np.array([self.cfg.get("init.alpha1"), self.cfg.get("init.alpha2")], dtype=complex)
            if not alpha.any():
                raise ConfigError("init.kind = mix needs init.alpha1 or init.alpha2 non-zero")
        return SpinorField(grid, gauss[None, ...] * alpha[:, None, None], 0.0)

    def index(self, t):
        """Trajectory sample at snapshot time t, or None past the end of a truncated trajectory."""
        i = round(t / self.dt_traj)
        return i if i < len(self.traj) else None

    def evolve(self, times, hook=None, initial=None):
        """Evolve ``initial`` (default: the configured data) to t_end with snapshots at ``times``;
        ``hook(snap, i)`` sees each snapshot with its trajectory index i."""
        on_snapshot = None if hook is None else lambda snap: hook(snap, self.index(snap.time))
        return evolution.evolve(self.initial if initial is None else initial, self.traj.wall, self.ec,
                                self.t_end, snapshot_times=times, on_snapshot=on_snapshot)


def _prepare(cfg: ExperimentConfig, eps, t_end, wall=None, y0=None, truncate=False) -> _Run:
    """The inputs of one evolution; the wall defaults to the configured one, y0 to init.y0 on it.

    The evolution step follows the dt rule, adjusted to divide t_end; the
    trajectory step divides it and sits near 1e-3 arclength.  With
    ``truncate`` a trajectory that meets a degenerate interface point ends at
    its last valid sample if it has two; otherwise, and without ``truncate``,
    meeting one is a config error.
    """
    wall, profile = _wall_and_profile(cfg, wall)
    dt_evol = parse_dt_rule(cfg.get("evolve.dt_rule"), eps)
    dt_evol = t_end / max(1, int(round(t_end / dt_evol)))
    try:
        ec = EvolutionConfig(epsilon=eps, dt=dt_evol, krylov_tol=cfg.get("evolve.krylov_tol"),
                             max_krylov_iter=cfg.get("evolve.max_krylov"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    target = cfg.get("traj.dt") or min(1e-3 * max(t_end, 1.0), dt_evol)
    dt_traj = dt_evol / max(1, int(round(dt_evol / target)))
    with _degenerate_is_config_error():
        y0 = cfg.y0() if y0 is None else y0
        try:
            traj = integrate_trajectory(wall, y0, round(t_end / dt_traj) * dt_traj, dt_traj)
        except DEGENERATE_ERRORS as exc:
            if not truncate or len(exc.trajectory) < 2:
                raise
            traj = exc.trajectory
    return _Run(cfg, eps, t_end, ec, dt_traj, traj, _grid_for(cfg, traj, eps), profile)


def _grid_for(cfg: ExperimentConfig, traj, eps):
    """Lab grid of one run at eps; a grid that is invalid or under-resolved is a config error."""
    try:
        if cfg.get("grid.auto"):
            grid = auto_grid(traj.y, eps)
        else:
            grid = Grid2D(n1=cfg.get("grid.n1"), n2=cfg.get("grid.n2"),
                          l1=cfg.get("grid.l1"), l2=cfg.get("grid.l2"))
        grid.check_resolution(eps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return grid


def auto_grid(traj_points, eps, margin_widths=5.0, min_n=128, max_n=1024):
    """Square box containing the trajectory with a safety margin of Gaussian widths."""
    pts = np.asarray(traj_points, dtype=float)
    w = np.sqrt(eps)
    reach = float(np.max(np.abs(pts))) + margin_widths * w + 4.0 * w
    half = 0.5 * float(np.ceil(2.0 * reach))
    n = min_n
    while half * 2.0 / n > w / 4.0 and n < max_n:
        n *= 2
    return Grid2D(n1=n, n2=n, l1=half, l2=half)


def _wall_check_lines(traj):
    """The wall, and the least |grad kappa| over every trajectory sample."""
    return [f"wall = {traj.wall.describe()}",
            f"transversality: min |grad kappa| = {float(traj.r.min())!r} over {len(traj)} samples "
            f"(floor {TRANSVERSALITY_FLOOR:g})"]


def _fmt(v):
    """A CSV cell: any float (numpy's too) as its round-trip repr, anything else as it is."""
    return repr(float(v)) if isinstance(v, (float, np.floating)) else v


def _write_outputs(out_dir, cfg: ExperimentConfig, tables, meta_lines):
    """Write each ``{file name: (header, rows)}`` table as CSV, then ``meta.txt`` with the
    effective configuration and the run record ``meta_lines``."""
    os.makedirs(out_dir, exist_ok=True)
    for name, (header, rows) in tables.items():
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            csv.writer(fh).writerows([header, *([_fmt(v) for v in row] for row in rows)])
    lines = [f"edgelab {__version__}", f"numpy {np.__version__}, python {platform.python_version()}",
             "--- effective configuration ---", *cfg.echo_lines(), "--- run record ---", *map(str, meta_lines)]
    with open(os.path.join(out_dir, "meta.txt"), "w") as fh:
        fh.write("".join(line + "\n" for line in lines))


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_evolve(cfg: ExperimentConfig, out_dir):
    """Plain evolution with snapshot diagnostics (and optional field dumps).

    Degenerate interfaces (crossings, sharp corners) stop the reference
    trajectory early; the evolution itself still runs to t_end and the
    center-of-mass columns simply lose their interface reference there.
    """
    eps, t_end = cfg.get("evolve.epsilon"), cfg.get("evolve.t_end")
    run = _prepare(cfg, eps, t_end, truncate=True)
    traj = run.traj
    truncated = bool(traj.t[-1] < t_end - run.dt_traj / 2)
    initial = run.initial  # built before the output directory exists
    os.makedirs(out_dir, exist_ok=True)
    rows = []

    def on_snapshot(snap, i):
        com = snap.center_of_mass
        # no interface reference past a truncated trajectory's end
        ref = ["", "", ""] if i is None else [*traj.y[i], np.hypot(*(com - traj.y[i]))]
        rows.append([snap.time, snap.norm, *com, *ref])
        if cfg.get("evolve.save_fields"):
            snapshots.write_snapshot(os.path.join(out_dir, f"field_{snap.time:011.6f}.desl"), snap.field, eps)
        if cfg.get("evolve.heatmaps"):
            snapshots.export_pgm(os.path.join(out_dir, f"density_{snap.time:011.6f}.pgm"), snap.field)

    result = run.evolve(np.linspace(0.0, t_end, cfg.get("evolve.snapshots")), on_snapshot, initial)
    meta = _wall_check_lines(traj) + [
        f"dt = {run.ec.dt!r}, trajectory dt = {run.dt_traj!r}, grid = {run.grid}",
        f"norm drift = {result.norm_drift!r}, max krylov iterations = {result.max_krylov_iterations}",
    ]
    if truncated:
        meta.append(f"reference trajectory truncated at t = {float(traj.t[-1])!r} "
                    "(degenerate interface point)")
    _write_outputs(out_dir, cfg, {
        "evolution.csv": (["t", "norm", "com1", "com2", "y1", "y2", "com_to_interface"], rows),
        "trajectory.csv": (["t", "y1", "y2", "theta", "r", "theta_dot", "Theta"],
                           zip(traj.t, *traj.y.T, traj.theta, traj.r, traj.theta_dot, traj.Theta)),
    }, meta)
    return {"norm_drift": result.norm_drift, "rows": rows, "trajectory_truncated": truncated}


def run_scaling(cfg: ExperimentConfig, out_dir):
    """Evolve ansatz data per epsilon; tabulate errors against the order-0 ansatz.

    Returns the rows (epsilon, t, l2_error, relative_error, center_offset, Theta), sorted by
    epsilon and t, and the fit at each time.
    """
    eps_list = sorted(cfg.get("scaling.epsilons"), reverse=True)
    if len(eps_list) >= 3 and max(eps_list) / min(eps_list) < 4.0:
        raise ConfigError("scaling.epsilons should span at least a factor 4")
    times = sorted(cfg.get("scaling.times"))
    rows, drift, meta = [], 0.0, []
    for eps in eps_list:
        run = _prepare(cfg, eps, times[-1])
        norm0 = run.initial.norm()

        def on_snapshot(snap, i):
            if any(abs(snap.time - t) < run.ec.dt / 2 for t in times):
                ref = assemble_ansatz(0, run.profile, run.traj, run.traj.t[i], run.grid, eps)
                diag = evolution.overlap_diagnostics(snap.field, ref, run.traj.y[i], norm_ref=norm0)
                rows.append((eps, snap.time, diag.l2_error, diag.relative_error,
                             diag.center_offset, run.traj.Theta[i]))

        result = run.evolve(times, on_snapshot)
        drift = max(drift, result.norm_drift)
        meta.append(f"eps = {eps!r}: dt = {run.ec.dt!r}, grid = {run.grid}, drift = {result.norm_drift!r}")

    fits = {}
    for t in times:
        at_t = [r for r in rows if abs(r[1] - t) < 1e-9]
        if len(at_t) >= 3:
            fits[t] = fit_loglog([r[0] for r in at_t], [r[3] for r in at_t])
    if not fits:
        raise ConfigError("scaling fit degenerate: fewer than 3 valid rows at every sample time")
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_outputs(out_dir, cfg, {
        "errors.csv": (["epsilon", "t", "l2_error", "relative_error", "center_offset", "Theta"], rows),
        "fits.csv": (["t", "slope", "intercept", "stderr", "ci_low", "ci_high", "n"],
                     [[t, *dataclasses.astuple(f)] for t, f in sorted(fits.items())]),
    }, _wall_check_lines(run.traj) + meta + [f"max norm drift = {drift!r}"])
    return {"rows": rows, "fits": fits}


def run_berry(cfg: ExperimentConfig, out_dir):
    """Phase of the first spinor component at the packet center around a circle.

    One trace per configured radius; the total unwrapped phase after a full
    revolution is the Berry-phase measurement (theory: -pi for one turn).
    The trace stops at the first snapshot whose packet has left the interface
    tube; the evolution still runs to the end.
    """
    eps, params = cfg.get("evolve.epsilon"), cfg.get("wall.params")
    if cfg.get("wall.family") != "circle" or params[1:] not in ((), (0.0, 0.0)) or cfg.get("wall.normalize"):
        raise ConfigError("berry runs on circles about the origin: wall.family = circle, wall.params = R or R, 0, 0, "
                          "wall.normalize = false")
    radii = cfg.get("berry.radii") or (params or (1.0,))[:1]
    if min(radii) <= 0:
        raise ConfigError("berry radii must be positive")
    names = [f"phase_r{radius:g}.csv" for radius in radii]
    if len(set(names)) < len(names):
        raise ConfigError(f"berry radii must give distinct trace files, got {', '.join(names)}")
    results, tables, meta = {}, {}, []
    for radius, name in zip(radii, names):
        wall = make_wall("circle", (radius,))
        t_end = 2.0 * np.pi * radius * cfg.get("berry.revolutions")
        run = _prepare(cfg, eps, t_end, wall, np.array([radius, 0.0]))
        traj = run.traj
        trace, decohered = [], False  # trace rows (t, raw phase, theta - theta_0)

        def on_snapshot(snap, i):
            nonlocal decohered
            y = traj.y[i]
            decohered = decohered or float(np.hypot(*(snap.center_of_mass - y))) > 4.0 * np.sqrt(eps)
            if not decohered:
                trace.append((snap.time, evolution.phase_at(snap.field, y), traj.theta[i] - traj.theta[0]))

        times = np.linspace(0.0, t_end, cfg.get("berry.snapshots"))
        result = run.evolve(times, on_snapshot)
        snap_t, raw, thetas = np.array(trace).T
        phases = np.unwrap(raw)
        phases -= phases[0]
        total = float(phases[-1])
        tables[name] = (["t", "phase", "predicted_minus_theta_over_2"], zip(snap_t, phases, -0.5 * thetas))
        results[radius] = {"total_phase": total, "decohered": decohered, "norm_drift": result.norm_drift}
        meta.extend(_wall_check_lines(traj))
        meta.append(
            f"radius {radius!r}: dt = {run.ec.dt!r}, grid = {run.grid}, total phase = {total!r}, "
            f"drift = {result.norm_drift!r}"
            + (" (partial trace: packet left the interface tube)" if decohered else "")
        )
    _write_outputs(out_dir, cfg, tables, meta)
    return results


def run_dispersion_probe(cfg: ExperimentConfig, out_dir):
    """Sup-norm decay of orthogonally polarized or mixed initial data.

    Fits the time exponent of sup |psi| over the configured window; for mixed
    data also records the overlap coefficient with the propagating ansatz.
    The measured exponent is reported, never asserted.
    """
    eps, t_end = cfg.get("evolve.epsilon"), cfg.get("evolve.t_end")
    run = _prepare(cfg, eps, t_end)
    traj, grid = run.traj, run.grid

    # lambda1: component of the initial spinor along the propagating direction
    w0 = edge_spinor(traj.theta[0])
    i1 = int(np.argmin(np.abs(grid.x1 - traj.y[0][0])))
    i2 = int(np.argmin(np.abs(grid.x2 - traj.y[0][1])))
    alpha = run.initial.data[:, i1, i2] * np.sqrt(eps)
    lambda1 = complex(np.vdot(w0, alpha) / 2.0)

    rows = []

    def on_snapshot(snap, i):
        sup = float(np.sqrt(np.max(snap.field.density())))
        ref = assemble_ansatz(0, run.profile, traj, traj.t[i], grid, eps)
        ov = complex(np.sum(np.conj(ref.data) * snap.field.data) * grid.dA)
        rows.append((snap.time, sup, abs(ov) / max(ref.norm() ** 2, 1e-300)))

    result = run.evolve(np.linspace(0.0, t_end, cfg.get("probe.sup_samples")), on_snapshot)

    t_min = cfg.get("probe.fit_t_min")
    t_max = cfg.get("probe.fit_t_max") or t_end
    window = [(t, s) for t, s, _ in rows if t_min <= t <= t_max and t > 0]
    if len(window) < 3:
        raise ConfigError("dispersion fit window too short (need >= 3 samples)")
    fit = fit_loglog([t for t, _ in window], [s for _, s in window])

    _write_outputs(out_dir, cfg, {"decay.csv": (["t", "sup_norm", "ansatz_overlap_coeff"], rows)},
                   _wall_check_lines(traj) + [
                       f"fitted sup-norm exponent = {fit.slope!r} (95% CI [{fit.ci_low!r}, {fit.ci_high!r}])",
                       f"|lambda1| = {abs(lambda1)!r}",
                       f"norm drift = {result.norm_drift!r}",
                   ])
    return {"fit": fit, "rows": rows, "lambda1": lambda1, "norm_drift": result.norm_drift}


def run_hierarchy_check(cfg: ExperimentConfig, out_dir):
    """Residual scaling of the order-m ansatz in epsilon (no evolution needed).

    For each order m the discrete residual ||(eps D_t + H) W|| is evaluated
    at the configured times and fitted against epsilon; the expected slope is
    (m+2)/2.  One hierarchy.ansatz_residuals pass per (eps, t) serves every
    order.  With ``hierarchy.evolve_check`` on, also evolves corrected
    initial data and fits the terminal error slope.
    """
    orders = [int(o) for o in cfg.get("hierarchy.orders")]
    eps_list = sorted(cfg.get("scaling.epsilons"), reverse=True)
    times = sorted(cfg.get("hierarchy.times"))
    fd_dt = cfg.get("hierarchy.fd_dt")
    if times[0] < fd_dt:
        raise ConfigError("hierarchy.times must each be at least hierarchy.fd_dt")
    wall, profile = _wall_and_profile(cfg)
    t_max = times[-1] + 2.0 * fd_dt
    dt_traj = fd_dt / max(1, round(fd_dt / (1e-3 * max(1.0, t_max))))
    n = int(np.ceil(t_max / dt_traj))
    with _degenerate_is_config_error():
        traj = integrate_trajectory(wall, cfg.y0(), n * dt_traj, dt_traj)
    try:  # the central differences read the trajectory at t and t -+ fd_dt
        for t in times:
            for tt in (t - fd_dt, t, t + fd_dt):
                traj.index_at(tt)
    except ValueError as exc:
        raise ConfigError(f"hierarchy.times: {exc}") from exc

    solver = CorrectorSolver(profile, traj) if max(orders) > 0 else None
    found = {}
    for eps in eps_list:
        grid = _grid_for(cfg, traj, eps)
        kappa = grid.wall_values(wall)
        for t in times:
            pairs = hierarchy.ansatz_residuals(orders, profile, traj, t, grid, eps, solver, fd_dt, kappa=kappa)
            found.update({(m, eps, t): (m, eps, t, r, r / w) for m, (r, w) in zip(orders, pairs)})
    rows = [found[m, eps, t] for m in orders for eps in eps_list for t in times]
    fits = {(m, t): fit_loglog(eps_list, [found[m, eps, t][3] for eps in eps_list])
            for m in orders for t in times if len(eps_list) >= 3}

    extra = [f"solvability residual max = {solver.max_solvability_residual()!r}",
             f"truncation health max = {solver.truncation_max!r}"] if solver else ["order 0 only"]
    evolve_fits = {}
    if cfg.get("hierarchy.evolve_check"):
        T = times[-1]
        errs = {m: [] for m in orders}
        built = {}  # equal trajectory steps give equal trajectories: one solver per step serves every order
        for eps in eps_list:
            run = _prepare(cfg, eps, T, wall)
            if run.dt_traj not in built:
                built[run.dt_traj] = run.traj, (CorrectorSolver(profile, run.traj) if max(orders) > 0 else None)
            tr, sol = built[run.dt_traj]
            for m in orders:
                initial = assemble_ansatz(m, profile, tr, 0.0, run.grid, eps, sol)
                res = run.evolve((), initial=initial)
                ref = assemble_ansatz(m, profile, tr, T, run.grid, eps, sol)
                diag = evolution.overlap_diagnostics(res.final, ref, tr.y[-1], norm_ref=initial.norm())
                errs[m].append(diag.relative_error)
        if len(eps_list) >= 3:
            for m in orders:
                evolve_fits[m] = fit_loglog(eps_list, errs[m])
                extra.append(f"order {m} evolution error slope = {evolve_fits[m].slope!r} "
                             f"(theory {(m + 1) / 2.0})")
    _write_outputs(out_dir, cfg, {
        "residuals.csv": (["order", "epsilon", "t", "residual", "relative_residual"], rows),
        "residual_fits.csv": (["order", "t", "slope", "expected", "ci_low", "ci_high"],
                              [[m, t, f.slope, (m + 2) / 2.0, f.ci_low, f.ci_high]
                               for (m, t), f in sorted(fits.items())]),
    }, _wall_check_lines(traj) + extra)
    return {"rows": rows, "fits": fits, "evolve_fits": evolve_fits,
            "solvability": solver.max_solvability_residual() if solver else 0.0}


_RUNNERS = {
    "evolve": run_evolve,
    "scaling": run_scaling,
    "berry": run_berry,
    "dispersion_probe": run_dispersion_probe,
    "hierarchy_check": run_hierarchy_check,
}


def run_experiment(cfg: ExperimentConfig, out_dir=None):
    out = out_dir if out_dir is not None else cfg.get("experiment.out")
    return _RUNNERS[cfg.kind](cfg, out)


# ---------------------------------------------------------------------------
# smoke-check suite (edgelab check)
# ---------------------------------------------------------------------------


def run_check_suite():
    """The Crank-Nicolson solver and the first corrector against closed forms, through public entry
    points only; returns a list of (name, passed, detail)."""
    checks = []

    # one Crank-Nicolson step against the scalar Cayley phase on a plane wave
    g2 = Grid2D(n1=64, n2=64, l1=np.pi, l2=np.pi)
    eps, dt = 1.0, 0.05
    X1, _ = g2.mesh()
    k0 = 3.0
    data = np.exp(1j * k0 * X1)[None, ...] * np.array([1.0, 1.0])[:, None, None] / np.sqrt(2)
    stepper = evolution.CrankNicolsonStepper(g2, np.zeros((64, 64)), EvolutionConfig(epsilon=eps, dt=dt))
    stepped = stepper.step(data)
    lam = eps * k0
    cayley = (1.0 - 0.5j * dt * lam / eps) / (1.0 + 0.5j * dt * lam / eps)
    err = float(np.max(np.abs(stepped - cayley * data)))
    checks.append(("Cayley plane-wave step", err <= 1e-10, f"max err = {err:.2e}, iters = {stepper.last_iterations}"))
    checks.append(("free preconditioner exact", stepper.last_iterations <= 1,
                   f"{stepper.last_iterations} iterations"))

    # short unitary evolution on a straight wall
    wall = straight_wall(0.0, 1.0)
    eps = 0.25
    g3 = Grid2D(n1=64, n2=64, l1=4.0, l2=4.0)
    X1, X2 = g3.mesh()
    gauss = np.exp(-(X1**2 + X2**2) / (2 * eps)) / np.sqrt(eps)
    init = SpinorField(g3, gauss[None, ...] * np.array([1.0, -1.0])[:, None, None], 0.0)
    res = evolution.evolve(init, wall, EvolutionConfig(epsilon=eps, dt=eps / 20), 10 * eps / 20)
    checks.append(("unitarity", res.norm_drift <= 1e-11, f"drift = {res.norm_drift:.2e}"))

    # one step on the tanh wall: the split preconditioner leaves a contracting O(gamma^2)
    # remainder, so the fixed-point solve takes a few sweeps
    cfg = EvolutionConfig(epsilon=eps, dt=eps / 20)
    stepper = evolution.CrankNicolsonStepper(g3, make_wall("tanh"), cfg)
    hat = np.fft.fft2(init.data)
    resid = stepper.true_residual(stepper.step_hat(hat), hat)
    checks.append(("split preconditioner", stepper.last_iterations <= 5 and resid <= cfg.krylov_tol,
                   f"{stepper.last_iterations} fixed-point iterations, residual = {resid:.2e}"))

    # first corrector against the circular-interface closed forms
    grid = X1Grid(n=128, half_extent=12.0)
    traj = integrate_trajectory(CircleWall((1.0,)), np.array([1.0, 0.0]), 0.5, 1e-3)
    solver = CorrectorSolver(GaussianProfile(), traj, grid=grid)
    i = traj.index_at(0.5)
    expected = 0.5 * (2 * grid.x - grid.x**3) * np.exp(-0.5 * grid.x**2) * traj.Theta[i]
    err = float(np.max(np.abs(solver.f1[i] - expected)) / np.max(np.abs(expected)))
    checks.append(("circle corrector golden", err <= 1e-6, f"rel err = {err:.2e}"))
    return checks
