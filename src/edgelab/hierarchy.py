"""Transport hierarchy: leading amplitude, correctors, and ansatz assembly.

The moving wavepacket is written as eps^{-1/2} a(t, (x - y_t)/sqrt(eps)) with
an amplitude a expanded in powers of sqrt(eps).  Matching powers produces a
hierarchy whose leading operator is the straight-wall transport operator in
the co-moving frame; the subleading equations are solved with the ladder
algebra of :mod:`edgelab.hermite`.

All amplitudes are stored in the canonical frame (interface along x1, unit
gradient scale) reached by the rotation/gauge map U_theta, the isotropic
dilation S_r f(x) = f(sqrt(r) x) and the constant tilde conjugation.  Frame
changes are applied analytically, never by resampling grids:

* the transport operator conjugates to sqrt(r) L with L from hermite.py;
* multiplication by a lab polynomial P(x) sigma3 becomes multiplication by
  P(R_theta^T x / sqrt(r)) sigma1 on tilde components;
* the co-moving time derivative D_t picks up the frame generator
  G = -i(theta_dot/2) sigma3 + (r_dot/2r) x.grad + theta_dot (x2 d1 - x1 d2)
  so that D_t a = -i(G c + dc/dt) in canonical coordinates.

The first corrector splits as a1 = b1 + (kernel profile f1), where b1 solves
L b1 = -(T1 a0) off the kernel and f1 integrates the kernel-band transport
equation in time from f1(0) = 0.  One more inversion yields b2 and the
order-2 amplitude a0 + sqrt(eps) a1 + eps b2.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
from scipy import fft as sfft

from . import hermite
from .hermite import HermiteAmplitude, SolverError, X1Grid
from .profiles import Profile
from .straight import edge_spinor, rotated_coords

__all__ = [
    "FrameContext",
    "frame_context",
    "build_leading_amplitude",
    "CorrectorSolver",
    "corrector_first_order",
    "assemble_ansatz",
    "sample_order0",
    "sample_kernel_profile",
    "sample_hermite_amplitude",
    "ansatz_residual",
    "ansatz_residuals",
    "DEFAULT_X1_GRID",
    "N_BANDS",
]

DEFAULT_X1_GRID = X1Grid(n=256, half_extent=12.0)
# Oscillator bands of every hierarchy amplitude, from the polynomial degrees:
# a0 sits in band 0; T1 (frame generator, quadratic Taylor term) raises the
# band by at most 2, T2 (cubic Taylor term) by at most 3, and invert_L shifts
# it by +-1.  So b1 = L^-1 T1 a0 fills bands 0-3 and b2 = L^-1 (T1 b1 + T2 a0
# + T1 K f1) fills bands 0-6: 7 bands, plus 2 guard bands that
# truncation_health reads and that must stay exactly zero.
N_BANDS = 9

SOLVABILITY_TOL = 1e-6  # largest kernel-band share of the b1 source (runs sit near 2e-14)

_KERNEL_TRANSPORT = np.pi**0.25 / np.sqrt(2.0 * np.pi)  # kernel band -> D_t f factor


@dataclasses.dataclass(frozen=True)
class FrameContext:
    """Frame and wall Taylor data at one trajectory sample."""

    t: float
    theta: float
    theta_dot: float
    r: float
    r_dot: float
    hessian: np.ndarray  # (2, 2) at y_t
    third: np.ndarray  # (2, 2, 2) at y_t


def frame_context(traj, i, hessian=None, third=None) -> FrameContext:
    s = traj.sample(i)
    if hessian is None:
        hessian = traj.wall.hessian(s.y)
    if third is None:
        third = traj.wall.third(s.y)
    return FrameContext(
        t=s.t, theta=s.theta, theta_dot=s.theta_dot, r=s.r, r_dot=s.r_dot,
        hessian=np.asarray(hessian), third=np.asarray(third),
    )


# -- canonical-frame operator actions -----------------------------------------


def _p2_canonical(ctx: FrameContext):
    """Quadratic wall Taylor polynomial, pulled into the canonical frame."""
    H = ctx.hessian
    lab = np.zeros((3, 3))
    lab[2, 0] = 0.5 * H[0, 0]
    lab[1, 1] = H[0, 1]
    lab[0, 2] = 0.5 * H[1, 1]
    return hermite.poly_rotate_scale(lab, ctx.theta, np.sqrt(ctx.r))


def _p3_canonical(ctx: FrameContext):
    """Cubic wall Taylor polynomial in the canonical frame."""
    T = ctx.third
    lab = np.zeros((4, 4))
    lab[3, 0] = T[0, 0, 0] / 6.0
    lab[2, 1] = T[0, 0, 1] / 2.0
    lab[1, 2] = T[0, 1, 1] / 2.0
    lab[0, 3] = T[1, 1, 1] / 6.0
    return hermite.poly_rotate_scale(lab, ctx.theta, np.sqrt(ctx.r))


def apply_frame_generator(a: HermiteAmplitude, ctx: FrameContext) -> HermiteAmplitude:
    """G c: time derivative of the frame map at frozen canonical coordinates."""
    c = a.coeffs
    out = -0.5j * ctx.theta_dot * c[::-1]  # -i(theta_dot/2) sigma3 -> sigma1 on tilde components
    d1 = 1j * hermite.d1_op(c, a.grid)  # d/dx1
    d2 = hermite.dx2_op(c)
    x1 = a.grid.x[:, None]
    if ctx.r_dot != 0.0:
        out = out + (ctx.r_dot / (2.0 * ctx.r)) * (x1 * d1 + hermite.x2_mult(d2))
    out = out + ctx.theta_dot * (hermite.x2_mult(d1) - x1 * d2)
    return HermiteAmplitude(a.grid, out)


def apply_T1(a: HermiteAmplitude, dt_coeffs, ctx: FrameContext, p2) -> HermiteAmplitude:
    """T1 = D_t + (quadratic Taylor) sigma3, acting on a canonical amplitude.

    ``dt_coeffs`` is the explicit time derivative of the canonical
    coefficients (a HermiteAmplitude or None); the frame part of D_t is
    applied analytically.  ``p2`` is ``_p2_canonical(ctx)``, which callers
    build once per sample.
    """
    g = apply_frame_generator(a, ctx)
    total = g.coeffs if dt_coeffs is None else g.coeffs + dt_coeffs.coeffs
    out = -1j * total
    quad = hermite.apply_poly_sigma1(a, p2)
    return HermiteAmplitude(a.grid, out + quad.coeffs)


def apply_T2(a: HermiteAmplitude, ctx: FrameContext) -> HermiteAmplitude:
    """T2 = (cubic Taylor) sigma3."""
    return hermite.apply_poly_sigma1(a, _p3_canonical(ctx))


# -- leading amplitude ---------------------------------------------------------


def build_leading_amplitude(profile, ctx: FrameContext, grid=DEFAULT_X1_GRID):
    """Canonical coefficients of the kernel state with profile f: all weight in band 0."""
    f_vals = profile(grid.x / np.sqrt(ctx.r))
    return hermite.kernel_amplitude(f_vals, grid, N_BANDS, r=ctx.r)


def leading_dt_coeffs(profile: Profile, ctx: FrameContext, grid=DEFAULT_X1_GRID):
    """Explicit d/dt of the leading coefficients through r_t (profile itself is static)."""
    out = HermiteAmplitude.zeros(grid, N_BANDS)
    if ctx.r_dot == 0.0:
        return out
    u = grid.x / np.sqrt(ctx.r)
    band = ctx.r_dot * ctx.r**-0.75 * (0.25 * profile(u) - 0.5 * u * profile.derivative(u))
    out.coeffs[0, :, 0] = hermite._KERNEL_NORM * band
    return out


def _kernel_coeffs_from_values(f_vals_profile_var, ctx, grid):
    """Embed profile samples (profile variable, on grid.x) at gradient scale r."""
    vals = hermite.eval_on_points(f_vals_profile_var, grid, grid.x / np.sqrt(ctx.r))
    return hermite.kernel_amplitude(vals, grid, N_BANDS, r=ctx.r)


def _kernel_dt_coeffs_from_values(f_vals, dtf_vals, ctx, grid):
    """d/dt of the embedded kernel state when the profile itself depends on t."""
    u = grid.x / np.sqrt(ctx.r)
    f_u = hermite.eval_on_points(f_vals, grid, u)
    dtf_u = hermite.eval_on_points(dtf_vals, grid, u)
    fp = sfft.ifft(1j * grid.k * sfft.fft(np.asarray(f_vals, dtype=complex)))
    fp_u = hermite.eval_on_points(fp, grid, u)
    band = ctx.r**0.25 * (
        dtf_u + (ctx.r_dot / (4.0 * ctx.r)) * f_u - (ctx.r_dot / (2.0 * ctx.r)) * u * fp_u
    )
    out = HermiteAmplitude.zeros(grid, N_BANDS)
    out.coeffs[0, :, 0] = hermite._KERNEL_NORM * band
    return out


def _require_untruncated(amp: HermiteAmplitude, name):
    """truncation_health of a corrector; raises SolverError unless it is exactly 0."""
    health = amp.truncation_health()
    if health > 0.0:
        raise SolverError(f"{name} carries {health:.2e} of its weight in the top two of "
                          f"{amp.n_hermite} Hermite bands: the band count is too small")
    return health


def _time_derivative(b, i, n, dt):
    """d/dt at sample i of n from b(k): central inside, one-sided second order at the ends."""
    if n == 1:
        return b(i) * 0.0
    if n == 2:
        return (b(1) - b(0)) * (1.0 / dt)
    if 0 < i < n - 1:
        return (b(i + 1) - b(i - 1)) * (1.0 / (2.0 * dt))
    if i == 0:
        return (-3.0 * b(0) + 4.0 * b(1) - b(2)) * (1.0 / (2.0 * dt))
    return (3.0 * b(i) - 4.0 * b(i - 1) + b(i - 2)) * (1.0 / (2.0 * dt))


# -- corrector solver ----------------------------------------------------------


class CorrectorSolver:
    """Solves the first two corrector equations along a trajectory.

    The solver walks the trajectory once, building b1 at each sample, taking
    its time derivative by central differences, and integrating the
    kernel-band transport equation for f1 (trapezoid rule, f1(0) = 0).  The
    per-sample kernel component of the b1 source is recorded: it must vanish
    up to discretization (the solvability identity), so its size diagnoses
    profile, derivative or frame-rate inconsistencies; above SOLVABILITY_TOL it raises
    SolverError, as does any weight of b1 or b2 in the top two Hermite bands.
    """

    def __init__(self, profile: Profile, traj, grid=DEFAULT_X1_GRID):
        self.profile = profile
        self.traj = traj
        self.grid = grid
        n = len(traj)
        self._H = traj.wall.hessian(traj.y)
        self._T = traj.wall.third(traj.y)
        self._ctx = [frame_context(traj, i, self._H[i], self._T[i]) for i in range(n)]

        # streaming pass: b1 with a 3-sample window, f1 by trapezoid; sample j
        # is finished once the window holds its whole difference stencil
        dt = traj.dt
        terms, window = {}, {}
        dtf1 = np.zeros((n, grid.n), dtype=complex)
        solv = np.zeros(n)
        self.truncation_max = 0.0
        done = 0
        for i in range(n):
            terms[i] = self._sample_terms(i)
            window[i] = self._solve_b1(i, *terms[i], solv)
            terms.pop(i - 3, None)
            window.pop(i - 3, None)
            self.truncation_max = max(self.truncation_max, _require_untruncated(window[i], "b1"))
            while done < n and min(n - 1, max(done + 1, 2)) <= i:
                dtf1[done] = self._dtf1_at(done, *terms[done], window[done],
                                           _time_derivative(window.get, done, n, dt))
                done += 1

        self.dtf1 = dtf1
        self.solvability = solv
        if n and float(np.max(solv)) > SOLVABILITY_TOL:
            raise SolverError(f"corrector solvability residual {float(np.max(solv)):.2e} exceeds "
                              f"{SOLVABILITY_TOL:g}: the profile, its derivative and the frame data "
                              "disagree, or the x1 grid does not hold the profile")
        self.f1 = np.zeros((n, grid.n), dtype=complex)
        if n > 1:
            np.cumsum(0.5 * dt * (dtf1[1:] + dtf1[:-1]), axis=0, out=self.f1[1:])
        # per-sample caches: a difference stencil reads b1 at neighbouring samples
        self._b1 = functools.lru_cache(17)(lambda j: self._solve_b1(j, *self._sample_terms(j)))
        self._b2 = functools.lru_cache(17)(self._solve_b2)

    # -- per-sample pieces

    def context(self, i) -> FrameContext:
        return self._ctx[i]

    def leading(self, i) -> HermiteAmplitude:
        return build_leading_amplitude(self.profile, self._ctx[i], self.grid)

    def _sample_terms(self, i):
        """Per-sample invariants: the leading amplitude a0 and _p2_canonical of the frame."""
        return self.leading(i), _p2_canonical(self._ctx[i])

    def _solve_b1(self, i, a0, p2, solv_out=None):
        ctx = self._ctx[i]
        src = apply_T1(a0, leading_dt_coeffs(self.profile, ctx, self.grid), ctx, p2)
        band, projected = hermite.kernel_project(src)
        if solv_out is not None:
            nrm = src.norm()
            band_norm = float(np.linalg.norm(band)) * np.sqrt(self.grid.dx) * hermite._KERNEL_NORM
            solv_out[i] = band_norm / nrm if nrm > 1e-300 else 0.0
        b1 = hermite.invert_L(projected)
        return b1 * (-1.0 / np.sqrt(ctx.r))

    def b1(self, i) -> HermiteAmplitude:
        return self._b1(i)

    def _dtb1(self, i) -> HermiteAmplitude:
        return _time_derivative(self.b1, i, len(self.traj), self.traj.dt)

    def _beta1_from(self, i, a0, p2, b1_i, dtb1_i) -> HermiteAmplitude:
        """beta1 = -(T1 b1 + T2 a0), the source of the f1 transport and of b2."""
        ctx = self._ctx[i]
        t1b1 = apply_T1(b1_i, dtb1_i, ctx, p2)
        t2a0 = apply_T2(a0, ctx)
        return HermiteAmplitude(self.grid, -(t1b1.coeffs + t2a0.coeffs))

    def _dtf1_at(self, i, a0, p2, b1_i, dtb1_i):
        """Time derivative of f1 in the profile variable: i * (transport kernel band)."""
        beta = self._beta1_from(i, a0, p2, b1_i, dtb1_i)
        band = beta.coeffs[0, :, 0]
        r = self._ctx[i].r
        vals = hermite.eval_on_points(band, self.grid, np.sqrt(r) * self.grid.x)
        return 1j * _KERNEL_TRANSPORT * vals

    # -- assembled pieces

    def f1_values(self, i):
        """f1 at sample i, in the profile variable, on the x1 grid."""
        return self.f1[i]

    def b2(self, i) -> HermiteAmplitude:
        """Second corrector: one more inversion of beta1 - T1 (kernel f1 state)."""
        return self._b2(i)

    def _solve_b2(self, i) -> HermiteAmplitude:
        ctx = self._ctx[i]
        a0, p2 = self._sample_terms(i)
        kf1 = _kernel_coeffs_from_values(self.f1[i], ctx, self.grid)
        dt_kf1 = _kernel_dt_coeffs_from_values(self.f1[i], self.dtf1[i], ctx, self.grid)
        beta1 = self._beta1_from(i, a0, p2, self.b1(i), self._dtb1(i))
        src = HermiteAmplitude(self.grid, beta1.coeffs - apply_T1(kf1, dt_kf1, ctx, p2).coeffs)
        _, projected = hermite.kernel_project(src)
        b2 = hermite.invert_L(projected) * (1.0 / np.sqrt(ctx.r))
        _require_untruncated(b2, "b2")
        return b2

    def max_solvability_residual(self):
        return float(np.max(self.solvability)) if len(self.solvability) else 0.0


def corrector_first_order(profile: Profile, traj, t, grid=DEFAULT_X1_GRID):
    """First corrector at time t: (b1 amplitude, f1 samples in the profile variable)."""
    solver = CorrectorSolver(profile, traj, grid)
    i = traj.index_at(t)
    return solver.b1(i), solver.f1_values(i)


# -- lab-frame sampling --------------------------------------------------------


def _frame_coords(theta, y, eps, x1, x2):
    """Canonical coordinates of the lab mesh x1 x x2, split by axis: with z = (x - y)/sqrt(eps),
    (R_theta z)_1 = ua[:, None] + ub[None, :] and (R_theta z)_2 = va[:, None] + vb[None, :]."""
    z1 = (np.asarray(x1, dtype=float) - y[0]) / np.sqrt(eps)
    z2 = (np.asarray(x2, dtype=float) - y[1]) / np.sqrt(eps)
    (ua, va), (ub, vb) = rotated_coords(theta, z1, 0.0), rotated_coords(theta, 0.0, z2)
    return ua, ub, va, vb


def _kernel_packet(f_u, ctx: FrameContext, v, eps):
    """eps^{-1/2} r^{1/4} f(u) e^{-r v^2/2} times the edge spinor."""
    scalar = ctx.r**0.25 * f_u * np.exp(-0.5 * ctx.r * v * v) / np.sqrt(eps)
    return scalar[None, ...] * edge_spinor(ctx.theta)[:, None, None]


def sample_order0(profile, ctx: FrameContext, y, eps, x1, x2):
    """Kernel wavepacket eps^{-1/2} K_t(profile) on the lab mesh of axes x1, x2: (2, len(x1), len(x2)).
    ``profile`` is any callable of the profile variable, evaluated at every mesh point."""
    ua, ub, va, vb = _frame_coords(ctx.theta, y, eps, x1, x2)
    return _kernel_packet(profile(np.add.outer(ua, ub)), ctx, np.add.outer(va, vb), eps)


def sample_kernel_profile(values, grid: X1Grid, ctx: FrameContext, y, eps, x1, x2):
    """sample_order0 for a profile sampled on ``grid`` (such as f1), interpolated separably as in
    sample_hermite_amplitude; points with |u| >= grid.half_extent are exactly zero."""
    ua, ub, va, vb = _frame_coords(ctx.theta, y, eps, x1, x2)
    vh = sfft.fft(np.asarray(values, dtype=complex))
    f_u = hermite.trig_interp_matrix(grid, ua) @ (vh[:, None] * hermite.mode_phases(grid, ub))
    f_u[np.abs(np.add.outer(ua, ub)) >= grid.half_extent] = 0.0
    return _kernel_packet(f_u, ctx, np.add.outer(va, vb), eps)


def sample_hermite_amplitude(amp: HermiteAmplitude, ctx: FrameContext, y, eps, x1, x2):
    """Sample a canonical amplitude at sqrt(r) (u, v) on the lab mesh of axes x1, x2: (2, len(x1), len(x2)).

    On a lab mesh u = ua + ub, so the x1 interpolation phase factors, e^{iku}
    = e^{ik ua} e^{ik ub}, and with P = trig_interp_matrix at sqrt(r) ua and
    Q = mode_phases at sqrt(r) ub a band's interpolant is P @ (V[:, None] * Q).
    Bands (up to the amplitude's effective content) are accumulated one at a
    time against the oscillator-function recurrence in v.  Points outside the
    canonical window, |sqrt(r) u| >= the x1 half-extent, are exactly zero.
    """
    ua, ub, va, vb = _frame_coords(ctx.theta, y, eps, x1, x2)
    sr = np.sqrt(ctx.r)
    band_norms = np.sqrt(np.sum(np.abs(amp.coeffs) ** 2, axis=(0, 1)))
    keep = np.nonzero(band_norms > 1e-14 * np.linalg.norm(band_norms))[0]
    nh_eff = int(keep[-1]) + 1 if keep.size else 1
    # lab spinor components: undo the tilde conjugation, then the frame phases
    mix = np.exp(0.5j * ctx.theta * np.array([[-1.0], [1.0]])) * hermite._UNTILDE / np.sqrt(eps)
    vh = np.einsum("dc,cmn->dmn", mix, sfft.fft(amp.coeffs[:, :, :nh_eff], axis=1))
    P = hermite.trig_interp_matrix(amp.grid, sr * ua)
    Q = hermite.mode_phases(amp.grid, sr * ub)
    x2v = sr * np.add.outer(va, vb)
    phi_prev, phi = 0.0, np.pi**-0.25 * np.exp(-0.5 * x2v * x2v)
    out = np.zeros((2, ua.size, ub.size), dtype=complex)
    for n in range(nh_eff):
        if n:
            phi_next = np.sqrt(2.0 / n) * x2v * phi - np.sqrt((n - 1.0) / n) * phi_prev
            phi_prev, phi = phi, phi_next
        for c in (0, 1):
            out[c] += (P @ (vh[c, :, n, None] * Q)) * phi
    # outside the canonical window the amplitude is zero; the periodic
    # interpolant would alias the packet into the tails
    out[:, np.abs(sr * np.add.outer(ua, ub)) >= amp.grid.half_extent] = 0.0
    return out


def _ansatz_fields(order, profile, traj, i, grid2d, eps, solver):
    """[W_0, ..., W_order] at trajectory sample i, each term sampled once and summed left to
    right: W_1 = W_0 + sqrt(eps) b1 + sqrt(eps) K f1, W_2 = W_1 + eps b2."""
    ctx = solver.context(i) if solver is not None else frame_context(traj, i)
    lab = (traj.y[i], eps, grid2d.x1, grid2d.x2)
    fields = [sample_order0(profile, ctx, *lab)]
    if order >= 1:
        b1 = sample_hermite_amplitude(solver.b1(i), ctx, *lab)
        kf1 = sample_kernel_profile(solver.f1_values(i), solver.grid, ctx, *lab)
        fields.append(fields[0] + np.sqrt(eps) * b1 + np.sqrt(eps) * kf1)
    if order >= 2:
        fields.append(fields[1] + eps * sample_hermite_amplitude(solver.b2(i), ctx, *lab))
    return fields


def _ansatz_solver(orders, profile, traj, grid2d, eps, solver, grid):
    """Validate an ansatz request; returns the corrector solver it needs (None for order 0)."""
    if any(m not in (0, 1, 2) for m in orders):
        raise ValueError("corrector order must be 0, 1 or 2")
    grid2d.check_resolution(eps)
    if solver is not None and solver.traj is not traj:
        raise ValueError("corrector solver was built over a different trajectory")
    return CorrectorSolver(profile, traj, grid) if solver is None and max(orders) > 0 else solver


def assemble_ansatz(order, profile, traj, t, grid2d, eps, solver=None, grid=DEFAULT_X1_GRID):
    """Sample the order-m ansatz (m in {0, 1, 2}) on a lab grid as a SpinorField.

    Order 0 is the closed-form kernel state, order 1 adds sqrt(eps) (b1 + K f1) and order 2
    eps b2, as ansatz_residuals does.  ``solver`` (built over ``traj``) reuses corrector data.
    """
    from .evolution import SpinorField  # local import to avoid a cycle

    solver = _ansatz_solver((order,), profile, traj, grid2d, eps, solver, grid)
    data = _ansatz_fields(order, profile, traj, traj.index_at(t), grid2d, eps, solver)[order]
    return SpinorField(grid=grid2d, data=data, time=float(t))


def ansatz_residuals(orders, profile, traj, t, grid2d, eps, solver=None, dt_fd=None,
                     grid=DEFAULT_X1_GRID, kappa=None):
    """Discrete residuals ||(eps D_t + H) W_m|| at time t, one (residual, field norm) per m in ``orders``.

    At t and t -+ dt_fd (default: the trajectory step) the terms are sampled once and every W_m
    is a partial sum of them.  D_t is the central difference; H (wall ``kappa`` on grid2d,
    computed when not given) is applied pseudospectrally, once per order.
    """
    from . import evolution

    solver = _ansatz_solver(orders, profile, traj, grid2d, eps, solver, grid)
    dt_fd = traj.dt if dt_fd is None else dt_fd
    steps = int(round(dt_fd / traj.dt))
    if steps < 1 or abs(steps * traj.dt - dt_fd) > 1e-12:
        raise ValueError("dt_fd must be a multiple of the trajectory step")
    w_minus, w_0, w_plus = (_ansatz_fields(max(orders), profile, traj, traj.index_at(tt), grid2d, eps, solver)
                            for tt in (t - dt_fd, t, t + dt_fd))
    kappa = grid2d.wall_values(traj.wall) if kappa is None else kappa
    l2 = lambda f: float(np.sqrt(np.sum(np.abs(f) ** 2) * grid2d.dA))
    eps_dt = lambda m: eps * (-1j) * (w_plus[m] - w_minus[m]) / (2.0 * dt_fd)
    return [(l2(eps_dt(m) + evolution.apply_H(w_0[m], kappa, eps, grid2d)), l2(w_0[m])) for m in orders]


def ansatz_residual(order, profile, traj, t, grid2d, eps, solver=None, dt_fd=None, grid=DEFAULT_X1_GRID):
    """Discrete residual ||(eps D_t + H) W|| of the order-m ansatz at time t: (residual, field norm)."""
    return ansatz_residuals((order,), profile, traj, t, grid2d, eps, solver, dt_fd, grid)[0]
