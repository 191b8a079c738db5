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
import warnings

import numpy as np
from scipy import fft as sfft

from . import hermite
from .hermite import HermiteAmplitude, SolverError, X1Grid
from .profiles import Profile

__all__ = [
    "FrameContext",
    "frame_context",
    "build_leading_amplitude",
    "CorrectorSolver",
    "corrector_first_order",
    "assemble_ansatz",
    "sample_order0",
    "ansatz_residual",
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
    frame or derivative inconsistencies.  Any weight of b1 or b2 in the top
    two Hermite bands raises SolverError.
    """

    def __init__(self, profile: Profile, traj, grid=DEFAULT_X1_GRID, solvability_tol=1e-6):
        self.profile = profile
        self.traj = traj
        self.grid = grid
        self.solvability_tol = solvability_tol
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
        if n and float(np.max(solv)) > solvability_tol:
            warnings.warn(
                f"corrector solvability residual {float(np.max(solv)):.2e} exceeds "
                f"{solvability_tol:g}: frame or wall-derivative data is inconsistent",
                stacklevel=2,
            )
        self.f1 = np.zeros((n, grid.n), dtype=complex)
        if n > 1:
            np.cumsum(0.5 * dt * (dtf1[1:] + dtf1[:-1]), axis=0, out=self.f1[1:])
        self._b1_lru = {}

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
        if i not in self._b1_lru:
            if len(self._b1_lru) > 16:
                self._b1_lru.clear()
            self._b1_lru[i] = self._solve_b1(i, *self._sample_terms(i))
        return self._b1_lru[i]

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


def _frame_coords(theta, y, eps, X1, X2):
    z1 = (X1 - y[0]) / np.sqrt(eps)
    z2 = (X2 - y[1]) / np.sqrt(eps)
    c, s = np.cos(theta), np.sin(theta)
    u = c * z1 + s * z2  # (R_theta z)_1
    v = -s * z1 + c * z2
    return u, v


def sample_order0(profile, ctx: FrameContext, y, eps, X1, X2):
    """Kernel wavepacket eps^{-1/2} K_t(profile) at the grid points, closed form.

    ``profile`` is any callable of the profile variable: the leading profile,
    or the interpolant of a kernel-band corrector such as f1.
    """
    u, v = _frame_coords(ctx.theta, y, eps, X1, X2)
    scalar = ctx.r**0.25 * profile(u) * np.exp(-0.5 * ctx.r * v * v) / np.sqrt(eps)
    spinor = np.array([np.exp(-0.5j * ctx.theta), -np.exp(0.5j * ctx.theta)])
    return scalar[None, ...] * spinor[:, None, None]


def sample_hermite_amplitude(amp: HermiteAmplitude, ctx: FrameContext, y, eps, X1, X2, chunk=4096):
    """Sample a canonical amplitude on the lab grid through the analytic frame maps.

    Evaluation point in the canonical frame is sqrt(r) R_theta (x - y)/sqrt(eps);
    the x1 dependence is evaluated by trigonometric interpolation and the x2
    dependence by the stable oscillator-function recurrence.  Bands beyond the
    amplitude's effective content are skipped.  Every chunk of points is
    interpolated whole; points outside the canonical window, |u| >= the x1
    grid's half-extent, are set to exactly zero afterwards.
    """
    u, v = _frame_coords(ctx.theta, y, eps, X1, X2)
    sr = np.sqrt(ctx.r)
    uf = (sr * u).ravel()
    vf = (sr * v).ravel()
    band_norms = np.sqrt(np.sum(np.abs(amp.coeffs) ** 2, axis=(0, 1)))
    total = np.linalg.norm(band_norms)
    nh_eff = amp.n_hermite
    if total > 0:
        keep = np.nonzero(band_norms > 1e-14 * total)[0]
        nh_eff = int(keep[-1]) + 1 if keep.size else 1
    vh = sfft.fft(amp.coeffs[:, :, :nh_eff], axis=1)
    # rows ordered (band, component): one matmul gives every band's x1 values
    vt = vh.transpose(2, 0, 1).reshape(2 * nh_eff, amp.grid.n)
    out = np.empty((2, uf.size), dtype=complex)
    for lo in range(0, uf.size, chunk):
        sel = slice(lo, lo + chunk)
        # bound to a name, M is freed only once the next chunk's matrix exists,
        # so each matrix is mapped afresh and returned; freed right after the
        # product, its 17 MB block stayed resident on the heap for the whole
        # run (hierarchy_tanh peak RSS 140 -> 157 MB, for ~40k fewer page faults)
        M = hermite.trig_interp_matrix(amp.grid, uf[sel])
        C = (vt @ M.T).reshape(nh_eff, 2, -1)
        x2v = vf[sel]
        phi_prev = np.zeros_like(x2v)
        phi = np.pi**-0.25 * np.exp(-0.5 * x2v * x2v)
        acc = C[0] * phi
        for n in range(1, nh_eff):
            phi_next = np.sqrt(2.0 / n) * x2v * phi - np.sqrt((n - 1.0) / n) * phi_prev
            phi_prev, phi = phi, phi_next
            acc += C[n] * phi
        out[:, sel] = acc
    # outside the canonical window the amplitude is zero; the periodic
    # interpolant would alias the packet into the tails
    out[:, np.abs(uf) >= amp.grid.half_extent] = 0.0
    out = hermite._UNTILDE @ out
    phase = np.array([np.exp(-0.5j * ctx.theta), np.exp(0.5j * ctx.theta)])
    out *= phase[:, None]
    return (out / np.sqrt(eps)).reshape((2,) + X1.shape)


def assemble_ansatz(order, profile, traj, t, grid2d, eps, solver=None, grid=DEFAULT_X1_GRID):
    """Sample the order-m ansatz (m in {0, 1, 2}) on a lab grid as a SpinorField.

    Order 0 is the closed-form kernel state; order 1 adds sqrt(eps) (b1 + K f1);
    order 2 adds eps b2 on top.  ``solver`` may be passed to reuse corrector
    data across calls; it must have been built over the same trajectory.
    """
    from .evolution import SpinorField  # local import to avoid a cycle

    if order not in (0, 1, 2):
        raise ValueError("corrector order must be 0, 1 or 2")
    grid2d.check_resolution(eps)
    i = traj.index_at(t)
    if solver is not None and solver.traj is not traj:
        raise ValueError("corrector solver was built over a different trajectory")
    if solver is None and order > 0:
        solver = CorrectorSolver(profile, traj, grid)
    ctx = solver.context(i) if solver is not None else frame_context(traj, i)
    y = traj.y[i]
    X1, X2 = grid2d.mesh()
    data = sample_order0(profile, ctx, y, eps, X1, X2)
    if order >= 1:
        sq = np.sqrt(eps)
        data = data + sq * sample_hermite_amplitude(solver.b1(i), ctx, y, eps, X1, X2)
        f1 = lambda u: hermite.eval_on_points(solver.f1_values(i), solver.grid, u)
        data = data + sq * sample_order0(f1, ctx, y, eps, X1, X2)
    if order >= 2:
        data = data + eps * sample_hermite_amplitude(solver.b2(i), ctx, y, eps, X1, X2)
    return SpinorField(grid=grid2d, data=data, time=float(t))


def ansatz_residual(order, profile, traj, t, grid2d, eps, solver=None, dt_fd=None, grid=DEFAULT_X1_GRID):
    """Discrete residual ||(eps D_t + H) W|| of the order-m ansatz at time t.

    The time derivative is a central difference over +-dt_fd (defaulting to
    the trajectory step), H is applied pseudospectrally.  Returns
    (residual, field norm).
    """
    from . import evolution

    if solver is None and order > 0:
        solver = CorrectorSolver(profile, traj, grid)
    if dt_fd is None:
        dt_fd = traj.dt
    steps = int(round(dt_fd / traj.dt))
    if steps < 1 or abs(steps * traj.dt - dt_fd) > 1e-12:
        raise ValueError("dt_fd must be a multiple of the trajectory step")
    mk = lambda tt: assemble_ansatz(order, profile, traj, tt, grid2d, eps, solver, grid)
    w_minus = mk(t - dt_fd)
    w_0 = mk(t)
    w_plus = mk(t + dt_fd)
    kappa = grid2d.wall_values(traj.wall)
    hw = evolution.apply_H(w_0.data, kappa, eps, grid2d)
    resid = eps * (-1j) * (w_plus.data - w_minus.data) / (2.0 * dt_fd) + hw
    da = grid2d.dA
    return float(np.sqrt(np.sum(np.abs(resid) ** 2) * da)), w_0.norm()
