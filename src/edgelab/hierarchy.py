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
import itertools
import math

import numpy as np

from . import hermite
from .hermite import HermiteAmplitude, SolverError, X1Grid
from .profiles import Profile
from .straight import edge_spinor, rotated_coords

__all__ = [
    "FrameContext",
    "CorrectorSolver",
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
# T1 (frame generator, quadratic Taylor term) raises the band by at most 2, T2
# (cubic Taylor term) by at most 3, and invert_L shifts it by +-1.  So a0 sits
# in band 0, T1 a0 in bands 0-2, b1 = L^-1 T1 a0 in bands 0-3, the b2 source
# T1 b1 + T2 a0 + T1 K f1 in bands 0-5 (0-5, 0-3, 0-2) and b2 in bands 0-6:
# 7 bands, plus 2 guard bands that truncation_health reads and that must stay
# exactly zero.  The corrector sweep inverts L for b1 on its 4 bands and
# carries it with the 2 guard bands (min(N_BANDS, 6)); b2 solves widen it to
# N_BANDS.  T2 a0 has no first component (a0 lies in the first one, and T2
# carries sigma1), so the f1 transport, which reads only the kernel band, skips
# it.
N_BANDS = 9
_B1_BANDS = 4
SWEEP_BLOCK = 16  # trajectory samples per block of the corrector sweep

SOLVABILITY_TOL = 1e-6  # largest kernel-band share of the b1 source (runs sit near 2e-14)

_KERNEL_TRANSPORT = np.pi**0.25 / np.sqrt(2.0 * np.pi)  # kernel band -> D_t f factor


@dataclasses.dataclass(frozen=True)
class FrameContext:
    """Frame and wall Taylor data at one trajectory sample, or over a block of B samples,
    where each field gains a leading sample axis: (B,), (B, 2, 2) and (B, 2, 2, 2)."""

    theta: float
    theta_dot: float
    r: float
    r_dot: float
    hessian: np.ndarray  # (2, 2) at y_t
    third: np.ndarray  # (2, 2, 2) at y_t


# -- canonical-frame operator actions -----------------------------------------
# Operators act on coefficient arrays (..., 2, N1, nb): one sample's with a
# scalar FrameContext, a block's (B, 2, N1, nb) with a block FrameContext.


def _per_sample(v):
    """Frame scalars, () or (B,), shaped to broadcast against (..., 2, N1, nb) coefficients."""
    return np.asarray(v, dtype=float)[..., None, None, None]


_CONTRACTIONS = {2: "...ia,...jb,...ij->...ab", 3: "...ia,...jb,...kc,...ijk->...abc"}


def _taylor_poly(tensor, ctx: FrameContext):
    """(1/d!) tensor[x_lab, ..., x_lab] at x_lab = M x, M = R_theta^T / sqrt(r), as canonical monomials.

    ``tensor`` is the wall's Hessian (d = 2) or third-derivative tensor (d = 3)
    at the sample(s) of ``ctx``.  Contracting it with M on every axis gives the
    canonical tensor (H' = M^T H M for the Hessian); coefficient [..., i, j] of
    x1^i x2^j, of shape (..., d+1, d+1), sums its entries over the index tuples
    with i zeros and j ones.
    """
    c, s = np.cos(ctx.theta), np.sin(ctx.theta)
    M = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2) / np.sqrt(ctx.r)[..., None, None]
    d = np.ndim(tensor) - np.ndim(ctx.theta)
    canon = np.einsum(_CONTRACTIONS[d], *[M] * d, np.asarray(tensor) / math.factorial(d))
    coeff = np.zeros(canon.shape[:-d] + (d + 1, d + 1))
    for idx in itertools.product((0, 1), repeat=d):
        coeff[..., d - sum(idx), sum(idx)] += canon[(Ellipsis,) + idx]
    return coeff


def apply_frame_generator(c, ctx: FrameContext, grid: X1Grid):
    """G c: time derivative of the frame map at frozen canonical coordinates."""
    theta_dot = _per_sample(ctx.theta_dot)
    out = -0.5j * theta_dot * c[..., ::-1, :, :]  # -i(theta_dot/2) sigma3 -> sigma1 on tilde components
    d1 = 1j * hermite.d1_op(c, grid)  # d/dx1
    d2 = hermite.dx2_op(c)
    x1 = grid.x[:, None]
    if np.any(ctx.r_dot):
        out = out + (_per_sample(ctx.r_dot) / (2.0 * _per_sample(ctx.r))) * (x1 * d1 + hermite.x2_mult(d2))
    return out + theta_dot * (hermite.x2_mult(d1) - x1 * d2)


def apply_T1(c, dt_c, ctx: FrameContext, p2, grid: X1Grid):
    """T1 = D_t + (quadratic Taylor) sigma3, acting on canonical coefficients.

    ``dt_c`` is the explicit time derivative of the canonical coefficients;
    the frame part of D_t is applied analytically.  ``p2`` is
    ``_taylor_poly(ctx.hessian, ctx)``, which callers build once per block.
    """
    return -1j * (apply_frame_generator(c, ctx, grid) + dt_c) + hermite.apply_poly_sigma1(c, p2, grid)


def _t1_kernel_line(c, dt_c, ctx: FrameContext, p2, grid: X1Grid):
    """apply_T1(c, dt_c, ctx, p2, grid)[..., 0, :, 0], the kernel line, from the six lines it reads:
    the first component's bands 0-2 (d/dx1 of bands 0-1 and the d/dx2 ladder) and the second's bands
    0-2 (the sigma swap of band 0, the quadratic Taylor term).  apply_T1's primitives run in its
    order on these lines, so the result agrees with apply_T1's line to the bit."""
    per_line = lambda v: _per_sample(v)[..., 0, :, :]  # frame scalars against (..., N1, nb) lines
    theta_dot, c0 = per_line(ctx.theta_dot), c[..., 0, :, :3]
    d1 = 1j * hermite.d1_op(c0[..., :2], grid)
    d2 = hermite.dx2_op(c0)
    x1 = grid.x[:, None]
    out = -0.5j * theta_dot * c[..., 1, :, :1]
    if np.any(ctx.r_dot):
        out = out + (per_line(ctx.r_dot) / (2.0 * per_line(ctx.r))) * (
            x1 * d1[..., :1] + hermite.x2_mult(d2[..., :2])[..., :1])
    out = out + theta_dot * (hermite.x2_mult(d1)[..., :1] - x1 * d2[..., :1])
    poly = hermite.apply_poly(c[..., 1:, :, :3], p2, grid)[..., 0, :, 0]  # sigma1 reads the second component
    return -1j * (out[..., 0] + dt_c[..., 0, :, 0]) + poly


def apply_T2(c, ctx: FrameContext, grid: X1Grid):
    """T2 = (cubic Taylor) sigma3."""
    return hermite.apply_poly_sigma1(c, _taylor_poly(ctx.third, ctx), grid)


def _leading(profile: Profile, ctx: FrameContext, grid: X1Grid, n_bands):
    """Block of leading amplitudes a0 (all weight in band 0) and the explicit d/dt of their
    coefficients through r_t (the profile itself is static), each (B, 2, N1, n_bands)."""
    # The b1 source is the small remainder of a0-sized terms that cancel, so
    # b1 magnifies a last-bit change in a0 several hundredfold.  The powers of
    # r are taken sample by sample with Python's float pow, as a one-sample
    # frame's scalars are: numpy's vectorised pow rounds some differently.
    r_q, r_m = (np.array([r**p for r in ctx.r.tolist()])[:, None] for p in (0.25, -0.75))
    u = grid.x / np.sqrt(ctx.r[:, None])
    f = profile(u)
    a0 = np.zeros((len(ctx.r), 2, grid.n, n_bands), dtype=complex)
    dt_a0 = np.zeros_like(a0)
    a0[:, 0, :, 0] = hermite._KERNEL_NORM * r_q * f
    dt_a0[:, 0, :, 0] = hermite._KERNEL_NORM * (
        ctx.r_dot[:, None] * r_m * (0.25 * f - 0.5 * u * profile.derivative(u)))
    return a0, dt_a0


def _widen(c, n_bands):
    """Coefficients (..., nb) zero-padded to n_bands bands."""
    out = np.zeros(c.shape[:-1] + (n_bands,), dtype=complex)
    out[..., : c.shape[-1]] = c
    return out


def _require_untruncated(c, name):
    """Raises SolverError unless the top two bands of coefficients (..., 2, N1, nb) are exactly zero."""
    if np.any(c[..., -2:]):
        weight = np.abs(c.reshape(-1, *c.shape[-3:])) ** 2
        top, total = np.sum(weight[..., -2:], axis=(1, 2, 3)), np.sum(weight, axis=(1, 2, 3))
        raise SolverError(f"{name} carries {np.max(top / np.maximum(total, 1e-300)):.2e} of its weight in "
                          f"the top two of {c.shape[-1]} Hermite bands: the band count is too small")


def _time_derivative(b, b0, lo, hi, n, dt):
    """d/dt at samples lo..hi-1 of n from the block b, which holds samples b0, b0 + 1, ...:
    central inside, one-sided second order at the ends."""
    out = np.zeros((hi - lo,) + b.shape[1:], dtype=b.dtype)
    if n == 2:
        out[:] = (b[1 - b0] - b[0 - b0]) * (1.0 / dt)
    elif n > 2:
        i, j = max(lo, 1), min(hi, n - 1)
        out[i - lo : j - lo] = (b[i + 1 - b0 : j + 1 - b0] - b[i - 1 - b0 : j - 1 - b0]) * (1.0 / (2.0 * dt))
        if lo == 0:
            out[0] = (-3.0 * b[0 - b0] + 4.0 * b[1 - b0] - b[2 - b0]) * (1.0 / (2.0 * dt))
        if hi == n:
            out[-1] = (3.0 * b[n - 1 - b0] - 4.0 * b[n - 2 - b0] + b[n - 3 - b0]) * (1.0 / (2.0 * dt))
    return out


# -- corrector solver ----------------------------------------------------------


class CorrectorSolver:
    """Solves the first two corrector equations along a trajectory.

    One sweep over blocks of SWEEP_BLOCK samples, every operator acting on a
    whole block, builds b1 = -L^-1 (T1 a0) / sqrt(r), its time derivative by
    differences across samples, and f1 by integrating the kernel-band
    transport equation (trapezoid rule, f1(0) = 0).  That band is the one of
    beta1 = -(T1 b1 + T2 a0), so the sweep evaluates that one line of T1 b1
    (_t1_kernel_line) and skips T2 a0, which has none (see N_BANDS).

    The kernel share of each b1 source, the solvability residual, must vanish
    up to discretization; above SOLVABILITY_TOL it raises SolverError.  It
    catches a profile whose derivative disagrees with its values, or one wider
    than the x1 window, and is blind to errors in the wall Hessian, theta_dot
    and r_dot.  Any weight of b1 or b2 in their top two Hermite bands raises
    SolverError as well.
    """

    def __init__(self, profile: Profile, traj, grid=DEFAULT_X1_GRID):
        self.profile = profile
        self.traj = traj
        self.grid = grid
        n, dt = len(traj), traj.dt
        self._H = traj.wall.hessian(traj.y)
        self._T = traj.wall.third(traj.y)
        self.dtf1 = np.zeros((n, grid.n), dtype=complex)
        self.solvability = np.zeros(n)
        self.truncation_max = 0.0  # truncation health of b1: _require_untruncated raises unless it is 0
        # d/dt f1 at sample j is finished once b1 covers its difference stencil,
        # so it lags b1 by one sample; the window holds b1 from sample w0 on,
        # one before the first unfinished sample: 2 samples across a block edge
        window, w0, done = None, 0, 0
        for lo in range(0, n, SWEEP_BLOCK):
            hi = min(lo + SWEEP_BLOCK, n)
            b1 = self._b1_block(lo, hi, self.solvability)
            _require_untruncated(b1, "b1")
            window = b1 if window is None else np.concatenate([window, b1])
            stop = n if hi == n else (hi - 1 if hi >= 3 else 0)
            if stop > done:
                dtb1 = _time_derivative(window, w0, done, stop, n, dt)
                self.dtf1[done:stop] = self._dtf1_block(done, stop, window[done - w0 : stop - w0], dtb1)
                done = stop
            keep = max(done - 1, w0)
            window, w0 = window[keep - w0 :], keep

        if n and float(np.max(self.solvability)) > SOLVABILITY_TOL:
            raise SolverError(f"corrector solvability residual {float(np.max(self.solvability)):.2e} "
                              f"exceeds {SOLVABILITY_TOL:g}: the profile's derivative disagrees with "
                              "its values, or the profile is wider than the x1 window (errors in the "
                              "wall Hessian, theta_dot or r_dot do not show here)")
        # f1 at each sample, in the profile variable, on the x1 grid
        self.f1 = np.zeros((n, grid.n), dtype=complex)
        if n > 1:
            np.cumsum(0.5 * dt * (self.dtf1[1:] + self.dtf1[:-1]), axis=0, out=self.f1[1:])
        # per-sample caches: a difference stencil reads b1 at neighbouring samples
        self._b1 = functools.lru_cache(17)(
            lambda i: HermiteAmplitude(grid, _widen(self._b1_block(i, i + 1)[0], N_BANDS)))
        self._b2 = functools.lru_cache(17)(self._solve_b2)

    # -- per-block pieces

    def _frames(self, lo, hi) -> FrameContext:
        """FrameContext of samples lo..hi-1, taken from the trajectory fields."""
        tr, s = self.traj, slice(lo, hi)
        return FrameContext(theta=tr.theta[s], theta_dot=tr.theta_dot[s], r=tr.r[s],
                            r_dot=tr.r_dot[s], hessian=self._H[s], third=self._T[s])

    def _b1_block(self, lo, hi, solv_out=None):
        """b1 at samples lo..hi-1 on its bands plus 2 guard bands: (B, 2, N1, min(N_BANDS, 6))."""
        ctx = self._frames(lo, hi)
        a0, dt_a0 = _leading(self.profile, ctx, self.grid, _B1_BANDS - 1)  # T1 a0 fills bands 0-2
        src = apply_T1(a0, dt_a0, ctx, _taylor_poly(ctx.hessian, ctx), self.grid)
        band, projected = hermite.kernel_project(src)
        if solv_out is not None:
            # norms summed in the order of one sample's N_BANDS-band amplitude
            dx = self.grid.dx
            nrm = np.sqrt(np.sum(np.abs(_widen(src, N_BANDS).reshape(hi - lo, -1)) ** 2, axis=1) * dx)
            band_norm = np.array([np.linalg.norm(f) for f in band]) * np.sqrt(dx) * hermite._KERNEL_NORM
            np.divide(band_norm, nrm, out=solv_out[lo:hi], where=nrm > 1e-300)
        b1 = hermite.invert_L(_widen(projected, _B1_BANDS), self.grid) * _per_sample(-1.0 / np.sqrt(ctx.r))
        return _widen(b1, min(N_BANDS, _B1_BANDS + 2))

    def _dtf1_block(self, lo, hi, b1, dtb1):
        """d/dt f1 at samples lo..hi-1 in the profile variable: i * (kernel band of beta1), which is
        the kernel band of -T1 b1."""
        ctx = self._frames(lo, hi)
        p2 = _taylor_poly(ctx.hessian, ctx)
        line = _t1_kernel_line(b1, dtb1, ctx, p2, self.grid)
        return 1j * _KERNEL_TRANSPORT * hermite.eval_dilated(-line, self.grid, np.sqrt(ctx.r))

    def _kernel_f1(self, i, ctx: FrameContext):
        """K f1 at sample i and the explicit d/dt of its coefficients, (1, 2, N1, N_BANDS) each;
        f1, d/dt f1 and f1' are read at u = x/sqrt(r) by one chirp-z dilation of the three rows."""
        g, r, r_dot = self.grid, ctx.r[0], ctx.r_dot[0]
        u = g.x / np.sqrt(r)
        fp = np.fft.ifft(1j * g.k * np.fft.fft(self.f1[i]))
        f_u, dtf_u, fp_u = hermite.eval_dilated(np.stack([self.f1[i], self.dtf1[i], fp]), g, 1.0 / np.sqrt(r))
        kf1 = np.zeros((1, 2, g.n, N_BANDS), dtype=complex)
        dt_kf1 = np.zeros_like(kf1)
        kf1[0, 0, :, 0] = hermite._KERNEL_NORM * r**0.25 * f_u
        dt_kf1[0, 0, :, 0] = hermite._KERNEL_NORM * (
            r**0.25 * (dtf_u + (r_dot / (4.0 * r)) * f_u - (r_dot / (2.0 * r)) * u * fp_u))
        return kf1, dt_kf1

    # -- assembled pieces

    def b1(self, i) -> HermiteAmplitude:
        return self._b1(i)

    def b2(self, i) -> HermiteAmplitude:
        """Second corrector: one more inversion of beta1 - T1 (kernel f1 state)."""
        return self._b2(i)

    def _solve_b2(self, i) -> HermiteAmplitude:
        n = len(self.traj)
        lo = max(0, min(i - 1, n - 3))  # the samples lo..lo+2 that _time_derivative reads at i
        b1 = _widen(self._b1_block(lo, min(lo + 3, n)), N_BANDS)
        dtb1 = _time_derivative(b1, lo, i, i + 1, n, self.traj.dt)
        ctx = self._frames(i, i + 1)
        a0, _ = _leading(self.profile, ctx, self.grid, N_BANDS)
        p2 = _taylor_poly(ctx.hessian, ctx)
        beta1 = -(apply_T1(b1[i - lo : i - lo + 1], dtb1, ctx, p2, self.grid) + apply_T2(a0, ctx, self.grid))
        src = beta1 - apply_T1(*self._kernel_f1(i, ctx), ctx, p2, self.grid)
        _, projected = hermite.kernel_project(src)
        b2 = hermite.invert_L(projected, self.grid) * _per_sample(1.0 / np.sqrt(ctx.r))
        _require_untruncated(b2, "b2")
        return HermiteAmplitude(self.grid, b2[0])

    def max_solvability_residual(self):
        return float(np.max(self.solvability)) if len(self.solvability) else 0.0


# -- lab-frame sampling --------------------------------------------------------


def _frame_coords(theta, y, eps, x1, x2):
    """Canonical coordinates of the lab mesh x1 x x2, split by axis: with z = (x - y)/sqrt(eps),
    (R_theta z)_1 = ua[:, None] + ub[None, :] and (R_theta z)_2 = va[:, None] + vb[None, :]."""
    z1 = (np.asarray(x1, dtype=float) - y[0]) / np.sqrt(eps)
    z2 = (np.asarray(x2, dtype=float) - y[1]) / np.sqrt(eps)
    (ua, va), (ub, vb) = rotated_coords(theta, z1, 0.0), rotated_coords(theta, 0.0, z2)
    return ua, ub, va, vb


def _kernel_packet(f_u, theta, r, v, eps):
    """eps^{-1/2} r^{1/4} f(u) e^{-r v^2/2} times the edge spinor."""
    scalar = r**0.25 * f_u * np.exp(-0.5 * r * v * v) / np.sqrt(eps)
    return scalar[None, ...] * edge_spinor(theta)[:, None, None]


def sample_order0(profile, theta, r, y, eps, x1, x2):
    """Kernel wavepacket eps^{-1/2} K_t(profile) on the lab mesh of axes x1, x2: (2, len(x1), len(x2)).
    ``profile`` is any callable of the profile variable, evaluated at every mesh point."""
    ua, ub, va, vb = _frame_coords(theta, y, eps, x1, x2)
    return _kernel_packet(profile(np.add.outer(ua, ub)), theta, r, np.add.outer(va, vb), eps)


def sample_kernel_profile(values, grid: X1Grid, theta, r, y, eps, x1, x2):
    """sample_order0 for a profile sampled on ``grid`` (such as f1), interpolated separably as in
    sample_hermite_amplitude; points with |u| >= grid.half_extent are exactly zero."""
    ua, ub, va, vb = _frame_coords(theta, y, eps, x1, x2)
    vh = np.fft.fft(np.asarray(values, dtype=complex))
    f_u = hermite.trig_interp_matrix(grid, ua) @ (vh[:, None] * hermite.mode_phases(grid, ub))
    f_u[np.abs(np.add.outer(ua, ub)) >= grid.half_extent] = 0.0
    return _kernel_packet(f_u, theta, r, np.add.outer(va, vb), eps)


def sample_hermite_amplitude(amp: HermiteAmplitude, theta, r, y, eps, x1, x2):
    """Sample a canonical amplitude at sqrt(r) (u, v) on the lab mesh of axes x1, x2: (2, len(x1), len(x2)).

    On a lab mesh u = ua + ub, so the x1 interpolation phase factors, e^{iku}
    = e^{ik ua} e^{ik ub}, and with P = trig_interp_matrix at sqrt(r) ua and
    Q = mode_phases at sqrt(r) ub a band's interpolant is P @ (V[:, None] * Q).
    Bands (up to the amplitude's effective content) are accumulated one at a
    time against the oscillator-function recurrence in v.  Points outside the
    canonical window, |sqrt(r) u| >= the x1 half-extent, are exactly zero.
    """
    ua, ub, va, vb = _frame_coords(theta, y, eps, x1, x2)
    sr = np.sqrt(r)
    band_norms = np.sqrt(np.sum(np.abs(amp.coeffs) ** 2, axis=(0, 1)))
    keep = np.nonzero(band_norms > 1e-14 * np.linalg.norm(band_norms))[0]
    nh_eff = int(keep[-1]) + 1 if keep.size else 1
    # lab spinor components: undo the tilde conjugation, then the frame phases
    mix = np.exp(0.5j * theta * np.array([[-1.0], [1.0]])) * hermite._UNTILDE / np.sqrt(eps)
    vh = np.einsum("dc,cmn->dmn", mix, np.fft.fft(amp.coeffs[:, :, :nh_eff], axis=1))
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
    # theta and r as Python floats: numpy's pow rounds some r**0.25 differently (see _leading)
    lab = (float(traj.theta[i]), float(traj.r[i]), traj.y[i], eps, grid2d.x1, grid2d.x2)
    fields = [sample_order0(profile, *lab)]
    if order >= 1:
        b1 = sample_hermite_amplitude(solver.b1(i), *lab)
        kf1 = sample_kernel_profile(solver.f1[i], solver.grid, *lab)
        fields.append(fields[0] + np.sqrt(eps) * b1 + np.sqrt(eps) * kf1)
    if order >= 2:
        fields.append(fields[1] + eps * sample_hermite_amplitude(solver.b2(i), *lab))
    return fields


def _ansatz_solver(orders, profile, traj, grid2d, eps, solver):
    """Validate an ansatz request; returns the corrector solver it needs (None for order 0)."""
    if any(m not in (0, 1, 2) for m in orders):
        raise ValueError("corrector order must be 0, 1 or 2")
    grid2d.check_resolution(eps)
    if solver is not None and solver.traj is not traj:
        raise ValueError("corrector solver was built over a different trajectory")
    return CorrectorSolver(profile, traj) if solver is None and max(orders) > 0 else solver


def assemble_ansatz(order, profile, traj, t, grid2d, eps, solver=None):
    """Sample the order-m ansatz (m in {0, 1, 2}) on a lab grid as a SpinorField.

    Order 0 is the closed-form kernel state, order 1 adds sqrt(eps) (b1 + K f1) and order 2
    eps b2, as ansatz_residuals does.  ``solver`` (built over ``traj``) reuses corrector data.
    """
    from .evolution import SpinorField  # local import to avoid a cycle

    solver = _ansatz_solver((order,), profile, traj, grid2d, eps, solver)
    data = _ansatz_fields(order, profile, traj, traj.index_at(t), grid2d, eps, solver)[order]
    return SpinorField(grid=grid2d, data=data, time=float(t))


def ansatz_residuals(orders, profile, traj, t, grid2d, eps, solver=None, dt_fd=None, kappa=None):
    """Discrete residuals ||(eps D_t + H) W_m|| at time t, one (residual, field norm) per m in ``orders``.

    At t and t -+ dt_fd (default: the trajectory step) the terms are sampled once and every W_m
    is a partial sum of them.  D_t is the central difference; H (wall ``kappa`` on grid2d,
    computed when not given) is applied pseudospectrally, once per order.
    """
    from . import evolution

    solver = _ansatz_solver(orders, profile, traj, grid2d, eps, solver)
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


def ansatz_residual(order, profile, traj, t, grid2d, eps, solver=None, dt_fd=None):
    """Discrete residual ||(eps D_t + H) W|| of the order-m ansatz at time t: (residual, field norm)."""
    return ansatz_residuals((order,), profile, traj, t, grid2d, eps, solver, dt_fd)[0]
