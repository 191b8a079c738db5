"""Pseudospectral Crank-Nicolson evolution of the Dirac equation.

The Hamiltonian couples a pointwise mass term kappa(x) sigma3 to the
first-order derivative block eps(D1 -+ i D2) applied by FFT on a periodic
box.  One Crank-Nicolson step solves

    (I + i dt H / (2 eps)) psi_new = (I - i dt H / (2 eps)) psi_old,

a Cayley map that is exactly unitary, so the L2 norm is conserved up to the
linear-solver tolerance.  The map equals 2 A^-1 - I with A = I + i dt H / (2 eps),
so a step solves A w = 2 psi_old in Fourier variables, right-preconditioned with
the free-Dirac factor (2x2 per mode) times the mass factor (pointwise in space).
The remainder E is O((dt/eps)^2) and contracts, so a fixed-point iteration with
the residual update r <- -E r solves it in k FFT pairs for k sweeps when a norm
bound certifies the last sweep, and in k + 0.5 otherwise.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .hermite import SolverError
from .walls import DomainWall

__all__ = [
    "Grid2D",
    "SpinorField",
    "EvolutionConfig",
    "SolverError",
    "apply_H",
    "CrankNicolsonStepper",
    "Snapshot",
    "EvolutionResult",
    "evolve",
    "DRIFT_ABORT",
    "overlap_diagnostics",
    "OverlapDiagnostics",
    "phase_at",
    "set_fft_workers",
    "get_fft_workers",
]

_FFT_WORKERS = 1
DRIFT_ABORT = 1e-8  # relative norm drift at which evolve stops a run


def set_fft_workers(n):
    global _FFT_WORKERS
    _FFT_WORKERS = max(1, int(n))


def get_fft_workers():
    return _FFT_WORKERS


def _transform_2d(fn, a, overwrite_x):
    """fn along axis -2, then along axis -1 in place: scipy.fft's c2cn order, so the bits match
    scipy.fft.fft2/ifft2 (numpy.fft.fft2 goes -1 first and differs in the last bits)."""
    out = a if overwrite_x else np.empty(a.shape, dtype=complex)
    fn(a, axis=-2, out=out)
    fn(out, axis=-1, out=out)
    return out


def _fft2(a, overwrite_x=False):
    return _transform_2d(np.fft.fft, a, overwrite_x)


def _ifft2(a, overwrite_x=False):
    return _transform_2d(np.fft.ifft, a, overwrite_x)


def _norm(a):
    """2-norm by a reduction over the float64 view: no BLAS call, so no BLAS threads."""
    v = a.ravel().view(np.float64)
    return float(np.sqrt(np.einsum("i,i->", v, v)))


@dataclasses.dataclass(frozen=True)
class Grid2D:
    """Periodic N1 x N2 grid on [-L1, L1) x [-L2, L2)."""

    n1: int
    n2: int
    l1: float
    l2: float

    def __post_init__(self):
        for n in (self.n1, self.n2):
            if n < 2 or (n & (n - 1)):
                raise ValueError("grid sizes must be powers of two")
        if not (self.l1 > 0 and self.l2 > 0):
            raise ValueError("grid half-extents must be positive")

    @property
    def dx1(self):
        return 2.0 * self.l1 / self.n1

    @property
    def dx2(self):
        return 2.0 * self.l2 / self.n2

    @property
    def dA(self):
        return self.dx1 * self.dx2

    @property
    def x1(self):
        return -self.l1 + self.dx1 * np.arange(self.n1)

    @property
    def x2(self):
        return -self.l2 + self.dx2 * np.arange(self.n2)

    def mesh(self):
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    @property
    def k1(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.n1, d=self.dx1)

    @property
    def k2(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.n2, d=self.dx2)

    def wall_values(self, wall: DomainWall):
        X1, X2 = self.mesh()
        return wall.value(np.stack([X1, X2], axis=-1))

    def check_resolution(self, eps):
        """Require >= 8 grid points across the 2 sqrt(eps) Gaussian width."""
        width = 2.0 * np.sqrt(eps)
        h = max(self.dx1, self.dx2)
        if h > width / 4.0:
            raise ValueError(
                f"grid spacing {h:.4g} under-resolves the sqrt(eps) packet width "
                f"(need <= {width / 4.0:.4g} for eps = {eps:g})"
            )


@dataclasses.dataclass
class SpinorField:
    """Two-component complex field on a Grid2D with a time stamp."""

    grid: Grid2D
    data: np.ndarray  # (2, n1, n2) complex
    time: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.data, dtype=complex)
        if d.shape != (2, self.grid.n1, self.grid.n2):
            raise ValueError("field shape must be (2, n1, n2)")
        self.data = d

    def _abs2(self):
        w = np.abs(self.data)
        return np.square(w, out=w)

    def norm(self):
        return float(np.sqrt(np.sum(self._abs2()) * self.grid.dA))

    def density(self):
        w = self._abs2()
        return w[0] + w[1]

    def center_of_mass(self):
        rho = self.density()
        total = np.sum(rho)
        if total == 0:
            return np.array([np.nan, np.nan])
        x1, x2 = self.grid.x1[:, None], self.grid.x2[None, :]
        return np.array([np.sum(x1 * rho), np.sum(x2 * rho)]) / total


@dataclasses.dataclass
class EvolutionConfig:
    epsilon: float
    dt: float
    krylov_tol: float = 1e-12
    max_krylov_iter: int = 400

    def __post_init__(self):
        if not (0 < self.epsilon):
            raise ValueError("epsilon must be positive")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (1e-15 <= self.krylov_tol <= 1e-6):
            raise ValueError("krylov tolerance must lie in [1e-15, 1e-6]")
        if self.max_krylov_iter < 1:
            raise ValueError("max_krylov_iter must be at least 1")


def apply_H(data, kappa, eps, grid: Grid2D):
    """H psi with H = [[kappa, eps(D1 - i D2)], [eps(D1 + i D2), -kappa]].

    Derivatives go through the FFT (D_j is multiplication by k_j), the mass
    term multiplies pointwise.
    """
    hat = _fft2(data)
    k1 = grid.k1[:, None]
    k2 = grid.k2[None, :]
    out_hat = np.empty_like(hat)
    out_hat[0] = eps * (k1 - 1j * k2) * hat[1]
    out_hat[1] = eps * (k1 + 1j * k2) * hat[0]
    out = _ifft2(out_hat)
    out[0] += kappa * data[0]
    out[1] -= kappa * data[1]
    return out


class CrankNicolsonStepper:
    """Matrix-free Cayley stepper for one (grid, wall, config) combination.

    Works on Fourier coefficients throughout.  With A = I + i gamma H and
    gamma = dt / (2 eps), the Cayley map is A^-1 (I - i gamma H) = 2 A^-1 - I,
    so a step solves A w = 2 psi and returns w - psi.  A is right-preconditioned
    with the split product P = F M, F = I + i gamma H_free (a 2x2 block per
    mode) and M = I + i gamma kappa sigma3 (pointwise in space), which leaves
    (I + E) u = 2 psi with w = P^-1 u and the remainder

        E = A P^-1 - I = gamma^2 H_free kappa sigma3 M^-1 F^-1.

    F commutes with H_free, so F^-1 E F = M2 M1 with M2 = gamma H_free F^-1
    and M1 = gamma kappa sigma3 M^-1.  M2 is normal per mode with eigenvalues
    of modulus gamma l / sqrt(1 + gamma^2 l^2) < 1 (l = eps |k|), and M1 is
    diagonal with entries of modulus gamma |kappa| / sqrt(1 + gamma^2 kappa^2)
    < 1, so |F^-1 E F| < 1 and rho(E) < 1: the fixed point u <- 2 psi - E u
    converges from u = 2 psi with no Krylov basis, in a few sweeps since E is
    second order in gamma.  The iterates u_{k+1} = u_k + r_k have residuals
    r_{k+1} = -E r_k from r_0 = -E (2 psi), so each sweep applies E to r alone
    (one transform pair, counted in ``last_iterations``), and the inverse
    transforms ifft(F^-1 r_j) it makes sum to ifft(F^-1 u_k): w = P^-1 u_k
    costs one forward FFT more.  Once the last two residuals predict a pass
    (|r_k|^2 <= 10 target |r_{k-1}|), a sweep bounds the residual its forward
    transform would give by Parseval, |r| <= max|off| sqrt(N1 N2) |spatial|,
    and stops without that transform when the bound is under the target.  So
    a step costs ``last_iterations`` pairs when its last sweep is certified,
    and ``last_iterations`` + 0.5 otherwise.  The first u_k with
    |r_k| <= krylov_tol |psi| is returned.  This r_k is the
    recursive residual, equal to 2 psi - (I + E) u_k up to rounding over at
    most ``max_krylov_iter`` applications of E; ``evolve`` audits the true
    residual every 256 steps.  Since |(I - i gamma H) psi| >= |psi|, the rule
    bounds the relative residual of the Crank-Nicolson system by krylov_tol.
    """

    def __init__(self, grid: Grid2D, wall_or_kappa, config: EvolutionConfig):
        self.grid = grid
        self.config = config
        if isinstance(wall_or_kappa, DomainWall):
            self.kappa = np.asarray(grid.wall_values(wall_or_kappa), dtype=float)
        else:
            self.kappa = np.asarray(wall_or_kappa, dtype=float)
        if self.kappa.shape != (grid.n1, grid.n2):
            raise ValueError("kappa samples must match the grid")

        self._gamma = config.dt / (2.0 * config.epsilon)
        k1 = grid.k1[:, None]
        k2 = grid.k2[None, :]
        # I + i gamma H_free has per-mode blocks [[1, b], [-conj(b), 1]], det = 1 + |b|^2
        self._off = 0.5j * config.dt * (k1 - 1j * k2)
        self._off_c = np.conj(self._off)
        # max|off| sqrt(N1 N2), so |r| <= _r_bound |spatial| for the r a sweep makes from spatial
        self._r_bound = (0.5 * config.dt * np.hypot(np.abs(grid.k1).max(), np.abs(grid.k2).max())
                         * np.sqrt(grid.n1 * grid.n2))
        self._inv_det = 1.0 / (1.0 + 0.25 * config.dt**2 * (k1**2 + k2**2))
        mass = 1j * self._gamma * np.stack([self.kappa, -self.kappa])
        self._mass_inv = 1.0 / (1.0 + mass)
        # -kappa sigma3 (I + i gamma kappa sigma3)^-1 (the minus, exact, gives -E), each row scaled by
        # what turns the block it feeds (off_c, off) into that of gamma^2 H_free: +i gamma, -i gamma
        self._remainder = mass * self._mass_inv
        self._remainder[0] *= -1.0
        self.last_iterations = 0
        self._u = np.empty((2, grid.n1, grid.n2), dtype=complex)
        self._r = np.empty((2, grid.n1, grid.n2), dtype=complex)
        self._scratch = np.empty((2, grid.n1, grid.n2), dtype=complex)

    def _free_solve(self, hat, out):
        """(I + i gamma H_free)^-1 hat into out, blockwise per mode."""
        np.multiply(self._off, hat[1], out=out[0])
        np.subtract(hat[0], out[0], out=out[0])
        out[0] *= self._inv_det
        np.multiply(self._off_c, hat[0], out=out[1])
        out[1] += hat[1]
        out[1] *= self._inv_det
        return out

    def _apply_A(self, hat, out, tmp):
        """(I + i gamma H) hat into out, with tmp an (n1, n2) scratch plane: one transform pair."""
        np.copyto(out, hat)
        _ifft2(out, overwrite_x=True)
        out *= self.kappa
        _fft2(out, overwrite_x=True)
        out[0] *= 1j * self._gamma
        out[1] *= -1j * self._gamma
        out[0] += np.add(hat[0], np.multiply(self._off, hat[1], out=tmp), out=tmp)
        out[1] += np.subtract(hat[1], np.multiply(self._off_c, hat[0], out=tmp), out=tmp)
        return out

    def step_hat(self, hat):
        """One Cayley step on Fourier coefficients (shape (2, n1, n2))."""
        cfg = self.config
        psi_norm = _norm(hat)
        if psi_norm == 0.0:
            self.last_iterations = 0
            return np.zeros_like(hat)
        target = cfg.krylov_tol * psi_norm

        # r holds 2 psi, then r_k = -E r_{k-1}; acc sums ifft(F^-1 r) to ifft(F^-1 u_k)
        acc, r = self._u, self._r
        np.multiply(hat, 2.0, out=r)
        total, prev, resid = 0, 0.0, 0.0
        while True:
            spatial = _ifft2(self._free_solve(r, self._scratch), overwrite_x=True)
            if total == 0:
                np.copyto(acc, spatial)
            else:
                acc += spatial
            spatial *= self._remainder
            total += 1
            # once two residuals predict a pass, certify the residual this transform would give by
            # its Parseval bound (see the class docstring) and skip the transform
            if total > 2 and resid * resid <= 10.0 * target * prev and self._r_bound * _norm(spatial) <= target:
                break
            z = _fft2(spatial, overwrite_x=True)
            np.multiply(self._off, z[1], out=r[0])
            np.multiply(self._off_c, z[0], out=r[1])
            prev, resid = resid, _norm(r)
            if resid <= target:
                break
            if total >= cfg.max_krylov_iter:
                raise SolverError(
                    f"Crank-Nicolson solve failed: relative residual {resid / psi_norm:.3e} after "
                    f"{total} iterations (tolerance {cfg.krylov_tol:.1e})"
                )

        self.last_iterations = total
        # acc = ifft(F^-1 u), so w = P^-1 u is one forward transform away; psi_new = w - psi
        acc *= self._mass_inv
        return np.subtract(_fft2(acc, overwrite_x=True), hat)

    def step(self, data):
        """Advance one Crank-Nicolson step in physical space."""
        hat = _fft2(np.asarray(data, dtype=complex))
        return _ifft2(self.step_hat(hat))

    def true_residual(self, hat_new, hat_old):
        """Relative residual of (I + i gamma H) psi_new = (I - i gamma H) psi_old.

        Computed from A = I + i gamma H alone, with the right-hand side
        written as 2 psi_old - A psi_old.  It runs in the step's buffers, which
        are idle between steps: this holds only because step_hat never returns
        one of them, so neither argument can alias a buffer.
        """
        rhs = self._apply_A(hat_old, self._u, self._scratch[0])
        np.subtract(np.multiply(2.0, hat_old, out=self._scratch), rhs, out=rhs)
        r = np.subtract(self._apply_A(hat_new, self._r, self._scratch[0]), rhs, out=self._r)
        return _norm(r) / max(_norm(rhs), 1e-300)


@dataclasses.dataclass
class Snapshot:
    time: float
    norm: float
    center_of_mass: np.ndarray
    field: SpinorField | None = None


@dataclasses.dataclass
class EvolutionResult:
    snapshots: list
    final: SpinorField
    norm_drift: float
    steps: int
    max_krylov_iterations: int


def evolve(initial: SpinorField, wall, config: EvolutionConfig, t_end,
           snapshot_times=None, on_snapshot=None) -> EvolutionResult:
    """Run Crank-Nicolson steps to t_end with snapshots at the requested times.

    Snapshot times are rounded to the nearest step; t = 0 and t_end are always
    taken.  Every snapshot records time, L2 norm and the center of mass of
    |psi|^2.  ``on_snapshot(snap)`` is called at each snapshot, in time order
    while the run goes on, with ``snap.field`` holding the field (the last one
    is ``result.final``).  Only ``result.final`` outlives its callback: the
    snapshots of the result keep no field, so memory does not grow with their
    number.  The run aborts if the relative norm drift exceeds DRIFT_ABORT.
    """
    grid = initial.grid
    grid.check_resolution(config.epsilon)
    n_steps = int(round(t_end / config.dt))
    if abs(n_steps * config.dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end must be an integer multiple of dt")

    stepper = CrankNicolsonStepper(grid, wall, config)
    want = {0, n_steps}
    for t in snapshot_times if snapshot_times is not None else ():
        idx = int(round(t / config.dt))
        if idx < 0 or idx > n_steps:
            raise ValueError(f"snapshot time {t} outside the run")
        want.add(idx)

    hat = _fft2(initial.data)
    hat_scale = (grid.dA / (grid.n1 * grid.n2)) ** 0.5  # Parseval factor for norms in Fourier space
    norm0 = initial.norm()
    norm_denom = norm0 if norm0 > 0.0 else 1.0
    t0 = initial.time
    snaps = []
    max_iters = 0
    drift = 0.0

    def record(idx, h):
        f = SpinorField(grid, _ifft2(h), t0 + idx * config.dt)
        snaps.append(Snapshot(time=f.time, norm=f.norm(), center_of_mass=f.center_of_mass()))
        if on_snapshot is not None:
            on_snapshot(dataclasses.replace(snaps[-1], field=f))
        return f if idx == n_steps else None

    final = record(0, hat)
    for i in range(1, n_steps + 1):
        hat_new = stepper.step_hat(hat)
        max_iters = max(max_iters, stepper.last_iterations)
        if i % 256 == 0 or i == n_steps:
            rel = stepper.true_residual(hat_new, hat)
            if rel > config.krylov_tol:
                raise SolverError(f"step residual {rel:.3e} above tolerance at step {i}")
        hat = hat_new
        drift = max(drift, abs(_norm(hat) * hat_scale - norm0) / norm_denom)
        if drift > DRIFT_ABORT:
            raise SolverError(f"norm drift {drift:.3e} exceeded {DRIFT_ABORT:.1e} at step {i}")
        if i in want:
            final = record(i, hat)

    return EvolutionResult(
        snapshots=snaps, final=final, norm_drift=drift, steps=n_steps,
        max_krylov_iterations=max_iters,
    )


@dataclasses.dataclass(frozen=True)
class OverlapDiagnostics:
    l2_error: float
    relative_error: float
    center_offset: float


def phase_at(field: SpinorField, center):
    """Argument of the first spinor component at the grid point nearest to ``center``."""
    i1 = int(np.argmin(np.abs(field.grid.x1 - center[0])))
    i2 = int(np.argmin(np.abs(field.grid.x2 - center[1])))
    return float(np.angle(field.data[0, i1, i2]))


def overlap_diagnostics(field: SpinorField, ansatz: SpinorField, center, norm_ref=None) -> OverlapDiagnostics:
    """Error metrics of a field against an ansatz on the same grid.

    ``center`` locates the packet; the phase is ``phase_at(field, center)``
    (unwrapping across snapshots is the caller's job).  ``norm_ref`` sets the
    denominator of the relative error (defaults to the ansatz norm).
    """
    if field.grid != ansatz.grid:
        raise ValueError("field and ansatz live on different grids")
    diff = field.data - ansatz.data
    err = float(np.sqrt(np.sum(np.abs(diff) ** 2) * field.grid.dA))
    ref = norm_ref if norm_ref is not None else ansatz.norm()
    com_f = field.center_of_mass()
    return OverlapDiagnostics(
        l2_error=err,
        relative_error=err / ref if ref > 0 else np.inf,
        center_offset=float(np.hypot(*(com_f - np.asarray(center, dtype=float)))),
    )
