"""Hermite-ladder representation of transverse amplitudes.

Amplitudes live in the canonical frame (interface along x1, unit gradient)
after the constant spinor conjugation by [[1, -1], [1, 1]] (applied here in
its unitary scaling (1/sqrt2)[[1, -1], [1, 1]] so norms are preserved).  In
that frame the leading transport operator is

    L = [[0, adag], [a, 2 D_x1]],   a = x2 + d/dx2,  adag = x2 - d/dx2,

so a two-component amplitude is stored as coefficients over (x1 grid point,
oscillator index n): the ladder maps shift n with weight sqrt(2n+2), D_x1 is
diagonal after an FFT in x1, and per Fourier-Hermite mode L reduces to the
2x2 matrix [[0, s], [s, 2 xi]] with s = sqrt(2n+2).  Its kernel is exactly
the n = 0 band of the first component, which carries the propagating profile;
the inverse on the orthogonal complement is the per-mode matrix inverse.  The
operator primitives act on coefficient arrays (..., 2, N1, nb), so they
broadcast over leading axes such as a block of trajectory samples.

Multiplication by a polynomial of degree d in x2 raises the band by at most
d, so the hierarchy derives its band count from the polynomial degrees
(``hierarchy.N_BANDS``) and stays exact: it raises ``SolverError`` unless
``truncation_health``, the weight in the top two bands, is exactly zero.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

__all__ = [
    "SolverError",
    "X1Grid",
    "HermiteAmplitude",
    "hermite_functions",
    "apply_L",
    "invert_L",
    "kernel_project",
    "kernel_amplitude",
    "apply_poly_sigma1",
    "mode_phases",
    "trig_interp_matrix",
]

_KERNEL_NORM = np.sqrt(2.0) * np.pi**0.25  # band-0 coefficient of e^{-x2^2/2} [1, -1]


class SolverError(RuntimeError):
    """Numerical failure: a Crank-Nicolson solve over its iteration cap, norm drift,
    Hermite band truncation, or a corrector solvability residual above tolerance."""


@dataclasses.dataclass(frozen=True)
class X1Grid:
    """Uniform periodic grid on [-half_extent, half_extent) for the x1 direction."""

    n: int
    half_extent: float

    def __post_init__(self):
        if self.n & (self.n - 1):
            raise ValueError("x1 grid size must be a power of two")

    @property
    def dx(self):
        return 2.0 * self.half_extent / self.n

    @property
    def x(self):
        return -self.half_extent + self.dx * np.arange(self.n)

    @property
    def k(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


@dataclasses.dataclass
class HermiteAmplitude:
    """Two-component amplitude, coefficients (2, N1, Nh) in the tilde canonical frame."""

    grid: X1Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[0] != 2 or c.shape[1] != self.grid.n:
            raise ValueError("coefficients must have shape (2, N1, Nh)")
        self.coeffs = c

    @property
    def n_hermite(self):
        return self.coeffs.shape[2]

    @classmethod
    def zeros(cls, grid, n_hermite):
        return cls(grid, np.zeros((2, grid.n, n_hermite), dtype=complex))

    def norm(self):
        """L2 norm of the reconstructed field (Parseval in the (x1, n) coefficients)."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2) * self.grid.dx))

    def truncation_health(self):
        """Fraction of the squared norm in the top two oscillator bands."""
        total = np.sum(np.abs(self.coeffs) ** 2)
        if total == 0:
            return 0.0
        top = np.sum(np.abs(self.coeffs[:, :, -2:]) ** 2)
        return float(top / total)

    def __sub__(self, other):
        return HermiteAmplitude(self.grid, self.coeffs - other.coeffs)


def hermite_functions(n_max, x):
    """Orthonormal oscillator eigenfunctions phi_0..phi_{n_max-1} at points x, shape (len(x), n_max)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, n_max))
    out[:, 0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if n_max > 1:
        out[:, 1] = np.sqrt(2.0) * x * out[:, 0]
    for n in range(1, n_max - 1):
        out[:, n + 1] = np.sqrt(2.0 / (n + 1)) * x * out[:, n] - np.sqrt(n / (n + 1.0)) * out[:, n - 1]
    return out


# -- ladder / derivative primitives on coefficient arrays --------------------

@functools.cache
def _weights(n_bands):
    """sqrt(2n+2) for n = 0..n_bands-2 (the ladder shift weights)."""
    return np.sqrt(2.0 * np.arange(n_bands - 1) + 2.0)


def _raise_op(c):
    """adag: band n -> band n+1 with weight sqrt(2n+2); top band falls off the truncation."""
    out = np.empty_like(c)
    out[..., 0] = 0.0
    np.multiply(_weights(c.shape[-1]), c[..., :-1], out=out[..., 1:])
    return out


def _lower_op(c):
    """a: band n+1 -> band n with weight sqrt(2n+2)."""
    out = np.empty_like(c)
    out[..., -1] = 0.0
    np.multiply(_weights(c.shape[-1]), c[..., 1:], out=out[..., :-1])
    return out


@functools.cache
def _ladder_matrices(n_bands):
    """Real tridiagonal (X, D) with c @ X = (adag + a)/2 c and c @ D = (a - adag)/2 c."""
    up = np.diag(0.5 * _weights(n_bands), 1)  # adag/2: row n (from band n) -> column n+1
    return up + up.T, up.T - up


def x2_mult(c):
    """Multiplication by x2 = (adag + a)/2 along the band axis: one product with a band matrix.

    The product sums in BLAS order, so results can differ from the term-by-term
    weighted sum in the last bit.
    """
    return c @ _ladder_matrices(c.shape[-1])[0]


def dx2_op(c):
    """d/dx2 = (a - adag)/2 along the band axis, as one band-matrix product (see x2_mult)."""
    return c @ _ladder_matrices(c.shape[-1])[1]


def d1_op(c, grid):
    """D_x1 = -i d/dx1 by Fourier multiplication along the x1 axis of (..., N1, nb) coefficients."""
    ch = np.fft.fft(c, axis=-2)
    ch *= grid.k[:, None]
    return np.fft.ifft(ch, axis=-2)


def apply_L(a: HermiteAmplitude) -> HermiteAmplitude:
    """The canonical transport operator [[0, adag], [a, 2 D_x1]] on tilde amplitudes."""
    c1, c2 = a.coeffs[0], a.coeffs[1]
    out = np.empty_like(a.coeffs)
    out[0] = _raise_op(c2)
    out[1] = _lower_op(c1) + 2.0 * d1_op(c2, a.grid)
    return HermiteAmplitude(a.grid, out)


def kernel_project(a):
    """Split off the kernel part (first component, band 0) of an amplitude.

    ``a`` is a HermiteAmplitude or a coefficient array (..., 2, N1, nb).
    Returns (f, remainder): ``f`` is the profile on the x1 grid such that the
    kernel part equals the canonical embedding of f (kernel_amplitude), and
    the remainder, of the same form as ``a``, is orthogonal to the kernel.
    """
    c = a.coeffs if isinstance(a, HermiteAmplitude) else a
    rem = c.copy()
    rem[..., 0, :, 0] = 0.0
    f = c[..., 0, :, 0] / _KERNEL_NORM
    return f, HermiteAmplitude(a.grid, rem) if isinstance(a, HermiteAmplitude) else rem


def kernel_amplitude(f_values, grid, n_hermite) -> HermiteAmplitude:
    """Embed a profile (sampled on the x1 grid, already in canonical coordinates) into the kernel."""
    out = HermiteAmplitude.zeros(grid, n_hermite)
    out.coeffs[0, :, 0] = _KERNEL_NORM * np.asarray(f_values)
    return out


def invert_L(a, grid=None):
    """Solve L b = a on the kernel's orthogonal complement.

    ``a`` is a HermiteAmplitude, or a coefficient array (..., 2, N1, nb) on
    ``grid``; the result has the same form.  The kernel part of ``a`` is
    projected away first.  Per Fourier mode xi and band n the operator is
    [[0, s], [s, 2 xi]] with s = sqrt(2n+2) and determinant -s^2, so

        b = (1/(2n+2)) [[-2 xi, s], [s, 0]] a.

    The output satisfies apply_L(b) = a (minus the projected kernel part and
    top-band truncation) and has no kernel component.
    """
    amp = isinstance(a, HermiteAmplitude)
    c, grid = (a.coeffs, a.grid) if amp else (a, grid)
    _, src = kernel_project(c)
    ah = np.fft.fft(src, axis=-2)
    out = np.zeros_like(ah)
    xi = grid.k
    s = _weights(c.shape[-1])
    w1 = ah[..., 0, :, 1:]  # pairs with band n of the second component
    w2 = ah[..., 1, :, :-1]
    out[..., 0, :, 1:] = (-2.0 * xi[:, None] * w1 + s * w2) / (s * s)
    out[..., 1, :, :-1] = w1 / s
    # second component's top band has no partner inside the truncation
    b = np.fft.ifft(out, axis=-2)
    return HermiteAmplitude(grid, b) if amp else b


_UNTILDE = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)  # inverse of the tilde conjugation


# -- polynomial multiplication algebra ---------------------------------------


def apply_poly(c, coeff, grid: X1Grid):
    """Multiply coefficients (..., 2, N1, nb) by canonical-frame polynomials: x1 diagonal, x2 via ladders.

    ``coeff`` is (..., d+1, d+1), broadcasting against the leading axes of
    ``c``, with coeff[..., i, j] multiplying x1^i x2^j.  Monomials whose
    coefficient is zero throughout are skipped.
    """
    coeff = np.asarray(coeff, dtype=float)
    out = np.zeros(np.broadcast_shapes(coeff.shape[:-2] + (1, 1, 1), c.shape), dtype=complex)
    for j in range(coeff.shape[-1]):
        terms = [(coeff[..., i, j, None] * grid.x**i)[..., None, :, None] * c
                 for i in range(coeff.shape[-2]) if np.any(coeff[..., i, j])]
        if not terms:
            continue
        col = sum(terms)
        for _ in range(j):
            col = x2_mult(col)
        out += col
    return out


def apply_poly_sigma1(c, coeff, grid: X1Grid):
    """Multiply by poly * sigma3 in the lab spinor frame = poly * sigma1 on tilde components (see apply_poly)."""
    return apply_poly(c, coeff, grid)[..., ::-1, :, :]


def mode_phases(grid: X1Grid, points, scale=1.0):
    """Phase table T[m, p] = scale exp(i k_m points[p]) over the grid's FFT modes, shape (N1, len(points)).

    Mode N1/2 carries frequency -N1/2.  Rows are powers of the base phase:
    built by cumulative product, with negative frequencies as conjugates
    (exp() per entry would dominate).
    """
    base = np.exp(1j * np.asarray(points, dtype=float) * (np.pi / grid.half_extent))
    n, half = grid.n, grid.n // 2
    T = np.empty((n, base.size), dtype=complex)
    T[0] = scale
    for m in range(1, half + 1):
        np.multiply(T[m - 1], base, out=T[m])
    np.conj(T[half], out=T[half])
    np.conj(T[half - 1 : 0 : -1], out=T[half + 1 :])
    return T


def trig_interp_matrix(grid: X1Grid, points):
    """Matrix evaluating the trigonometric interpolant of grid samples at scattered points.

    result = M @ fft(values) with M of shape (len(points), N1); spectrally
    accurate for smooth decaying data.  The phase references the grid origin
    at -half_extent, where sample index 0 lives.  M.T is C-contiguous.
    """
    return mode_phases(grid, np.asarray(points, dtype=float) + grid.half_extent, 1.0 / grid.n).T


def eval_on_points(values, grid: X1Grid, points):
    """Trigonometric interpolation of 1D grid data at scattered points.

    Points outside the grid window evaluate to zero: amplitudes handled here
    decay inside the window, so the periodic continuation of the interpolant
    would alias packet values into the far tails.
    """
    vh = np.fft.fft(np.asarray(values, dtype=complex), axis=0)
    points = np.asarray(points, dtype=float)
    flat = points.ravel()
    out = trig_interp_matrix(grid, flat) @ vh
    out[np.abs(flat) >= grid.half_extent] = 0.0
    return out.reshape(points.shape + vh.shape[1:])


def eval_dilated(values, grid: X1Grid, scales):
    """Trigonometric interpolant of each row of ``values`` (B, N1) at scales[b] * grid.x, ``scales``
    broadcasting against the rows.  With centred indices f, c in [-N1/2, N1/2) it is sum_f w_f
    e^{2 pi i s f c / N1} over the spectrum w centred at x = 0, and f c = (f^2 + c^2 - (c - f)^2) / 2
    makes that a chirp-z transform (Bluestein): pre-chirp, one linear convolution by FFTs of length
    2 N1, post-chirp, and no phase table.  Points with |s x| >= half_extent are exactly zero."""
    n, s = grid.n, np.asarray(scales, dtype=float).reshape(-1, 1)
    c, lags = np.arange(-(n // 2), n // 2), np.r_[0:n, -n:0]  # lags c - f mod 2 N1 (-N1 unused)
    chirp = lambda m: np.exp((1j * np.pi / n) * s * (m * m))
    w = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(np.asarray(values, dtype=complex), axes=-1)), axes=-1)
    conv = np.fft.ifft(np.fft.fft(w * chirp(c), 2 * n) * np.fft.fft(np.conj(chirp(lags))))
    out = conv[..., :n] * (chirp(c) / n)
    return np.where(np.abs(s * grid.x) < grid.half_extent, out, 0.0)
