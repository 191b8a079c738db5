"""Tensor-grid synthesis and analysis of Hermite amplitudes, used by the tests as oracles.

An amplitude's coefficients (2, N1, Nh) in the tilde canonical frame are
turned into the untilded two-component field on an (x1, x2) tensor grid and
back, so operator identities can be checked pointwise.
"""

import numpy as np

from edgelab.hermite import _UNTILDE, HermiteAmplitude, X1Grid, hermite_functions

_TILDE = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)  # the tilde conjugation, unitary scaling


def default_x2_grid(n_hermite, points_per_osc=6, pad=3.0):
    """Uniform x2 grid resolving the highest retained oscillator state."""
    turning = np.sqrt(2.0 * n_hermite + 1.0)
    half = turning + pad
    wavelength = 2.0 * np.pi / turning
    dx = wavelength / points_per_osc
    n = int(np.ceil(2.0 * half / dx))
    return np.linspace(-half, half, n)


def hermite_synthesize(a: HermiteAmplitude, x2):
    """Reconstruct the untilded two-component field on the (x1, x2) tensor grid.

    Raises if the target grid cannot resolve the top retained oscillator state
    (at least 4 points per oscillation near the center).
    """
    x2 = np.asarray(x2, dtype=float)
    dx2 = np.min(np.diff(x2))
    needed = 2.0 * np.pi / np.sqrt(2.0 * a.n_hermite + 1.0) / 4.0
    if dx2 > needed:
        raise ValueError(
            f"x2 grid spacing {dx2:.3g} under-resolves the top Hermite mode (need <= {needed:.3g})"
        )
    phi = hermite_functions(a.n_hermite, x2)  # (N2, Nh)
    tilde = np.einsum("cjn,xn->cjx", a.coeffs, phi)
    return np.einsum("dc,cjx->djx", _UNTILDE, tilde)


def hermite_analyze(fields, grid: X1Grid, x2, n_hermite) -> HermiteAmplitude:
    """Project an untilded field sampled on an (x1, x2) tensor grid onto the amplitude basis."""
    fields = np.asarray(fields, dtype=complex)
    x2 = np.asarray(x2, dtype=float)
    w = np.gradient(x2)  # trapezoid weights for possibly non-uniform spacing
    phi = hermite_functions(n_hermite, x2)
    tilde = np.einsum("dc,cjx->djx", _TILDE, fields)
    coeffs = np.einsum("cjx,xn->cjn", tilde, phi * w[:, None])
    return HermiteAmplitude(grid, coeffs)
