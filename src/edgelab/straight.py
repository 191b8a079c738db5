"""Exact edge states and ballistic waves for straight domain walls.

For the linear wall r*(-sin(theta), cos(theta)) . x the stationary problem
has an explicit zero-mode branch: plane waves along the interface times a
transverse Gaussian, carried by the spinor (e^{-i theta/2}, -e^{i theta/2}).
Superposing them produces waves that translate at unit speed without
dispersion.  These closed forms are the exact oracle the evolution engine is
verified against.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "StraightWall",
    "rotated_coords",
    "edge_spinor",
    "edge_state",
    "ballistic_wave",
]


@dataclasses.dataclass(frozen=True)
class StraightWall:
    """Straight interface with frame angle theta, gradient magnitude r > 0."""

    theta: float
    r: float
    epsilon: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("gradient magnitude r must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def rotated_coords(theta, x1, x2):
    """((R_theta x)_1, (R_theta x)_2) with R_theta = [[cos, sin], [-sin, cos]]; x1, x2 broadcast."""
    c, s = np.cos(theta), np.sin(theta)
    return c * x1 + s * x2, -s * x1 + c * x2


def _rotated_points(theta, x):
    """rotated_coords of points x of shape (..., 2)."""
    x = np.asarray(x, dtype=float)
    return rotated_coords(theta, x[..., 0], x[..., 1])


def edge_spinor(theta):
    """The propagating spinor direction (e^{-i theta/2}, -e^{i theta/2})."""
    return np.array([np.exp(-0.5j * theta), -np.exp(0.5j * theta)])


def edge_state(w: StraightWall, xi, x):
    """Stationary edge state with transverse Gaussian decay, at points x of shape (..., 2).

    Returns exp(i xi (R x)_1 / eps - r (R x)_2^2 / (2 eps)) times the edge
    spinor; plane-wave along the interface, Gaussian across it.  With this
    phase convention the state satisfies (H + xi) F = 0: the zero-mode branch
    has energy -xi, so its group velocity points along -(cos theta, sin theta),
    consistent with the ballistic waves below.
    """
    u, v = _rotated_points(w.theta, x)
    scalar = np.exp(1j * xi * u / w.epsilon - w.r * v * v / (2.0 * w.epsilon))
    return scalar[..., None] * edge_spinor(w.theta)


def ballistic_wave(w: StraightWall, f, t, x):
    """Unit-speed dispersion-free wave eps^{-1/2} f(t + (R x)_1) e^{-r (R x)_2^2/(2 eps)} spinor.

    ``f`` is any callable profile; the wave solves the time-dependent Dirac
    equation for the straight wall exactly.
    """
    u, v = _rotated_points(w.theta, x)
    scalar = f(t + u) * np.exp(-w.r * v * v / (2.0 * w.epsilon)) / np.sqrt(w.epsilon)
    return scalar[..., None] * edge_spinor(w.theta)
