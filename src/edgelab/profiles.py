"""Longitudinal profile family for edge-state ansatz construction.

Profiles are smooth rapidly decaying functions of one variable.  The family
is restricted to shapes with closed-form derivatives: Gaussians, Hermite
functions times a Gaussian, and a compactly supported bump.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Profile", "GaussianProfile", "HermiteProfile", "BumpProfile", "make_profile"]


class Profile:
    """Callable profile with an analytic derivative."""

    def __call__(self, s):
        raise NotImplementedError

    def derivative(self, s):
        raise NotImplementedError


class GaussianProfile(Profile):
    """exp(-(s - c)^2 / (2 sigma^2))."""

    def __init__(self, sigma=1.0, center=0.0):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        self.center = float(center)

    def __call__(self, s):
        u = (np.asarray(s, dtype=float) - self.center) / self.sigma
        return np.exp(-0.5 * u * u)

    def derivative(self, s):
        u = (np.asarray(s, dtype=float) - self.center) / self.sigma
        return -u / self.sigma * np.exp(-0.5 * u * u)


class HermiteProfile(Profile):
    """H_n(s / sigma) exp(-s^2 / (2 sigma^2)) with the physicists' Hermite polynomial."""

    def __init__(self, n=1, sigma=1.0):
        if n < 0 or int(n) != n:
            raise ValueError("Hermite index must be a non-negative integer")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.n = int(n)
        self.sigma = float(sigma)

    def _h(self, u, n):
        c = np.zeros(n + 1)
        c[n] = 1.0
        return np.polynomial.hermite.hermval(u, c)

    def __call__(self, s):
        u = np.asarray(s, dtype=float) / self.sigma
        return self._h(u, self.n) * np.exp(-0.5 * u * u)

    def derivative(self, s):
        u = np.asarray(s, dtype=float) / self.sigma
        # H_n' = 2 n H_{n-1}
        hp = 2.0 * self.n * self._h(u, self.n - 1) if self.n > 0 else 0.0
        return (hp - u * self._h(u, self.n)) * np.exp(-0.5 * u * u) / self.sigma


class BumpProfile(Profile):
    """Compact bump exp(1 - 1/(1 - (s/w)^2)) on |s| < w, zero outside."""

    def __init__(self, width=3.0):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = float(width)

    def __call__(self, s):
        u = np.atleast_1d(np.asarray(s, dtype=float)) / self.width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        return out[0] if np.ndim(s) == 0 else out

    def derivative(self, s):
        u = np.atleast_1d(np.asarray(s, dtype=float)) / self.width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        d = 1.0 - ui * ui
        out[inside] = np.exp(1.0 - 1.0 / d) * (-2.0 * ui / d**2) / self.width
        return out[0] if np.ndim(s) == 0 else out


def make_profile(kind, params=()) -> Profile:
    kinds = {"gaussian": GaussianProfile, "hermite": HermiteProfile, "bump": BumpProfile}
    try:
        cls = kinds[kind]
    except KeyError:
        raise ValueError(f"unknown profile kind {kind!r}") from None
    return cls(*params)
