"""Domain-wall mass functions and their geometry.

A domain wall is a real function kappa on the plane whose zero set Gamma
separates regions of opposite mass sign.  Everything downstream (trajectory
integration, transport operators, the PDE mass term) consumes kappa through
the evaluators defined here: value, gradient, Hessian and third derivatives.
The built-in families give them in closed form, except the third derivatives
of ``two_ring``: central differences of the Hessian at step 1e-5.  Normalized
walls take their third derivatives the same way, at step 1e-3.

Besides the built-in analytic families, ``normalize_wall`` rebuilds a wall so
that on Gamma the gradient has unit length and is annihilated by the Hessian.
That normal form makes the interface curvature the only quantity entering the
subleading transport coefficients.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "DomainWall",
    "WallDerivatives",
    "SingularPointError",
    "TransversalityError",
    "make_wall",
    "evaluate_wall",
    "normalize_wall",
    "straight_wall",
    "WALL_FAMILIES",
]


class SingularPointError(ValueError):
    """Raised when a wall derivative is evaluated at a non-smooth point."""


class TransversalityError(ValueError):
    """Raised when |grad kappa| falls below the configured floor on Gamma."""


@dataclasses.dataclass(frozen=True)
class WallDerivatives:
    """Taylor data of kappa at one point: value, gradient, Hessian, third tensor."""

    value: float
    gradient: np.ndarray  # (2,)
    hessian: np.ndarray  # (2, 2), symmetric
    third: np.ndarray  # (2, 2, 2), symmetric under index permutation


class DomainWall:
    """Base class: a smooth mass function with derivatives up to order 3.

    Subclasses implement ``_value``, ``_gradient`` and ``_hessian`` in closed
    form, and ``_third`` where they have one; the base ``_third`` is the
    symmetrized central difference of the Hessian with step ``fd_step``.  The
    evaluators take points of shape (..., 2), converted to float once, and
    are pure, so a wall may be shared read-only between workers.
    """

    family = "custom"
    fd_step = 1e-5  # step of the finite-difference third derivative

    def __init__(self, params=()):
        """A family that takes parameters sets ``params`` in its own constructor; the rest take none."""
        if len(params):
            raise ValueError(f"{self.family} wall takes no params")
        self.params = ()

    def value(self, pts):
        return self._value(np.asarray(pts, dtype=float))

    def gradient(self, pts):
        return self._gradient(np.asarray(pts, dtype=float))

    def hessian(self, pts):
        return self._hessian(np.asarray(pts, dtype=float))

    def third(self, pts):
        return self._third(np.asarray(pts, dtype=float))

    def _third(self, pts):
        return _symmetrize3(_central_diff(self._hessian, pts, self.fd_step))

    def describe(self):
        ps = ", ".join(f"{p:g}" for p in self.params)
        return f"{self.family}({ps})"


def _central_diff(fn, pts, h):
    """(fn(pts + h e_j) - fn(pts - h e_j)) / 2h for j = 1, 2, stacked on a new last axis.  ``fn`` is
    called once, on the shifted points stacked on a new leading axis, so nested stencils are one call."""
    e = h * np.eye(2)
    vals = fn(np.stack([pts + e[0], pts + e[1], pts - e[0], pts - e[1]]))
    return np.stack([(vals[j] - vals[j + 2]) / (2 * h) for j in range(2)], axis=-1)


def _symmetrize3(T):
    out = np.zeros_like(T)
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        out += np.transpose(T, axes=tuple(range(T.ndim - 3)) + tuple(T.ndim - 3 + p for p in perm))
    return out / 6.0


# ---------------------------------------------------------------------------
# analytic families
# ---------------------------------------------------------------------------


class LinearWall(DomainWall):
    """kappa = a1*x1 + a2*x2."""

    family = "linear"

    def __init__(self, params=(0.0, 1.0)):
        if len(params) != 2:
            raise ValueError("linear wall takes params (a1, a2)")
        self.params = tuple(float(p) for p in params)
        self.a = np.array(self.params)

    def _value(self, pts):
        return pts @ self.a

    def _gradient(self, pts):
        return np.broadcast_to(self.a, pts.shape).copy()

    def _hessian(self, pts):
        return np.zeros(pts.shape[:-1] + (2, 2))

    def _third(self, pts):
        return np.zeros(pts.shape[:-1] + (2, 2, 2))


class TanhWall(DomainWall):
    """kappa = x2 - tanh(x1): asymptotically straight curved interface."""

    family = "tanh"

    def _value(self, pts):
        return pts[..., 1] - np.tanh(pts[..., 0])

    def _gradient(self, pts):
        t = np.tanh(pts[..., 0])
        g = np.empty(pts.shape)
        g[..., 0] = -(1.0 - t * t)
        g[..., 1] = 1.0
        return g

    def _hessian(self, pts):
        t = np.tanh(pts[..., 0])
        s = 1.0 - t * t
        H = np.zeros(pts.shape[:-1] + (2, 2))
        H[..., 0, 0] = 2.0 * t * s
        return H

    def _third(self, pts):
        t = np.tanh(pts[..., 0])
        s = 1.0 - t * t
        T = np.zeros(pts.shape[:-1] + (2, 2, 2))
        # -tanh''' = 2 s^2 - 4 t^2 s
        T[..., 0, 0, 0] = 2.0 * s * s - 4.0 * t * t * s
        return T


class CircleWall(DomainWall):
    """kappa = |x - c| - R, a closed circular interface."""

    family = "circle"

    def __init__(self, params=(1.0,)):
        if len(params) == 1:
            params = (params[0], 0.0, 0.0)
        if len(params) != 3:
            raise ValueError("circle wall takes params (R,) or (R, cx, cy)")
        self.params = tuple(float(p) for p in params)
        self.radius = self.params[0]
        self.center = np.array(self.params[1:])
        if not self.radius > 0:
            raise ValueError("circle radius must be positive")

    def _rho(self, pts):
        d = pts - self.center
        return d, np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)

    def _value(self, pts):
        _, rho = self._rho(pts)
        return rho - self.radius

    def _gradient(self, pts):
        d, rho = self._rho(pts)
        _check_away_from(rho, "circle center")
        return d / rho[..., None]

    def _hessian(self, pts):
        d, rho = self._rho(pts)
        _check_away_from(rho, "circle center")
        u = d / rho[..., None]
        eye = np.eye(2)
        return (eye - u[..., :, None] * u[..., None, :]) / rho[..., None, None]

    def _third(self, pts):
        d, rho = self._rho(pts)
        _check_away_from(rho, "circle center")
        x = d
        r3 = rho**3
        r5 = rho**5
        eye = np.eye(2)
        T = 3.0 * x[..., :, None, None] * x[..., None, :, None] * x[..., None, None, :] / r5[..., None, None, None]
        T -= (
            eye[..., :, :, None] * x[..., None, None, :]
            + eye[..., :, None, :] * x[..., None, :, None]
            + eye[..., None, :, :] * x[..., :, None, None]
        ) / r3[..., None, None, None]
        return T


class ModulatedStraightWall(DomainWall):
    """kappa = (1 - m*sin(x1)) * x2: straight interface, oscillating gradient."""

    family = "modulated_straight"

    def __init__(self, params=(0.9,)):
        if len(params) != 1:
            raise ValueError("modulated_straight wall takes params (m,)")
        self.params = tuple(float(p) for p in params)
        self.m = self.params[0]

    def _value(self, pts):
        return (1.0 - self.m * np.sin(pts[..., 0])) * pts[..., 1]

    def _gradient(self, pts):
        x1, x2 = pts[..., 0], pts[..., 1]
        g = np.empty(pts.shape)
        g[..., 0] = -self.m * np.cos(x1) * x2
        g[..., 1] = 1.0 - self.m * np.sin(x1)
        return g

    def _hessian(self, pts):
        x1, x2 = pts[..., 0], pts[..., 1]
        H = np.zeros(pts.shape[:-1] + (2, 2))
        H[..., 0, 0] = self.m * np.sin(x1) * x2
        H[..., 0, 1] = H[..., 1, 0] = -self.m * np.cos(x1)
        return H

    def _third(self, pts):
        x1, x2 = pts[..., 0], pts[..., 1]
        T = np.zeros(pts.shape[:-1] + (2, 2, 2))
        T[..., 0, 0, 0] = self.m * np.cos(x1) * x2
        s = self.m * np.sin(x1)
        T[..., 0, 0, 1] = T[..., 0, 1, 0] = T[..., 1, 0, 0] = s
        return T


class CornerWall(DomainWall):
    """kappa = x2 + sqrt(x1^2 + mu^2): Gamma is a hyperbola-smoothed corner.

    mu = 0 gives a sharp corner; the wall is then non-smooth on the half-line
    x1 = 0 and derivative evaluation there raises ``SingularPointError``.
    """

    family = "corner"

    def __init__(self, params=(0.5,)):
        if len(params) != 1:
            raise ValueError("corner wall takes params (mu,)")
        self.params = tuple(float(p) for p in params)
        self.mu = self.params[0]
        if not self.mu >= 0:
            raise ValueError("corner parameter mu must be >= 0")

    def _q(self, pts):
        return np.sqrt(pts[..., 0] ** 2 + self.mu**2)

    def _value(self, pts):
        return pts[..., 1] + self._q(pts)

    def _gradient(self, pts):
        q = self._q(pts)
        _check_away_from(q, "corner tip (mu = 0)")
        g = np.empty(pts.shape)
        g[..., 0] = pts[..., 0] / q
        g[..., 1] = 1.0
        return g

    def _hessian(self, pts):
        q = self._q(pts)
        _check_away_from(q, "corner tip (mu = 0)")
        H = np.zeros(pts.shape[:-1] + (2, 2))
        H[..., 0, 0] = self.mu**2 / q**3
        return H

    def _third(self, pts):
        q = self._q(pts)
        _check_away_from(q, "corner tip (mu = 0)")
        T = np.zeros(pts.shape[:-1] + (2, 2, 2))
        T[..., 0, 0, 0] = -3.0 * pts[..., 0] * self.mu**2 / q**5
        return T


class CrossingWall(DomainWall):
    """kappa = x1*x2: two crossing lines, degenerate at the origin."""

    family = "crossing"

    def _value(self, pts):
        return pts[..., 0] * pts[..., 1]

    def _gradient(self, pts):
        g = np.empty(pts.shape)
        g[..., 0] = pts[..., 1]
        g[..., 1] = pts[..., 0]
        return g

    def _hessian(self, pts):
        H = np.zeros(pts.shape[:-1] + (2, 2))
        H[..., 0, 1] = H[..., 1, 0] = 1.0
        return H

    def _third(self, pts):
        return np.zeros(pts.shape[:-1] + (2, 2, 2))


class TwoRingWall(DomainWall):
    """kappa = |x + e1|*|x - e1| - c: a Cassini-oval pair of rings (c = 1).

    Third derivatives of the product form are central differences of the
    analytic Hessian (the base class ``_third``).
    """

    family = "two_ring"

    def __init__(self, params=(1.0,)):
        if len(params) != 1:
            raise ValueError("two_ring wall takes params (c,)")
        self.params = tuple(float(p) for p in params)
        self.c = self.params[0]

    def _split(self, pts):
        e1 = np.array([1.0, 0.0])
        dp = pts + e1
        dm = pts - e1
        rp = np.sqrt(dp[..., 0] ** 2 + dp[..., 1] ** 2)
        rm = np.sqrt(dm[..., 0] ** 2 + dm[..., 1] ** 2)
        return dp, dm, rp, rm

    def _value(self, pts):
        _, _, rp, rm = self._split(pts)
        return rp * rm - self.c

    def _gradient(self, pts):
        dp, dm, rp, rm = self._split(pts)
        _check_away_from(rp * rm, "ring foci")
        up = dp / rp[..., None]
        um = dm / rm[..., None]
        return rm[..., None] * up + rp[..., None] * um

    def _hessian(self, pts):
        dp, dm, rp, rm = self._split(pts)
        _check_away_from(rp * rm, "ring foci")
        up = dp / rp[..., None]
        um = dm / rm[..., None]
        eye = np.eye(2)
        Hp = (eye - up[..., :, None] * up[..., None, :]) / rp[..., None, None]
        Hm = (eye - um[..., :, None] * um[..., None, :]) / rm[..., None, None]
        cross = up[..., :, None] * um[..., None, :] + um[..., :, None] * up[..., None, :]
        return rm[..., None, None] * Hp + rp[..., None, None] * Hm + cross


def _check_away_from(dist, what):
    d = np.asarray(dist)
    if not ((d >= 1e-300) & (d < np.inf)).all():  # one pass: NaN fails both tests
        raise SingularPointError(f"wall derivative evaluated at singular point: {what}")


# ---------------------------------------------------------------------------
# normalization (unit gradient + Hessian annihilation on Gamma)
# ---------------------------------------------------------------------------


class NormalizedWall(DomainWall):
    """Wall rebuilt to satisfy |grad kappa| = 1 and hess(kappa) grad(kappa) = 0 on Gamma.

    Construction, in two stages applied to the base wall kt:

    1. Scale kh = kt / |grad kt| inside a tube |kt| <= tube_halfwidth around
       Gamma, blended C2-smoothly back to kt outside the tube so the result
       stays globally defined.  On Gamma this makes the gradient exactly unit.
    2. Correct kappa = kh - rho*kh^2/2 with rho = rt/(1 + rt^2 kh^2) and
       rt = <grad kh, hess(kh) grad kh>, which removes the normal component
       of hess(kappa) grad(kappa) on Gamma (the tangential component already
       vanishes because stage 1 fixed |grad| = 1 along Gamma).

    Value, gradient and Hessian propagate through the construction in closed
    form except for derivatives of rt, which multiply powers of kh (hence
    vanish on Gamma) and are taken by central differences of step ``fd_step``.
    Third derivatives are central differences of the Hessian (base class).
    """

    fd_step = 1e-3

    def __init__(self, base: DomainWall, tube_halfwidth: float):
        super().__init__(())
        self.base = base
        self.tube = float(tube_halfwidth)
        if not self.tube > 0:
            raise ValueError("tube_halfwidth must be positive")

    def describe(self):
        return f"normalized[{self.base.describe()}, tube={self.tube:g}]"

    # stage 1: blend factor chi(kt^2) with chi = 1 for |kt| <= tube/2 and 0
    # for |kt| >= tube, quintic-smooth in between (C2 in y).
    def _chi(self, kt):
        u = (np.square(kt / self.tube) - 0.25) / 0.75
        u = np.clip(u, 0.0, 1.0)
        q = u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
        dq_du = 30.0 * u * u * (1.0 - u) ** 2
        d2q_du2 = 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u)
        # derivatives with respect to kt
        du_dk = 2.0 * kt / (0.75 * self.tube**2)
        d2u_dk2 = 2.0 / (0.75 * self.tube**2)
        chi = 1.0 - q
        dchi = -dq_du * du_dk
        d2chi = -(d2q_du2 * du_dk * du_dk + dq_du * d2u_dk2)
        return chi, dchi, d2chi

    def _scaled(self, pts):
        """kh = kt * F with F = 1 + chi*(1/g - 1); returns (kh, grad kh, hess kh, rho)."""
        kt = self.base.value(pts)
        g = self.base.gradient(pts)
        gn = np.sqrt(g[..., 0] ** 2 + g[..., 1] ** 2)
        chi, dchi_dk, d2chi_dk2 = self._chi(kt)
        inside = chi > 0.0
        if np.any(inside & (gn < 1e-12)):
            raise TransversalityError(
                "transversality failure inside the normalization tube: |grad| ~ 0"
            )
        safe_gn = np.where(gn > 1e-12, gn, 1.0)
        inv_g = np.where(inside, 1.0 / safe_gn, 1.0)
        F = 1.0 + chi * (inv_g - 1.0)
        kh = kt * F

        H = self.base.hessian(pts)
        # grad g = H grad / g (guarded off-tube where it is multiplied by chi)
        Hg = np.einsum("...ij,...j->...i", H, g)
        grad_gn = Hg / np.where(gn > 1e-12, gn, 1.0)[..., None]
        grad_chi = dchi_dk[..., None] * g
        grad_invg = np.where(inside[..., None], -grad_gn / safe_gn[..., None] ** 2, 0.0)
        grad_F = grad_chi * (inv_g - 1.0)[..., None] + chi[..., None] * grad_invg
        grad_kh = F[..., None] * g + kt[..., None] * grad_F

        T = self.base.third(pts)
        # hess of g: (T:grad + H H)/g - grad_g grad_g^T / g
        TH = np.einsum("...ijk,...k->...ij", T, g)
        HH = np.einsum("...ik,...kj->...ij", H, H)
        hess_gn = (TH + HH) / safe_gn[..., None, None] - (
            grad_gn[..., :, None] * grad_gn[..., None, :]
        ) / safe_gn[..., None, None]
        hess_chi = (
            d2chi_dk2[..., None, None] * g[..., :, None] * g[..., None, :]
            + dchi_dk[..., None, None] * H
        )
        hess_invg = np.where(
            inside[..., None, None],
            -hess_gn / safe_gn[..., None, None] ** 2
            + 2.0 * (grad_gn[..., :, None] * grad_gn[..., None, :]) / safe_gn[..., None, None] ** 3,
            0.0,
        )
        hess_F = (
            hess_chi * (inv_g - 1.0)[..., None, None]
            + grad_chi[..., :, None] * grad_invg[..., None, :]
            + grad_invg[..., :, None] * grad_chi[..., None, :]
            + chi[..., None, None] * hess_invg
        )
        hess_kh = (
            grad_F[..., :, None] * g[..., None, :]
            + grad_F[..., None, :] * g[..., :, None]
            + F[..., None, None] * H
            + kt[..., None, None] * hess_F
        )
        rt = np.einsum("...i,...ij,...j->...", grad_kh, hess_kh, grad_kh)
        return kh, grad_kh, hess_kh, rt / (1.0 + rt * rt * kh * kh)

    def _rho_of(self, pts):
        return self._scaled(pts)[3]

    def _value(self, pts):
        kh, _, _, rho = self._scaled(pts)
        return kh - rho * kh * kh / 2.0

    def _gradient(self, pts):
        kh, gk, _, rho = self._scaled(pts)
        grad_rho = _central_diff(self._rho_of, pts, self.fd_step)
        return gk * (1.0 - rho * kh)[..., None] - 0.5 * (kh * kh)[..., None] * grad_rho

    def _hessian(self, pts):
        h = self.fd_step
        kh, gk, Hk, rho = self._scaled(pts)
        grad_rho = _central_diff(self._rho_of, pts, h)
        hess_rho = _central_diff(lambda q: _central_diff(self._rho_of, q, h), pts, h)
        hess_rho = 0.5 * (hess_rho + np.swapaxes(hess_rho, -1, -2))
        H = Hk * (1.0 - rho * kh)[..., None, None]
        H -= rho[..., None, None] * gk[..., :, None] * gk[..., None, :]
        H -= kh[..., None, None] * (
            grad_rho[..., :, None] * gk[..., None, :] + gk[..., :, None] * grad_rho[..., None, :]
        )
        H -= 0.5 * (kh * kh)[..., None, None] * hess_rho
        return 0.5 * (H + np.swapaxes(H, -1, -2))


WALL_FAMILIES = {
    "linear": LinearWall,
    "tanh": TanhWall,
    "circle": CircleWall,
    "modulated_straight": ModulatedStraightWall,
    "corner": CornerWall,
    "crossing": CrossingWall,
    "two_ring": TwoRingWall,
}


def make_wall(family, params=()) -> DomainWall:
    """Build a wall from its family tag and parameter list."""
    try:
        cls = WALL_FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown wall family {family!r}") from None
    return cls(params)


def straight_wall(theta, r):
    """Linear wall r*(-sin(theta), cos(theta)) . x whose interface has frame angle theta."""
    return LinearWall((-r * np.sin(theta), r * np.cos(theta)))


def evaluate_wall(wall: DomainWall, x) -> WallDerivatives:
    """All derivatives of the wall up to order 3 at a single point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,) or not np.all(np.isfinite(x)):
        raise ValueError("evaluation point must be a finite 2-vector")
    out = WallDerivatives(
        value=float(wall.value(x)),
        gradient=np.asarray(wall.gradient(x), dtype=float),
        hessian=np.asarray(wall.hessian(x), dtype=float),
        third=np.asarray(wall.third(x), dtype=float),
    )
    for part in (out.value, out.gradient, out.hessian, out.third):
        if not np.all(np.isfinite(part)):
            raise SingularPointError(f"non-finite wall derivatives at {x}")
    return out


def normalize_wall(wall: DomainWall, tube_halfwidth: float) -> NormalizedWall:
    """Rebuild ``wall`` so the unit-gradient/Hessian-annihilation conditions hold on Gamma.

    The input wall must be transversal inside the tube; the zero set is
    preserved exactly (the correction factor stays within (3/4, 5/4]).
    """
    return NormalizedWall(wall, tube_halfwidth)
