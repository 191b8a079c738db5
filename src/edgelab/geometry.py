"""Interface trajectories and the moving frame along Gamma.

The packet center follows the unit-speed ODE dy/dt = grad(kappa)^perp/|grad(kappa)|,
which stays on the zero set of kappa.  Each sample carries the frame data the
ansatz machinery needs: the unwrapped angle theta with
grad(kappa)(y_t) = r_t(-sin theta, cos theta), its rate theta_dot, the gradient
magnitude r_t with its rate, and the accumulated squared curvature
Theta_t = int_0^t theta_dot^2 ds that controls coherence loss on curved walls.
Only ``integrate_trajectory`` projects onto Gamma and tests |grad kappa| against
TRANSVERSALITY_FLOOR = 1e-3 at every RK4 stage, so r_t is the run's transversality record.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .walls import DomainWall, SingularPointError, TransversalityError

__all__ = [
    "TRANSVERSALITY_FLOOR",
    "DEGENERATE_ERRORS",
    "Trajectory",
    "ProjectionError",
    "project_to_interface",
    "integrate_trajectory",
    "hessian_frame_residual",
]

TRANSVERSALITY_FLOOR = 1e-3  # the least |grad kappa| a trajectory may meet


class ProjectionError(RuntimeError):
    """Raised when Newton projection onto Gamma fails to converge."""


DEGENERATE_ERRORS = (TransversalityError, ProjectionError, SingularPointError)  # raised at degenerate interface points


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled interface trajectory; immutable after construction."""

    wall: DomainWall
    dt: float
    t: np.ndarray  # (N,)
    y: np.ndarray  # (N, 2)
    theta: np.ndarray
    r: np.ndarray
    theta_dot: np.ndarray
    r_dot: np.ndarray
    Theta: np.ndarray

    def __len__(self):
        return len(self.t)

    def index_at(self, time, tol=1e-9):
        """Index of the sample at ``time``; the time must sit on the sample grid."""
        i = int(round((time - self.t[0]) / self.dt))
        if i < 0 or i >= len(self.t) or abs(self.t[i] - time) > tol:
            raise ValueError(f"time {time} is not on the trajectory sample grid (dt={self.dt})")
        return i


def project_to_interface(wall, x0, tol=1e-12, max_iter=50):
    """Project a point onto Gamma by damped Newton steps along the gradient."""
    x = np.asarray(x0, dtype=float).copy()
    val = float(wall.value(x))
    for _ in range(max_iter):
        if abs(val) <= tol:
            return x
        g = wall.gradient(x)
        g2 = float(g @ g)
        if g2 < 1e-24:
            raise ProjectionError(f"vanishing gradient while projecting {x0}")
        step = val / g2 * g
        lam = 1.0
        for _ in range(30):
            x_new = x - lam * step
            val_new = float(wall.value(x_new))
            if abs(val_new) < abs(val):
                break
            lam /= 2.0
        else:
            raise ProjectionError(f"projection stalled at {x} (|kappa| = {abs(val):.3g})")
        x, val = x_new, val_new
    if abs(val) <= tol:
        return x
    raise ProjectionError(f"no convergence projecting {x0}: |kappa| = {abs(val):.3g} after {max_iter} iterations")


def _velocity(wall, y):
    """Gradient g, its magnitude r and the unit tangent g^perp/r at y; r below the floor is an error."""
    g = wall.gradient(y)
    r = float(np.hypot(g[0], g[1]))
    if r < TRANSVERSALITY_FLOOR:
        raise TransversalityError(f"|grad kappa| = {r:.3g} below floor {TRANSVERSALITY_FLOOR:g} at y = {y}")
    return g, r, np.array([-g[1], g[0]]) / r


def integrate_trajectory(
    wall: DomainWall,
    y0,
    t_end: float,
    dt: float,
    *,
    drift_tol=1e-10,
) -> Trajectory:
    """Integrate the interface ODE with classical RK4 and assemble frame data.

    The starting point is projected onto Gamma first; samples that drift past
    ``drift_tol`` in |kappa| are re-projected.  theta is unwrapped by clamping
    per-step increments to (-pi, pi]; theta_dot and r_dot come from the exact
    identities theta_dot = <hess v, v>/r and r_dot = <grad, hess v>/r, and
    Theta accumulates theta_dot^2 by the trapezoid rule.  An error raised at a
    degenerate interface point carries the samples completed before it as
    ``exc.trajectory``, a Trajectory over t = 0 .. its last valid sample.
    """
    if dt <= 0 or t_end < 0:
        raise ValueError("need dt > 0 and t_end >= 0")
    n = int(round(t_end / dt))
    if abs(n * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be an integer multiple of dt")

    ts = np.empty(n + 1)
    ys = np.empty((n + 1, 2))
    theta = np.empty(n + 1)
    r = np.empty(n + 1)
    theta_dot = np.empty(n + 1)
    r_dot = np.empty(n + 1)

    def samples(m):
        """The Trajectory of the first m samples."""
        sq = theta_dot[:m] ** 2
        Theta = np.concatenate([[0.0], np.cumsum(0.5 * dt * (sq[1:] + sq[:-1]))])[:m]
        return Trajectory(wall=wall, dt=dt, t=ts[:m], y=ys[:m], theta=theta[:m], r=r[:m],
                          theta_dot=theta_dot[:m], r_dot=r_dot[:m], Theta=Theta)

    f = lambda p: _velocity(wall, p)[2]
    theta_prev = None
    done = 0
    try:
        y = project_to_interface(wall, y0)
        for i in range(n + 1):
            if abs(float(wall.value(y))) > drift_tol:
                y = project_to_interface(wall, y)
            g, ri, v = _velocity(wall, y)
            H = wall.hessian(y)
            raw = float(np.arctan2(-g[0], g[1]))
            if theta_prev is None:
                th = raw
            else:
                incr = (raw - theta_prev + np.pi) % (2.0 * np.pi) - np.pi
                th = theta[i - 1] + incr
            theta_prev = raw
            Hv = H @ v
            ts[i] = i * dt
            ys[i] = y
            theta[i] = th
            r[i] = ri
            theta_dot[i] = float(v @ Hv) / ri
            r_dot[i] = float(g @ Hv) / ri
            done = i + 1
            if i < n:
                k1 = v
                k2 = f(y + 0.5 * dt * k1)
                k3 = f(y + 0.5 * dt * k2)
                k4 = f(y + dt * k3)
                y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    except DEGENERATE_ERRORS as exc:
        exc.trajectory = samples(done)
        raise
    return samples(n + 1)


def hessian_frame_residual(traj: Trajectory, x_probes) -> float:
    """Max over samples and probes of |<R^T x, hess(kappa)(y_t) R^T x> - theta_dot x1^2|.

    Diagnostic for walls in the normal form: the Hessian along Gamma, seen in
    the co-moving frame, must reduce to the curvature times x1^2.
    """
    probes = np.atleast_2d(np.asarray(x_probes, dtype=float))
    H = traj.wall.hessian(traj.y)  # (N, 2, 2)
    worst = 0.0
    for x in probes:
        c, s = np.cos(traj.theta), np.sin(traj.theta)
        # R^T x with R = [[c, s], [-s, c]]
        v1 = c * x[0] - s * x[1]
        v2 = s * x[0] + c * x[1]
        quad = (
            H[:, 0, 0] * v1 * v1 + 2.0 * H[:, 0, 1] * v1 * v2 + H[:, 1, 1] * v2 * v2
        )
        worst = max(worst, float(np.max(np.abs(quad - traj.theta_dot * x[0] ** 2))))
    return worst

