import csv

import numpy as np
import pytest

from edgelab.config import ExperimentConfig, parse_config_text
from edgelab.experiments import run_experiment
from edgelab.geometry import (
    ProjectionError,
    hessian_frame_residual,
    integrate_trajectory,
    project_to_interface,
)
from edgelab.walls import TransversalityError, make_wall, normalize_wall


def test_project_circle():
    wall = make_wall("circle", (1.0,))
    y = project_to_interface(wall, np.array([1.1, 0.0]))
    assert np.allclose(y, [1.0, 0.0], atol=1e-12)


def test_project_linear():
    wall = make_wall("linear", (0.0, 1.0))
    y = project_to_interface(wall, np.array([5.0, 0.3]))
    assert np.allclose(y, [5.0, 0.0], atol=1e-12)


def test_project_tanh_residual():
    wall = make_wall("tanh")
    y = project_to_interface(wall, np.array([0.0, 0.2]))
    assert abs(wall.value(y)) <= 1e-12
    assert y[1] == pytest.approx(np.tanh(y[0]), abs=1e-10)


def test_project_failure_reports():
    # crossing wall from the diagonal: Newton contracts only linearly toward
    # the degenerate origin, so a tight iteration budget must abort
    wall = make_wall("crossing")
    with pytest.raises(ProjectionError):
        project_to_interface(wall, np.array([0.05, 0.05]), max_iter=3)


def test_circle_trajectory_closed_form():
    wall = make_wall("circle", (1.0,))
    traj = integrate_trajectory(wall, np.array([1.0, 0.0]), 1.0, 1e-3)
    assert traj.theta[0] == pytest.approx(-np.pi / 2)
    assert np.max(np.abs(traj.theta_dot - 1.0)) < 1e-10
    assert np.max(np.abs(traj.r - 1.0)) < 1e-12
    assert traj.Theta[-1] == pytest.approx(1.0, abs=1e-10)
    expected = np.stack([np.cos(traj.t), np.sin(traj.t)], axis=-1)
    assert np.max(np.abs(traj.y - expected)) < 1e-10


def test_linear_trajectory():
    wall = make_wall("linear", (0.0, 1.0))
    traj = integrate_trajectory(wall, np.array([0.0, 0.0]), 2.0, 1e-2)
    assert np.allclose(traj.y[-1], [-2.0, 0.0], atol=1e-12)
    assert np.max(np.abs(traj.theta)) < 1e-14
    assert np.max(np.abs(traj.Theta)) < 1e-14


def test_tanh_trajectory_drift_and_convergence():
    wall = make_wall("tanh")
    t_end = 3.0
    traj = integrate_trajectory(wall, np.array([0.0, 0.0]), t_end, 2e-3)
    assert np.max(np.abs(wall.value(traj.y))) <= 1e-8
    # r is the transversality record: |grad kappa| = sqrt(1 + sech^4 y1) >= 1 on Gamma
    assert np.max(np.abs(traj.r - np.sqrt(1.0 + (1.0 - np.tanh(traj.y[:, 0]) ** 2) ** 2))) <= 1e-12
    assert np.min(traj.r) >= 1.0
    half = integrate_trajectory(wall, np.array([0.0, 0.0]), t_end, 1e-3)
    # Theta converged under step halving
    assert abs(traj.Theta[-1] - half.Theta[-1]) < 1e-8


def test_rk4_order():
    wall = make_wall("tanh")
    # disable re-projection to expose the raw integrator error
    ends = {}
    for dt in (4e-3, 2e-3, 1e-3):
        tr = integrate_trajectory(wall, np.array([0.0, 0.0]), 1.0, dt, drift_tol=1.0)
        ends[dt] = tr.y[-1]
    e1 = np.hypot(*(ends[4e-3] - ends[1e-3]))
    e2 = np.hypot(*(ends[2e-3] - ends[1e-3]))
    # error(2h) - error(h) ratio for 4th order: ~16 (compare against Richardson pair)
    ref = ends[1e-3]
    err_coarse = np.hypot(*(ends[4e-3] - ref))
    err_mid = np.hypot(*(ends[2e-3] - ref))
    if err_mid > 1e-14:
        assert err_coarse / err_mid == pytest.approx(16.0, rel=0.5)


def test_frame_consistency():
    wall = make_wall("tanh")
    traj = integrate_trajectory(wall, np.array([0.0, 0.0]), 2.0, 1e-3)
    g = wall.gradient(traj.y)
    frame = traj.r[:, None] * np.stack([-np.sin(traj.theta), np.cos(traj.theta)], axis=-1)
    assert np.max(np.abs(g - frame)) <= 1e-8


def test_theta_dot_matches_finite_difference():
    wall = make_wall("tanh")
    dt = 1e-3
    traj = integrate_trajectory(wall, np.array([0.0, 0.0]), 2.0, dt)
    fd = (traj.theta[2:] - traj.theta[:-2]) / (2 * dt)
    assert np.max(np.abs(fd - traj.theta_dot[1:-1])) < 5e-6


def test_theta_unwraps_through_full_revolution():
    wall = make_wall("circle", (1.0,))
    dt = 2e-3
    n = int(np.ceil(2.0 * np.pi / dt))
    traj = integrate_trajectory(wall, np.array([1.0, 0.0]), n * dt, dt)
    dtheta = np.diff(traj.theta)
    assert np.max(np.abs(dtheta)) < 0.01  # no 2 pi jumps
    assert traj.theta[-1] - traj.theta[0] == pytest.approx(n * dt, abs=1e-8)


def test_transversality_abort():
    # corner with mu=0 has a gradient kink; crossing has a true zero: use crossing
    wall = make_wall("crossing")
    with pytest.raises((TransversalityError, ProjectionError)):
        integrate_trajectory(wall, np.array([0.05, 0.0]), 1.0, 1e-3)


def test_transversality_floor_stops_lemniscate_at_crossing():
    # the two_ring lemniscate's crossing draws the trajectory in: |grad kappa| falls below
    # TRANSVERSALITY_FLOOR near t = 1.85, where the reference frame stalls
    with pytest.raises(TransversalityError):
        integrate_trajectory(make_wall("two_ring", (1.0,)), np.array([1.41, 0.0]), 2.0, 1e-3)


def test_hessian_frame_residual_values():
    probes = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    circ = integrate_trajectory(make_wall("circle", (1.0,)), np.array([1.0, 0.0]), 1.0, 1e-3)
    assert hessian_frame_residual(circ, probes) <= 1e-8
    lin = integrate_trajectory(make_wall("linear", (0.0, 1.0)), np.array([0.0, 0.0]), 1.0, 1e-2)
    assert hessian_frame_residual(lin, probes) == pytest.approx(0.0, abs=1e-14)
    ntanh = normalize_wall(make_wall("tanh"), 0.5)
    trn = integrate_trajectory(ntanh, np.array([0.0, 0.0]), 1.0, 2e-3)
    assert hessian_frame_residual(trn, probes) <= 1e-5


def test_trajectory_csv(tmp_path):
    wall = make_wall("circle", (1.0,))
    traj = integrate_trajectory(wall, np.array([1.0, 0.0]), 0.1, 1e-2)
    # run_evolve writes this trajectory: trajectory step 1e-2 up to t_end = 0.1
    cfg = ExperimentConfig(parse_config_text(
        "experiment.kind = evolve\nwall.family = circle\nwall.params = 1.0\n"
        "grid.n1 = 64\ngrid.n2 = 64\ngrid.l1 = 4.0\ngrid.l2 = 4.0\n"
        "evolve.epsilon = 0.25\nevolve.t_end = 0.1\nevolve.dt_rule = 0.01\ntraj.dt = 0.01\n"
        "init.y0 = 1.0, 0.0\n"))
    run_experiment(cfg, str(tmp_path))
    with open(tmp_path / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "y1", "y2", "theta", "r", "theta_dot", "Theta"]
    assert len(rows) == len(traj) + 1
    assert float(rows[1][3]) == pytest.approx(-np.pi / 2)


def test_index_at_requires_grid_times():
    wall = make_wall("circle", (1.0,))
    traj = integrate_trajectory(wall, np.array([1.0, 0.0]), 0.1, 1e-2)
    assert traj.index_at(0.05) == 5
    with pytest.raises(ValueError):
        traj.index_at(0.053)
