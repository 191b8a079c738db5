import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import edgelab
from edgelab.cli import main as cli_main
from edgelab.config import ExperimentConfig, parse_config_text
from edgelab.experiments import _t_quantile, auto_grid, fit_loglog, run_check_suite, run_experiment
from edgelab.geometry import integrate_trajectory
from edgelab.snapshots import read_snapshot
from edgelab.walls import TransversalityError, make_wall


def cfg_from(text):
    return ExperimentConfig(parse_config_text(text))


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_fit_loglog_recovers_slope():
    x = np.array([0.2, 0.1, 0.05, 0.025])
    y = 3.0 * x**0.5
    fit = fit_loglog(x, y)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit.ci_low <= 0.5 <= fit.ci_high
    # 4 points leave 2 degrees of freedom: Student-t 97.5% quantile 4.3027
    noisy = fit_loglog(x, y * np.array([1.0, 1.1, 0.95, 1.02]))
    assert noisy.ci_high - noisy.slope == pytest.approx(4.302652729749462 * noisy.stderr, rel=1e-12)
    with pytest.raises(ValueError):
        fit_loglog([0.1, 0.2], [1, 2])


def test_t_quantile_matches_scipy():
    from scipy.special import stdtrit

    for dof in range(1, 201):
        assert _t_quantile(dof) == pytest.approx(stdtrit(dof, 0.975), rel=1e-13, abs=0.0)


def _loaded_by_cli_import(module):
    """Whether a fresh interpreter has ``module`` loaded after ``import edgelab.cli``, as "True"/"False"."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(edgelab.__file__)))
    code = f"import sys, edgelab.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs about 0.2 s and 40 MB at start-up; the CLI needs none of it
    assert _loaded_by_cli_import("scipy.stats") == "False"


def test_cli_import_skips_scipy_linalg():
    # the Crank-Nicolson solve needs no dense linear algebra
    assert _loaded_by_cli_import("scipy.linalg") == "False"


def test_cli_import_skips_scipy_fft_and_special():
    # scipy.fft pulls in scipy.special and numpy.f2py: about 0.35 s and 25 MB at start-up;
    # the runtime needs no scipy at all
    for module in ("scipy", "scipy.fft", "scipy.special", "numpy.f2py"):
        assert _loaded_by_cli_import(module) == "False", module


EVOLVE_CFG = """
experiment.kind = evolve
wall.family = linear
wall.params = 0.0, 1.0
grid.n1 = 64
grid.n2 = 64
grid.l1 = 4.0
grid.l2 = 4.0
evolve.epsilon = 0.25
evolve.t_end = 0.25
evolve.snapshots = 3
evolve.save_fields = true
evolve.heatmaps = true
init.y0 = 0.0, 0.0
"""


def test_run_evolve_outputs(tmp_path):
    out = tmp_path / "run"
    summary = run_experiment(cfg_from(EVOLVE_CFG), str(out))
    assert summary["norm_drift"] <= 1e-8
    rows = read_rows(out / "evolution.csv")
    assert rows[0][:2] == ["t", "norm"]
    assert len(rows) == 4  # header + 3 snapshots
    # the transversality record is the least r over every row of trajectory.csv
    r = np.array([float(row[4]) for row in read_rows(out / "trajectory.csv")[1:]])
    assert (f"transversality: min |grad kappa| = {float(r.min())!r} over {len(r)} samples (floor 0.001)"
            in (out / "meta.txt").read_text())
    fields = sorted(p for p in os.listdir(out) if p.endswith(".desl"))
    assert len(fields) == 3
    field, eps = read_snapshot(out / fields[0])
    assert eps == 0.25
    pgms = [p for p in os.listdir(out) if p.endswith(".pgm")]
    assert len(pgms) == 3


CROSSING_CFG = """
experiment.kind = evolve
wall.family = crossing
grid.n1 = 64
grid.n2 = 64
grid.l1 = 5.0
grid.l2 = 5.0
evolve.epsilon = 0.25
evolve.t_end = 1.5
evolve.snapshots = 3
init.y0 = 1.5, 0.0
"""


TWO_RING_CFG = """
experiment.kind = evolve
wall.family = two_ring
wall.params = 1.0
grid.n1 = 64
grid.n2 = 64
grid.l1 = 3.0
grid.l2 = 3.0
evolve.epsilon = 0.05
evolve.t_end = 2.0
evolve.snapshots = 9
init.y0 = 1.41, 0.0
"""


def test_run_evolve_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg_from(EVOLVE_CFG), str(out1))
    run_experiment(cfg_from(EVOLVE_CFG), str(out2))
    assert (out1 / "evolution.csv").read_bytes() == (out2 / "evolution.csv").read_bytes()
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


SCALING_CFG = """
experiment.kind = scaling
wall.family = tanh
grid.auto = true
scaling.epsilons = 0.4, 0.2, 0.1
scaling.times = 0.25
evolve.dt_rule = eps/10
init.y0 = 0.0, 0.0
"""


def test_run_scaling_table(tmp_path):
    out = tmp_path / "scaling"
    table = run_experiment(cfg_from(SCALING_CFG), str(out))
    at_t = [r for r in table["rows"] if abs(r[1] - 0.25) <= 1e-9]
    eps, errs = np.array([r[0] for r in at_t]), np.array([r[3] for r in at_t])
    assert len(eps) == 3
    assert np.all(np.diff(eps) > 0)
    assert np.all(errs > 0) and np.all(errs < 1.0)
    assert 0.25 in table["fits"]
    rows = read_rows(out / "errors.csv")
    assert rows[0] == ["epsilon", "t", "l2_error", "relative_error", "center_offset", "Theta"]
    fits = read_rows(out / "fits.csv")
    assert len(fits) == 2


def test_scaling_requires_epsilon_span(tmp_path):
    bad = SCALING_CFG.replace("0.4, 0.2, 0.1", "0.2, 0.15, 0.1")
    from edgelab.config import ConfigError

    with pytest.raises(ConfigError):
        run_experiment(cfg_from(bad), str(tmp_path / "x"))


BERRY_CFG = """
experiment.kind = berry
wall.family = circle
wall.params = 1.0
grid.n1 = 128
grid.n2 = 128
grid.l1 = 2.5
grid.l2 = 2.5
evolve.epsilon = 0.1
evolve.dt_rule = eps/10
berry.snapshots = 48
"""


def test_run_berry_full_revolution(tmp_path):
    out = tmp_path / "berry"
    results = run_experiment(cfg_from(BERRY_CFG), str(out))
    assert set(results) == {1.0}
    total = results[1.0]["total_phase"]
    # smoke scale: one revolution lands near the -pi prediction
    assert -np.pi - 0.6 <= total <= -np.pi + 0.6
    assert not results[1.0]["decohered"]
    rows = read_rows(out / "phase_r1.csv")
    assert rows[0] == ["t", "phase", "predicted_minus_theta_over_2"]
    assert len(rows) == 49


PROBE_CFG = """
experiment.kind = dispersion_probe
wall.family = tanh
grid.n1 = 128
grid.n2 = 128
grid.l1 = 4.0
grid.l2 = 4.0
evolve.epsilon = 0.25
evolve.t_end = 1.0
evolve.dt_rule = eps/10
probe.fit_t_min = 0.25
probe.sup_samples = 9
init.y0 = 0.0, 0.0
"""


def test_run_dispersion_probe(tmp_path):
    out = tmp_path / "probe"
    res = run_experiment(cfg_from(PROBE_CFG), str(out))
    assert np.isfinite(res["fit"].slope)
    assert res["norm_drift"] <= 1e-8
    # orthogonal data: lambda1 vanishes
    assert abs(res["lambda1"]) <= 1e-10
    rows = read_rows(out / "decay.csv")
    assert rows[0] == ["t", "sup_norm", "ansatz_overlap_coeff"]


def test_run_dispersion_probe_mix_lambda(tmp_path):
    mix = PROBE_CFG + "init.kind = mix\ninit.alpha1 = 0\ninit.alpha2 = 1\n"
    res = run_experiment(cfg_from(mix), str(tmp_path / "mix"))
    # [0, 1] splits evenly: |lambda1| = 1/2
    assert abs(res["lambda1"]) == pytest.approx(0.5, abs=1e-10)
    # the propagating component keeps a sizable ansatz overlap
    overlaps = [o for _, _, o in res["rows"]]
    assert overlaps[-1] >= 0.4 * abs(res["lambda1"])


HIERARCHY_CFG = """
experiment.kind = hierarchy_check
wall.family = tanh
grid.auto = true
scaling.epsilons = 0.2, 0.1, 0.05
hierarchy.orders = 0
hierarchy.times = 0.25
init.y0 = 0.0, 0.0
"""


def test_run_hierarchy_check(tmp_path):
    out = tmp_path / "hier"
    res = run_experiment(cfg_from(HIERARCHY_CFG), str(out))
    fit = res["fits"][(0, 0.25)]
    assert fit.slope == pytest.approx(1.0, abs=0.2)
    rows = read_rows(out / "residuals.csv")
    assert len(rows) == 4
    fits = read_rows(out / "residual_fits.csv")
    assert fits[1][0] == "0"


def test_fit_results_are_plain_floats_in_csv(tmp_path):
    fit = fit_loglog([0.2, 0.1, 0.05, 0.025], [0.9, 0.5, 0.26, 0.13])
    for name in ("slope", "intercept", "stderr", "ci_low", "ci_high"):
        assert type(getattr(fit, name)) is float, name
    out = tmp_path / "hier"
    run_experiment(cfg_from(HIERARCHY_CFG), str(out))
    rows = read_rows(out / "residual_fits.csv")[1:]
    assert rows
    for row in rows:
        for cell in row:
            float(cell)


def test_run_hierarchy_check_records_health(tmp_path):
    out = tmp_path / "hier"
    res = run_experiment(cfg_from(HIERARCHY_CFG.replace("hierarchy.orders = 0", "hierarchy.orders = 1")),
                         str(out))
    assert res["fits"][(1, 0.25)].slope == pytest.approx(1.5, abs=0.2)
    meta = (out / "meta.txt").read_text()
    assert "solvability residual max = " in meta
    assert "truncation health max = 0.0\n" in meta


def test_check_suite_passes():
    checks = run_check_suite()
    assert [name for name, _, _ in checks] == ["Cayley plane-wave step", "free preconditioner exact", "unitarity",
                                               "split preconditioner", "circle corrector golden"]
    for name, ok, detail in checks:
        assert type(ok) is bool, name
        assert ok, f"{name}: {detail}"


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(EVOLVE_CFG + "evolve.save_fields = false\nevolve.heatmaps = false\n")
    out = tmp_path / "out"
    assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "meta.txt").exists()
    # config errors exit 2
    assert cli_main(["run", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment.kind = dance\n")
    assert cli_main(["run", str(bad)]) == 2
    assert cli_main(["run", str(cfg_path), "--override", "grid.bogus=1"]) == 2
    # values that Grid2D, check_resolution, EvolutionConfig, the wall or the profile reject are
    # config errors too, and so are a start point or trajectory that meets a degenerate interface
    # point, params given to a family that takes none, an all-zero mix, a value outside its key's
    # range, a non-finite number, a dt rule whose step is not finite and positive, a Berry run on
    # anything but an unnormalized circle about the origin or at radii whose trace files coincide,
    # and a kind that does not truncate its trajectory meeting the transversality floor; none of them
    # writes an output directory
    berry = ["experiment.kind=berry", "wall.family=circle", "wall.params=1"]
    bad_out = tmp_path / "bad"
    for overrides in (["grid.n1=100"], ["grid.n1=16"], ["evolve.krylov_tol=1e-3"], ["evolve.max_krylov=0"],
                      ["wall.family=nope"], ["init.profile=nope"], ["init.profile_params=-1"],
                      ["init.profile_params=1,2,3"], ["wall.family=corner", "wall.params=0.5,7"],
                      [*berry, "berry.radii=-1"], ["wall.family=crossing", "wall.params="],
                      ["wall.family=tanh", "wall.params=2"], ["init.kind=mix", "init.alpha1=0"], ["traj.dt=-1"],
                      ["wall.family=crossing", "wall.params=3", "init.y0=1.5,0"],
                      ["wall.family=circle", "wall.params=1"],
                      ["experiment.kind=dispersion_probe", "wall.family=crossing", "wall.params=", "init.y0=0.1,0",
                       "probe.fit_t_min=0.05", "probe.sup_samples=5"],
                      ["experiment.kind=scaling", "scaling.times="], ["init.kind=ansatz", "init.order=3"],
                      ["evolve.epsilon=0"], ["evolve.epsilon=1.5"], ["init.kind=wave"],
                      ["experiment.kind=scaling", "scaling.epsilons=0.2,0"],
                      ["experiment.kind=scaling", "scaling.times=0"], ["scaling.times=-1"],
                      ["evolve.t_end=0"], ["evolve.t_end=nan"], ["evolve.t_end=inf"],
                      ["evolve.snapshots=1"], ["evolve.snapshots=-5"], [*berry, "berry.snapshots=3"],
                      [*berry, "berry.revolutions=0"], ["experiment.kind=dispersion_probe", "probe.sup_samples=4"],
                      [*berry, "berry.radii=nan"], ["grid.l1=nan"], ["init.kind=mix", "init.alpha1=nan"],
                      ["hierarchy.times=nan"], ["hierarchy.fd_dt=nan"], ["traj.dt=nan"],
                      ["evolve.dt_rule=nan"], ["evolve.dt_rule=eps/nan"], ["evolve.dt_rule=eps/inf"],
                      ["evolve.dt_rule=inf"], ["experiment.kind=berry", "wall.family=tanh"],
                      [*berry, "wall.params=1,0.5,0"], [*berry, "wall.params=1,0"],
                      ["evolve.krylov_tol=1e-16"], [*berry, "berry.radii=1,1.0000001"], [*berry, "berry.radii=1,1"],
                      [*berry, "wall.normalize=true"],
                      ["experiment.kind=dispersion_probe", "wall.family=two_ring", "wall.params=1", "init.y0=1.41,0",
                       "evolve.t_end=2"]):
        assert cli_main(["run", str(cfg_path), "--out", str(bad_out),
                         *(arg for o in overrides for arg in ("--override", o))]) == 2, overrides
        assert "config error" in capsys.readouterr().err
        assert not bad_out.exists(), overrides
    # hierarchy times off the trajectory grid or too early for the central difference, a step
    # that is not positive, and orders that are empty or not 0, 1 or 2
    hier_path = os.path.join(os.path.dirname(__file__), "..", "configs", "hierarchy_tanh.cfg")
    hier_out = tmp_path / "hier"
    for override in ("hierarchy.times=", "hierarchy.times=0", "hierarchy.times=0.0005", "hierarchy.times=0.5005",
                     "hierarchy.fd_dt=0", "hierarchy.fd_dt=-1e-3", "hierarchy.orders=", "hierarchy.orders=0.5",
                     "hierarchy.fd_dt=nan", "hierarchy.times=nan", "hierarchy.times=0.5,inf", "hierarchy.orders=3"):
        assert cli_main(["run", hier_path, "--out", str(hier_out), "--override", override]) == 2, override
        assert "config error" in capsys.readouterr().err
        assert not hier_out.exists()


def test_solvability_breach_exits_3(tmp_path, capsys):
    # a profile wider than the corrector's x1 window breaks the solvability identity
    cfg_path = os.path.join(os.path.dirname(__file__), "..", "configs", "hierarchy_tanh.cfg")
    out = tmp_path / "out"
    assert cli_main(["run", cfg_path, "--out", str(out), "--override", "init.profile_params=6.0"]) == 3
    assert "solvability residual" in capsys.readouterr().err
    assert not out.exists()


def test_wall_backend_key_rejected(tmp_path):
    # walls have one derivative path, and the scaling reference is always order 0:
    # neither a derivative backend nor a scaling order is a config key
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(EVOLVE_CFG + "wall.backend = fd\n")
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    cfg_path.write_text(EVOLVE_CFG)
    for override in ("wall.backend=analytic", "scaling.order=1"):
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--override", override]) == 2
    assert not (tmp_path / "out").exists()


def test_meta_prints_plain_numbers(tmp_path):
    grid = auto_grid(np.array([[0.0, 0.0], [1.2, 0.8]]), 0.1)
    assert type(grid.l1) is float and type(grid.l2) is float
    assert repr(grid) == f"Grid2D(n1={grid.n1}, n2={grid.n2}, l1={grid.l1!r}, l2={grid.l2!r})"
    # an eighth of a turn of the Berry trace, and a crossing and a lemniscate whose reference
    # trajectories truncate
    berry = run_experiment(cfg_from(BERRY_CFG + "berry.revolutions = 0.125\n"), str(tmp_path / "berry"))
    meta = (tmp_path / "berry" / "meta.txt").read_text()
    assert "np.float64" not in meta, meta
    assert f"total phase = {berry[1.0]['total_phase']!r}," in meta
    for run, text in (("crossing", CROSSING_CFG), ("two_ring", TWO_RING_CFG)):
        cfg = cfg_from(text)
        assert run_experiment(cfg, str(tmp_path / run))["trajectory_truncated"] is True
        meta = (tmp_path / run / "meta.txt").read_text()
        assert "np.float64" not in meta, meta
        # the reference ends at the last sample before the floor: one trajectory step more meets it
        traj_rows = read_rows(tmp_path / run / "trajectory.csv")[1:]
        t_last, dt = float(traj_rows[-1][0]), float(traj_rows[1][0])
        wall = make_wall(cfg.get("wall.family"), cfg.get("wall.params"))
        assert [float(c) for c in traj_rows[-1][1:3]] == list(integrate_trajectory(wall, cfg.y0(), t_last, dt).y[-1])
        with pytest.raises(TransversalityError):
            integrate_trajectory(wall, cfg.y0(), t_last + dt, dt)
        assert f"reference trajectory truncated at t = {t_last!r} " in meta
    # the lemniscate's reference reaches t = 1.8525, so only its last snapshot row lacks y1
    assert t_last == 1.8525
    assert [r[0] for r in read_rows(tmp_path / "two_ring" / "evolution.csv")[1:] if r[4] == ""] == ["2.0"]


def test_cli_override_applies(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(EVOLVE_CFG)
    out = tmp_path / "out"
    assert cli_main(["run", str(cfg_path), "--out", str(out),
                     "--override", "evolve.snapshots=4",
                     "--override", "evolve.save_fields=false",
                     "--override", "evolve.heatmaps=false"]) == 0
    rows = read_rows(out / "evolution.csv")
    assert len(rows) == 5


def test_cli_check(capsys, monkeypatch):
    assert cli_main(["check"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    # a failing check exits 4
    monkeypatch.setattr("edgelab.cli.run_check_suite", lambda: [("always fails", False, "detail")])
    assert cli_main(["check"]) == 4
    captured = capsys.readouterr()
    assert "[FAIL] always fails: detail" in captured.out
    assert "1 check(s) failed" in captured.err


def test_cli_export_heatmap(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(EVOLVE_CFG)
    out = tmp_path / "out"
    assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 0
    snap = sorted(p for p in os.listdir(out) if p.endswith(".desl"))[0]
    pgm = tmp_path / "density.pgm"
    assert cli_main(["export-heatmap", str(out / snap), str(pgm)]) == 0
    assert pgm.read_bytes().startswith(b"P5\n")
    assert cli_main(["export-heatmap", str(tmp_path / "nope.desl"), str(pgm)]) == 2
