import numpy as np
import pytest

from edgelab.config import (
    _DEFAULT_INIT_KIND,
    _SCHEMA,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config_text,
    parse_dt_rule,
)

GOOD = """
# a scaling study
experiment.kind = scaling
experiment.out = runs/demo
wall.family = tanh
scaling.epsilons = 0.2, 0.1, 0.05
scaling.times = 0.5, 1.0
evolve.dt_rule = eps/20
init.profile = gaussian
init.profile_params = 1.0
"""


def test_parse_and_defaults():
    cfg = ExperimentConfig(parse_config_text(GOOD))
    assert cfg.kind == "scaling"
    assert cfg.get("scaling.epsilons") == (0.2, 0.1, 0.05)
    assert cfg.get("grid.n1") == 256  # default
    assert cfg.get("init.kind") == "ansatz"  # per-kind default
    assert cfg.get("evolve.krylov_tol") == 1e-12


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("experiment.kind = evolve\nwall.shape = tanh\n")
    with pytest.raises(ConfigError):  # no run is random, so there is no seed
        parse_config_text("experiment.kind = evolve\nexperiment.seed = 3\n")


def test_malformed_lines_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("experiment kind evolve")
    with pytest.raises(ConfigError):
        parse_config_text("experiment.kind.extra = evolve")
    with pytest.raises(ConfigError):
        parse_config_text("grid.n1 = many")


def test_kind_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(parse_config_text("experiment.kind = dance"))
    with pytest.raises(ConfigError):
        ExperimentConfig(parse_config_text("experiment.kind = evolve\nevolve.epsilon = 1.5"))
    with pytest.raises(ConfigError):
        ExperimentConfig(parse_config_text("experiment.kind = scaling\nscaling.epsilons = \n"))
    # a value outside its key's range, or not finite, is rejected at load whether or not the kind reads it
    for text in ("experiment.kind = scaling\nevolve.epsilon = 1.5", "experiment.kind = evolve\nhierarchy.times = nan",
                 "experiment.kind = evolve\nevolve.snapshots = 1", "experiment.kind = berry\nberry.snapshots = 3",
                 "experiment.kind = evolve\ninit.kind = wave", "experiment.kind = evolve\ngrid.l1 = inf",
                 "experiment.kind = evolve\ninit.alpha1 = nan"):
        with pytest.raises(ConfigError):
            ExperimentConfig(parse_config_text(text))
    with pytest.raises(ConfigError):
        ExperimentConfig(parse_config_text(GOOD)).apply_overrides(["probe.sup_samples=4"])


def test_overrides():
    cfg = ExperimentConfig(parse_config_text(GOOD))
    cfg.apply_overrides(["grid.n1=128", "evolve.dt_rule=eps/40"])
    assert cfg.get("grid.n1") == 128
    assert cfg.get("evolve.dt_rule") == "eps/40"
    with pytest.raises(ConfigError):
        cfg.apply_overrides(["nonsense"])
    with pytest.raises(ConfigError):
        cfg.apply_overrides(["grid.bogus=1"])


def test_dt_rules():
    assert parse_dt_rule("eps/20", 0.1) == pytest.approx(0.005)
    assert parse_dt_rule("0.01", 0.1) == pytest.approx(0.01)
    with pytest.raises(ConfigError):
        parse_dt_rule("eps/0", 0.1)
    with pytest.raises(ConfigError):
        parse_dt_rule("soon", 0.1)
    for rule in ("nan", "inf", "eps/nan", "eps/inf", "-inf"):
        with pytest.raises(ConfigError):
            parse_dt_rule(rule, 0.1)


def test_complex_alphas():
    text = "experiment.kind = dispersion_probe\ninit.kind = mix\ninit.alpha1 = 0\ninit.alpha2 = 0.6+0.8j\n"
    cfg = ExperimentConfig(parse_config_text(text))
    assert cfg.get("init.alpha2") == pytest.approx(0.6 + 0.8j)


def test_default_y0_per_family():
    cfg = ExperimentConfig(parse_config_text("experiment.kind = evolve\nwall.family = circle\nwall.params = 1.0\n"))
    assert np.allclose(cfg.y0(), [1.0, 0.0])
    cfg2 = ExperimentConfig(parse_config_text("experiment.kind = evolve\ninit.y0 = 0.3, 0.4\n"))
    assert np.allclose(cfg2.y0(), [0.3, 0.4])


def test_echo_lines_cover_schema():
    cfg = ExperimentConfig(parse_config_text(GOOD))
    lines = cfg.echo_lines()
    assert any(line.startswith("experiment.kind = scaling") for line in lines)
    assert any(line.startswith("grid.n1 = 256") for line in lines)


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    cfg = load_config(path)
    assert cfg.kind == "scaling"


def test_shipped_configs_parse():
    import glob
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    paths = sorted(glob.glob(os.path.join(root, "*.cfg")))
    assert len(paths) >= 8
    for path in paths:
        cfg = load_config(path)
        assert cfg.kind in ("evolve", "scaling", "berry", "dispersion_probe", "hierarchy_check")
        cfg.y0()  # every shipped config has a usable starting point


def test_schema_defaults_pass_their_tests():
    # every default, and every per-kind init.kind, is finite and in its key's range when set explicitly
    for key, (_, default, *_) in _SCHEMA.items():
        defaults = _DEFAULT_INIT_KIND.values() if key == "init.kind" else () if default is None else (default,)
        for value in defaults:
            ExperimentConfig({"experiment.kind": "evolve", key: value})
