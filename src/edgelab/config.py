"""Line-oriented experiment configuration.

Format: ``section.key = value`` with ``#`` comments, one key per line, no
nesting beyond the single dot.  Values are typed by a fixed schema so typos
in key names or malformed values fail fast with a ConfigError.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "load_config", "parse_dt_rule"]


class ConfigError(ValueError):
    """Malformed configuration file, unknown key, or invalid value."""


_KINDS = ("evolve", "scaling", "berry", "dispersion_probe", "hierarchy_check")

# section.key -> (type tag, default); None default means "required or derived"
_SCHEMA = {
    "experiment.kind": ("str", None),
    "experiment.out": ("str", "runs/out"),
    "wall.family": ("str", "tanh"),
    "wall.params": ("floats", ()),
    "wall.normalize": ("bool", False),
    "wall.tube": ("float", 0.5),
    "grid.n1": ("int", 256),
    "grid.n2": ("int", 256),
    "grid.l1": ("float", 6.0),
    "grid.l2": ("float", 6.0),
    "grid.auto": ("bool", False),
    "evolve.epsilon": ("float", 0.1),
    "evolve.dt_rule": ("str", "eps/20"),
    "evolve.t_end": ("float", 1.0),
    "evolve.krylov_tol": ("float", 1e-12),
    "evolve.max_krylov": ("int", 400),
    "evolve.snapshots": ("int", 9),
    "evolve.save_fields": ("bool", False),
    "evolve.heatmaps": ("bool", False),
    "init.kind": ("str", None),
    "init.profile": ("str", "gaussian"),
    "init.profile_params": ("floats", (1.0,)),
    "init.order": ("int", 0),
    "init.y0": ("floats", None),
    "init.alpha1": ("complex", complex(1.0)),
    "init.alpha2": ("complex", complex(0.0)),
    "traj.dt": ("float", 0.0),  # 0 -> automatic (arclength/1000, aligned with the step); else positive
    "scaling.epsilons": ("floats", (0.2, 0.1, 0.05)),
    "scaling.times": ("floats", (1.0,)),
    "berry.radii": ("floats", ()),
    "berry.revolutions": ("float", 1.0),
    "berry.snapshots": ("int", 64),
    "probe.fit_t_min": ("float", 0.5),
    "probe.fit_t_max": ("float", 0.0),  # 0 -> t_end
    "probe.sup_samples": ("int", 33),
    "hierarchy.orders": ("floats", (0.0, 1.0)),
    "hierarchy.times": ("floats", (0.5,)),
    "hierarchy.fd_dt": ("float", 1e-3),
    "hierarchy.evolve_check": ("bool", False),
}

_DEFAULT_INIT_KIND = {
    "evolve": "gaussian",
    "scaling": "ansatz",
    "berry": "gaussian",
    "dispersion_probe": "orthogonal",
    "hierarchy_check": "ansatz",
}

_DEFAULT_Y0 = {
    "linear": (0.0, 0.0),
    "tanh": (0.0, 0.0),
    "circle": (1.0, 0.0),
    "modulated_straight": (0.0, 0.0),
    "corner": (2.0, 0.0),  # projected onto Gamma
    "crossing": (1.0, 0.0),
    "two_ring": (1.41, 0.0),
}


def _convert(key, raw):
    tag, _ = _SCHEMA[key]
    raw = raw.strip()
    try:
        if tag == "str":
            return raw
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if tag == "floats":
            if not raw:
                return ()
            return tuple(float(p) for p in raw.split(","))
        if tag == "complex":
            return complex(raw.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {key}: {raw!r}") from exc
    raise ConfigError(f"unhandled type tag {tag}")


def parse_config_text(text) -> dict:
    """Parse config text into a flat {section.key: typed value} dict."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key.count(".") != 1:
            raise ConfigError(f"line {lineno}: key must be section.key, got {key!r}")
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _convert(key, raw)
    return values


def parse_dt_rule(rule, epsilon):
    """Time-step rule: either 'eps/<d>' or a literal float."""
    rule = str(rule).strip()
    if rule.startswith("eps/"):
        try:
            d = float(rule[4:])
        except ValueError:
            raise ConfigError(f"bad dt rule {rule!r}") from None
        if d <= 0:
            raise ConfigError(f"bad dt rule {rule!r}")
        return epsilon / d
    try:
        dt = float(rule)
    except ValueError:
        raise ConfigError(f"bad dt rule {rule!r}") from None
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    return dt


@dataclasses.dataclass
class ExperimentConfig:
    """Typed view over the parsed key/value map."""

    values: dict

    def __post_init__(self):
        kind = self.values.get("experiment.kind")
        if kind not in _KINDS:
            raise ConfigError(f"experiment.kind must be one of {_KINDS}, got {kind!r}")
        eps_keys = ("evolve.epsilon",) if kind in ("evolve", "berry", "dispersion_probe") else ()
        for key in eps_keys:
            if not (0 < self.get(key) <= 1):
                raise ConfigError(f"{key} must lie in (0, 1]")
        if kind in ("scaling", "hierarchy_check"):
            eps = self.get("scaling.epsilons")
            if not eps or any(not (0 < e <= 1) for e in eps):
                raise ConfigError("scaling.epsilons must be a non-empty list in (0, 1]")

    @property
    def kind(self):
        return self.values["experiment.kind"]

    def get(self, key):
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        if key in self.values:
            return self.values[key]
        _, default = _SCHEMA[key]
        if key == "init.kind":
            return _DEFAULT_INIT_KIND[self.kind]
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def y0(self):
        if "init.y0" in self.values:
            y = self.values["init.y0"]
            if len(y) != 2:
                raise ConfigError("init.y0 must be two numbers")
            return np.array(y, dtype=float)
        fam = self.get("wall.family")
        if fam not in _DEFAULT_Y0:
            raise ConfigError(f"no default starting point for wall family {fam!r}; set init.y0")
        return np.array(_DEFAULT_Y0[fam], dtype=float)

    def apply_overrides(self, overrides):
        """Apply repeatable 'section.key=value' strings on top of the file."""
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override must look like section.key=value, got {item!r}")
            key, raw = item.split("=", 1)
            key = key.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"unknown override key {key!r}")
            self.values[key] = _convert(key, raw)
        self.__post_init__()

    def echo_lines(self):
        """The effective configuration, one 'key = value' line per known key."""
        lines = []
        for key in sorted(_SCHEMA):
            try:
                val = self.get(key)
            except ConfigError:
                val = "<unset>"
            if isinstance(val, tuple):
                val = ", ".join(repr(v) for v in val)
            lines.append(f"{key} = {val}")
        return lines


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        text = fh.read()
    return ExperimentConfig(parse_config_text(text))
