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

# ranges as (text, test); a list key's test applies to each entry
_POSITIVE = "> 0", lambda v: v > 0
_UNIT = "in (0, 1]", lambda v: 0 < v <= 1
_ORDER = "0, 1 or 2", lambda v: v in (0, 1, 2)

# section.key -> (type tag, default[, range]); None default means "required or derived".  A value set
# in the file or by override must be finite and in range, and a list with a range must be non-empty.
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
    "evolve.epsilon": ("float", 0.1, _UNIT),
    "evolve.dt_rule": ("str", "eps/20"),
    "evolve.t_end": ("float", 1.0, _POSITIVE),
    "evolve.krylov_tol": ("float", 1e-12),
    "evolve.max_krylov": ("int", 400),
    "evolve.snapshots": ("int", 9, (">= 2", lambda n: n >= 2)),
    "evolve.save_fields": ("bool", False),
    "evolve.heatmaps": ("bool", False),
    "init.kind": ("str", None, ("ansatz, gaussian, orthogonal or mix",
                                lambda v: v in ("ansatz", "gaussian", "orthogonal", "mix"))),
    "init.profile": ("str", "gaussian"),
    "init.profile_params": ("floats", (1.0,)),
    "init.order": ("int", 0, _ORDER),
    "init.y0": ("floats", None),
    "init.alpha1": ("complex", complex(1.0)),
    "init.alpha2": ("complex", complex(0.0)),
    "traj.dt": ("float", 0.0, (">= 0", lambda v: v >= 0)),  # 0 -> automatic (arclength/1000, aligned with the step)
    "scaling.epsilons": ("floats", (0.2, 0.1, 0.05), _UNIT),
    "scaling.times": ("floats", (1.0,), _POSITIVE),
    "berry.radii": ("floats", ()),
    "berry.revolutions": ("float", 1.0, _POSITIVE),
    "berry.snapshots": ("int", 64, (">= 8", lambda n: n >= 8)),
    "probe.fit_t_min": ("float", 0.5),
    "probe.fit_t_max": ("float", 0.0),  # 0 -> t_end
    "probe.sup_samples": ("int", 33, (">= 5", lambda n: n >= 5)),
    "hierarchy.orders": ("floats", (0.0, 1.0), _ORDER),
    "hierarchy.times": ("floats", (0.5,), _POSITIVE),
    "hierarchy.fd_dt": ("float", 1e-3, _POSITIVE),
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
    tag = _SCHEMA[key][0]
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
    """Time-step rule: either 'eps/<d>' or a literal float, each finite and positive."""
    rule = str(rule).strip()
    if rule.startswith("eps/"):
        try:
            d = float(rule[4:])
        except ValueError:
            raise ConfigError(f"bad dt rule {rule!r}") from None
        if not (d > 0 and np.isfinite(d)):
            raise ConfigError(f"bad dt rule {rule!r}")
        return epsilon / d
    try:
        dt = float(rule)
    except ValueError:
        raise ConfigError(f"bad dt rule {rule!r}") from None
    if not (dt > 0 and np.isfinite(dt)):
        raise ConfigError(f"dt must be finite and positive, got {dt}")
    return dt


@dataclasses.dataclass
class ExperimentConfig:
    """Typed view over the parsed key/value map."""

    values: dict

    def __post_init__(self):
        kind = self.values.get("experiment.kind")
        if kind not in _KINDS:
            raise ConfigError(f"experiment.kind must be one of {_KINDS}, got {kind!r}")
        for key, value in self.values.items():
            tag, _, *test = _SCHEMA[key]
            if tag in ("float", "floats", "complex") and not np.all(np.isfinite(value)):
                raise ConfigError(f"{key} must be finite, got {value!r}")
            entries = value if tag == "floats" else (value,)
            if test and not (entries and all(map(test[0][1], entries))):
                each = "a non-empty list, each " if tag == "floats" else ""
                raise ConfigError(f"{key} must be {each}{test[0][0]}, got {value!r}")

    @property
    def kind(self):
        return self.values["experiment.kind"]

    def get(self, key):
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        if key in self.values:
            return self.values[key]
        default = _SCHEMA[key][1]
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
