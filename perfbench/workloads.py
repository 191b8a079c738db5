"""The benchmark's workloads: shipped config, seed-derived overrides, correctness gate.

Each workload is a shipped config under ``configs/`` plus overrides.  The
overrides that size the work are fixed; the seed perturbs only inputs that
leave the amount of work unchanged (the tanh start point along Gamma, or the
circle radius by at most 1%).  The gate applies the acceptance bands of
``tests/test_acceptance.py`` unchanged to one pass's result summary.

``scaling_tanh.cfg`` is not a workload: its wall time followed the host's
steal time more than the others' did (10-seed spreads of 19-60% against
6-29% for berry-circle), so it could not be made steady on a shared VM.
"""

from __future__ import annotations

import dataclasses
import math
import random

DEFAULT_SEED = 0
DRIFT_MAX = 1e-8  # criterion 2
PHASE_TOL = 0.3  # criterion 7
HIERARCHY_TOL = 0.15  # criterion 8, slope (m + 2) / 2
SOLVABILITY_MAX = 1e-6


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: str  # path relative to the checkout root
    sizing: tuple  # overrides that fix the amount of work
    perturb: str  # "radius" or "tanh_start"

    def overrides(self, seed):
        """The config overrides of one pass; the program sees only these."""
        rng = random.Random(f"{self.name}:{seed}")
        if self.perturb == "radius":
            varied = [f"berry.radii={1.0 + rng.uniform(-0.01, 0.01)!r}"]
        else:
            x = rng.uniform(*TANH_X0_RANGE)
            varied = [f"init.y0={x!r},{math.tanh(x)!r}"]
        return list(self.sizing) + varied


# 157 CN steps at 256^2.  Shorter arcs cannot be gated: a phase of 0 must fall
# outside -pi * revolutions +- PHASE_TOL, which needs revolutions > 0.0955.
BERRY_REVOLUTIONS = 0.125
# Start abscissa on x2 = tanh(x1).  The finite-eps slopes move with the start
# (order-0 hierarchy slope 0.94 at -0.075, 0.98 at +0.025; at hierarchy.times
# = 0.25 it already leaves its band at +0.025), so the range stays small.
TANH_X0_RANGE = (-0.075, 0.025)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("berry-circle", "configs/berry_circle.cfg",
                 ("grid.n1=256", "grid.n2=256", f"berry.revolutions={BERRY_REVOLUTIONS!r}"),
                 "radius"),
        Workload("hierarchy-tanh", "configs/hierarchy_tanh.cfg",
                 ("hierarchy.orders=0,1,2",), "tanh_start"),
    )
}


def summarize(kind, result, cfg):
    """Reduce a runner's return value to the numbers the gate reads (JSON-ready)."""
    if kind == "berry":
        return {
            "phases": [r["total_phase"] for r in result.values()],
            "phase_target": -math.pi * cfg.get("berry.revolutions"),
            "decohered": any(r["decohered"] for r in result.values()),
            "norm_drift": max(r["norm_drift"] for r in result.values()),
            "expected_fits": len(result),
        }
    if kind == "hierarchy_check":
        return {
            "slopes": [[m, f.slope] for (m, _), f in sorted(result["fits"].items())],
            "solvability": result["solvability"],
            "expected_fits": len(cfg.get("hierarchy.orders")) * len(cfg.get("hierarchy.times")),
        }
    raise ValueError(f"no gate for experiment kind {kind!r}")


def gate(kind, summary):
    """Reasons the pass fails its acceptance bands; empty when it passes."""
    fails = []
    drift = summary.get("norm_drift")
    if drift is not None and not drift <= DRIFT_MAX:
        fails.append(f"norm drift {drift:.3e} > {DRIFT_MAX:g}")
    if kind == "berry":
        for phase in summary["phases"]:
            if not abs(phase - summary["phase_target"]) <= PHASE_TOL:
                fails.append(f"total phase {phase:.4f} outside {summary['phase_target']:.4f} +- {PHASE_TOL}")
        if summary["decohered"]:
            fails.append("packet left the interface tube")
        found = len(summary["phases"])
    else:
        for m, s in summary["slopes"]:
            want = (m + 2) / 2.0
            if not abs(s - want) <= HIERARCHY_TOL:
                fails.append(f"order-{m} slope {s:.3f} outside {want} +- {HIERARCHY_TOL}")
        if not summary["solvability"] <= SOLVABILITY_MAX:
            fails.append(f"solvability {summary['solvability']:.2e} > {SOLVABILITY_MAX:g}")
        found = len(summary["slopes"])
    if found != summary["expected_fits"]:
        fails.append(f"{found} results, expected {summary['expected_fits']}")
    return fails
