"""Tests of the benchmark's own machinery: spans, self time, FFT counting, gates.

    python3 -m pytest perfbench/tests
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from edgelab import evolution  # noqa: E402
from edgelab.evolution import CrankNicolsonStepper, EvolutionConfig, Grid2D  # noqa: E402
from edgelab.walls import make_wall  # noqa: E402


def test_self_time_is_span_minus_children_on_synthetic_trace():
    S = spans.Span
    trace = [
        S("root", -1, 0.0, 10.0),
        S("a", 0, 1.0, 4.0),
        S("a.x", 1, 1.5, 2.0),
        S("b", 0, 5.0, 6.5),
        S("c", 0, 9.0, 12.0),  # runs past its parent: only the covered part counts
    ]
    assert spans.self_times(trace) == pytest.approx([10.0 - 3.0 - 1.5 - 1.0, 2.5, 0.5, 1.5, 3.0])


def test_tracer_nests_spans_and_layer_metrics_use_self_time():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("fft2", lambda: None)
    with tracer.span("experiments.run_experiment"):
        with tracer.span("evolution.step_hat") as s:
            inner()
            inner()
        s.attrs.update(iters=3, bytes=100)
    names = [(sp.name, sp.parent) for sp in tracer.spans]
    assert names == [("experiments.run_experiment", -1), ("evolution.step_hat", 0),
                     ("fft2", 1), ("fft2", 1)]
    m = spans.layer_metrics(tracer.spans)
    # step: ticks 1..6 (5 units), the two fft2 spans cover 2 units of it
    assert m["evolution.cn_step_ms.p50"] == pytest.approx(5e3)
    assert m["evolution.cn_step_self_ms"] == pytest.approx(3e3)
    assert m["evolution.fft_pairs_per_step"] == 1.0
    assert m["evolution.fft_bytes_per_step"] == 400.0
    assert m["experiments.runner_self_s"] == pytest.approx(2.0)
    assert m["hierarchy.corrector_build_s"] == 0.0


def _random_field(grid, seed=1):
    rng = np.random.default_rng(seed)
    shape = (2, grid.n1, grid.n2)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_fft_counter_reports_one_pair_for_apply_H():
    grid = Grid2D(32, 32, 3.0, 3.0)
    kappa = grid.wall_values(make_wall("tanh"))
    tracer = spans.Tracer()
    with spans.instrument(tracer), tracer.span("probe") as probe:
        evolution.apply_H(_random_field(grid), kappa, 0.1, grid)
    idx = tracer.spans.index(probe)
    assert spans.fft_pairs_by_parent(tracer.spans) == {idx: 1.0}
    assert sorted(s.name for s in tracer.spans if s.parent == idx) == ["fft2", "ifft2"]


def test_fft_counter_reports_iterations_plus_one_pairs_per_step():
    grid = Grid2D(64, 64, 3.0, 3.0)
    stepper = CrankNicolsonStepper(grid, make_wall("tanh"), EvolutionConfig(epsilon=0.1, dt=0.005))
    hat = evolution._fft2(_random_field(grid))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        stepper.step_hat(hat)
    (step,) = [i for i, s in enumerate(tracer.spans) if s.name == "evolution.step_hat"]
    assert tracer.spans[step].attrs["iters"] == stepper.last_iterations > 0
    assert spans.fft_pairs_by_parent(tracer.spans)[step] == stepper.last_iterations + 1


def test_instrument_restores_the_original_functions():
    import scipy.fft

    from edgelab import experiments, hierarchy

    before = (scipy.fft.fft2, evolution.CrankNicolsonStepper.step_hat,
              hierarchy.assemble_ansatz, experiments.assemble_ansatz)
    with spans.instrument(spans.Tracer()):
        assert hierarchy.assemble_ansatz is experiments.assemble_ansatz
        assert scipy.fft.fft2 is not before[0]
    assert (scipy.fft.fft2, evolution.CrankNicolsonStepper.step_hat,
            hierarchy.assemble_ansatz, experiments.assemble_ansatz) == before


GOOD = {
    "berry": {"phases": [-0.39], "phase_target": -math.pi / 8, "decohered": False,
              "norm_drift": 1e-15, "expected_fits": 1},
    "hierarchy_check": {"slopes": [[0, 0.97], [1, 1.45], [2, 1.97]], "solvability": 1e-14,
                        "expected_fits": 3},
}


@pytest.mark.parametrize("kind", sorted(GOOD))
def test_gate_passes_results_inside_the_acceptance_bands(kind):
    assert workloads.gate(kind, GOOD[kind]) == []


@pytest.mark.parametrize("kind, change, reason", [
    ("berry", {"phases": [0.0]}, "total phase"),
    ("berry", {"norm_drift": 1e-6}, "norm drift"),
    ("berry", {"decohered": True}, "tube"),
    ("berry", {"phases": []}, "0 results"),
    ("hierarchy_check", {"slopes": [[0, 0.97], [1, 0.9], [2, 1.97]]}, "order-1 slope 0.900"),
    ("hierarchy_check", {"solvability": 1e-3}, "solvability"),
])
def test_gate_flags_a_wrong_result(kind, change, reason):
    fails = workloads.gate(kind, {**GOOD[kind], **change})
    assert any(reason in f for f in fails), fails


def test_seed_varies_only_the_inputs_that_keep_work_fixed():
    for wl in workloads.WORKLOADS.values():
        a, b = wl.overrides(1), wl.overrides(2)
        assert a[:-1] == b[:-1] == list(wl.sizing)
        assert a != b and a == wl.overrides(1)
    radius = float(workloads.WORKLOADS["berry-circle"].overrides(3)[-1].split("=")[1])
    assert abs(radius - 1.0) <= 0.01


def test_benchmark_json_names_every_reported_metric_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS


def test_result_counts_failed_passes_and_takes_medians_of_good_ones():
    records = [
        {"probe": True, "ok": True, "traced": False, "setup_s": 1.5},
        {"probe": True, "ok": False, "traced": False},
        {"probe": False, "ok": True, "traced": False, "run_s": 2.0, "setup_s": 1.0, "peak_rss_mb": 100.0},
        {"probe": False, "ok": False, "traced": False, "run_s": 9.0, "setup_s": 9.0, "peak_rss_mb": 900.0},
        {"probe": False, "ok": True, "traced": False, "run_s": 4.0, "setup_s": 3.0, "peak_rss_mb": 300.0},
    ]
    res = run.result_of(records, trace=0)
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 3, 1)
    assert res["metrics"]["run_s"] == {"value": 3.0, "unit": "s"}
    assert res["metrics"]["setup_s"]["value"] == 1.5
    assert res["metrics"]["peak_rss_mb"]["value"] == 200.0
