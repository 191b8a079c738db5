"""In-memory spans around calls into edgelab's public functions.

A ``Tracer`` wraps functions so that each call records a span: its name,
start, end, the span that was open when it started (its parent) and a few
attributes read from the call's arguments or result.  ``instrument`` applies
the wrappers to edgelab's modules from outside the package and undoes them on
exit; ``layer_metrics`` reduces a finished trace to the per-layer numbers the
benchmark reports.  Nothing here imports numpy or edgelab at module level, so
the parent benchmark process stays light.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent, start=0.0, end=0.0, attrs=None):
        self.name = name
        self.parent = parent  # index of the enclosing span, -1 at the top
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; spans stay in memory until read."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        s = Span(name, self._open[-1] if self._open else -1)
        self.spans.append(s)
        self._open.append(idx)
        s.start = self.clock()
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()

    def wrap(self, name, fn, note=None):
        """``fn`` recording a span per call; ``note(span, args, result)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if note is not None:
                note(s, args, result)
            return result

        return traced


def self_times(spans):
    """Per span: its duration minus the part of its interval its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for k in sorted(kids, key=lambda c: c.start):
            lo, hi = max(k.start, reach, s.start), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


# -- instrumentation of edgelab ------------------------------------------------

HERMITE_FUNCTIONS = ("x2_mult", "invert_L", "kernel_project", "apply_poly_sigma1",
                     "eval_on_points", "trig_interp_matrix")


def _note_step(s, args, result):
    s.attrs["iters"] = args[0].last_iterations
    s.attrs["bytes"] = args[1].nbytes


def _note_evolve(s, args, result):
    s.attrs["drift"] = result.norm_drift
    s.attrs["fields_bytes"] = sum(sn.field.data.nbytes for sn in result.snapshots
                                  if sn.field is not None)


def _note_grid(s, args, result):
    s.attrs["shape"] = (args[0].n1, args[0].n2)


def _note_corrector(s, args, result):
    s.attrs["samples"] = len(args[0].traj)
    s.attrs["solvability"] = args[0].max_solvability_residual()


def _note_amplitude(s, args, result):
    s.attrs["truncation"] = result.truncation_health()


def _note_assemble(s, args, result):
    s.attrs["order"] = args[0]


def _note_points(s, args, result):
    s.attrs["points"] = len(args[1])


def _note_trajectory(s, args, result):
    s.attrs["samples"] = len(result)


@contextlib.contextmanager
def instrument(tracer):
    """Wrap scipy.fft's 2-D transforms and edgelab's layer entry points; undo on exit.

    Functions that other modules imported by name are patched under every
    name, with one wrapper, so a call records one span whichever name it used.
    """
    import scipy.fft

    from edgelab import evolution, experiments, geometry, hermite, hierarchy

    plan = [
        ([(scipy.fft, "fft2")], "fft2", None),
        ([(scipy.fft, "ifft2")], "ifft2", None),
        ([(evolution.CrankNicolsonStepper, "step_hat")], "evolution.step_hat", _note_step),
        ([(evolution.CrankNicolsonStepper, "true_residual")], "evolution.true_residual", None),
        ([(evolution, "evolve")], "evolution.evolve", _note_evolve),
        ([(evolution, "overlap_diagnostics")], "evolution.overlap_diagnostics", None),
        ([(evolution.Grid2D, "wall_values")], "walls.kappa_grid", _note_grid),
        ([(hierarchy.CorrectorSolver, "__init__")], "hierarchy.corrector_build", _note_corrector),
        ([(hierarchy.CorrectorSolver, "b1")], "hierarchy.b1", _note_amplitude),
        ([(hierarchy.CorrectorSolver, "b2")], "hierarchy.b2", _note_amplitude),
        ([(hierarchy, "assemble_ansatz"), (experiments, "assemble_ansatz")],
         "hierarchy.assemble_ansatz", _note_assemble),
        ([(hierarchy, "sample_hermite_amplitude")], "hierarchy.sample_hermite", None),
        ([(hierarchy, "ansatz_residual")], "hierarchy.ansatz_residual", None),
        ([(geometry, "integrate_trajectory"), (experiments, "integrate_trajectory")],
         "geometry.trajectory", _note_trajectory),
    ] + [([(hermite, fn)], f"hermite.{fn}",
          _note_points if fn == "trig_interp_matrix" else None) for fn in HERMITE_FUNCTIONS]

    saved = []
    try:
        for owners, name, note in plan:
            original = getattr(*owners[0])
            wrapped = tracer.wrap(name, original, note)
            for owner, attr in owners:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- reduction to per-layer metrics ---------------------------------------------


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def fft_pairs_by_parent(spans):
    """Number of fft2/ifft2 pairs recorded directly under each span index."""
    counts = {}
    for s in spans:
        if s.name in ("fft2", "ifft2") and s.parent >= 0:
            counts[s.parent] = counts.get(s.parent, 0) + 0.5
    return counts


def layer_metrics(spans):
    """Per-layer numbers from a trace whose top span is ``experiments.run_experiment``.

    Times are in the units their names carry; layers a workload never calls
    report 0.  Byte counts are computed from array sizes, not measured.
    """
    selfs = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def durations(name, scale=1.0):
        return [spans[i].duration * scale for i in by_name.get(name, [])]

    def attrs(name, key):
        return [spans[i].attrs[key] for i in by_name.get(name, [])]

    m = {}
    steps = by_name.get("evolution.step_hat", [])
    pairs = fft_pairs_by_parent(spans)
    step_ms = durations("evolution.step_hat", 1e3)
    m["evolution.cn_step_ms.p50"] = _percentile(step_ms, 0.5)
    m["evolution.cn_step_ms.p95"] = _percentile(step_ms, 0.95)
    m["evolution.cn_step_self_ms"] = _percentile([selfs[i] * 1e3 for i in steps], 0.5)
    iters = attrs("evolution.step_hat", "iters")
    m["evolution.krylov_iters_per_step"] = _mean(iters)
    m["evolution.krylov_iters_max"] = float(max(iters, default=0))
    m["evolution.fft_pairs_per_step"] = _mean([pairs.get(i, 0.0) for i in steps])
    # each transform of a pair reads and writes the whole (2, N1, N2) array once
    m["evolution.fft_bytes_per_step"] = _mean(
        [pairs.get(i, 0.0) * 2 * 2 * spans[i].attrs["bytes"] for i in steps])
    m["evolution.true_residual_ms"] = _mean(durations("evolution.true_residual", 1e3))
    m["evolution.evolve_self_s"] = sum(selfs[i] for i in by_name.get("evolution.evolve", []))
    m["evolution.overlap_ms"] = _mean(durations("evolution.overlap_diagnostics", 1e3))
    m["evolution.snapshot_fields_mb"] = max(attrs("evolution.evolve", "fields_bytes"), default=0) / 1e6
    m["evolution.norm_drift"] = max(attrs("evolution.evolve", "drift"), default=0.0)

    build_s = durations("hierarchy.corrector_build")
    samples = sum(attrs("hierarchy.corrector_build", "samples"))
    m["hierarchy.corrector_build_s"] = sum(build_s)
    m["hierarchy.corrector_ms_per_sample"] = 1e3 * sum(build_s) / samples if samples else 0.0
    for order in (0, 1, 2):
        m[f"hierarchy.assemble_ms.o{order}"] = _mean(
            [spans[i].duration * 1e3 for i in by_name.get("hierarchy.assemble_ansatz", [])
             if spans[i].attrs["order"] == order])
    m["hierarchy.sample_hermite_ms"] = _mean(durations("hierarchy.sample_hermite", 1e3))
    m["hierarchy.b2_ms"] = _mean(durations("hierarchy.b2", 1e3))
    m["hierarchy.residual_ms"] = _mean(durations("hierarchy.ansatz_residual", 1e3))
    m["hierarchy.solvability_max"] = max(attrs("hierarchy.corrector_build", "solvability"), default=0.0)
    m["hierarchy.truncation_b1"] = max(attrs("hierarchy.b1", "truncation"), default=0.0)
    m["hierarchy.truncation_b2"] = max(attrs("hierarchy.b2", "truncation"), default=0.0)

    for fn in HERMITE_FUNCTIONS:
        m[f"hermite.{fn}_ms"] = sum(durations(f"hermite.{fn}", 1e3))
        m[f"hermite.{fn}_calls"] = float(len(by_name.get(f"hermite.{fn}", [])))
    m["hermite.trig_interp_points"] = float(sum(attrs("hermite.trig_interp_matrix", "points")))

    m["geometry.trajectory_ms"] = sum(durations("geometry.trajectory", 1e3))
    m["geometry.trajectory_samples"] = float(sum(attrs("geometry.trajectory", "samples")))
    m["walls.kappa_grid_ms"] = sum(durations("walls.kappa_grid", 1e3))
    m["experiments.runner_self_s"] = sum(selfs[i] for i in by_name.get("experiments.run_experiment", []))
    return m


LAYER_UNITS = {
    "evolution.fft_pair_ms": "ms",
    "evolution.cn_step_ms.p50": "ms",
    "evolution.cn_step_ms.p95": "ms",
    "evolution.cn_step_self_ms": "ms",
    "evolution.krylov_iters_per_step": "count",
    "evolution.krylov_iters_max": "count",
    "evolution.fft_pairs_per_step": "count",
    "evolution.fft_bytes_per_step": "bytes",
    "evolution.true_residual_ms": "ms",
    "evolution.evolve_self_s": "s",
    "evolution.overlap_ms": "ms",
    "evolution.snapshot_fields_mb": "MB",
    "evolution.norm_drift": "ratio",
    "hierarchy.corrector_build_s": "s",
    "hierarchy.corrector_ms_per_sample": "ms",
    "hierarchy.assemble_ms.o0": "ms",
    "hierarchy.assemble_ms.o1": "ms",
    "hierarchy.assemble_ms.o2": "ms",
    "hierarchy.sample_hermite_ms": "ms",
    "hierarchy.b2_ms": "ms",
    "hierarchy.residual_ms": "ms",
    "hierarchy.solvability_max": "ratio",
    "hierarchy.truncation_b1": "ratio",
    "hierarchy.truncation_b2": "ratio",
    **{f"hermite.{fn}_{kind}": unit for fn in HERMITE_FUNCTIONS
       for kind, unit in (("ms", "ms"), ("calls", "count"))},
    "hermite.trig_interp_points": "count",
    "geometry.trajectory_ms": "ms",
    "geometry.trajectory_samples": "count",
    "walls.kappa_grid_ms": "ms",
    "experiments.runner_self_s": "s",
    "trace.overhead_s": "s",
}


def largest_grid(spans):
    """The largest (N1, N2) lab grid on which the wall was sampled, or None."""
    shapes = [s.attrs["shape"] for s in spans if s.name == "walls.kappa_grid"]
    return max(shapes, key=lambda sh: sh[0] * sh[1], default=None)
