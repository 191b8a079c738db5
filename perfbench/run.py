"""edgelab's benchmark: one workload, a closed loop of passes, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, both modes

Run from the root of a checkout.  Each pass is one ``one_pass.py`` process
that runs the workload's shipped config through ``load_config`` ->
``apply_overrides`` -> ``experiments.run_experiment`` and applies the
workload's correctness gate.  Passes run one after another (one client, no
other load) until the next one would end after ``--seconds``; there is always
at least one.

With ``--trace 0`` the passes are untraced.  When fewer than ``MIN_SETUPS``
passes fit, the run adds processes that stop where a pass would call
``run_experiment`` (set-up probes), so that ``setup_s`` is always a median of
several set-ups.  The result carries the end-to-end metrics: ``run_s`` and
``peak_rss_mb`` as medians over passes that passed their gate, ``setup_s``
over those and the probes.  With
``--trace 1`` untraced and traced passes alternate; the result carries the
per-layer metrics (medians over traced passes) and the tracing overhead.  The
last stdout line is the JSON result; the line before it records the seed, the
default seed, the overrides the program received, versions, thread settings
and every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One FFT worker, the default of ``edgelab run --threads``.  On the 2-core
# development box two workers made a berry-circle pass no faster (12.6-12.8 s
# against 11.8-12.0 s with one), and a pair of threads that wait on each other
# loses time whenever either core is taken by other work on the host.
FFT_WORKERS = 1
# One BLAS thread: OpenBLAS workers spin between the small GMRES products and
# take a core from the FFT work (measured at 256^2 with 2 FFT workers: 11.5 s
# per berry-circle pass with 1 thread against 13.5 s with 2, and half the CPU
# time).
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # a run must end within 180 s, so a pass that hangs is cut here
MIN_SETUPS = 3

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env():
    """Thread settings of a pass; the child sees them before it imports numpy."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _steal_s():
    """Seconds of CPU time the hypervisor has taken from this machine, or None.

    Recorded per pass because wall times on a shared VM follow it.
    """
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_one_pass(workload, seed, trace, index, deadline, setup_only=False):
    """Start one pass process, wait for it until ``deadline``, and return its JSON record."""
    out = os.path.join(ROOT, ".perfbench_out", f"{workload}-{os.getpid()}-{index}")
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", out,
           "--fft-workers", str(FFT_WORKERS)] + ["--setup-only"] * setup_only
    steal0 = _steal_s()
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    stdout = ""
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - spawned, 0.0))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.returncode is None:  # timed out or interrupted: stop it and wait
            proc.kill()
            proc.communicate()
        shutil.rmtree(out, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"ok": False, "fails": [f"pass exited with code {proc.returncode} and no record"]}
    record["wall_s"] = time.monotonic() - spawned
    steal1 = _steal_s()
    record["steal_s"] = None if steal0 is None or steal1 is None else steal1 - steal0
    record["traced"] = bool(trace)
    record["probe"] = setup_only
    return record


def run_passes(workload, seed, seconds, trace):
    """A closed loop of passes, then set-up probes up to ``MIN_SETUPS``; with
    tracing, pairs of untraced and traced passes and no probes."""
    modes = (0, 1) if trace else (0,)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        for mode in modes:
            passes.append(run_one_pass(workload, seed, mode, len(passes), deadline))
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - start + longest > min(seconds, RUN_LIMIT_S):
            break
    if not trace:
        passes += [run_one_pass(workload, seed, 0, len(passes) + i, deadline, setup_only=True)
                   for i in range(MIN_SETUPS - len(passes))]
    return passes


def _median_of(passes, key):
    values = [p[key] for p in passes if key in p]
    return statistics.median(values) if values else None


def result_of(records, trace):
    """The benchmark's result object from the records of a run's probes and passes.

    Probes are not operations: they count neither as attempted nor as failed,
    and a failed probe leaves no ``setup_s``.
    """
    passes = [p for p in records if not p["probe"]]
    failed = sum(not p["ok"] for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    # when every pass failed, their timings still go out with correct = false
    good = [p for p in untraced if p["ok"]] or untraced
    metrics = {}
    if trace:
        traced = [p for p in passes if p["traced"] and "layers" in p]
        for name, unit in spans.LAYER_UNITS.items():
            values = [p["layers"][name] for p in traced if name in p["layers"]]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        t_run, u_run = _median_of(traced, "run_s"), _median_of(good, "run_s")
        if t_run is not None and u_run is not None:
            metrics["trace.overhead_s"] = {"value": t_run - u_run, "unit": "s"}
    else:
        probes = [p for p in records if p["probe"]]
        for name, unit in END_TO_END_UNITS.items():
            value = _median_of(good + probes if name == "setup_s" else good, name)
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0 and bool(passes), "attempted": len(passes),
            "failed": failed, "metrics": metrics}


def run_workload(workload, seed, seconds, trace):
    passes = run_passes(workload, seed, seconds, trace)
    env = next((p["env"] for p in passes if "env" in p), None)
    print(json.dumps({
        "workload": workload, "seed": seed, "default_seed": workloads.DEFAULT_SEED,
        "overrides": workloads.WORKLOADS[workload].overrides(seed), "env": env,
        "passes": [{k: p.get(k) for k in ("probe", "traced", "ok", "fails", "setup_s", "run_s",
                                         "peak_rss_mb", "wall_s", "steal_s")}
                   for p in passes],
    }))
    return result_of(passes, trace)


def checkout_problems():
    """What a checkout lacks for the benchmark to run; empty when it is complete."""
    need = [os.path.join("src", "edgelab", "__init__.py")]
    need += [w.config for w in workloads.WORKLOADS.values()]
    return [p for p in need if not os.path.isfile(os.path.join(ROOT, p))]


def main(argv=None):
    p = argparse.ArgumentParser(description="edgelab benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running pass is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = checkout_problems()
    if missing:
        print(f"not an edgelab checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                part = run_workload(name, args.seed, args.seconds, trace)
                for key, m in part["metrics"].items():
                    print(f"{name:15s} {key:36s} {m['value']:.6g} {m['unit']}")
                result["correct"] &= part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                result["metrics"].update({f"{name}.{k}": m for k, m in part["metrics"].items()})
    if not result["metrics"]:
        print("no pass produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
