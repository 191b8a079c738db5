"""One benchmark pass in a fresh process: config -> run_experiment -> gate.

    python3 perfbench/one_pass.py --workload NAME --seed N --trace 0|1
        --spawned T --out DIR --fft-workers W [--setup-only]

``run.py`` starts this script once per pass, with the BLAS thread variables
already in its environment so they hold before numpy is imported.  The pass
goes through the same public path as ``edgelab run``: ``load_config``, then
``apply_overrides``, FFT worker setup, then ``experiments.run_experiment``.
``--spawned`` is the CLOCK_MONOTONIC reading taken by the parent just before
it started this process, so ``setup_s`` covers interpreter start and
imports.  With ``--setup-only`` the process stops at the point where the
pass would call ``run_experiment``.  The last stdout line is a JSON record of
the pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fft_pair_ms(shape, workers, reps=20):
    """Median wall time of one fft2 + ifft2 pair on a (2, N1, N2) complex array."""
    import numpy as np
    from scipy import fft as sfft

    rng = np.random.default_rng(0)
    a = rng.standard_normal((2,) + shape) + 1j * rng.standard_normal((2,) + shape)
    sfft.ifft2(sfft.fft2(a, workers=workers), workers=workers)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        sfft.ifft2(sfft.fft2(a, axes=(-2, -1), workers=workers), axes=(-2, -1), workers=workers)
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1e3 * times[len(times) // 2]


def run_pass(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import scipy

    from edgelab import evolution, experiments
    from edgelab.config import load_config

    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    cfg = load_config(os.path.join(ROOT, wl.config))
    cfg.apply_overrides(wl.overrides(args.seed))
    evolution.set_fft_workers(args.fft_workers)
    record = {
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "fft_workers": evolution.get_fft_workers(),
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        },
    }
    if args.setup_only:
        record.update(ok=True, setup_s=time.monotonic() - args.spawned)
        return record
    tracer = spans.Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t_call = time.monotonic()
        if args.trace:
            with spans.instrument(tracer), tracer.span("experiments.run_experiment"):
                result = experiments.run_experiment(cfg, args.out)
        else:
            result = experiments.run_experiment(cfg, args.out)
        summary = workloads.summarize(cfg.kind, result, cfg)
        fails = workloads.gate(cfg.kind, summary)
        t_done = time.monotonic()
    fails += [f"warning: {w.message}" for w in caught if "solvability" in str(w.message)]
    record.update(
        ok=not fails, fails=fails, summary=summary,
        setup_s=t_call - args.spawned, run_s=t_done - t_call,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )
    if args.trace:
        layers = spans.layer_metrics(tracer.spans)
        grid = spans.largest_grid(tracer.spans)
        layers["evolution.fft_pair_ms"] = fft_pair_ms(grid, args.fft_workers) if grid else 0.0
        record["layers"] = layers
    return record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fft-workers", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    try:
        record = run_pass(args)
    except Exception as exc:  # a failed pass is reported, not fatal to the run
        traceback.print_exc()
        record = {"ok": False, "fails": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
