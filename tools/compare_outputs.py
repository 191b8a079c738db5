"""Diff the outputs of two revisions on a fixed list of reduced runs.

    python3 tools/compare_outputs.py <parent-rev> <change-rev> [--work DIR]

Each revision is unpacked with ``git archive`` into its own tree under the
work directory (a fresh temporary one by default).  In each tree every run of
``RUNS`` writes its outputs with ``edgelab run``, and ``edgelab check`` writes
``check.txt``.  Then every file is compared: it is reported "byte-identical",
or, for a CSV, with the largest relative difference per column, or as
differing text.  Line 2 of ``meta.txt`` (the numpy/python version line) is the
only thing masked.  The exit status is 0 when every file is byte-identical and
every run exited 0 in both trees, 1 otherwise.

The run list only grows: a change is judged on the same runs as its parent.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tarfile
import tempfile

_N128 = ("grid.n1=128", "grid.n2=128")

# (output name, config under configs/, overrides)
RUNS = (
    ("berry_circle", "berry_circle.cfg", (*_N128, "berry.revolutions=0.05", "evolve.epsilon=0.1")),
    ("dispersion_tanh", "dispersion_tanh.cfg", (*_N128, "evolve.t_end=0.6", "probe.fit_t_min=0.1")),
    ("dispersion_mix", "dispersion_mix.cfg", (*_N128, "evolve.t_end=0.6", "probe.fit_t_min=0.1")),
    ("evolve_corner", "evolve_corner.cfg", (*_N128, "evolve.t_end=0.5")),
    ("evolve_modulated", "evolve_modulated.cfg", (*_N128, "evolve.t_end=0.5")),
    ("evolve_tanh", "evolve_tanh.cfg", (*_N128, "evolve.t_end=0.5")),
    ("evolve_crossing", "evolve_crossing.cfg", (*_N128, "evolve.t_end=0.3", "evolve.epsilon=0.05")),
    ("evolve_two_ring", "evolve_two_ring.cfg",
     ("grid.n1=256", "grid.n2=256", "evolve.t_end=0.2", "evolve.epsilon=0.05")),
    ("hierarchy_tanh", "hierarchy_tanh.cfg", ()),
    ("hierarchy_tanh_o012", "hierarchy_tanh.cfg", ("hierarchy.orders=0,1,2",)),
    ("hierarchy_tanh_evolve", "hierarchy_tanh.cfg",
     ("hierarchy.orders=0,1,2", "hierarchy.evolve_check=true", "hierarchy.times=0.05")),
    ("scaling_tanh_o0", "scaling_tanh.cfg", ("scaling.times=0.25", "scaling.epsilons=0.4,0.2,0.1", "init.order=0")),
    ("scaling_tanh_o2", "scaling_tanh.cfg", ("scaling.times=0.25", "scaling.epsilons=0.4,0.2,0.1", "init.order=2")),
    ("evolve_two_ring_crossing", "evolve_two_ring.cfg", (*_N128, "evolve.t_end=2.0", "evolve.epsilon=0.05")),
    ("berry_circle_256", "berry_circle.cfg", ("grid.n1=256", "grid.n2=256", "berry.revolutions=0.125")),
)


def unpack(rev, dest):
    """Unpack the tree of git revision ``rev`` into ``dest``."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=repo, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_all(tree, out):
    """Run every entry of RUNS and ``edgelab check`` in ``tree``; return {name: exit code}."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    cli = [sys.executable, "-m", "edgelab.cli"]
    codes = {}
    for name, config, overrides in RUNS:
        args = ["run", os.path.join("configs", config), "--out", os.path.join(out, name)]
        args += [a for o in overrides for a in ("--override", o)]
        codes[name] = subprocess.run(cli + args, cwd=tree, env=env, capture_output=True).returncode
    with open(os.path.join(out, "check.txt"), "w") as fh:
        codes["check"] = subprocess.run(cli + ["check"], cwd=tree, env=env, stdout=fh).returncode
    return codes


def _files(root):
    return {os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}


def _read(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "meta.txt":  # mask the numpy/python version line
        lines = data.split(b"\n")
        data = b"\n".join(lines[:1] + [b"<masked>"] + lines[2:])
    return data


def _rel_diff(a, b):
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def csv_report(a, b):
    """The largest relative difference per column of two CSV texts, as one line."""
    ra, rb = list(csv.reader(io.StringIO(a.decode()))), list(csv.reader(io.StringIO(b.decode())))
    if len(ra) != len(rb) or ra[:1] != rb[:1]:
        return f"header or row count differs ({len(ra)} vs {len(rb)} rows)"
    parts = []
    for j, col in enumerate(ra[0]):
        cells = [(x[j], y[j]) for x, y in zip(ra[1:], rb[1:]) if j < min(len(x), len(y))]
        diffs = [_rel_diff(x, y) for x, y in cells if x != y]
        if None in diffs:
            parts.append(f"{col}: text differs")
        elif diffs:
            parts.append(f"{col}: max rel diff {max(diffs):.3e}")
    return "; ".join(parts) or "cells equal, bytes differ"


def compare_dirs(a, b):
    """Compare two output directories file by file; return [(relative path, identical, message)]."""
    report = []
    for rel in sorted(_files(a) | _files(b)):
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        if not (os.path.exists(pa) and os.path.exists(pb)):
            report.append((rel, False, f"only in {'the change' if os.path.exists(pb) else 'the parent'}"))
            continue
        da, db = _read(pa), _read(pb)
        if da == db:
            report.append((rel, True, "byte-identical"))
        else:
            report.append((rel, False, csv_report(da, db) if rel.endswith(".csv") else "text differs"))
    return report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--work", default=None, help="work directory (default: a new temporary one)")
    args = p.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="compare_outputs_")
    outs, codes = {}, {}
    for label, rev in (("parent", args.parent), ("change", args.change)):
        tree, outs[label] = os.path.join(work, label, "tree"), os.path.join(work, label, "out")
        os.makedirs(tree)
        os.makedirs(outs[label])
        unpack(rev, tree)
        codes[label] = run_all(tree, outs[label])
    report = compare_dirs(outs["parent"], outs["change"])
    for rel, _, message in report:
        print(f"{rel}: {message}")
    failed = [n for n in codes["parent"] if codes["parent"][n] or codes["change"][n]]
    for name in failed:
        print(f"run {name} exited {codes['parent'][name]} (parent), {codes['change'][name]} (change)")
    same = sum(ok for _, ok, _ in report)
    print(f"{same} of {len(report)} files byte-identical, {len(failed)} runs failed; work directory {work}")
    return 0 if same == len(report) and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
