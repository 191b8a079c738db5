"""Command-line entry point.

    edgelab run <config> [--out DIR] [--override k=v]...
    edgelab check
    edgelab export-heatmap <snapshot> <pgm>

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 threshold failure in ``check``.
"""

from __future__ import annotations

import argparse
import sys

from . import snapshots
from .config import ConfigError, load_config
from .evolution import SolverError
from .experiments import run_check_suite, run_experiment


def build_parser():
    p = argparse.ArgumentParser(prog="edgelab",
                                description="Dirac edge-state dynamics along curved interfaces")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a config-driven experiment")
    run.add_argument("config", help="config file (section.key = value lines)")
    run.add_argument("--out", default=None, help="output directory (overrides experiment.out)")
    run.add_argument("--override", action="append", default=[], metavar="section.key=value",
                     help="config override, repeatable")

    sub.add_parser("check", help="property-suite smoke run")

    exp = sub.add_parser("export-heatmap", help="render a binary snapshot as 16-bit PGM")
    exp.add_argument("snapshot")
    exp.add_argument("pgm")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.command == "run":
        try:
            cfg = load_config(args.config)
            cfg.apply_overrides(args.override)
        except (ConfigError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        try:
            run_experiment(cfg, args.out)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except SolverError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 3
        print(f"run complete -> {args.out or cfg.get('experiment.out')}")
        return 0

    if args.command == "check":
        checks = run_check_suite()
        failed = 0
        for name, ok, detail in checks:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
            failed += 0 if ok else 1
        if failed:
            print(f"{failed} check(s) failed", file=sys.stderr)
            return 4
        return 0

    if args.command == "export-heatmap":
        try:
            field, _ = snapshots.read_snapshot(args.snapshot)
        except (OSError, ValueError) as exc:
            print(f"cannot read snapshot: {exc}", file=sys.stderr)
            return 2
        snapshots.export_pgm(args.pgm, field)
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
