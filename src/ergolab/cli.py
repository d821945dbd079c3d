"""Command line entry point.

    ergolab --list [FILTER]
    ergolab --experiment NAME [--seed N] [--out DIR] [--format json|csv]
    ergolab --config PATH     [--seed N] [--out DIR] [--format json|csv]

Exit codes: 0 success, 2 invalid input (a bad config, or a family the
operation cannot accept, such as a singular one), 3 certified failure (a
search exhausting its horizon, an unachievable truncation tolerance, a
coordinate range over the cap), 4 I/O failure.  Each of these prints one
line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CertifiedFailure, ConfigError, ToleranceError
from .experiments import get_config, list_experiments
from .reporting import render_report, write_report
from .runner import run
from .shift_core import RangeCapError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab", description="Run one seeded dynamics experiment."
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="path to a v1 config JSON")
    source.add_argument("--experiment", help="built-in experiment name")
    source.add_argument(
        "--list",
        nargs="?",
        const="",
        metavar="FILTER",
        help="print the experiment catalog (optionally filtered) and exit",
    )
    parser.add_argument("--seed", type=int, help="override the config master seed")
    parser.add_argument("--out", type=Path, help="directory for report.json (+ CSVs)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list is not None:
        for name, description in list_experiments(args.list):
            print(f"{name:28s} {description}")
        return 0

    try:
        if args.experiment is not None:
            config = get_config(args.experiment)
        else:
            config = json.loads(args.config.read_text())
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error reading config: {exc}", file=sys.stderr)
        return 4

    try:
        report = run(config, seed_override=args.seed)
        if args.experiment is not None:
            report["experiment"] = args.experiment
    except (ToleranceError, RangeCapError, CertifiedFailure) as exc:
        # the first two are ValueErrors, so they are caught before those
        print(f"certified failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # NonSingularError and other rejected input
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2

    try:
        if args.out is not None:
            path = write_report(report, args.out, args.format)
            print(path)
        else:
            sys.stdout.write(render_report(report))
    except OSError as exc:
        print(f"error writing report: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
