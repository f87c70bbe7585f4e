"""Command-line experiment runner.

One flat parser: a positional argument names the experiment, which must
match the configuration file's ``experiment`` key, and the file selects
everything else; options may come before or after the name.  Exit codes:
0 success, 1 configuration error, 2 when any per-row tolerance assertion
fails (the report is still written) or the command line is malformed.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .experiments import (
    EXPERIMENTS,
    ConfigError,
    emit_report,
    parse_config,
    run_experiment,
)


@functools.cache  # built by the first main call, kept for the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskchannels",
        description="Equivariant-channel experiments on weighted Bergman spaces",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="the sweep to run")
    parser.add_argument("--config", required=True, help="flat key = value config file")
    parser.add_argument("--out", default=None, help="report output path")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
        if config.experiment != args.experiment:
            raise ConfigError(
                f"experiment: config says {config.experiment!r}, "
                f"command line says {args.experiment!r}"
            )
        if args.threads is not None:
            config.threads = args.threads
        if args.seed is not None:
            config.seed = args.seed
        if args.out is not None:
            config.output_path = args.out
        if args.format is not None:
            config.output_format = args.format
        config.validate()
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        report = run_experiment(config)
    except ConfigError as exc:  # input construction can reject late
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    for row in report.rows:
        if row.error:
            print(f"nu={row.nu:g}  FAILED: {row.error}")
        else:
            gate = ""
            if config.tol_abs > 0.0:
                gate = (f"  TOLERANCE EXCEEDED (> {config.tol_abs:g})"
                        if report.exceeds_tolerance(row) else "  ok")
            print(
                f"nu={row.nu:g}  measured={row.measured:.12g}  "
                f"target={row.target:.12g}  abs_error={row.abs_error:.3e}"
                f"  tail={row.tail_bound:.3e}{gate}"
            )
    if report.fitted_order is not None:
        print(
            f"fitted convergence order: {report.fitted_order:.3f}"
            f" +- {report.fitted_order_stderr:.3f}"
        )
    if config.output_path:
        emit_report(report, config.output_format, config.output_path)
        print(f"report written to {config.output_path} ({config.output_format})")
    return 2 if report.failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
