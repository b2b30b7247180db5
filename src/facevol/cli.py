"""Command line entry point: verify one dimension or a range, write reports.

Exit codes: 0 all checks pass, 1 some check failed, 2 usage or config error
(an output file that cannot be written included).
Set FACEVOL_LOG=INFO (or DEBUG) for progress logging on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .report import run_verification, serialize_report, serialize_reports

log = logging.getLogger("facevol")

USAGE_EXIT = 2
DEFAULT_N_RANGE = "4:8"
MAX_N_GUARD = 16

# The names FACEVOL_LOG takes, in any case; logging's aliases (NOTSET, WARN,
# FATAL) are refused.
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description=(
            "Exact-arithmetic verification of simplex face-volume facts: "
            "Jacobian independence certificate, incidence spectrum, divisor "
            "quotients, and the claim audit."
        ),
        epilog=f"Environment: FACEVOL_LOG is the log level: {', '.join(LOG_LEVELS)}.",
    )
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--n", type=int, help="single dimension to verify (>= 3)")
    target.add_argument(
        "--n-range",
        metavar="A:B",
        help=f"inclusive dimension range (default {DEFAULT_N_RANGE})",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=3,
        help="random sample points for the independence certificate (default 3)",
    )
    parser.add_argument("--seed", type=int, default=42, help="sampling seed (default 42)")
    parser.add_argument(
        "--format",
        choices=("json", "markdown"),
        default="json",
        dest="fmt",
        help="report format (default json)",
    )
    parser.add_argument(
        "--output",
        help="output file (single n) or directory (range); default stdout",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="verify dimensions in parallel (default 1)"
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=MAX_N_GUARD,
        help=f"refuse dimensions above this guard (default {MAX_N_GUARD})",
    )
    return parser


def _parse_range(text: str) -> tuple[int, ...]:
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise ValueError(f"range must look like A:B, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return tuple(range(lo, hi + 1))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    single_mode = args.n is not None
    try:
        log_name = os.environ.get("FACEVOL_LOG") or "WARNING"
        level = log_name.upper()
        if level not in LOG_LEVELS:
            raise ValueError(f"FACEVOL_LOG={log_name!r} is not a log level name (see --help)")
        n_values = (args.n,) if single_mode else _parse_range(args.n_range or DEFAULT_N_RANGE)
        if min(n_values) < 3:
            raise ValueError("all dimensions must be >= 3")
        if max(n_values) > args.max_n:
            raise ValueError(
                f"dimension exceeds the guard ({args.max_n}); raise --max-n to override"
            )
        if args.samples < 0:
            raise ValueError("samples must be >= 0")
        if args.jobs < 1:
            raise ValueError("jobs must be >= 1")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT

    logging.basicConfig(level=level, stream=sys.stderr)
    reports = run_verification(n_values, args.samples, args.seed, args.jobs)

    if args.output is None:
        if single_mode:
            sys.stdout.write(serialize_report(reports[0], args.fmt))
        else:
            sys.stdout.write(serialize_reports(reports, args.fmt))
    else:
        if single_mode:
            files = {Path(args.output): reports[0]}
        else:
            # range mode always writes one file per n, even for a 1-element range
            ext = "json" if args.fmt == "json" else "md"
            files = {Path(args.output) / f"verify_n{r.n}.{ext}": r for r in reports}
        try:
            for path, r in files.items():
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(serialize_report(r, args.fmt))
                log.info("wrote %s", path)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_EXIT

    return 0 if all(r.overall_pass for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
