"""leakmap command line: run experiments from a config file plus overrides.

    leakmap <command> [--config FILE] [--output DIR] [--section.key value ...]

Commands: ftle-field, open-classical, quantum, scan.  Exit codes: 0 on
success, 1 on configuration errors (every violation listed), 2 on
numerical or I/O failure.

LEAKMAP_THREADS=n runs `scan` positions in up to n worker processes
(unset: 1, everything in this process); `ftle-field`, `open-classical` and
`quantum` always run in the main thread.  Every BLAS/OpenMP pool is
pinned to one thread through the usual *_NUM_THREADS variables before
numpy loads, which is why this module must not import numeric code at the
top level.  With one BLAS thread per process and results gathered in task
order, every output byte is the same at any worker count.
"""

from __future__ import annotations

import argparse
import os
import sys

THREAD_ENV = "LEAKMAP_THREADS"
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def apply_thread_env() -> int | None:
    """Pin the BLAS/OpenMP pools to one thread and return the workers
    LEAKMAP_THREADS asks for (None when it is unset)."""
    raw = os.environ.get(THREAD_ENV)
    n = None
    if raw is not None and raw != "":
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"{THREAD_ENV} must be a positive integer, got {raw!r}") from None
        if n < 1:
            raise ValueError(f"{THREAD_ENV} must be a positive integer, got {raw!r}")
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakmap",
        description="Standard-map experiments with a phase-space leak.",
        epilog="Unrecognized --section.key value pairs override config entries.",
    )
    parser.add_argument(
        "command",
        choices=["ftle-field", "open-classical", "quantum", "scan"],
        help="experiment to run",
    )
    parser.add_argument("--config", metavar="PATH", help="config file (defaults apply if omitted)")
    parser.add_argument("--output", metavar="DIR", help="shorthand for run.output")
    return parser


def _collect_overrides(tokens: list) -> list:
    """Turn leftover CLI tokens into ('section.key', 'value') pairs."""
    pairs = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ValueError(f"unexpected argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(tokens):
                raise ValueError(f"override {tok!r} is missing a value")
            value = tokens[i + 1]
            i += 2
        pairs.append((key, value))
    return pairs


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, rest = parser.parse_known_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return 0 if exc.code in (0, None) else 1

    try:
        workers = apply_thread_env()
        overrides = _collect_overrides(rest)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # Numeric imports happen only now, after the thread pins above.
    from .config import ConfigError, ExperimentConfig, apply_overrides, load_config

    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.output is not None:
            overrides = overrides + [("run.output", args.output)]
        if overrides:
            cfg = apply_overrides(cfg, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    from .runner import COMMANDS

    try:
        files = COMMANDS[args.command](cfg, workers=workers)
    except Exception as exc:  # numerical or I/O failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command}: wrote {len(files)} files under {cfg.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
