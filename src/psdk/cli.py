"""Command-line entry point.

Exit codes: 0 on success, 1 for configuration problems (bad flags, bad
config file, an output path that cannot be written), 2 for numerical
failures (the offending grid point is reported on stderr), 141 when the
reader of standard output closed it early (`psdk ... | head`), after the
CSV was written; 141 is what a shell reports for a program that SIGPIPE
ended.

Every run uses one BLAS thread. Imported before numpy, as by `python -m
psdk` or the `psdk` script (`import psdk` loads no numpy), this module sets
OPENBLAS_NUM_THREADS=1 first, so OpenBLAS loads single-threaded and never
starts a worker thread; `main` pins a process that loaded numpy earlier.
"""

import argparse
import errno
import os
import sys

if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import experiments  # noqa: E402  (after the BLAS thread count is set)
from .exceptions import ConfigError, PsdkError

# Exit status when standard output was closed early: 128 + SIGPIPE.
EXIT_BROKEN_PIPE = 141


def _print_lines(lines):
    """Print `lines` to standard output and flush it; False when its reader
    has closed it. Standard output then points at devnull, so the flush at
    exit raises no second error (the SIGPIPE note of Python's `signal`
    docs)."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def _check_writable(path):
    """Fail as open would, creating nothing, if `path` is a directory or its
    parent directory is missing or not writable."""
    parent = os.path.dirname(path) or os.curdir
    code = (errno.EISDIR if os.path.isdir(path) else errno.ENOENT if not os.path.isdir(parent)
            else errno.EACCES if not os.access(parent, os.W_OK) else None)
    if code:
        raise ConfigError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    numerical failures, so turn usage errors into ConfigError instead."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="psdk",
        description="Seeded synthetic experiments for rank-restricted PSD "
        "averaging and distributed PCA.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    for experiment, spec in experiments._EXPERIMENTS.items():
        cmd = sub.add_parser(experiment.replace("_", "-"), help=spec.help,
                             description=spec.help)
        cmd.add_argument("--config", metavar="FILE",
                         help="key = value overrides file")
        cmd.add_argument("--seed", type=int, metavar="N",
                         help="master seed (default 0)")
        cmd.add_argument("--quick", action="store_true",
                         help="shrink grids to a fast desk-scale run")
        cmd.add_argument("--out", metavar="PATH",
                         help="CSV output path (default <experiment>.csv)")
        cmd.add_argument("--threads", type=int, metavar="N",
                         help="worker processes, at most the CPUs this process "
                         "may use, each with BLAS pinned to one thread during "
                         "the run; output is identical either way")
    sub.add_parser("selftest", help="run the fast internal consistency battery",
                   description="run the fast internal consistency battery")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as err:
        print(f"psdk: error: {err}", file=sys.stderr)
        return 1

    # Pinned for good before any run (the selftest forks one too), no run
    # has a BLAS thread count to restore. Where this module set the count
    # before numpy loaded, the pin finds one thread and changes nothing.
    experiments.pin_blas()
    if args.command == "selftest":
        ok, lines = experiments.run_selftest()
        printed = _print_lines(lines)
        if not ok:
            return 2
        return 0 if printed else EXIT_BROKEN_PIPE

    experiment = args.command.replace("-", "_")
    try:
        cfg = experiments.load_config(
            experiment,
            path=args.config,
            quick=args.quick,
            overrides={
                "master_seed": args.seed,
                "output_path": args.out,
                "threads": args.threads,
            },
        )
        out_path = cfg.output_path or f"{experiment}.csv"
        _check_writable(out_path)
    except (ConfigError, OSError) as err:
        print(f"psdk: error: {err}", file=sys.stderr)
        return 1

    try:
        records = experiments.RUNNERS[experiment](cfg, progress=True)
    except PsdkError as err:
        print(f"psdk: numerical failure: {err}", file=sys.stderr)
        return 2

    try:
        experiments.write_csv(records, out_path)
    except OSError as err:
        print(f"psdk: error: cannot write {out_path}: {err}", file=sys.stderr)
        return 1
    if not _print_lines([experiments.summarize_records(cfg, records),
                         f"wrote {len(records)} records to {out_path}"]):
        return EXIT_BROKEN_PIPE
    return 0


if __name__ == "__main__":
    sys.exit(main())
