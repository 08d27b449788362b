"""Command-line experiment driver.

One experiment per invocation: a subcommand picks the runner, a JSON config
describes kernels, orientations, lattice bounds and tolerances, and the run
writes one CSV of results plus a JSON summary with pass/fail per assertion.

Exit codes: 0 success, 1 assertion failure, 2 configuration error,
3 quadrature non-convergence.

The config file is a run's only input: the flags name it (--config) and the
output directory (--out, default the working directory).  run_command is the
only code that writes files; the runners only compute.  A run builds its
symbol tables one after another.
"""

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import ConfigError, KernelError, QuadratureConvergenceError
from .experiments import RUNNERS, passed
from .results import config_hash, write_csv, write_summary

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nlspectral",
        description="half-ball nonlocal operator experiments on periodic boxes",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def load_config(path):
    if path is None:
        raise ConfigError("no config given (flag --config)")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def run_command(command, cfg, out_dir):
    """Execute one experiment and write its artifacts; returns the exit code.

    An existing output directory must be writable before the run; a missing
    one is made after it, so that a run refused for its config leaves
    nothing behind, and an OSError while making it (the path or a parent of
    it is a file) is a ConfigError naming the path.  Tables that reuse the
    radial cache (symbols) of an earlier run in the same process have the
    bits of cold ones.
    """
    runner = RUNNERS[command]
    if os.path.isdir(out_dir) and not os.access(out_dir, os.W_OK):
        raise ConfigError(f"output directory {out_dir} is not writable")
    started = time.perf_counter()
    table, summary = runner(cfg)
    import numpy

    summary["metadata"] = {
        "command": command,
        "config_sha256": config_hash(cfg),
        "package_version": __version__,
        "numpy_version": numpy.__version__,
        "wall_time_s": time.perf_counter() - started,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    name = cfg.get("experiment", command).replace(" ", "_")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {out_dir}: {exc}") from exc
    write_csv(table, os.path.join(out_dir, f"{name}.csv"))
    write_summary(summary, os.path.join(out_dir, f"{name}_summary.json"))
    return EXIT_OK if passed(summary) else EXIT_ASSERTION


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args.command, load_config(args.config), args.out or ".")
    except (ConfigError, KernelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureConvergenceError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE


if __name__ == "__main__":
    sys.exit(main())
