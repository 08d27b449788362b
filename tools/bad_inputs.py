"""The bad-input sweep: each preset with one leaf of its config replaced.

    python3 tools/bad_inputs.py [--out sweep.json]

Every preset of the table in ``presets/README.md`` runs with its
subcommand once per (leaf, value): a leaf is a value of the config that is
neither an object nor a list, reached through objects and lists, and it is
replaced by each of the 16 VALUES in turn.  All runs go through
``cli.main`` in this one process, with RuntimeWarnings as errors, a 20 s
alarm per run and a 3 GB limit on the process's address space, each into a
fresh output directory.

A run is as documented when no exception escapes ``main``, its exit code
is 0, 1, 2 or 3, and an exit 1 comes with a summary that holds a failed
assertion.  The script prints the count of each exit code and every run
that is not as documented, and exits 1 if there is such a run.  ``--out``
also gets every run as JSON: its preset, leaf path, value, exit code (None
for an escape), last stderr line and seconds.
"""

import argparse
import contextlib
import copy
import io
import json
import math
from pathlib import Path
import re
import resource
import signal
import sys
import tempfile
import time
import traceback
import warnings

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nlspectral import cli  # noqa: E402

VALUES = [0, -1, 1, 0.5, -0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf,
          True, None, "x", [], {}, 3]
ALARM_S = 20
ADDRESS_SPACE = 3 << 30
# a row of the presets table: | `crit01_symbol_bounds.json` | `symbols` | ...
PRESET_ROW = re.compile(r"^\| `(crit[^`]*)` \| `([^`]*)`", re.MULTILINE)


def leaves(value, path=()):
    """The path (a tuple of keys and indices) of each leaf under value, in order."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else None)
    if items is None:
        yield path
        return
    for key, item in items:
        yield from leaves(item, path + (key,))


def replaced(cfg, path, value):
    """A deep copy of cfg with the leaf at path set to value."""
    out = copy.deepcopy(cfg)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    return out


def cases(presets=ROOT / "presets"):
    """(preset, subcommand, path, value, config) of every run of the sweep, in a fixed order."""
    for name, command in PRESET_ROW.findall((Path(presets) / "README.md").read_text()):
        cfg = json.loads((Path(presets) / name).read_text())
        for path in leaves(cfg):
            for value in VALUES:
                yield name, command, path, value, replaced(cfg, path, value)


def run_case(command, cfg, out_dir):
    """One run through cli.main into out_dir: its exit code, the last line it
    wrote to stderr and whether a summary holds a failed assertion, or the
    exception that escaped and the line that raised it."""
    out_dir = Path(out_dir)
    config = out_dir / "config.json"
    config.write_text(json.dumps(cfg))
    err = io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([command, "--config", str(config), "--out", str(out_dir / "out")])
    except Exception as exc:  # noqa: BLE001 - an escape is what the sweep looks for
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return {"exit": None, "escaped": f"{type(exc).__name__}: {exc}",
                "at": f"{frame.filename}:{frame.lineno}"}
    failed = any(not a["passed"] for p in (out_dir / "out").glob("*_summary.json")
                 for a in json.loads(p.read_text())["assertions"].values())
    return {"exit": code, "message": (err.getvalue().strip().splitlines() or [""])[-1],
            "failed_assertion": failed}


def as_documented(result):
    """No escape, an exit code of 0 to 3, and exit 1 only with a failed assertion."""
    return (result["exit"] in (0, 1, 2, 3)
            and (result["exit"] != 1 or result["failed_assertion"]))


class Alarm(Exception):
    """A run outlived ALARM_S."""


def _ring(signum, frame):
    raise Alarm(f"no exit within {ALARM_S} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the counts and odd runs as JSON here")
    args = parser.parse_args(argv)
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, hard))
    signal.signal(signal.SIGALRM, _ring)
    counts, runs, started = {}, [], time.perf_counter()
    for name, command, path, value, cfg in cases():
        with tempfile.TemporaryDirectory() as out_dir:
            signal.alarm(ALARM_S)
            begun = time.perf_counter()
            try:
                result = run_case(command, cfg, out_dir)
            finally:
                signal.alarm(0)
        key = "escaped" if result["exit"] is None else str(result["exit"])
        counts[key] = counts.get(key, 0) + 1
        runs.append({"preset": name, "path": list(path), "value": repr(value), **result,
                     "seconds": time.perf_counter() - begun})
    odd = [run for run in runs if not as_documented(run)]
    print(json.dumps({"runs": len(runs), "exits": dict(sorted(counts.items())),
                      "not_as_documented": len(odd), "seconds": time.perf_counter() - started}))
    for run in odd:
        print(json.dumps(run))
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 1 if odd else 0


if __name__ == "__main__":
    sys.exit(main())
