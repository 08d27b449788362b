"""Alternating parent/change benchmark pairs, summarized into BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --tag pr8

writes ``BENCH_pr8.json`` into the change checkout.  Both checkouts run
their own ``perfbench/run.py`` (``--trace 0``, its own run length), one
process per run, over every workload the change's ``BENCHMARK.json``
declares.  Each workload gets PAIRS pairs; pair ``i`` uses seed ``i`` for
both runs, and its order alternates: parent first in even pairs, change
first in odd ones, so a steady drift of the machine's speed weighs on both
sides alike.  The workloads run one after the other, all pairs of one
before the next.  Both checkouts must be git work trees with no
uncommitted change to a tracked file; the file names both commits.

For every metric of a workload the file holds each side's median and
quartiles (``statistics.quantiles(n=4)``), the change's wins (pairs in
which it is better than its parent, by the metric's direction in
``BENCHMARK.json``), the median difference and whether it exceeds the
parent's interquartile range.  Beside them: each side's median
calibration time (the fixed loop ``run.py`` times before and after every
run, to tell a slower machine from slower code), each side's median count
of minor page faults per run process (``minflt``, from the
``RUSAGE_CHILDREN`` totals around the run), ``src_lines``, the versions
``run.py`` reports, and every run's raw metrics and fault count.

After the workloads, every preset of the table in the change's
``presets/README.md`` runs with its subcommand, as CI's presets step reads
them: PAIRS alternating pairs, each run one ``nlspectral`` CLI process of
the checkout's ``src/`` into a fresh output directory.  Their metrics are
the process's wall time, the ``metadata.wall_time_s`` of the
``*_summary.json`` the run wrote (NaN if it wrote none) and the process's
peak RSS, from ``os.wait4`` on that process (``RUSAGE_CHILDREN``'s
``ru_maxrss`` is the largest of all children waited for), summarized as
above under ``presets``, keyed by the config's name without ``.json``; a
run that exits nonzero is not ``correct``.  A child's peak also counts the
RSS it had at fork, this script's own, which is well below a preset's.

Last, each side runs the Tier-1 suite once (ROADMAP.md's command, with
derandomized hypothesis examples as in CI), parent first; ``tier1`` holds
its wall time, its passed count and its exit code.
"""

import argparse
import json
import math
import os
from pathlib import Path
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time

SIDES = ("parent", "change")
PAIRS = 10
PRESET_BETTER = {"wall_s": "lower", "wall_time_s": "lower", "peak_rss_mb": "lower"}
# a row of the presets table: | `crit01_symbol_bounds.json` | `symbols` | ...
PRESET_ROW = re.compile(r"^\| `(crit[^`]*)` \| `([^`]*)`", re.MULTILINE)


def parse_run(stdout):
    """The env, calibration and result lines of one ``run.py`` output."""
    lines = stdout.strip().splitlines()
    tagged = dict(line.split(" ", 1) for line in lines[:-1]
                  if line.startswith(("env ", "calibration_s ")))
    result = json.loads(lines[-1])
    cal = json.loads(tagged["calibration_s"])
    return {
        "env": json.loads(tagged["env"]),
        "calibration_s": statistics.median(cal["before"] + cal["after"]),
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def run_one(checkout, workload, seed):
    """One ``run.py`` process, parsed, with its minor page faults as ``minflt``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    return {**parse_run(out.stdout), "minflt": minflt}


def read_presets(readme):
    """The (config, subcommand) rows of the presets table in ``readme``, in its order."""
    return PRESET_ROW.findall(Path(readme).read_text())


def run_preset(checkout, command, config):
    """One CLI process of a preset: its wall time, its in-process wall time and its own peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "nlspectral.cli", command, "--config",
             str(Path("presets") / config), "--out", out],
            cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        summaries = [json.loads(p.read_text()) for p in Path(out).glob("*_summary.json")]
    inner = summaries[0]["metadata"]["wall_time_s"] if summaries else math.nan
    return {"metrics": {"wall_s": wall, "wall_time_s": inner,
                        "peak_rss_mb": usage.ru_maxrss / 1024.0},
            "correct": os.waitstatus_to_exitcode(status) == 0}


def run_tier1(checkout):
    """One timed Tier-1 run in the checkout: wall time, passed count and exit code."""
    env = dict(os.environ, HYPOTHESIS_PROFILE="ci",
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(checkout).resolve() / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    passed = re.findall(r"(\d+) passed", proc.stdout)
    return {"wall_s": wall, "passed": int(passed[-1]) if passed else 0,
            "exit": proc.returncode}


def alternate(run, label):
    """PAIRS pairs ``{side: run(side, i)}``: parent first in even pairs, change first in odd."""
    pairs = []
    for i in range(PAIRS):
        pair = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            pair[side] = run(side, i)
            print(f"{label} pair {i} {side}: {pair[side]['metrics']}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def preset_pass(checkouts, presets):
    """The summary of the pairs of each (config, subcommand) preset, with every run's metrics."""
    out = {}
    for config, command in presets:
        name = config.removesuffix(".json")
        pairs = alternate(lambda side, i: run_preset(checkouts[side], command, config), name)
        out[name] = {**summarize(pairs, PRESET_BETTER),
                     "runs": [{s: p[s]["metrics"] for s in SIDES} for p in pairs]}
    return out


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs, better):
    """Per-metric statistics of one workload's pairs.

    ``pairs`` is a list of ``{"parent": run, "change": run}`` with runs as
    ``parse_run`` returns them; ``better`` maps each metric to ``"lower"``
    or ``"higher"``.  A pair is a win when the change's value is strictly
    better than the parent's in the same pair.  ``beats_iqr`` holds when
    the change's median is better than the parent's by more than the
    parent's interquartile range.
    """
    out = {"pairs": len(pairs), "metrics": {}}
    for name, direction in better.items():
        sign = -1.0 if direction == "lower" else 1.0
        vals = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        stats = {s: _spread(vals[s]) for s in SIDES}
        diff = stats["change"]["median"] - stats["parent"]["median"]
        base = stats["parent"]["median"]
        out["metrics"][name] = {
            **stats,
            "median_diff": diff,
            "median_rel": diff / base if base else None,
            "wins": sum(sign * (c - p) > 0.0 for p, c in zip(vals["parent"], vals["change"])),
            "beats_iqr": sign * diff > stats["parent"]["iqr"],
        }
    for key in ("calibration_s", "minflt"):      # perfbench runs only
        if key in pairs[0]["parent"]:
            out[key] = {s: statistics.median(p[s][key] for p in pairs) for s in SIDES}
    out["correct"] = {s: all(p[s]["correct"] for p in pairs) for s in SIDES}
    return out


def _commit(checkout):
    """The checkout's short commit hash; a tree whose tracked files differ
    from that commit is refused, so the numbers always name their code."""
    git = ["git", "-C", str(checkout)]
    dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True, check=True).stdout
    if dirty.strip():
        raise SystemExit(f"{checkout}: uncommitted changes to tracked files")
    return subprocess.run(git + ["rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--tag", required=True)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}

    report = {"tag": args.tag,
              "protocol": {"pairs": PAIRS, "seeds": [0, PAIRS - 1],
                           "order": "parent first in even pairs, change first in odd"},
              "commits": {s: _commit(checkouts[s]) for s in SIDES},
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = alternate(lambda side, i: run_one(checkouts[side], workload, i), workload)
        summary = summarize(pairs, better)
        summary["runs"] = [{s: {k: p[s][k] for k in ("metrics", "calibration_s", "minflt")}
                            for s in SIDES} for p in pairs]
        report["workloads"][workload] = summary
        env = {s: pairs[0][s]["env"] for s in SIDES}
        report["src_lines"] = {s: env[s]["src_lines"] for s in SIDES}
        report["versions"] = {k: env["change"][k] for k in
                              ("python", "numpy", "scipy", "blas", "nproc", "machine")}
    report["presets"] = preset_pass(checkouts, read_presets(args.change / "presets" / "README.md"))
    report["tier1"] = {s: run_tier1(checkouts[s]) for s in SIDES}
    print(f"tier1: {report['tier1']}", file=sys.stderr)
    out = args.change / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
