"""The summary of tools/bench_pairs.py, on made-up runs (no benchmark runs)."""

import importlib.util
import json
import math
from pathlib import Path
import resource
import statistics
import subprocess

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "pass_frac": "higher"}


def _run(wall, frac=1.0, cal=0.02, minflt=0):
    return {"metrics": {"wall_s": wall, "pass_frac": frac}, "calibration_s": cal,
            "correct": frac == 1.0, "minflt": minflt}


def test_parse_run_reads_the_three_tagged_lines():
    env = {"python": "3.11.7", "src_lines": 3340}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
    out = "\n".join([
        "FAIL nothing here",
        "env " + json.dumps(env),
        "calibration_s " + json.dumps({"before": [3.0, 1.0, 2.0], "after": [5.0, 4.0]}),
        json.dumps(result),
    ])
    got = bench_pairs.parse_run(out + "\n")
    assert got == {"env": env, "calibration_s": 3.0, "correct": True,
                   "metrics": {"wall_s": 0.5}}


def test_summarize_medians_quartiles_and_wins():
    parent = [1.0, 1.2, 0.9, 1.1, 1.3, 1.0, 1.05, 0.95, 1.15, 1.25]
    change = [0.5, 0.6, 0.45, 0.55, 1.4, 0.5, 0.52, 0.48, 0.58, 0.62]
    pairs = [{"parent": _run(p, cal=0.02), "change": _run(c, cal=0.03)}
             for p, c in zip(parent, change)]
    out = bench_pairs.summarize(pairs, BETTER)
    wall = out["metrics"]["wall_s"]
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert wall["parent"] == {"median": statistics.median(parent), "q1": q1, "q3": q3,
                              "iqr": q3 - q1}
    assert wall["change"]["median"] == statistics.median(change)
    assert wall["wins"] == 9                      # pair 4 is the change's loss
    assert wall["median_diff"] == pytest.approx(statistics.median(change) - statistics.median(parent))
    assert wall["median_rel"] == pytest.approx(wall["median_diff"] / statistics.median(parent))
    assert wall["beats_iqr"] is True
    assert out["pairs"] == 10
    assert out["calibration_s"] == {"parent": 0.02, "change": 0.03}
    assert out["correct"] == {"parent": True, "change": True}


def test_summarize_respects_direction_and_ties():
    pairs = [{"parent": _run(1.0, frac=1.0), "change": _run(1.0, frac=f)}
             for f in (1.0, 0.5, 1.0)]
    out = bench_pairs.summarize(pairs, BETTER)
    assert out["metrics"]["wall_s"]["wins"] == 0          # a tie is no win
    assert out["metrics"]["wall_s"]["beats_iqr"] is False
    frac = out["metrics"]["pass_frac"]
    assert frac["wins"] == 0 and frac["beats_iqr"] is False   # higher is better
    assert out["correct"] == {"parent": True, "change": False}


def test_summarize_small_gain_inside_the_parents_spread():
    parent = [1.0, 2.0, 1.0, 2.0]
    change = [0.9, 1.9, 0.9, 1.9]
    pairs = [{"parent": _run(p), "change": _run(c)} for p, c in zip(parent, change)]
    wall = bench_pairs.summarize(pairs, BETTER)["metrics"]["wall_s"]
    assert wall["wins"] == 4
    assert wall["beats_iqr"] is False


def test_commit_names_a_clean_tree_and_refuses_a_dirty_one(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one")
    (tmp_path / "untracked.txt").write_text("left by a run\n")
    assert bench_pairs._commit(tmp_path) == git("rev-parse", "--short", "HEAD")
    (tmp_path / "a.txt").write_text("two\n")
    with pytest.raises(SystemExit, match="uncommitted"):
        bench_pairs._commit(tmp_path)


def test_summarize_medians_the_page_faults():
    faults = {"parent": [900, 100, 500, 700], "change": [40, 10, 30, 20]}
    pairs = [{s: _run(1.0, minflt=faults[s][i]) for s in ("parent", "change")}
             for i in range(4)]
    assert bench_pairs.summarize(pairs, BETTER)["minflt"] == {"parent": 600.0, "change": 25.0}


def test_run_one_counts_the_faults_of_its_child(tmp_path, monkeypatch):
    # a stand-in run.py that touches 16 MiB of fresh pages, then prints the
    # three tagged lines: its faults must show in the run's minflt
    bench = tmp_path / "perfbench"
    bench.mkdir()
    result = {"correct": True, "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
    (bench / "run.py").write_text(
        "import json\n"
        "pages = bytearray(16 << 20)\n"
        "for i in range(0, len(pages), 4096):\n"
        "    pages[i] = 1\n"
        "print('env ' + json.dumps({'src_lines': 1}))\n"
        "print('calibration_s ' + json.dumps({'before': [1.0], 'after': [1.0]}))\n"
        f"print({json.dumps(json.dumps(result))})\n")
    run = bench_pairs.run_one(tmp_path, "any", 0)
    assert run["metrics"] == {"wall_s": 0.5}
    assert run["minflt"] >= (16 << 20) // 4096


def test_run_preset_takes_each_processs_own_peak_rss(tmp_path):
    # a stand-in CLI that checks its arguments, touches the MiB of fresh pages
    # its subcommand names and exits 3 when that is 0; otherwise it writes a
    # summary whose wall_time_s is that count.  A child's peak counts the RSS
    # it had at fork, this process's, so the big run is sized past it; the
    # small run after it must report its own peak again, where
    # RUSAGE_CHILDREN would give the largest of all children
    cli = tmp_path / "src" / "nlspectral"
    cli.mkdir(parents=True)
    (cli / "__init__.py").write_text("")
    (cli / "cli.py").write_text(
        "import json, os, sys\n"
        "command, flag, config, out_flag, out = sys.argv[1:]\n"
        "if (flag, config, out_flag) != ('--config', os.path.join('presets', 'p.json'), '--out')"
        " or not os.path.isdir(out):\n"
        "    sys.exit(5)\n"
        "pages = bytearray(int(command) << 20)\n"
        "for i in range(0, len(pages), 4096):\n"
        "    pages[i] = 1\n"
        "if not pages:\n"
        "    sys.exit(3)\n"
        "with open(os.path.join(out, 'p_summary.json'), 'w') as fh:\n"
        "    json.dump({'metadata': {'wall_time_s': float(command)}}, fh)\n")
    mib = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0) + 32
    small, big, again = (bench_pairs.run_preset(tmp_path, str(m), "p.json") for m in (0, mib, 0))
    assert big["correct"] and not small["correct"] and not again["correct"]
    assert big["metrics"]["wall_time_s"] == float(mib)
    assert math.isnan(small["metrics"]["wall_time_s"])        # it wrote no summary
    assert big["metrics"]["peak_rss_mb"] >= mib
    assert again["metrics"]["peak_rss_mb"] <= small["metrics"]["peak_rss_mb"] + 8.0
    assert again["metrics"]["peak_rss_mb"] < big["metrics"]["peak_rss_mb"] - 16.0
    assert big["metrics"]["wall_s"] > 0.0


def test_preset_pass_alternates_and_summarizes_without_calibration(monkeypatch):
    calls = []

    def runner(checkout, command, config):
        calls.append((checkout, command, config))
        wall = {"p": 2.0, "c": 1.0}[checkout] + 0.01 * len(calls)
        return {"metrics": {"wall_s": wall, "wall_time_s": 0.5, "peak_rss_mb": 60.0},
                "correct": True}

    monkeypatch.setattr(bench_pairs, "run_preset", runner)
    presets = [("crit01_symbol_bounds.json", "symbols"),
               ("crit11_divcurl_friedrichs.json", "divcurl")]
    out = bench_pairs.preset_pass({"parent": "p", "change": "c"}, presets)
    pairs = bench_pairs.PAIRS
    assert list(out) == ["crit01_symbol_bounds", "crit11_divcurl_friedrichs"]
    assert calls[:2 * pairs:2] == [("p" if i % 2 == 0 else "c", "symbols",
                                    "crit01_symbol_bounds.json") for i in range(pairs)]
    assert [c[1] for c in calls[2 * pairs:]] == ["divcurl"] * 2 * pairs
    crit01 = out["crit01_symbol_bounds"]
    assert crit01["pairs"] == pairs and crit01["correct"] == {"parent": True, "change": True}
    assert crit01["metrics"]["wall_s"]["wins"] == pairs
    assert crit01["metrics"]["peak_rss_mb"]["wins"] == 0         # a tie is no win
    assert crit01["metrics"]["wall_time_s"]["wins"] == 0
    assert set(crit01["metrics"]["wall_s"]["parent"]) == {"median", "q1", "q3", "iqr"}
    assert "calibration_s" not in crit01 and "minflt" not in crit01
    assert crit01["runs"][0] == {
        "parent": {"wall_s": 2.01, "wall_time_s": 0.5, "peak_rss_mb": 60.0},
        "change": {"wall_s": 1.02, "wall_time_s": 0.5, "peak_rss_mb": 60.0}}


def test_read_presets_gives_every_row_of_the_table_as_ci_does():
    root = _PATH.parents[1]
    presets = bench_pairs.read_presets(root / "presets" / "README.md")
    assert len(presets) == 12
    assert presets[0] == ("crit01_symbol_bounds.json", "symbols")
    assert presets[-1] == ("crit12_determinism.json", "stokes")
    assert sorted(c for c, _ in presets) == sorted(p.name for p in (root / "presets").glob("*.json"))


def test_run_tier1_times_the_suite_and_counts_its_passes(tmp_path):
    # a stand-in checkout whose suite has two passing tests and one failing
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_stand_in.py").write_text(
        "def test_one():\n    pass\n\n"
        "def test_two():\n    pass\n\n"
        "def test_three():\n    assert False\n")
    run = bench_pairs.run_tier1(tmp_path)
    assert run["passed"] == 2 and run["exit"] == 1
    assert run["wall_s"] > 0.0
