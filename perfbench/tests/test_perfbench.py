"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Tiny runs of every workload must emit every metric named in BENCHMARK.json
with its unit; a wrong golden value must count as a failed operation, not
raise; the same seed must give the same inputs; a directory without the
library's sources must make the benchmark fail without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, out.stderr
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_wrong_golden_counts_as_failure(tmp_path):
    wl = WORKLOADS["cached2d"]("tiny", str(tmp_path))
    golden = run.observe(wl, 5)
    assert run.measure(wl, 5, 0, False, golden)["tally"].failed == 0

    key = "round1.velocity_l2"
    value, tol = golden[key]
    golden[key] = [value * (1.0 + 1e-3), tol]
    tally = run.measure(wl, 5, 0, False, golden)["tally"]
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.layer_failures == {"solvers": 1}
    assert any("round1" in f and "golden velocity_l2" in f for f in tally.failures)


def test_golden_file_covers_every_workload():
    golden = json.loads(run.GOLDEN.read_text())
    assert golden["seed"] == run.DEFAULT_SEED
    assert set(golden["workloads"]) == set(WORKLOADS)
    for values in golden["workloads"].values():
        assert values and all(len(v) == 2 and v[1] > 0.0 for v in values.values())


def fingerprint(items):
    def flat(v):
        if hasattr(v, "coeffs"):
            return v.coeffs.tobytes()
        if hasattr(v, "vec"):
            return v.vec.tobytes()
        return repr(v)
    return [{k: flat(v) for k, v in item.items()} for item in items]


def test_same_seed_same_inputs(tmp_path):
    off = Tracer(False)
    for name in ("sweep2d", "field3d", "bond1d"):
        wl = WORKLOADS[name]("tiny", str(tmp_path))
        a, b, c = (fingerprint(wl.prepare(None, 7, index, off)) for index in (2, 2, 3))
        assert a == b
        assert a != c


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench(tmp_path, "--workload", "bond1d", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
