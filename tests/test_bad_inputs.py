"""A fixed part of tools/bad_inputs.py's sweep, replayed through cli.main in process."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bad_inputs.py"
_SPEC = importlib.util.spec_from_file_location("bad_inputs", _PATH)
bad_inputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bad_inputs)

# leaves whose 16 values run in about 2 s together and between them give
# every documented exit: 3 (quad.tol = 1e-300), 1 (t1 = 1e-300, decay at
# 1e300 and delta = 3), 2 (t1 = 1e300, whose wave phase is past rounding)
# and the Lame pair that once escaped main
_LEAVES = [
    ("crit01_symbol_bounds.json", ("tolerances", "quad.tol")),
    ("crit02_stokes_convergence.json", ("system",)),
    ("crit04_helmholtz.json", ("case3d", "kernel", "delta")),
    ("crit05_vector_identity.json", ("orientation", "vector", 0)),
    ("crit06_rho_suite.json", ("mesh",)),
    ("crit08_korn_energy.json", ("lame_pairs", 0, 1)),
    ("crit09_navier_convergence.json", ("lame", 0)),
    ("crit10_evolution.json", ("times", "t1")),
    ("crit10_evolution.json", ("decay",)),
    ("crit11_divcurl_friedrichs.json", ("deltas", 0)),
    ("crit12_determinism.json", ("decay",)),
]


def test_leaves_reach_through_objects_and_lists():
    cfg = {"a": 1, "b": [2, {"c": "x"}], "d": {"e": None}}
    assert list(bad_inputs.leaves(cfg)) == [("a",), ("b", 0), ("b", 1, "c"), ("d", "e")]
    out = bad_inputs.replaced(cfg, ("b", 1, "c"), [])
    assert out == {"a": 1, "b": [2, {"c": []}], "d": {"e": None}}
    assert cfg["b"][1]["c"] == "x"


def test_replayed_runs_exit_as_documented(tmp_path):
    runs = []
    for i, (name, command, path, value, cfg) in enumerate(bad_inputs.cases()):
        if (name, path) in _LEAVES:
            out = tmp_path / str(i)
            out.mkdir()
            runs.append((name, path, value, bad_inputs.run_case(command, cfg, out)))
    assert len(runs) == 16 * len(_LEAVES)
    for name, path, value, result in runs:
        assert bad_inputs.as_documented(result), (name, path, value, result)
    assert {result["exit"] for *_, result in runs} == {0, 1, 2, 3}
    system = [r for name, path, _, r in runs if path == ("system",)]
    assert all("config.system" in r["message"] for r in system)


@pytest.mark.parametrize("result, ok", [
    ({"exit": 0, "failed_assertion": False}, True),
    ({"exit": 1, "failed_assertion": True}, True),
    ({"exit": 1, "failed_assertion": False}, False),
    ({"exit": 4, "failed_assertion": False}, False),
    ({"exit": None, "escaped": "TypeError: x"}, False),
])
def test_as_documented(result, ok):
    assert bad_inputs.as_documented(result) is ok
