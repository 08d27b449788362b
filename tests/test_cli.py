import copy
import json
import os
import subprocess
import sys

import pytest

import nlspectral
from nlspectral import cli
from nlspectral.errors import ConfigError
from nlspectral.experiments import RUNNERS, fit_slope, passed


PRESETS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "presets")


def _preset(name):
    with open(os.path.join(PRESETS, name)) as fh:
        return json.load(fh)


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SMALL_STOKES = {
    "experiment": "probe",
    "kernel": {"family": "constant", "dimension": 2, "delta": 0.1},
    "orientation": {"angle": 0.7},
    "bound": 4,
    "decay": 2.0,
    "seed": 3,
}

SMALL_ORACLE = {k: v for k, v in SMALL_STOKES.items() if k != "decay"}

SMALL_HELMHOLTZ = {
    "experiment": "hh",
    "seed": 2,
    "case2d": {"kernel": {"family": "constant", "dimension": 2, "delta": 0.1},
               "orientation": {"angle": 0.3}, "bound": 4},
}

SMALL_SWEEP = {
    "experiment": "sweep",
    "system": "stokes",
    "kernel": {"family": "constant", "dimension": 2},
    "deltas": [0.2, 0.1, 0.05],
    "bound": 4,
}

SMALL_EVOLUTION = dict(SMALL_SWEEP, system="evolution", times={"t1": 0.2, "steps": 4})

SMALL_DIVCURL = {
    "experiment": "dc",
    "kernel": {"family": "constant", "dimension": 3},
    "deltas": [0.2, 0.1],
    "bound": 4,
}


def test_fit_slope_linear():
    deltas = [0.2, 0.1, 0.05, 0.025]
    errs = [3.0 * d for d in deltas]
    assert fit_slope(deltas, errs) == pytest.approx(1.0, abs=1e-10)


def test_fit_slope_quadratic():
    deltas = [0.2, 0.1, 0.05, 0.025]
    errs = [0.7 * d * d for d in deltas]
    assert fit_slope(deltas, errs) == pytest.approx(2.0, abs=1e-10)


def test_fit_slope_excludes_floor_points():
    deltas = [0.2, 0.1, 0.05, 0.025, 0.0125]
    errs = [3.0 * d for d in deltas[:-1]] + [1e-15]
    assert fit_slope(deltas, errs) == pytest.approx(1.0, abs=1e-10)


def test_fit_slope_needs_three_points():
    with pytest.raises(ConfigError):
        fit_slope([0.1, 0.05], [1.0, 0.5])


def test_cli_success_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_STOKES)
    out = tmp_path / "out"
    rc = cli.main(["stokes", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert (out / "probe.csv").exists()
    summary = json.loads((out / "probe_summary.json").read_text())
    assert all(a["passed"] for a in summary["assertions"].values())
    assert summary["metadata"]["config_sha256"]


def test_wall_time_does_not_follow_a_stepping_wall_clock(tmp_path, monkeypatch):
    # a wall clock that steps back a minute at every reading leaves the
    # run's wall_time_s a small positive number
    readings = iter(range(10**6))
    monkeypatch.setattr(cli.time, "time", lambda: 2e9 - 60.0 * next(readings))
    cfg = write_cfg(tmp_path, SMALL_STOKES)
    assert cli.main(["stokes", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "probe_summary.json").read_text())
    assert 0.0 <= summary["metadata"]["wall_time_s"] < 60.0


def test_cli_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_STOKES)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["stokes", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["stokes", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "probe.csv").read_bytes() == (out2 / "probe.csv").read_bytes()


def test_cli_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    out = tmp_path / "out"
    rc = cli.main(["stokes", "--config", str(path), "--out", str(out)])
    assert rc == 2
    assert not out.exists() or not any(out.iterdir())


def test_cli_missing_config_exits_2(tmp_path, monkeypatch):
    # --config is the one way to name the config; the environment has no copy
    monkeypatch.setenv("NLSPECTRAL_CONFIG", write_cfg(tmp_path, SMALL_STOKES))
    rc = cli.main(["stokes", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_invalid_schema_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, {"kernel": {"family": "constant", "dimension": 2,
                                          "delta": 0.1}, "bound": 1})
    rc = cli.main(["stokes", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_increasing_deltas_rejected(tmp_path):
    cfg = write_cfg(tmp_path, {
        "system": "stokes",
        "kernel": {"family": "constant", "dimension": 2},
        "deltas": [0.05, 0.1, 0.2, 0.4],
        "bound": 4,
    })
    rc = cli.main(["convergence", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_quadrature_failure_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, dict(SMALL_STOKES, tolerances={"quad.tol": 1e-18}))
    rc = cli.main(["stokes", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3


def test_preset_files_are_valid_json():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    presets = sorted(p for p in os.listdir(os.path.join(here, "presets"))
                     if p.endswith(".json"))
    assert len(presets) == 12
    for name in presets:
        with open(os.path.join(here, "presets", name)) as fh:
            json.load(fh)


@pytest.mark.parametrize("panels", [1.9, True, "2", 1])
def test_cli_non_integral_panels_exits_2(tmp_path, capsys, panels):
    # quad.panels is not a key: any value of it, whole or not, is unknown
    cfg = write_cfg(tmp_path, dict(SMALL_STOKES, tolerances={"quad.panels": panels}))
    rc = cli.main(["stokes", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown key 'quad.panels'" in capsys.readouterr().err


@pytest.mark.parametrize("bound", [8.9, "8", True])
def test_cli_non_integer_bound_exits_2(tmp_path, capsys, bound):
    cfg = write_cfg(tmp_path, dict(SMALL_STOKES, bound=bound))
    rc = cli.main(["stokes", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "lattice bound" in capsys.readouterr().err


def test_cli_energy1d_and_helmholtz_smoke(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": "dbl",
        "checks": ["double"],
        "pairs": [[0.2, 0.05]],
        "ximax": 16,
    })
    assert cli.main(["energy-1d", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    cfg2 = write_cfg(tmp_path, {
        "experiment": "hh",
        "seed": 2,
        "case2d": {"kernel": {"family": "constant", "dimension": 2, "delta": 0.1},
                   "orientation": {"angle": 0.3}, "bound": 4},
    }, name="cfg2.json")
    assert cli.main(["helmholtz", "--config", cfg2, "--out", str(tmp_path / "b")]) == 0


@pytest.mark.parametrize("key, tol", [
    ("quad.tol", True), ("quad.tol", False), ("quad.tol", "1e-10"), ("quad.tol", 0),
    ("quad.tol", -1e-10), ("quad.tol", None), ("quad.tol", 3), ("quad.tol", float("nan")),
])
def test_cli_bad_tolerance_exits_2(tmp_path, capsys, key, tol):
    cfg = write_cfg(tmp_path, dict(SMALL_STOKES, tolerances={key: tol}))
    rc = cli.main(["stokes", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o" / "probe.csv").exists()


@pytest.mark.parametrize("tol", [True, "1e-12", 0.0, float("inf"), [1e-12]])
def test_residual_tolerance_validated(tmp_path, capsys, tol):
    cfg = write_cfg(tmp_path, dict(SMALL_HELMHOLTZ, tolerances={"residual": tol}))
    rc = cli.main(["helmholtz", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "residual" in capsys.readouterr().err


BAD_CONFIGS = {
    "top-level typo": ("stokes", dict(SMALL_STOKES, decya=9.0), "'decya'"),
    "kernel typo": ("stokes", dict(SMALL_STOKES, kernel=dict(SMALL_STOKES["kernel"], betaa=1.5)),
                    "'betaa'"),
    # the kernel families are constant, fractional and sine, which take no
    # profile values
    "kernel family tabulated": ("stokes", dict(SMALL_STOKES, kernel=dict(
        SMALL_STOKES["kernel"], family="tabulated")), "unknown kernel family"),
    "kernel values": ("stokes", dict(SMALL_STOKES, kernel=dict(
        SMALL_STOKES["kernel"], values=[3.0, 2.0, 1.0, 0.5])), "unknown key 'values'"),
    "tolerance typo": ("stokes", dict(SMALL_STOKES, tolerances={"quad.tl": 1e-8}), "'quad.tl'"),
    "seed string": ("stokes", dict(SMALL_STOKES, seed="x"), "seed"),
    "seed float": ("stokes", dict(SMALL_STOKES, seed=7.9), "seed"),
    "seed bool": ("stokes", dict(SMALL_STOKES, seed=True), "seed"),
    "decay string": ("stokes", dict(SMALL_STOKES, decay="2"), "decay"),
    "decay huge integer": ("stokes", dict(SMALL_STOKES, decay=10**400), "decay"),
    "orientation typo": ("stokes", dict(SMALL_STOKES, orientation={"angel": 0.7}), "'angel'"),
    "orientation zero": ("stokes", dict(SMALL_STOKES, orientation={"vector": [0.0, 0.0]}),
                         "orientation.vector"),
    "divcurl check typo": ("divcurl", dict(SMALL_DIVCURL, checks=["frriedrichs"]),
                           "'frriedrichs'"),
    "divcurl no checks": ("divcurl", dict(SMALL_DIVCURL, checks=[]), "checks"),
    "divcurl angle": ("divcurl", dict(SMALL_DIVCURL, orientation={"angle": 0.7}),
                      "orientation"),
    "divcurl swept delta": ("divcurl", dict(SMALL_DIVCURL, kernel=dict(SMALL_DIVCURL["kernel"],
                                                                      delta=0.5)), "delta"),
    "divcurl unused deltas": ("divcurl", dict(SMALL_DIVCURL, checks=["vector_identity"]),
                              "deltas"),
    "energy-1d check typo": ("energy-1d", {"checks": ["rh0"]}, "'rh0'"),
    "energy-1d float mesh": ("energy-1d", {"mesh": 2048.0}, "mesh"),
    "energy-1d bool ximax": ("energy-1d", {"checks": ["double"], "ximax": True}, "ximax"),
    "energy-1d quad.tol": ("energy-1d", {"tolerances": {"quad.tol": 1e-8}}, "'quad.tol'"),
    "helmholtz no case": ("helmholtz", {"experiment": "hh", "seed": 2}, "case2d"),
    "helmholtz case typo": ("helmholtz", dict(SMALL_HELMHOLTZ, case2d=dict(
        SMALL_HELMHOLTZ["case2d"], bonud=4)), "'bonud'"),
    "convergence angles": ("convergence", dict(SMALL_SWEEP, angles=[0.3, 1.2]), "'angles'"),
    "convergence swept delta": ("convergence", dict(SMALL_SWEEP, kernel=dict(
        SMALL_SWEEP["kernel"], delta=0.5)), "delta"),
    "convergence lame": ("convergence", dict(SMALL_SWEEP, lame=[1.0, 1.0]), "'lame'"),
    "convergence system": ("convergence", dict(SMALL_SWEEP, system="stoke"), "config.system"),
    "times typo": ("convergence", dict(SMALL_EVOLUTION, times={"step": 4}), "'step'"),
    "times float steps": ("convergence", dict(SMALL_EVOLUTION, times={"steps": 4.0}), "steps"),
    "times bool t1": ("convergence", dict(SMALL_EVOLUTION, times={"t1": True}), "t1"),
    "lame string": ("convergence", dict(SMALL_SWEEP, system="navier", lame=["1", 1.0]), "lame"),
    "lame inadmissible": ("convergence", dict(SMALL_EVOLUTION, lame=[1.0, -2.0]), "lame"),
    "convergence lame inadmissible": ("convergence", dict(SMALL_SWEEP, system="navier",
                                                          lame=[0.0, 1.0]), "lame"),
    "navier lame_pairs inadmissible": ("navier", dict(SMALL_ORACLE, lame_pairs=[
        [1.0, 1.0], [1.0, -2.5]]), "lame_pairs[1]"),
    # a modulus near 0 overflows the error norms of the solves, and that
    # RuntimeWarning used to escape main
    "crit09 lame near zero": ("convergence", dict(_preset("crit09_navier_convergence.json"),
                                                  lame=[1e-300, 1.0]), "config.lame"),
    "lame lambda + 2 mu near zero": ("convergence", dict(SMALL_EVOLUTION,
                                                         lame=[1e-99, -1.99999e-99]), "lame"),
    "energy-1d window half-width": ("energy-1d", {"checks": ["double"], "pairs": [[0.2, 0.0]]},
                                    "pairs[0][1]"),
    "oracle decay": ("oracle", SMALL_STOKES, "'decay'"),
    "oracle float pairs": ("oracle", dict(SMALL_ORACLE, pairs=2.5), "pairs"),
    "oracle string grid": ("oracle", dict(SMALL_ORACLE, grid="64"), "grid"),
    "oracle coarse grid": ("oracle", dict(SMALL_ORACLE, grid=3), "grid"),
    # the schema takes a kernel of any dimension; the symbol table refuses it
    "stokes 1D kernel": ("stokes", {"kernel": {"family": "constant", "dimension": 1,
                                               "delta": 0.5}}, "dimension 1"),
    # a horizon whose delta^(d+1) overflows or underflows, and a lattice past
    # the cap on delta sqrt(d) N: each used to raise, run on or exit 3
    "energy-1d huge delta": ("energy-1d", {"checks": ["rho"], "delta": 1e300}, "delta=1e+300"),
    "energy-1d tiny delta": ("energy-1d", {"checks": ["rho"], "delta": 1e-300},
                             "delta=1e-300"),
    "energy-1d huge pair delta": ("energy-1d", {"checks": ["double"], "pairs": [[1e300, 0.05]]},
                                  "delta=1e+300"),
    "stokes huge delta": ("stokes", dict(SMALL_STOKES, kernel=dict(
        SMALL_STOKES["kernel"], delta=1e300)), "delta=1e+300"),
    "stokes delta past the lattice cap": ("stokes", dict(SMALL_STOKES, kernel=dict(
        SMALL_STOKES["kernel"], delta=1e5)), "delta*sqrt(d)*N"),
    # the key of the retired symbol-build pool
    "crit01 threads": ("symbols", dict(_preset("crit01_symbol_bounds.json"), threads=1),
                       "unknown key 'threads' in config"),
    # tolerances that are not an object
    **{f"crit12 tolerances {bad!r}": (
        "stokes", dict(_preset("crit12_determinism.json"), tolerances=bad),
        "config.tolerances") for bad in ([], None, "x", 3)},
    # the experiment names the output files: a path escaped --out or raised,
    # and "" wrote ".csv"
    **{f"experiment {bad!r}": ("stokes", dict(SMALL_STOKES, experiment=bad),
                               "config.experiment")
       for bad in ("a/b", "x\u0000y", "../escaped", "", ".hidden", "..")},
    "symbols orientation": ("symbols", {"kernels": [{"family": "constant", "dimension": 2}],
                                        "deltas": [0.1], "orientation": {"angle": 0.3}},
                            "'orientation'"),
}


@pytest.mark.parametrize("command, payload, named", BAD_CONFIGS.values(),
                         ids=list(BAD_CONFIGS))
def test_cli_bad_config_exits_2(tmp_path, capsys, command, payload, named):
    # neither the output directory nor its missing parent is made
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "o" / "run"
    rc = cli.main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("below", [False, True], ids=["a file", "below a file"])
def test_cli_out_that_is_or_lies_below_a_file_exits_2(tmp_path, capsys, below):
    # the file is left as it was, and the message names the path
    cfg = write_cfg(tmp_path, SMALL_STOKES)
    blocker = tmp_path / "taken"
    blocker.write_text("mine\n")
    out = blocker / "run" if below else blocker
    assert cli.main(["stokes", "--config", cfg, "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    assert blocker.read_text() == "mine\n"


def test_divcurl_identity_and_sweep_in_one_config():
    # the identity checks use the kernel's own horizon, the solve sweeps deltas
    payload = dict(SMALL_DIVCURL, checks=["vector_identity", "consistency"],
                   kernel=dict(SMALL_DIVCURL["kernel"], delta=0.1))
    _, summary = RUNNERS["divcurl"](payload)
    assert set(summary["assertions"]) == {"vector_identity", "curl_of_gradient",
                                          "consistency_residual", "friedrichs_variation"}
    assert passed(summary)


@pytest.mark.parametrize("command, payload", [
    ("stokes", SMALL_STOKES), ("helmholtz", SMALL_HELMHOLTZ), ("convergence", SMALL_SWEEP),
    ("energy-1d", {"checks": ["double"], "pairs": [[0.2, 0.05]], "ximax": 8}),
])
def test_runner_leaves_config_unchanged(command, payload):
    cfg = copy.deepcopy(payload)
    RUNNERS[command](cfg)
    assert cfg == payload


def test_symbol_sweep_computes_each_tables_bounds_once(monkeypatch):
    # crit01's sweep, shrunk: the bounds it reports are the ones that the
    # table's validation computed, and its one lattice takes one np.unique
    # of |xi|^2, however many tables share it
    import functools

    import numpy as np

    from nlspectral import fields as fl, symbols as sym

    calls = []
    bounds, unique = sym.SymbolTable.bounds.func, np.unique
    counted = functools.cached_property(lambda tab: calls.append("bounds") or bounds(tab))
    counted.__set_name__(sym.SymbolTable, "bounds")
    monkeypatch.setattr(sym.SymbolTable, "bounds", counted)
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append("unique") or unique(*a, **k))
    fl.lattice.cache_clear()
    with open(os.path.join(PRESETS, "crit01_symbol_bounds.json")) as fh:
        cfg = dict(json.load(fh), angles=[0.0, 2.356194490192345], bound=8)
    _, summary = RUNNERS["symbols"](cfg)
    assert passed(summary)
    tables = len(cfg["kernels"]) * len(cfg["deltas"]) * len(cfg["angles"])
    assert sorted(calls) == ["bounds"] * tables + ["unique"]


def test_passed_needs_an_assertion():
    assert not passed({"assertions": {}})
    ok = {"passed": True, "value": 0.0, "threshold": 1.0, "comparison": "le"}
    assert passed({"assertions": {"a": ok}})
    assert not passed({"assertions": {"a": ok, "b": dict(ok, passed=False)}})


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or of a scipy submodule now fails
import nlspectral.cli
out, runs = sys.argv[1], sys.argv[2:]
for command, cfg in zip(runs[::2], runs[1::2]):
    assert nlspectral.cli.main([command, "--config", cfg, "--out", out]) == 0, (command, cfg)
"""

# every preset under its subcommand, shrunk where it is slow
_PRESET_RUNS = [
    ("crit01_symbol_bounds.json", "symbols", {"angles": [0.0, 2.356194490192345], "bound": 8}),
    ("crit02_stokes_convergence.json", "convergence", {}),
    ("crit03_adjoint_oracle.json", "oracle", {"pairs": 5, "grid": 32}),
    ("crit04_helmholtz.json", "helmholtz", {}),
    ("crit05_vector_identity.json", "divcurl", {}),
    ("crit06_rho_suite.json", "energy-1d", {"mesh": 256}),
    ("crit07_double_laplacian.json", "energy-1d", {"ximax": 16}),
    ("crit08_korn_energy.json", "navier", {}),
    ("crit09_navier_convergence.json", "convergence", {}),
    ("crit10_evolution.json", "convergence", {}),
    ("crit11_divcurl_friedrichs.json", "divcurl", {}),
    ("crit12_determinism.json", "stokes", {}),
]


def test_every_subcommand_runs_without_scipy(tmp_path):
    # a fresh interpreter in which scipy cannot be imported: numpy is the
    # library's only dependency at run time
    runs = []
    for i, (preset, command, shrink) in enumerate(_PRESET_RUNS):
        with open(os.path.join(PRESETS, preset)) as fh:
            runs += [command, write_cfg(tmp_path, dict(json.load(fh), **shrink), f"{i}.json")]
    assert sorted(set(runs[::2])) == sorted(RUNNERS)
    done = _fresh_interpreter(_WITHOUT_SCIPY, str(tmp_path / "out"), *runs)
    assert done.returncode == 0, done.stderr


_STAR_IMPORT = """
from nlspectral import *
import nlspectral
missing = [name for name in nlspectral.__all__ if name not in globals()]
assert not missing and len(set(nlspectral.__all__)) == len(nlspectral.__all__), missing
"""


def test_star_import_resolves_every_public_name():
    # the star import itself raises AttributeError for a name of __all__
    # that the package no longer defines
    done = _fresh_interpreter(_STAR_IMPORT)
    assert done.returncode == 0, done.stderr


def _fresh_interpreter(code, *args):
    """Run ``code`` in a new Python that imports this checkout's nlspectral."""
    src = os.path.dirname(os.path.dirname(nlspectral.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True)


def test_threads_flag_exits_2(tmp_path, capsys):
    # tables are built one after another; the flag of the retired pool is
    # an argparse error
    config = os.path.join(PRESETS, "crit01_symbol_bounds.json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["symbols", "--config", config, "--out", str(tmp_path), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--seed", "99"], ["--tol-override", "quad.tol=1e-8"]],
                         ids=["seed", "tol-override"])
def test_override_flags_exit_2(tmp_path, capsys, flag):
    # the config's seed and tolerances are the only way to set them
    cfg = write_cfg(tmp_path, SMALL_STOKES)
    with pytest.raises(SystemExit) as exc:
        cli.main(["stokes", "--config", cfg, "--out", str(tmp_path / "o"), *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["stokes-evolve", "navier-evolve"])
def test_evolve_subcommands_exit_2(tmp_path, capsys, command):
    # both evolutions run under convergence with system evolution (crit10)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", write_cfg(tmp_path, SMALL_STOKES)])
    assert exc.value.code == 2
    assert command in capsys.readouterr().err


@pytest.mark.parametrize("vector", [[1e308, 1e308, 0.0], [3e-200, 4e-200, 0.0]],
                         ids=["norm-overflows", "norm-underflows"])
def test_helmholtz_orientation_vector_far_from_unit_scale(tmp_path, vector):
    # a finite, nonzero vector whose norm computed directly is inf or 0
    with open(os.path.join(PRESETS, "crit04_helmholtz.json")) as fh:
        payload = json.load(fh)
    payload["case3d"]["orientation"]["vector"] = vector
    cfg = write_cfg(tmp_path, payload)
    assert cli.main(["helmholtz", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("lam, code", [(1e300, 2), (1e6, 0)])
def test_evolution_wave_phase_past_rounding_exits_2(tmp_path, capsys, lam, code):
    # crit10 with mu = 1: a phase of about 1.6e154 is refused before any
    # table is built, one of about 1.6e4 runs and passes
    with open(os.path.join(PRESETS, "crit10_evolution.json")) as fh:
        payload = json.load(fh)
    payload["lame"] = [1.0, lam]
    cfg = write_cfg(tmp_path, payload)
    assert cli.main(["convergence", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    if code == 2:
        err = capsys.readouterr().err
        assert "config.lame" in err and "config.times" in err
        assert not (tmp_path / "out").exists()


def test_a_second_cli_run_reuses_the_radial_cache_and_writes_the_same_csv(tmp_path,
                                                                           radial_passes):
    # the second run of the same config computes no radial sum, and its CSV
    # has the bytes of the first run's, which began with an empty cache
    cfg = write_cfg(tmp_path, SMALL_STOKES)
    counts, bodies = [], []
    for run in ("first", "second"):
        assert cli.main(["stokes", "--config", cfg, "--out", str(tmp_path / run)]) == 0
        counts.append(len(radial_passes))
        (csv,) = (tmp_path / run).glob("*.csv")
        bodies.append(csv.read_bytes())
    assert counts[0] >= 2 and counts[1] == counts[0]
    assert bodies[0] == bodies[1]
