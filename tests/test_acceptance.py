"""Acceptance suite: one test per shipped preset, one pass/fail line each.

Every preset under presets/ encodes one acceptance experiment at its stated
tolerance; these tests execute them through the same runners the CLI uses
and fail if any embedded assertion fails (or a runtime budget is blown).
Each CSV is also compared with ``golden_presets.json``, every preset's CSV
cells as the CLI wrote them before the config schema and the closed-form
div-curl solve: strings exactly, numbers to 1e-10 relative with a 1e-13
absolute floor (the machine-zero residual cells).  Re-record it only with
a change that means to move those values.  Run with -s to see the
per-criterion lines.
"""

import csv
import json
import os
import time

import pytest

from nlspectral import cli
from nlspectral.experiments import RUNNERS, passed
from nlspectral.results import write_csv

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESETS = os.path.join(HERE, "presets")
with open(os.path.join(HERE, "tests", "golden_presets.json")) as fh:
    GOLDEN = json.load(fh)

CRITERIA = [
    ("crit01_symbol_bounds.json", "symbols", 60.0),
    ("crit02_stokes_convergence.json", "convergence", 120.0),
    ("crit03_adjoint_oracle.json", "oracle", None),
    ("crit04_helmholtz.json", "helmholtz", None),
    ("crit05_vector_identity.json", "divcurl", None),
    ("crit06_rho_suite.json", "energy-1d", None),
    ("crit07_double_laplacian.json", "energy-1d", None),
    ("crit08_korn_energy.json", "navier", None),
    ("crit09_navier_convergence.json", "convergence", None),
    ("crit10_evolution.json", "convergence", None),
    ("crit11_divcurl_friedrichs.json", "divcurl", None),
]


def load(name):
    with open(os.path.join(PRESETS, name)) as fh:
        return json.load(fh)


def assert_golden(preset, csv_path):
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    golden = GOLDEN[preset]
    assert [len(r) for r in rows] == [len(r) for r in golden], preset
    for got_row, want_row in zip(rows, golden):
        for got, want in zip(got_row, want_row):
            try:
                g, w = float(got), float(want)
            except ValueError:
                assert got == want, (preset, got_row, want_row)
                continue
            assert abs(g - w) <= max(1e-10 * abs(w), 1e-13), (preset, got_row, want_row)


def report(name, summary, elapsed, budget):
    ok = passed(summary)
    within = budget is None or elapsed <= budget
    verdict = "PASS" if ok and within else "FAIL"
    extra = "" if budget is None else f" [{elapsed:.1f}s / budget {budget:.0f}s]"
    print(f"{verdict} {name}{extra}")
    for key, entry in sorted(summary["assertions"].items()):
        mark = "ok" if entry["passed"] else "FAILED"
        print(f"     {mark:>6} {key}: value={entry['value']:.3e} "
              f"{entry['comparison']} {entry['threshold']:.3e}")
    return ok, within


@pytest.mark.parametrize("preset,command,budget", CRITERIA,
                         ids=[c[0].split("_")[0] for c in CRITERIA])
def test_criterion(preset, command, budget, tmp_path):
    cfg = load(preset)
    started = time.time()
    table, summary = RUNNERS[command](cfg)
    elapsed = time.time() - started
    ok, within = report(preset, summary, elapsed, budget)
    assert ok, f"{preset}: assertion failures: " + ", ".join(
        k for k, v in summary["assertions"].items() if not v["passed"])
    assert within, f"{preset}: runtime {elapsed:.1f}s exceeded budget {budget}s"
    write_csv(table, tmp_path / "out.csv")
    assert_golden(preset, tmp_path / "out.csv")


def test_criterion_12_determinism(tmp_path):
    preset = os.path.join(PRESETS, "crit12_determinism.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["stokes", "--config", preset, "--out", str(out1)]) == 0
    assert cli.main(["stokes", "--config", preset, "--out", str(out2)]) == 0
    b1 = (out1 / "determinism_probe.csv").read_bytes()
    b2 = (out2 / "determinism_probe.csv").read_bytes()
    identical = b1 == b2
    print(("PASS" if identical else "FAIL") + " crit12_determinism.json")
    assert identical
    assert_golden("crit12_determinism.json", out1 / "determinism_probe.csv")


def test_golden_covers_every_preset():
    assert sorted(GOLDEN) == sorted(p for p in os.listdir(PRESETS) if p.endswith(".json"))
