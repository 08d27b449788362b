"""Batch experiment runners behind the command-line driver.

Each runner reads its config through its entry in ``SCHEMAS`` (every key it
reads, with its default), which rejects an unknown key at any level or a
value of the wrong type with ConfigError before any work starts and leaves
the dict as it is.  It then performs one experiment (symbol bound sweeps,
convergence studies, identity checks, the 1D energy suite, ...) and returns
a deterministic ResultTable and a summary with one pass/fail per assertion.
A runner is called as runner(cfg) and writes no file: the command-line
driver writes the table and the summary.
"""

import itertools
import math
import os
import sys

import numpy as np

from . import onedim, operators as ops, solvers as sol
from .errors import ConfigError
from .fields import SpectralField, l2_norm, random_field, s_norm, evaluate, grid_points
from .kernels import from_config, normalize
from .results import ResultTable
from .symbols import Orientation, build_table, local_table


def fit_slope(deltas, errors):
    """Least-squares slope of log error against log delta.

    Floor-dominated pairs (error at most 1e-13) are excluded; at least three
    surviving pairs are required.
    """
    pairs = [(d, e) for d, e in zip(deltas, errors) if e > 1e-13]
    if len(pairs) < 3:
        raise ConfigError("need at least 3 positive (delta, error) pairs above the floor")
    x = np.log([p[0] for p in pairs])
    y = np.log([p[1] for p in pairs])
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# config schema: a reader turns one JSON value into a typed value, or raises
# ConfigError naming the value's path ``where``
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _block(spec):
    """Reader of a JSON object with the keys of ``spec``: {key: (reader, default)};
    an absent key takes its default, read like a given value (None stays None)."""
    def read(value, where):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object, got {value!r}")
        for key in value:
            if key not in spec:
                raise ConfigError(f"unknown key {key!r} in {where}")
        out = {}
        for key, (reader, default) in spec.items():
            if key in value:
                out[key] = reader(value[key], f"{where}.{key}")
            elif default is _REQUIRED:
                raise ConfigError(f"{where} is missing required key {key!r}")
            else:
                out[key] = None if default is None else reader(default, f"{where}.{key}")
        return out
    return read


def _value(ok, what, cast=lambda v: v):
    def read(value, where):
        if not ok(value):
            raise ConfigError(f"{where} must be {what}, got {value!r}")
        return cast(value)
    return read


def _list(item, size=None):
    def read(value, where):
        if not isinstance(value, list) or not value or size not in (None, len(value)):
            what = "a non-empty list" if size is None else f"a list of {size} entries"
            raise ConfigError(f"{where} must be {what}, got {value!r}")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return read


def _real(v):  # finite, and so convertible to float
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _whole(least=-math.inf, what="a whole number"):
    return _value(lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least, what)


def _one_of(*names):
    return _value(lambda v: v in names, "one of " + ", ".join(names))


_text = _value(lambda v: isinstance(v, str), "a string")
_file_name = _value(lambda v: isinstance(v, str) and v[:1] not in ("", ".")
                    and not {"/", "\0", os.sep, os.altsep} & set(v),
                    "a plain file name (no path separator or NUL, not starting with '.')")
_finite = _value(_real, "a finite number", float)
_positive = _value(lambda v: _real(v) and v > 0.0, "a positive number", float)
_bound = _whole(2, "a whole number of at least 2 (the lattice bound)")
_count = _whole(1, "a whole number of at least 1")


_LAME_FLOOR = 1e-100  # the solves divide by mu|lambda|^2 and the error norms square that


def _lame(value, where):
    mu, lam = _list(_finite, 2)(value, where)
    if not (mu >= _LAME_FLOOR and lam + 2.0 * mu >= _LAME_FLOOR):
        raise ConfigError(f"{where} must be a Lame pair [mu, lambda] with mu and "
                          f"lambda + 2 mu at least {_LAME_FLOOR:g}, got {value!r}")
    return [mu, lam]


def _deltas(value, where):
    deltas = _list(_positive)(value, where)
    if any(b >= a for a, b in zip(deltas[:-1], deltas[1:])):
        raise ConfigError(f"{where} must be strictly decreasing, got {value!r}")
    return deltas


def _times(value, where):
    steps = _whole(2, "a whole number of at least 2")
    t = _block({"t1": (_positive, 0.5), "steps": (steps, 16)})(value, where)
    return np.linspace(0.0, t["t1"], t["steps"] + 1)


def _orientation(value, where):
    o = _block({"angle": (_finite, None), "vector": (_list(_finite), None)})(value, where)
    if (o["angle"] is None) == (o["vector"] is None):
        raise ConfigError(f"{where} needs exactly one of 'angle' and 'vector'")
    if o["vector"] is None:
        return Orientation.from_angle(o["angle"])
    if not any(o["vector"]):
        raise ConfigError(f"{where}.vector must not be zero")
    return Orientation.from_vector(o["vector"])


_KERNEL = _block({"family": (_text, _REQUIRED), "dimension": (_whole(), _REQUIRED),
                  "delta": (_positive, None), "beta": (_finite, None)})


def _kernel(dimension=None, swept=False):
    """Reader of a kernel block, checked by building it and kept as written.

    A swept kernel takes its horizons from ``deltas`` and may not give one.
    """
    def read(value, where):
        _KERNEL(value, where)
        if swept and "delta" in value:
            raise ConfigError(f"{where}.delta: the horizon is swept over 'deltas'; remove it")
        if dimension not in (None, from_config({"delta": 1.0, **value}).dimension):
            raise ConfigError(f"{where} must be {dimension}-dimensional, got {value!r}")
        return value
    return read


def _tolerances(**extra):
    below_one = _value(lambda v: _real(v) and 0.0 < v < 1.0, "a number in (0, 1)", float)
    return (_block({"quad.tol": (below_one, 1e-10), **extra}), {})


def _one(dimension=None, swept=False, bound=8):
    """Keys of one kernel, its orientation and the lattice bound."""
    return {"kernel": (_kernel(dimension, swept), _REQUIRED),
            "orientation": (_orientation, None), "bound": (_bound, bound)}


def _sweep(**extra):
    """Keys of a 2D convergence study over the horizons ``deltas``."""
    return {**_one(2, swept=True), "system": (_text, None), "deltas": (_deltas, _REQUIRED),
            "decay": (_positive, 3.0), **extra}


_LAME = (_lame, [1.0, 1.0])

_COMMON = {"experiment": (_file_name, None), "seed": (_whole(), 2024), "tolerances": _tolerances()}

SCHEMAS = {
    "symbols": {"kernels": (_list(_kernel(2, swept=True)), _REQUIRED),
                "angles": (_list(_finite), [2.0 * math.pi * i / 8 for i in range(8)]),
                "deltas": (_deltas, _REQUIRED), "bound": (_bound, 32)},
    "stokes-convergence": _sweep(),
    "navier-convergence": _sweep(lame=_LAME),
    "evolution-refinement": _sweep(lame=_LAME, times=(_times, {})),
    "stokes": {**_one(), "decay": (_positive, 2.0)},
    "helmholtz": {"case2d": (_block(_one(2, bound=16)), None),
                  "case3d": (_block(_one(3)), None),
                  "tolerances": _tolerances(residual=(_positive, 1e-12))},
    "divcurl": {**_one(3), "deltas": (_deltas, None),
                "checks": (_list(_one_of("vector_identity", "curl_of_gradient", "consistency",
                                         "friedrichs")), ["consistency", "friedrichs"]),
                "tolerances": _tolerances(residual=(_positive, 1e-10))},
    "navier": {**_one(), "lame_pairs": (_list(_lame), [[1.0, 1.0], [1.0, -1.5]])},
    "oracle": {**_one(2), "pairs": (_count, 50), "grid": (_count, 64)},
    "energy-1d": {"checks": (_list(_one_of("rho", "double")), ["rho"]), "delta": (_positive, 1.0),
                  "mesh": (_count, onedim.MESH_SIZE),
                  "pairs": (_list(_list(_positive, 2)), [[0.2, 0.05], [0.1, 0.1]]),
                  "ximax": (_count, 64),
                  "tolerances": (_block({}), {})},
}


def _start(cfg, name):
    """The typed config of ``name``'s schema and an empty summary."""
    c = _block({**_COMMON, **SCHEMAS[name]})(cfg, "config")
    return c, {"experiment": name, "assertions": {}, "observations": {}}


def _tables(c, block=None, deltas=None):
    """The runners' one symbol-table builder: the table of the kernel,
    orientation (None: the first axis) and bound of ``block`` (default ``c``),
    or given ``deltas`` one table per horizon."""
    block = c if block is None else block

    def build(kcfg):
        k = from_config(kcfg)
        ori = block["orientation"] or Orientation.from_vector(np.eye(k.dimension)[0])
        if ori.dimension != k.dimension:
            raise ConfigError(f"a {ori.dimension}D orientation for a {k.dimension}D kernel")
        return build_table(k, ori, block["bound"], tol=c["tolerances"]["quad.tol"])

    if deltas is None:
        return build(block["kernel"])
    return [build(dict(block["kernel"], delta=d)) for d in deltas]


def _assert_in(summary, name, value, threshold, mode="le"):
    ok = {"le": value <= threshold, "ge": value >= threshold, "gt": value > threshold}[mode]
    summary["assertions"][name] = {
        "passed": bool(ok),
        "value": float(value),
        "threshold": float(threshold),
        "comparison": mode,
    }
    return ok


def _assert_true(summary, name, ok):
    return _assert_in(summary, name, float(ok), 1.0, mode="ge")


def _decreasing(seq):
    return all(b < a for a, b in zip(seq[:-1], seq[1:]))


def passed(summary):
    """True when the summary holds assertions and every one passed."""
    checks = summary["assertions"].values()
    return bool(checks) and all(a["passed"] for a in checks)


# ---------------------------------------------------------------------------
# symbol bound sweep
# ---------------------------------------------------------------------------

def run_symbols(cfg):
    """Spectral sweep: positivity and the uniform upper bound over a lattice.

    Sweeps kernels x orientations x deltas, records the lattice minimum of
    |lambda| and maximum of |lambda|/|xi|, and asserts the orientation- and
    delta-uniform envelope plus the stability of the coercivity floor
    between the two extreme deltas.
    """
    c, summary = _start(cfg, "symbols")
    table = ResultTable(["family", "beta", "delta", "angle", "min_abs", "max_ratio"])
    floors = {}
    for kcfg, delta, angle in itertools.product(c["kernels"], c["deltas"], c["angles"]):
        tab = _tables(c, {"kernel": dict(kcfg, delta=delta),
                          "orientation": Orientation.from_angle(angle), "bound": c["bound"]})
        rep = tab.bounds
        table.add(kcfg["family"], kcfg.get("beta", ""), float(delta),
                  float(angle), rep["min_abs"], rep["max_ratio"])
        floors.setdefault((kcfg["family"], kcfg.get("beta"), angle), []).append(rep["min_abs"])

    _assert_in(summary, "min_abs_positive", min(table.column("min_abs")), 0.0, mode="gt")
    _assert_in(summary, "upper_bound", max(table.column("max_ratio")), math.sqrt(2.0) * 2 + 1e-8)
    variation = max((max(v) - min(v)) / max(v) for v in floors.values())
    _assert_in(summary, "floor_stability", variation, 0.20)
    summary["observations"]["tables_built"] = len(table.rows)
    return table, summary


# ---------------------------------------------------------------------------
# steady solves and convergence studies
# ---------------------------------------------------------------------------

def run_convergence(cfg):
    runs = {"stokes": _run_stokes_convergence, "navier": _run_navier_convergence,
            "evolution": _run_evolution_refinement}
    return runs[_one_of(*runs)(cfg.get("system", "stokes"), "config.system")](cfg)


def _run_stokes_convergence(cfg):
    c, summary = _start(cfg, "stokes-convergence")
    f = random_field(c["seed"], c["bound"], c["decay"], components=2)
    table = ResultTable(["delta", "err_u", "err_p", "err_div"])
    for delta, tab in zip(c["deltas"], _tables(c, deltas=c["deltas"])):
        e = sol.stokes_errors(tab, f)
        table.add(delta, e["err_u"], e["err_p"], e["err_div"])
    slopes = {}
    for name in ("err_u", "err_p", "err_div"):
        slopes[name] = fit_slope(c["deltas"], table.column(name))
        _assert_in(summary, f"slope_{name}", slopes[name], 0.9, mode="ge")
    summary["observations"]["slopes"] = slopes
    summary["observations"]["slope_min"] = min(slopes.values())
    return table, summary


def _run_navier_convergence(cfg):
    c, summary = _start(cfg, "navier-convergence")
    mu, lam_lame = c["lame"]
    f = random_field(c["seed"], c["bound"], c["decay"], components=2)
    dec0 = sol.navier_decompose(local_table(2, c["bound"]), mu, lam_lame)
    u_local = sol.navier_steady(dec0, f)
    table = ResultTable(["delta", "err_v"])
    for delta, tab in zip(c["deltas"], _tables(c, deltas=c["deltas"])):
        dec = sol.navier_decompose(tab, mu, lam_lame)
        u = sol.navier_steady(dec, f)
        table.add(delta, sol.v_norm_error(tab, dec, u, u_local))
    slope = fit_slope(c["deltas"], table.column("err_v"))
    _assert_in(summary, "slope_err_v", slope, 0.9, mode="ge")
    summary["observations"]["slope"] = slope
    return table, summary


def _hamiltonian_drift(dec, traj):
    """Largest per-mode relative change of the wave Hamiltonian along ``traj``."""
    H0 = sol.hamiltonian_per_mode(dec, traj.states[0], traj.extras["rates"][0])
    floor = np.maximum(H0, 1e-30)
    return max(float(np.max(np.abs(sol.hamiltonian_per_mode(dec, s_, r_) - H0) / floor))
               for s_, r_ in zip(traj.states, traj.extras["rates"]))


def _run_evolution_refinement(cfg):
    """Unforced decay/conservation checks plus delta-refinement of both flows.

    ConfigError, before any table, if the fastest wave phase sqrt(max(mu,
    lambda + 2 mu)) 4N t1 (|lambda(xi)| <= sqrt(2) d |xi| <= 4N in 2D) passes
    1/sqrt(eps), where the phases would keep less than half of their digits.
    """
    c, summary = _start(cfg, "evolution-refinement")
    bound, seed, times, decay = c["bound"], c["seed"], c["times"], c["decay"]
    mu, lam_lame = c["lame"]
    phase = math.sqrt(max(mu, lam_lame + 2.0 * mu)) * 4.0 * bound * float(times[-1])
    if not phase <= 1.0 / math.sqrt(sys.float_info.epsilon):
        raise ConfigError(f"config.lame {c['lame']} and config.times.t1 = {float(times[-1])!r} "
                          f"give a wave phase up to {phase:.3g}, past 1/sqrt(eps)")
    deltas, tables = c["deltas"], _tables(c, deltas=c["deltas"])
    table = ResultTable(["system", "delta", "l2_time_error"])

    # locally divergence-free base velocity; each nonlocal run projects it
    loc = local_table(2, bound)
    u_base = sol.leray_project(loc, random_field(seed, bound, decay, components=2))
    local_traj = sol.stokes_evolve(loc, u_base, None, times)

    stokes_errors = []
    monotone_decay = True
    for delta, tab in zip(deltas, tables):
        u0 = sol.leray_project(tab, u_base)
        traj = sol.stokes_evolve(tab, u0, None, times)
        monotone_decay &= _decreasing([l2_norm(s) for s in traj.states])
        err = sol.trajectory_l2_error(traj, local_traj)
        stokes_errors.append(err)
        table.add("stokes", delta, err)
    _assert_true(summary, "stokes_energy_decreasing", monotone_decay)

    g = random_field(seed + 1, bound, decay, components=2)
    h = random_field(seed + 2, bound, decay, components=2)
    dec0 = sol.navier_decompose(local_table(2, bound), mu, lam_lame)
    local_wave = sol.navier_evolve(dec0, g, h, None, times)
    navier_errors = []
    ham_drift = 0.0
    for delta, tab in zip(deltas, tables):
        dec = sol.navier_decompose(tab, mu, lam_lame)
        traj = sol.navier_evolve(dec, g, h, None, times)
        ham_drift = max(ham_drift, _hamiltonian_drift(dec, traj))
        err = sol.trajectory_l2_error(traj, local_wave)
        navier_errors.append(err)
        table.add("navier", delta, err)
    _assert_in(summary, "navier_hamiltonian_drift", ham_drift, 1e-10)
    for name, errs in (("stokes", stokes_errors), ("navier", navier_errors)):
        _assert_true(summary, f"{name}_refinement_monotone", _decreasing(errs))
    return table, summary


# ---------------------------------------------------------------------------
# steady Stokes
# ---------------------------------------------------------------------------

def run_stokes(cfg):
    c, summary = _start(cfg, "stokes")
    tab = _tables(c)
    f = random_field(c["seed"], c["bound"], c["decay"], components=tab.dimension)
    s = sol.stokes_steady(tab, f)
    residual = sol.stokes_residual(tab, s, f)
    div_defect = float(np.max(np.abs(ops.divergence(tab, s.velocity).coeffs)))
    stability = sol.stokes_stability(tab, s, f)
    table = ResultTable(
        ["seed", "bound", "delta", "residual", "div_defect", "stability",
         "u_l2", "p_l2"])
    table.add(c["seed"], c["bound"], tab.kernel.horizon, residual, div_defect, stability,
              l2_norm(s.velocity), l2_norm(s.pressure))
    _assert_in(summary, "residual", residual, 1e-12)
    _assert_in(summary, "div_defect", div_defect, 1e-12)
    _assert_in(summary, "stability_const", stability, 2.0 + 1e-9)
    return table, summary


# ---------------------------------------------------------------------------
# Helmholtz / div-curl / identities
# ---------------------------------------------------------------------------

def run_helmholtz(cfg):
    c, summary = _start(cfg, "helmholtz")
    if c["case2d"] is None and c["case3d"] is None:
        raise ConfigError("helmholtz needs 'case2d' or 'case3d'")
    seed = c["seed"]
    table = ResultTable(["case", "reconstruction", "gauge", "pure_part_residual"])

    case = c["case2d"]
    if case is not None:
        tab, bound = _tables(c, case), case["bound"]
        u = random_field(seed, bound, 1.0, components=2)
        p, q = sol.helmholtz2d(tab, u)
        rec = sol.helmholtz2d_reconstruct(tab, p, q)
        rec_res = float(np.max(np.abs(rec.coeffs - u.coeffs)))
        lam_neg = tab.lam_neg()
        rot = np.einsum("ij,...j->...i", sol._J2, lam_neg * q.coeffs[..., None])
        gauge = float(np.max(np.abs(np.sum(np.conj(tab.lam) * rot, axis=-1))))
        gp = ops.gradient(tab, random_field(seed + 1, bound, 1.0))
        _, q_pure = sol.helmholtz2d(tab, gp)
        qres = float(np.max(np.abs(q_pure.coeffs)))
        table.add("2d", rec_res, gauge, qres)

    case = c["case3d"]
    if case is not None:
        tab, bound = _tables(c, case), case["bound"]
        u = random_field(seed + 2, bound, 1.0, dimension=3, components=3)
        p, v = sol.helmholtz3d(tab, u)
        rec = sol.helmholtz3d_reconstruct(tab, p, v)
        rec_res = float(np.max(np.abs(rec.coeffs - u.coeffs)))
        gauge = float(np.max(np.abs(np.sum(tab.lam * v.coeffs, axis=-1))))
        gp = ops.gradient(tab, random_field(seed + 3, bound, 1.0, dimension=3))
        curl_grad = float(np.max(np.abs(ops.curl3d(tab, gp).coeffs)))
        table.add("3d", rec_res, gauge, curl_grad)

    for name, column in zip(("reconstruction", "gauge", "pure_gradient"), table.columns[1:]):
        _assert_in(summary, name, max(table.column(column)), c["tolerances"]["residual"])
    return table, summary


def run_divcurl(cfg):
    """Double-curl identities at the kernel's own horizon and the div-curl
    solve swept over ``deltas`` (checks consistency, friedrichs)."""
    c, summary = _start(cfg, "divcurl")
    checks, bound, seed = c["checks"], c["bound"], c["seed"]
    identity = "vector_identity" in checks or "curl_of_gradient" in checks
    sweep = "consistency" in checks or "friedrichs" in checks
    if sweep != (c["deltas"] is not None):
        raise ConfigError("'deltas' is read by, and only by, checks consistency and friedrichs")
    if sweep and not identity and "delta" in c["kernel"]:
        raise ConfigError("kernel.delta: the horizon is swept over 'deltas'; remove it")
    table = ResultTable(["check", "delta", "value"])

    if identity:
        tab = _tables(c)
        f3 = random_field(seed, bound, 1.0, dimension=3, components=3)
        lhs = ops.curl3d(tab, ops.curl3d(tab, f3, sign=1), sign=-1)
        rhs = ops.gradient(tab, ops.divergence(tab, f3)) - ops.diffusion(tab, f3)
        ident = float(np.max(np.abs(lhs.coeffs - rhs.coeffs)))
        scale = float(np.max(np.abs(rhs.coeffs)))
        table.add("vector_identity", tab.kernel.horizon, ident)
        _assert_in(summary, "vector_identity", ident / max(scale, 1.0), 1e-12)
        p = random_field(seed + 1, bound, 1.0, dimension=3)
        cg = float(np.max(np.abs(ops.curl3d(tab, ops.gradient(tab, p)).coeffs)))
        table.add("curl_of_gradient", tab.kernel.horizon, cg)
        _assert_in(summary, "curl_of_gradient", cg, 1e-12)

    if sweep:
        tol = c["tolerances"]["residual"]
        ratios = []
        worst_res = 0.0
        ustar = random_field(seed + 2, bound, 1.0, dimension=3, components=3)
        for delta, tab in zip(c["deltas"], _tables(c, deltas=c["deltas"])):
            f = ops.divergence(tab, ustar)
            g = ops.curl3d(tab, ustar)
            _, rep = sol.divcurl3d(tab, f, g, residual_tol=tol)
            worst_res = max(worst_res, rep["residual"])
            ratios.append(rep["friedrichs_ratio"])
            table.add("friedrichs_ratio", delta, rep["friedrichs_ratio"])
            table.add("residual", delta, rep["residual"])
        _assert_in(summary, "consistency_residual", worst_res, tol)
        variation = (max(ratios) - min(ratios)) / max(ratios)
        _assert_in(summary, "friedrichs_variation", variation, 0.25)
    return table, summary


def run_navier(cfg):
    """Korn bound and the two energy assemblies, per Lame pair."""
    c, summary = _start(cfg, "navier")
    tab = _tables(c)
    bound, seed, d = c["bound"], c["seed"], tab.dimension
    table = ResultTable(["mu", "lambda", "energy_gap", "korn_margin", "steady_residual"])
    u = random_field(seed, bound, 2.0, components=d)
    f = random_field(seed + 1, bound, 2.0, components=d)
    for mu, lam_lame in c["lame_pairs"]:
        dec = sol.navier_decompose(tab, mu, lam_lame)
        e_sym = sol.navier_energy(dec, u)
        e_asm = sol.navier_energy_assembled(tab, u, mu, lam_lame)
        gap = abs(e_sym - e_asm) / max(abs(e_sym), 1e-300)
        korn_rhs = min(mu, lam_lame + 2.0 * mu) * s_norm(u, tab) ** 2
        margin = korn_rhs - 2.0 * e_sym  # must stay below the slack
        us = sol.navier_steady(dec, f)
        res = float(np.max(np.abs(sol.navier_apply(dec, us).coeffs - f.coeffs)))
        table.add(mu, lam_lame, gap, margin, res)
    _assert_in(summary, "energy_two_ways", max(table.column("energy_gap")), 1e-10)
    _assert_in(summary, "korn_bound", max(table.column("korn_margin")), 1e-10)
    return table, summary


# ---------------------------------------------------------------------------
# adjoint/oracle and the 1D energy suite
# ---------------------------------------------------------------------------

def run_oracle(cfg):
    c, summary = _start(cfg, "oracle")
    if c["grid"] < 2 * c["bound"] + 1:  # the sampled fields hold |xi|_inf <= bound
        raise ConfigError(f"config.grid must be at least 2 bound + 1, got {c['grid']!r}")
    tab = _tables(c)
    kernel, bound, seed = tab.kernel, c["bound"], c["seed"]
    table = ResultTable(["check", "value"])

    worst = 0.0
    for i in range(c["pairs"]):
        v = random_field(seed + 2 * i, bound, 1.0)
        u = random_field(seed + 2 * i + 1, bound, 1.0, components=2)
        gv = ops.gradient(tab, v)
        du = ops.divergence(tab, u)
        lhs = complex(np.sum(gv.coeffs * np.conj(u.coeffs)))
        rhs = -complex(np.sum(v.coeffs * np.conj(du.coeffs)))
        res = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, res)
    table.add("adjoint_residual", worst)
    _assert_in(summary, "adjoint_residual", worst, 1e-12)

    grid = c["grid"]
    pts = grid_points(grid, 2).reshape(2, -1).T
    worst_gap = 0.0
    for xi in ((1, 0), (1, 2)):
        xi_arr = np.asarray(xi, dtype=float)
        u_call = lambda X: np.sin(X @ xi_arr)
        direct = ops.gradient_oracle(kernel, tab.orientation.vec, u_call, pts)
        s = SpectralField.zeros(2, bound)
        s.set_mode(xi, -0.5j)
        spec_vals = evaluate(ops.gradient(tab, s), grid).reshape(-1, 2)
        gap = float(np.linalg.norm(direct - spec_vals) / np.linalg.norm(direct))
        table.add(f"oracle_gap_sin{xi}", gap)
        worst_gap = max(worst_gap, gap)

    # the adjoint divergence gets the same treatment on a trig vector field
    amps = np.array([0.8, -0.5])
    xi_arr = np.asarray((1, 2), dtype=float)
    direct = ops.divergence_oracle(
        kernel, tab.orientation.vec,
        lambda X: np.sin(X @ xi_arr)[..., None] * amps, pts)
    v = SpectralField.zeros(2, bound, (2,))
    v.set_mode((1, 2), -0.5j * amps)
    spec_vals = evaluate(ops.divergence(tab, v), grid).reshape(-1)
    gap = float(np.linalg.norm(direct - spec_vals) / np.linalg.norm(direct))
    table.add("oracle_gap_divergence", gap)
    worst_gap = max(worst_gap, gap)
    _assert_in(summary, "oracle_gap", worst_gap, 1e-4)
    return table, summary


def run_energy1d(cfg):
    c, summary = _start(cfg, "energy-1d")
    table = ResultTable(["check", "value"])

    if "rho" in c["checks"]:
        kc = normalize("constant", 1, horizon=c["delta"])
        rho_c = onedim.rho_from_kernel(kc, c["mesh"])
        table.add("constant_mass", rho_c.l1_mass)
        ks = normalize("sine", 1, horizon=1.0)
        rho_s = onedim.rho_from_kernel(ks, c["mesh"])
        table.add("sine_mass", rho_s.l1_mass)
        closed = onedim.sine_rho_closed_form(rho_s.mesh)
        mesh_gap = float(np.max(np.abs(rho_s.values - closed)))
        table.add("sine_closed_form_gap", mesh_gap)
        rho01 = float(onedim._rho_pointwise(ks, np.array([0.1]))[0, 0])
        table.add("sine_rho_0p1", rho01)
        kf = normalize("fractional", 1, beta=1.0, horizon=1.0)
        levels, limit = onedim.rho_regularized(kf)
        for lv in levels:
            table.add(f"fractional_mass_eps{lv.epsilon:g}", lv.l1_mass)
        u = SpectralField.zeros(1, 4)
        u.set_mode((1,), -0.5j)
        eq = onedim.energy_equivalence_check(kc, u, rho=rho_c)
        table.add("equivalence_gap", eq["gap"])
        _assert_in(summary, "constant_mass", abs(rho_c.l1_mass - 1.0), 1e-8)
        _assert_in(summary, "sine_mass", abs(rho_s.l1_mass - 1.0), 1e-8)
        _assert_in(summary, "sine_closed_form", mesh_gap, 1e-8)
        _assert_in(summary, "sine_sign_change", abs(rho01 + 0.013839), 1e-4)
        _assert_in(summary, "fractional_mass", abs(limit.l1_mass - 1.0), 1e-6)
        _assert_true(summary, "fractional_mass_monotone",
                     all(b.l1_mass >= a.l1_mass for a, b in zip(levels[:-1], levels[1:])))
        _assert_in(summary, "energy_equivalence", eq["gap"], 1e-6)

    if "double" in c["checks"]:
        xi = np.arange(1, c["ximax"] + 1, dtype=float)
        worst = 0.0
        for delta, eps in c["pairs"]:
            kd = normalize("constant", 1, horizon=delta)
            gamma = onedim.rho_from_kernel(kd, mesh_size=256)
            eta = ops.AveragingWindow(eps)
            direct = ops.double_symbol_direct(gamma, eta, xi)
            product = ops.bond_symbol(gamma, xi) * ops.averaging_symbol(eta, xi)
            scale = max(1.0, float(np.max(np.abs(product))))
            gap = float(np.max(np.abs(direct - product))) / scale
            table.add(f"double_gap_d{delta}_e{eps}", gap)
            worst = max(worst, gap)
        _assert_in(summary, "double_factorization", worst, 1e-12)
    return table, summary


RUNNERS = {
    "symbols": run_symbols,
    "stokes": run_stokes,
    "helmholtz": run_helmholtz,
    "divcurl": run_divcurl,
    "navier": run_navier,
    "energy-1d": run_energy1d,
    "convergence": run_convergence,
    "oracle": run_oracle,
}
