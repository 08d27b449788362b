"""Batch experiment runners behind the command-line driver.

Each runner consumes a validated configuration dict, performs one experiment
(symbol bound sweeps, convergence studies, identity checks, the 1D energy
suite, ...) and returns (table, summary): a deterministic ResultTable and a
JSON-ready summary holding one pass/fail entry per assertion.
"""

from concurrent.futures import ThreadPoolExecutor
import math

import numpy as np

from . import onedim, operators as ops, solvers as sol, symbols as sym
from .errors import ConfigError
from .fields import SpectralField, l2_norm, random_field, s_norm, evaluate, grid_points
from .kernels import from_config, normalize
from .results import ResultTable
from .symbols import Orientation, build_table, local_table


def fit_slope(deltas, errors, floor=1e-13):
    """Least-squares slope of log error against log delta.

    Floor-dominated pairs (error below 1e-13) are excluded; at least three
    surviving pairs are required.
    """
    pairs = [(d, e) for d, e in zip(deltas, errors) if e > floor]
    if len(pairs) < 3:
        raise ConfigError("need at least 3 positive (delta, error) pairs above the floor")
    x = np.log([p[0] for p in pairs])
    y = np.log([p[1] for p in pairs])
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _kernel_list(cfg):
    raw = cfg.get("kernels")
    if raw is None:
        raw = [_require(cfg, "kernel")]
    if not isinstance(raw, list):
        raw = [raw]
    return raw


def _angles(cfg, default=(0.0,)):
    if "angles" in cfg:
        return [float(a) for a in cfg["angles"]]
    ori = cfg.get("orientation")
    if ori is None:
        return list(default)
    if "angle" in ori:
        return [float(ori["angle"])]
    raise ConfigError("2D orientations are given as angles")


def _orientation(cfg, dimension):
    ori = cfg.get("orientation", {})
    if "vector" in ori:
        return Orientation.from_vector(ori["vector"])
    if "angle" in ori:
        if dimension != 2:
            raise ConfigError("angle orientations are two-dimensional")
        return Orientation.from_angle(float(ori["angle"]))
    return Orientation.from_vector([1.0] + [0.0] * (dimension - 1))


def _deltas(cfg):
    deltas = [float(d) for d in _require(cfg, "deltas")]
    if any(b >= a for a, b in zip(deltas[:-1], deltas[1:])):
        raise ConfigError("delta list must be strictly decreasing")
    if any(d <= 0.0 for d in deltas):
        raise ConfigError("deltas must be positive")
    return deltas


def _bound(cfg, default=None):
    n = cfg.get("bound", default)
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ConfigError(f"lattice bound must be a whole number of at least 2, got {n!r}")
    return n


def _tol(cfg, key, default):
    value = cfg.get("tolerances", {}).get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0.0 < value < math.inf):
        raise ConfigError(f"{key} must be a positive number, got {value!r}")
    return float(value)


def _table_args(cfg):
    """Symbol-table build options from the tolerance config block."""
    panels = cfg.get("tolerances", {}).get("quad.panels", 1)
    if (isinstance(panels, bool) or not isinstance(panels, (int, float))
            or not float(panels).is_integer()):
        raise ConfigError(f"quad.panels must be a whole number, got {panels!r}")
    return {"tol": _tol(cfg, "quad.tol", 1e-10), "oversample": int(panels)}


def _seed(cfg, default=2024):
    return int(cfg.get("seed", default))


def _threads(cfg):
    return max(1, int(cfg.get("threads", 1)))


def _pmap(fn, items, threads):
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _summary_shell(cfg, name):
    return {"experiment": name, "assertions": {}, "observations": {}}


def _assert_in(summary, name, value, threshold, mode="le"):
    if mode == "le":
        ok = value <= threshold
    elif mode == "ge":
        ok = value >= threshold
    else:
        ok = value > threshold
    summary["assertions"][name] = {
        "passed": bool(ok),
        "value": float(value),
        "threshold": float(threshold),
        "comparison": mode,
    }
    return ok


def _assert_true(summary, name, ok):
    return _assert_in(summary, name, float(ok), 1.0, mode="ge")


def passed(summary):
    return all(a["passed"] for a in summary["assertions"].values())


# ---------------------------------------------------------------------------
# symbol bound sweep
# ---------------------------------------------------------------------------

def run_symbols(cfg, out_dir=None):
    """Spectral sweep: positivity and the uniform upper bound over a lattice.

    Sweeps kernels x orientations x deltas, records the lattice minimum of
    |lambda| and maximum of |lambda|/|xi|, and asserts the orientation- and
    delta-uniform envelope plus the stability of the coercivity floor
    between the two extreme deltas.
    """
    kernels = _kernel_list(cfg)
    angles = _angles(cfg, default=tuple(2.0 * math.pi * i / 8 for i in range(8)))
    deltas = _deltas(cfg)
    bound = _bound(cfg, 32)
    table_args = _table_args(cfg)
    table = ResultTable(["family", "beta", "delta", "angle", "min_abs", "max_ratio"])
    summary = _summary_shell(cfg, "symbols")

    jobs = []
    for kcfg in kernels:
        for delta in deltas:
            for angle in angles:
                jobs.append((dict(kcfg, delta=delta), angle))

    def work(job):
        kcfg, angle = job
        kernel = from_config(kcfg)
        tab = build_table(kernel, Orientation.from_angle(angle), bound, **table_args)
        rep = sym.verify_bounds(tab)
        if out_dir is not None and cfg.get("cache"):
            tag = f"{kcfg['family']}_b{kcfg.get('beta', 0)}_d{kcfg['delta']}_a{angle:.4f}"
            sym.save_table(tab, f"{out_dir}/cache_{tag}.txt")
        return kcfg, angle, rep

    results = _pmap(work, jobs, _threads(cfg))
    floors = {}
    min_abs_all = np.inf
    max_ratio_all = 0.0
    for kcfg, angle, rep in results:
        table.add(kcfg["family"], kcfg.get("beta", ""), float(kcfg["delta"]),
                  float(angle), rep["min_abs"], rep["max_ratio"])
        floors.setdefault((kcfg["family"], kcfg.get("beta"), angle), {})[kcfg["delta"]] = rep["min_abs"]
        min_abs_all = min(min_abs_all, rep["min_abs"])
        max_ratio_all = max(max_ratio_all, rep["max_ratio"])

    d = from_config(dict(kernels[0], delta=deltas[0])).dimension
    _assert_in(summary, "min_abs_positive", min_abs_all, 0.0, mode="gt")
    _assert_in(summary, "upper_bound", max_ratio_all, math.sqrt(2.0) * d + 1e-8)
    variation = 0.0
    for vals in floors.values():
        lo, hi = min(vals.values()), max(vals.values())
        variation = max(variation, (hi - lo) / hi)
    _assert_in(summary, "floor_stability", variation, 0.20)
    summary["observations"]["tables_built"] = len(jobs)
    return table, summary


# ---------------------------------------------------------------------------
# steady solves and convergence studies
# ---------------------------------------------------------------------------

def _build_tables(kernel_cfg, angle_or_vec, deltas, bound, table_args, threads):
    def work(delta):
        kernel = from_config(dict(kernel_cfg, delta=delta))
        ori = (Orientation.from_angle(angle_or_vec)
               if np.isscalar(angle_or_vec)
               else Orientation.from_vector(angle_or_vec))
        return build_table(kernel, ori, bound, **table_args)

    return _pmap(work, deltas, threads)


def run_convergence(cfg, out_dir=None):
    system = cfg.get("system", "stokes")
    if system == "stokes":
        return _run_stokes_convergence(cfg)
    if system == "navier":
        return _run_navier_convergence(cfg)
    if system == "evolution":
        return _run_evolution_refinement(cfg)
    raise ConfigError(f"unknown convergence system {system!r}")


def _run_stokes_convergence(cfg):
    deltas = _deltas(cfg)
    bound = _bound(cfg, 8)
    kcfg = _require(cfg, "kernel")
    angle = _angles(cfg, default=(0.0,))[0]
    f = random_field(_seed(cfg), bound, float(cfg.get("decay", 3.0)), components=2)
    tables = _build_tables(kcfg, angle, deltas, bound, _table_args(cfg), _threads(cfg))
    table = ResultTable(["delta", "err_u", "err_p", "err_div"])
    for delta, tab in zip(deltas, tables):
        e = sol.stokes_errors(tab, f)
        table.add(delta, e["err_u"], e["err_p"], e["err_div"])
    summary = _summary_shell(cfg, "stokes-convergence")
    slopes = {}
    for name in ("err_u", "err_p", "err_div"):
        slopes[name] = fit_slope(deltas, table.column(name))
        _assert_in(summary, f"slope_{name}", slopes[name], 0.9, mode="ge")
    summary["observations"]["slopes"] = slopes
    summary["observations"]["slope_min"] = min(slopes.values())
    return table, summary


def _run_navier_convergence(cfg):
    deltas = _deltas(cfg)
    bound = _bound(cfg, 8)
    kcfg = _require(cfg, "kernel")
    angle = _angles(cfg, default=(0.0,))[0]
    mu, lam_lame = [float(v) for v in cfg.get("lame", [1.0, 1.0])]
    f = random_field(_seed(cfg), bound, float(cfg.get("decay", 3.0)), components=2)
    tables = _build_tables(kcfg, angle, deltas, bound, _table_args(cfg), _threads(cfg))
    dec0 = sol.local_navier_decomposition(2, bound, mu, lam_lame)
    u_local = sol.navier_steady(dec0, f)
    table = ResultTable(["delta", "err_v"])
    for delta, tab in zip(deltas, tables):
        dec = sol.navier_decompose(tab, mu, lam_lame)
        u = sol.navier_steady(dec, f)
        table.add(delta, sol.v_norm_error(tab, dec, u, u_local))
    summary = _summary_shell(cfg, "navier-convergence")
    slope = fit_slope(deltas, table.column("err_v"))
    _assert_in(summary, "slope_err_v", slope, 0.9, mode="ge")
    summary["observations"]["slope"] = slope
    return table, summary


def _time_grid(cfg, default_t1=0.5, default_steps=16):
    tcfg = cfg.get("times", {})
    t1 = float(tcfg.get("t1", default_t1))
    steps = int(tcfg.get("steps", default_steps))
    if t1 <= 0.0 or steps < 2:
        raise ConfigError("time grid needs t1 > 0 and at least 2 steps")
    return np.linspace(0.0, t1, steps + 1)


def _run_evolution_refinement(cfg):
    """Unforced decay/conservation checks plus delta-refinement of both flows."""
    deltas = _deltas(cfg)
    bound = _bound(cfg, 8)
    kcfg = _require(cfg, "kernel")
    angle = _angles(cfg, default=(0.0,))[0]
    mu, lam_lame = [float(v) for v in cfg.get("lame", [1.0, 1.0])]
    times = _time_grid(cfg)
    seed = _seed(cfg)
    tables = _build_tables(kcfg, angle, deltas, bound, _table_args(cfg), _threads(cfg))
    summary = _summary_shell(cfg, "evolution-refinement")
    table = ResultTable(["system", "delta", "l2_time_error"])

    # locally divergence-free base velocity; each nonlocal run projects it
    loc = local_table(2, bound)
    u_base = sol.leray_project(loc, random_field(seed, bound, float(cfg.get("decay", 3.0)),
                                                 components=2))
    local_traj = sol.stokes_evolve(loc, u_base, None, times)
    l2s = [l2_norm(s) for s in local_traj.states]

    stokes_errors = []
    monotone_decay = True
    for delta, tab in zip(deltas, tables):
        u0 = sol.leray_project(tab, u_base)
        traj = sol.stokes_evolve(tab, u0, None, times)
        seq = [l2_norm(s) for s in traj.states]
        monotone_decay &= all(b < a for a, b in zip(seq[:-1], seq[1:]))
        err = sol.trajectory_l2_error(traj, local_traj)
        stokes_errors.append(err)
        table.add("stokes", delta, err)
    _assert_true(summary, "stokes_energy_decreasing", monotone_decay)

    g = random_field(seed + 1, bound, float(cfg.get("decay", 3.0)), components=2)
    h = random_field(seed + 2, bound, float(cfg.get("decay", 3.0)), components=2)
    dec0 = sol.local_navier_decomposition(2, bound, mu, lam_lame)
    local_wave = sol.navier_evolve(dec0, g, h, None, times)
    navier_errors = []
    ham_drift = 0.0
    for delta, tab in zip(deltas, tables):
        dec = sol.navier_decompose(tab, mu, lam_lame)
        traj = sol.navier_evolve(dec, g, h, None, times)
        H0 = sol.hamiltonian_per_mode(dec, traj.states[0], traj.extras["rates"][0])
        floor = np.maximum(H0, 1e-30)
        for s_, r_ in zip(traj.states, traj.extras["rates"]):
            H = sol.hamiltonian_per_mode(dec, s_, r_)
            ham_drift = max(ham_drift, float(np.max(np.abs(H - H0) / floor)))
        err = sol.trajectory_l2_error(traj, local_wave)
        navier_errors.append(err)
        table.add("navier", delta, err)
    _assert_in(summary, "navier_hamiltonian_drift", ham_drift, 1e-10)
    for name, errs in (("stokes", stokes_errors), ("navier", navier_errors)):
        _assert_true(summary, f"{name}_refinement_monotone",
                     all(b < a for a, b in zip(errs[:-1], errs[1:])))
    return table, summary


# ---------------------------------------------------------------------------
# steady Stokes / evolution drivers (single-run subcommands)
# ---------------------------------------------------------------------------

def run_stokes(cfg, out_dir=None):
    bound = _bound(cfg, 8)
    kcfg = _require(cfg, "kernel")
    kernel = from_config(kcfg)
    tab = build_table(kernel, _orientation(cfg, kernel.dimension), bound,
                      **_table_args(cfg))
    f = random_field(_seed(cfg), bound, float(cfg.get("decay", 2.0)),
                     components=kernel.dimension)
    s = sol.stokes_steady(tab, f)
    residual = sol.stokes_residual(tab, s, f)
    div_defect = float(np.max(np.abs(ops.divergence(tab, s.velocity).coeffs)))
    stability = sol.stokes_stability(tab, s, f)
    table = ResultTable(
        ["seed", "bound", "delta", "residual", "div_defect", "stability",
         "u_l2", "p_l2"])
    table.add(_seed(cfg), bound, kernel.horizon, residual, div_defect, stability,
              l2_norm(s.velocity), l2_norm(s.pressure))
    summary = _summary_shell(cfg, "stokes")
    _assert_in(summary, "residual", residual, 1e-12)
    _assert_in(summary, "div_defect", div_defect, 1e-12)
    _assert_in(summary, "stability_const", stability, 2.0 + 1e-9)
    return table, summary


def run_stokes_evolve(cfg, out_dir=None):
    bound = _bound(cfg, 8)
    kernel = from_config(_require(cfg, "kernel"))
    tab = build_table(kernel, _orientation(cfg, kernel.dimension), bound,
                      **_table_args(cfg))
    times = _time_grid(cfg)
    u0 = sol.leray_project(tab, random_field(_seed(cfg), bound,
                                             float(cfg.get("decay", 2.0)),
                                             components=kernel.dimension))
    traj = sol.stokes_evolve(tab, u0, None, times)
    loc = sol.stokes_evolve(local_table(kernel.dimension, bound),
                            sol.leray_project(local_table(kernel.dimension, bound), u0),
                            None, times)
    table = ResultTable(["t", "l2_norm", "energy", "err_vs_local"])
    for t, s_, sloc in zip(times, traj.states, loc.states):
        table.add(float(t), l2_norm(s_), 0.5 * l2_norm(s_) ** 2, l2_norm(s_ - sloc))
    seq = table.column("l2_norm")
    summary = _summary_shell(cfg, "stokes-evolve")
    _assert_true(summary, "energy_decreasing",
                 all(b < a for a, b in zip(seq[:-1], seq[1:])))
    return table, summary


def run_navier_evolve(cfg, out_dir=None):
    bound = _bound(cfg, 8)
    kernel = from_config(_require(cfg, "kernel"))
    mu, lam_lame = [float(v) for v in cfg.get("lame", [1.0, 1.0])]
    tab = build_table(kernel, _orientation(cfg, kernel.dimension), bound,
                      **_table_args(cfg))
    dec = sol.navier_decompose(tab, mu, lam_lame)
    g = random_field(_seed(cfg), bound, float(cfg.get("decay", 2.0)),
                     components=kernel.dimension)
    h = random_field(_seed(cfg) + 1, bound, float(cfg.get("decay", 2.0)),
                     components=kernel.dimension)
    times = _time_grid(cfg)
    traj = sol.navier_evolve(dec, g, h, None, times)
    table = ResultTable(["t", "l2_norm", "energy"])
    H0 = sol.hamiltonian_per_mode(dec, traj.states[0], traj.extras["rates"][0])
    floor = np.maximum(H0, 1e-30)
    drift = 0.0
    for t, s_, r_ in zip(times, traj.states, traj.extras["rates"]):
        H = sol.hamiltonian_per_mode(dec, s_, r_)
        drift = max(drift, float(np.max(np.abs(H - H0) / floor)))
        table.add(float(t), l2_norm(s_), sol.navier_energy(dec, s_))
    summary = _summary_shell(cfg, "navier-evolve")
    _assert_in(summary, "hamiltonian_drift", drift, 1e-10)
    return table, summary


# ---------------------------------------------------------------------------
# Helmholtz / div-curl / identities
# ---------------------------------------------------------------------------

def run_helmholtz(cfg, out_dir=None):
    tol = _tol(cfg, "residual", 1e-12)
    seed = _seed(cfg)
    table = ResultTable(["case", "reconstruction", "gauge", "pure_part_residual"])
    summary = _summary_shell(cfg, "helmholtz")
    worst_rec = worst_gauge = worst_q = 0.0

    cfg2 = cfg.get("case2d")
    if cfg2:
        bound = _bound(cfg2, 16)
        kernel = from_config(cfg2["kernel"])
        tab = build_table(kernel, _orientation(cfg2, 2), bound, **_table_args(cfg))
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
        worst_rec, worst_gauge, worst_q = rec_res, gauge, qres

    cfg3 = cfg.get("case3d")
    if cfg3:
        bound = _bound(cfg3, 8)
        kernel = from_config(cfg3["kernel"])
        tab = build_table(kernel, _orientation(cfg3, 3), bound, **_table_args(cfg))
        u = random_field(seed + 2, bound, 1.0, dimension=3, components=3)
        p, v = sol.helmholtz3d(tab, u)
        rec = sol.helmholtz3d_reconstruct(tab, p, v)
        rec_res = float(np.max(np.abs(rec.coeffs - u.coeffs)))
        gauge = float(np.max(np.abs(np.sum(tab.lam * v.coeffs, axis=-1))))
        gp = ops.gradient(tab, random_field(seed + 3, bound, 1.0, dimension=3))
        curl_grad = float(np.max(np.abs(ops.curl3d(tab, gp).coeffs)))
        table.add("3d", rec_res, gauge, curl_grad)
        worst_rec = max(worst_rec, rec_res)
        worst_gauge = max(worst_gauge, gauge)
        worst_q = max(worst_q, curl_grad)

    _assert_in(summary, "reconstruction", worst_rec, tol)
    _assert_in(summary, "gauge", worst_gauge, tol)
    _assert_in(summary, "pure_gradient", worst_q, tol)
    return table, summary


def run_divcurl(cfg, out_dir=None):
    checks = cfg.get("checks", ["consistency", "friedrichs"])
    bound = _bound(cfg, 8)
    kcfg = _require(cfg, "kernel")
    seed = _seed(cfg)
    summary = _summary_shell(cfg, "divcurl")
    table = ResultTable(["check", "delta", "value"])

    if "vector_identity" in checks or "curl_of_gradient" in checks:
        kernel = from_config(kcfg)
        tab = build_table(kernel, _orientation(cfg, 3), bound, **_table_args(cfg))
        f3 = random_field(seed, bound, 1.0, dimension=3, components=3)
        lhs = ops.curl3d(tab, ops.curl3d(tab, f3, sign=1), sign=-1)
        rhs = ops.gradient(tab, ops.divergence(tab, f3)) - ops.diffusion(tab, f3)
        ident = float(np.max(np.abs(lhs.coeffs - rhs.coeffs)))
        scale = float(np.max(np.abs(rhs.coeffs)))
        table.add("vector_identity", kernel.horizon, ident)
        _assert_in(summary, "vector_identity", ident / max(scale, 1.0), 1e-12)
        p = random_field(seed + 1, bound, 1.0, dimension=3)
        cg = float(np.max(np.abs(ops.curl3d(tab, ops.gradient(tab, p)).coeffs)))
        table.add("curl_of_gradient", kernel.horizon, cg)
        _assert_in(summary, "curl_of_gradient", cg, 1e-12)

    if "consistency" in checks or "friedrichs" in checks:
        deltas = _deltas(cfg)
        tol = _tol(cfg, "residual", 1e-10)
        ratios = []
        worst_res = 0.0
        vec = cfg.get("orientation", {}).get("vector", [1.0, 0.0, 0.0])
        tables = _build_tables(kcfg, vec, deltas, bound, _table_args(cfg),
                               _threads(cfg))
        for delta, tab in zip(deltas, tables):
            ustar = random_field(seed + 2, bound, 1.0, dimension=3, components=3)
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


def run_navier(cfg, out_dir=None):
    """Korn bound and the two energy assemblies, per Lame pair."""
    bound = _bound(cfg, 8)
    kernel = from_config(_require(cfg, "kernel"))
    tab = build_table(kernel, _orientation(cfg, kernel.dimension), bound,
                      **_table_args(cfg))
    pairs = cfg.get("lame_pairs", [[1.0, 1.0], [1.0, -1.5]])
    seed = _seed(cfg)
    table = ResultTable(["mu", "lambda", "energy_gap", "korn_margin", "steady_residual"])
    summary = _summary_shell(cfg, "navier")
    worst_gap = 0.0
    worst_korn = -np.inf
    for mu, lam_lame in pairs:
        dec = sol.navier_decompose(tab, float(mu), float(lam_lame))
        u = random_field(seed, bound, 2.0, components=kernel.dimension)
        e_sym = sol.navier_energy(dec, u)
        e_asm = sol.navier_energy_assembled(tab, u, float(mu), float(lam_lame))
        gap = abs(e_sym - e_asm) / max(abs(e_sym), 1e-300)
        korn_lhs = 2.0 * e_sym
        korn_rhs = min(float(mu), float(lam_lame) + 2.0 * float(mu)) * s_norm(u, tab) ** 2
        margin = korn_rhs - korn_lhs  # must stay below the slack
        f = random_field(seed + 1, bound, 2.0, components=kernel.dimension)
        us = sol.navier_steady(dec, f)
        res = float(np.max(np.abs(sol.navier_apply(dec, us).coeffs - f.coeffs)))
        table.add(float(mu), float(lam_lame), gap, margin, res)
        worst_gap = max(worst_gap, gap)
        worst_korn = max(worst_korn, margin)
    _assert_in(summary, "energy_two_ways", worst_gap, 1e-10)
    _assert_in(summary, "korn_bound", worst_korn, 1e-10)
    return table, summary


# ---------------------------------------------------------------------------
# adjoint/oracle and the 1D energy suite
# ---------------------------------------------------------------------------

def run_oracle(cfg, out_dir=None):
    bound = _bound(cfg, 8)
    kernel = from_config(_require(cfg, "kernel"))
    tab = build_table(kernel, _orientation(cfg, 2), bound, **_table_args(cfg))
    seed = _seed(cfg)
    pairs = int(cfg.get("pairs", 50))
    table = ResultTable(["check", "value"])
    summary = _summary_shell(cfg, "oracle")

    worst = 0.0
    for i in range(pairs):
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

    grid = int(cfg.get("grid", 64))
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


def run_energy1d(cfg, out_dir=None):
    checks = cfg.get("checks", ["rho"])
    summary = _summary_shell(cfg, "energy-1d")
    table = ResultTable(["check", "value"])

    if "rho" in checks:
        mesh_size = int(cfg.get("mesh", onedim.MESH_SIZE))
        kc = normalize("constant", 1, horizon=float(cfg.get("delta", 1.0)))
        rho_c = onedim.rho_from_kernel(kc, mesh_size)
        table.add("constant_mass", rho_c.l1_mass)
        ks = normalize("sine", 1, horizon=1.0)
        rho_s = onedim.rho_from_kernel(ks, mesh_size)
        table.add("sine_mass", rho_s.l1_mass)
        closed = onedim.sine_rho_closed_form(rho_s.mesh)
        mesh_gap = float(np.max(np.abs(rho_s.values - closed)))
        table.add("sine_closed_form_gap", mesh_gap)
        rho01 = float(onedim._rho_pointwise(ks, np.array([0.1]))[0][0])
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
        if out_dir is not None and cfg.get("export_rho"):
            rho_s.to_csv(f"{out_dir}/rho_sine.csv")

    if "double" in checks:
        pairs = cfg.get("pairs", [[0.2, 0.05], [0.1, 0.1]])
        ximax = int(cfg.get("ximax", 64))
        xi = np.arange(1, ximax + 1, dtype=float)
        worst = 0.0
        for delta, eps in pairs:
            kd = normalize("constant", 1, horizon=float(delta))
            gamma = onedim.rho_from_kernel(kd, mesh_size=256)
            eta = ops.AveragingWindow(float(eps))
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
    "stokes-evolve": run_stokes_evolve,
    "helmholtz": run_helmholtz,
    "divcurl": run_divcurl,
    "navier": run_navier,
    "navier-evolve": run_navier_evolve,
    "energy-1d": run_energy1d,
    "convergence": run_convergence,
    "oracle": run_oracle,
}
