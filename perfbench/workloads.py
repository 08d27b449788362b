"""The benchmark's four workloads.

A workload turns a seed into inputs, runs a list of items through the
library's public functions (the calls the acceptance runners make) and
checks the outputs of every item.  Each workload object holds its size and
provides:

- ``setup(seed, rep, tr)``: state built before the timed phase;
- ``prepare(state, seed, index, tr)``: the items of pass ``index``, with
  every input drawn from ``(seed, index)``;
- ``run(state, item, tr)``: the timed work of one item;
- ``check(state, item, out, tr)``: a ``checks.Report`` on that work.

Every call into a library layer sits in a ``tr.span``; the spans only record
when tracing is on.  Why each workload exists is in README.md.
"""

import math
import os

import numpy as np

from nlspectral import fields, onedim, operators as ops, solvers as sol, symbols as sym
from nlspectral.kernels import normalize
from nlspectral.symbols import Orientation

import checks as ck


def lattice_size(bound, d):
    return (2 * bound + 1) ** d


def _normalize(tr, family, d, delta, beta=None):
    with tr.span("kernels.normalize"):
        return normalize(family, d, horizon=delta, beta=beta)


def _random_field(tr, seed, bound, decay, d, components):
    coeffs = lattice_size(bound, d) * max(components, 1)
    with tr.span("fields.random_field", coeffs=coeffs):
        return fields.random_field(seed, bound, decay, dimension=d, components=components)


def _build(tr, kernel, orientation, bound):
    # the half lattice is what the build computes; the other half is conjugate
    modes = (lattice_size(bound, kernel.dimension) - 1) // 2
    with tr.span("symbols.build_table", modes=modes):
        return sym.build_table(kernel, orientation, bound)


def _seed(rng):
    return int(rng.integers(2**31))


def _symbol_report(rep, tab, modes, tr):
    """Oracle and envelope checks of a table, and its golden values."""
    ck.symbol_oracle(rep, tab, modes, tr)
    min_abs, ratio = ck.symbol_envelope(rep, tab)
    # two builds that both pass the refinement test at tol may differ by a
    # few tol relative to the table's largest symbol
    tol = 4.0 * tab.tol * float(np.max(np.abs(tab.lam)))
    rep.observe("symbols", "min_abs", min_abs, tol)
    rep.observe("symbols", "max_ratio", ratio, tol)
    for c, z in enumerate(tab.lam_at((tab.bound,) * tab.dimension)):
        rep.observe("symbols", f"corner{c}.re", z.real, tol)
        rep.observe("symbols", f"corner{c}.im", z.imag, tol)
    return min_abs, ratio, tol


class Sweep2d:
    """crit01: 2D tables over kernels x horizons x 8 orientations, then Stokes."""

    name = "sweep2d"
    threads = 1
    SIZES = {"full": (32, 8), "tiny": (6, 2)}     # (N, orientations)
    KERNELS = (("constant", None), ("fractional", 1.0), ("fractional", 1.5))
    DELTAS = (0.1, 0.02)

    def __init__(self, size, workdir):
        self.bound, self.angles = self.SIZES[size]

    def setup(self, seed, rep, tr):
        return None

    def prepare(self, state, seed, index, tr):
        rng = np.random.default_rng([seed, index, 0])
        alpha0 = float(rng.uniform(0.0, 2.0 * math.pi))
        forcing = _random_field(tr, _seed(rng), self.bound, 2.0, 2, 2)
        items = []
        for family, beta in self.KERNELS:
            for delta in self.DELTAS:
                kernel = _normalize(tr, family, 2, delta, beta)
                for j in range(self.angles):
                    items.append({
                        "key": f"{family}{beta or ''}-d{delta}-a{j}",
                        "kernel": kernel,
                        "angle": alpha0 + j * math.pi / 4.0,
                        "modes": ck.draw_modes(rng, self.bound, 2, 3),
                        "forcing": forcing,
                    })
        return items

    def run(self, state, item, tr):
        tab = _build(tr, item["kernel"], Orientation.from_angle(item["angle"]), self.bound)
        with tr.span("symbols.verify_bounds"):
            bounds = sym.verify_bounds(tab)
        with tr.span("solvers.steady", modes=lattice_size(self.bound, 2)):
            flow = sol.stokes_steady(tab, item["forcing"])
        return tab, bounds, flow

    def check(self, state, item, out, tr):
        tab, bounds, flow = out
        rep = ck.Report()
        min_abs, ratio, tol = _symbol_report(rep, tab, item["modes"], tr)
        rep.at_most("symbols", "verify_bounds min_abs", abs(bounds["min_abs"] - min_abs), tol)
        rep.at_most("symbols", "verify_bounds max_ratio", abs(bounds["max_ratio"] - ratio), tol)
        ck.stokes(rep, tab, item["forcing"], flow)
        u = fields.l2_norm(flow.velocity)
        rep.observe("solvers", "velocity_l2", u, 1e-7 * u)
        return rep


def pool_threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Field3d:
    """crit11/crit04/crit05: 3D tables built by a pool, div-curl, Helmholtz, curl grad."""

    name = "field3d"
    SIZES = {"full": (8, 6), "tiny": (3, 2)}      # (N, tables)
    DELTA_MAX, DELTA_MIN = 0.2, 0.025

    def __init__(self, size, workdir):
        self.bound, self.tables = self.SIZES[size]
        self.threads = pool_threads()

    def setup(self, seed, rep, tr):
        return None

    def prepare(self, state, seed, index, tr):
        rng = np.random.default_rng([seed, index, 0])
        items = []
        for i in range(self.tables):
            delta = self.DELTA_MAX * (self.DELTA_MIN / self.DELTA_MAX) ** (i / (self.tables - 1))
            items.append({
                "key": f"t{i}",
                "kernel": _normalize(tr, "constant", 3, delta),
                "orientation": Orientation.from_vector(rng.normal(size=3)),
                "u": _random_field(tr, _seed(rng), self.bound, 1.0, 3, 3),
                "p": _random_field(tr, _seed(rng), self.bound, 1.0, 3, 0),
                "modes": ck.draw_modes(rng, self.bound, 3, 3),
            })
        return items

    def run(self, state, item, tr):
        tab = _build(tr, item["kernel"], item["orientation"], self.bound)
        u, p = item["u"], item["p"]
        modes = lattice_size(self.bound, 3)
        with tr.span("operators.apply"):
            f = ops.divergence(tab, u)
        with tr.span("operators.apply"):
            g = ops.curl3d(tab, u)
        with tr.span("solvers.steady", modes=modes):
            w, report = sol.divcurl3d(tab, f, g)
        with tr.span("solvers.steady", modes=modes):
            hp, hv = sol.helmholtz3d(tab, u)
        with tr.span("operators.apply"):
            grad_p = ops.gradient(tab, p)
        with tr.span("operators.apply"):
            curl_grad = ops.curl3d(tab, grad_p)
        return {"table": tab, "f": f, "g": g, "w": w, "report": report,
                "hp": hp, "hv": hv, "grad_p": grad_p, "curl_grad": curl_grad}

    def check(self, state, item, out, tr):
        tab = out["table"]
        rep = ck.Report()
        _symbol_report(rep, tab, item["modes"], tr)
        lam = tab.lam
        lam_neg = -np.conj(lam)
        u = item["u"].coeffs
        tol = 1e-12
        rep.at_most("operators", "divergence", ck.rel_max(out["f"].coeffs, np.sum(lam_neg * u, -1)), tol)
        rep.at_most("operators", "curl", ck.rel_max(out["g"].coeffs, np.cross(lam, u)), tol)
        rep.at_most("operators", "gradient",
                    ck.rel_max(out["grad_p"].coeffs, lam * item["p"].coeffs[..., None]), tol)
        # the data came from u and the div-curl system has one solution
        w = out["w"].coeffs
        rep.at_most("solvers", "divcurl recovers u", ck.rel_max(w, u), 1e-10)
        rep.at_most("solvers", "divcurl residual",
                    max(ck.rel_max(np.sum(lam_neg * w, -1), out["f"].coeffs),
                        ck.rel_max(np.cross(lam, w), out["g"].coeffs)), 1e-10)
        ratio = out["report"]["friedrichs_ratio"]
        rep.expect("solvers", "friedrichs ratio", bool(0.0 < ratio < math.inf), repr(ratio))
        rep.observe("solvers", "friedrichs_ratio", ratio, 1e-7 * abs(ratio))
        hp, hv = out["hp"].coeffs, out["hv"].coeffs
        rebuilt = lam * hp[..., None] + np.cross(lam_neg, hv)
        rep.at_most("solvers", "helmholtz reconstruction", ck.rel_max(rebuilt, u), tol)
        rep.at_most("solvers", "helmholtz gauge",
                    float(np.max(np.abs(np.sum(lam * hv, -1)))) / max(float(np.max(np.abs(hv))), 1.0),
                    tol)
        rep.at_most("operators", "curl grad",
                    float(np.max(np.abs(out["curl_grad"].coeffs)))
                    / max(float(np.max(np.abs(out["grad_p"].coeffs))), 1.0), tol)
        return rep


class Bond1d:
    """crit06/crit07: bond kernels, the clamp ladder, energy equivalence, double symbol."""

    name = "bond1d"
    threads = 1
    SIZES = {"full": (2048, onedim.DEFAULT_EPS_SEQUENCE), "tiny": (64, (1e-2, 1e-3))}  # (mesh, clamp radii)
    DOUBLE_MESH = 256
    DOUBLE_XI = np.arange(1.0, 65.0)

    def __init__(self, size, workdir):
        self.mesh, self.eps = self.SIZES[size]

    def setup(self, seed, rep, tr):
        return None

    def prepare(self, state, seed, index, tr):
        rng = np.random.default_rng([seed, index, 0])
        delta = float(rng.uniform(0.3, 1.0))
        # the clamp ladder's cost moves with beta; a narrow band keeps the
        # pass time from depending on the seed
        beta = float(rng.uniform(1.3, 1.5))
        pair_delta, pair_eps = float(rng.uniform(0.1, 0.25)), float(rng.uniform(0.03, 0.1))
        u = _random_field(tr, _seed(rng), 4, 1.0, 1, 0)
        return [
            {"key": "constant", "kind": "constant", "u": u,
             "kernel": _normalize(tr, "constant", 1, delta)},
            {"key": "sine", "kind": "sine", "kernel": _normalize(tr, "sine", 1, 1.0)},
            {"key": "clamped-b1", "kind": "clamped", "beta": 1.0,
             "kernel": _normalize(tr, "fractional", 1, 1.0, 1.0)},
            {"key": "clamped-bx", "kind": "clamped", "beta": beta,
             "kernel": _normalize(tr, "fractional", 1, 1.0, beta)},
            {"key": "double", "kind": "double", "eps": pair_eps,
             "kernel": _normalize(tr, "constant", 1, pair_delta)},
        ]

    def run(self, state, item, tr):
        kind, kernel = item["kind"], item["kernel"]
        if kind == "clamped":
            with tr.span("onedim.rho_regularized", points=self.mesh * len(self.eps)):
                levels, _ = onedim.rho_regularized(kernel, self.eps, self.mesh)
            return levels
        mesh = self.DOUBLE_MESH if kind == "double" else self.mesh
        with tr.span("onedim.rho_from_kernel", points=mesh):
            rho = onedim.rho_from_kernel(kernel, mesh)
        if kind == "sine":
            return rho
        if kind == "constant":
            with tr.span("onedim.energy_equivalence"):
                return rho, onedim.energy_equivalence_check(kernel, item["u"], rho=rho)
        eta = ops.AveragingWindow(item["eps"])
        with tr.span("operators.double_symbol_direct"):
            direct = ops.double_symbol_direct(rho, eta, self.DOUBLE_XI)
        with tr.span("operators.apply"):
            product = ops.bond_symbol(rho, self.DOUBLE_XI) * ops.averaging_symbol(eta, self.DOUBLE_XI)
        return direct, product

    def check(self, state, item, out, tr):
        rep = ck.Report()
        kind = item["kind"]
        if kind == "constant":
            rho, eq = out
            rep.at_most("onedim", "constant mass", abs(rho.l1_mass - 1.0), 1e-8)
            rep.expect("onedim", "constant rho nonnegative", bool(np.min(rho.values) >= 0.0))
            rep.at_most("onedim", "energy equivalence", eq["gap"], 1e-6)
            rep.observe("onedim", "mass", rho.l1_mass, 1e-10)
            rep.observe("onedim", "e_plus", eq["e_plus"], 1e-9 * eq["e_plus"])
            rep.observe("onedim", "e_rho", eq["e_rho"], 1e-9 * eq["e_rho"])
        elif kind == "sine":
            rho = out
            closed = onedim.sine_rho_closed_form(rho.mesh)
            rep.at_most("onedim", "sine mass", abs(rho.l1_mass - 1.0), 1e-8)
            rep.at_most("onedim", "sine closed form", float(np.max(np.abs(rho.values - closed))), 1e-8)
            at = float(rho.value(0.1))
            rep.expect("onedim", "sine sign change", at < 0.0, repr(at))
            rep.at_most("onedim", "sine rho(0.1)",
                        abs(at - float(onedim.sine_rho_closed_form(0.1))), 1e-4)
            rep.observe("onedim", "mass", rho.l1_mass, 1e-10)
            rep.observe("onedim", "min_rho", float(np.min(rho.values)), 1e-10)
        elif kind == "clamped":
            masses = [lv.l1_mass for lv in out]
            beta = item["beta"]
            rep.expect("onedim", "clamp masses increase",
                       all(b >= a for a, b in zip(masses[:-1], masses[1:])), repr(masses))
            rep.expect("onedim", "clamp masses below one", max(masses) < 1.0, repr(masses))
            # the clamp defect is beta eps^(2 - beta), to a relative
            # O(eps^(2 - beta)) measured at about 0.4 eps^(2 - beta)
            small = out[-1].epsilon ** (2.0 - beta)
            rep.at_most("onedim", "clamp limit", abs((1.0 - masses[-1]) - beta * small),
                        small * beta * small + 1e-10)
            for lv in out:
                rep.observe("onedim", f"mass_eps{lv.epsilon:g}", lv.l1_mass, 1e-10)
        else:
            direct, product = out
            scale = max(1.0, float(np.max(np.abs(product))))
            rep.at_most("operators", "double factorization",
                        float(np.max(np.abs(direct - product))) / scale, 1e-12)
            rep.observe("operators", "double_xi1", direct[0], 1e-9 * scale)
            rep.observe("operators", "double_ximax", direct[-1], 1e-9 * scale)
        return rep


class Cached2d:
    """Library and cache path: save/load tables, fields, solvers, CSV output."""

    name = "cached2d"
    threads = 1
    SIZES = {"full": (64, 20, 16), "tiny": (8, 3, 4)}     # (N, rounds, time steps)
    KERNELS = (("constant", None), ("fractional", 1.5))
    DELTA = 0.1
    LAME = (1.0, 1.0)
    T1 = 0.5

    def __init__(self, size, workdir):
        self.bound, self.rounds, self.steps = self.SIZES[size]
        self.workdir = workdir

    def setup(self, seed, rep, tr):
        rng = np.random.default_rng([seed, rep, 1])
        tables = []
        for family, beta in self.KERNELS:
            kernel = _normalize(tr, family, 2, self.DELTA, beta)
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            tables.append(_build(tr, kernel, Orientation.from_angle(angle), self.bound))
        paths = [os.path.join(self.workdir, f"table{i}.txt") for i in range(len(tables))]
        return {"tables": tables, "paths": paths}

    def prepare(self, state, seed, index, tr):
        rng = np.random.default_rng([seed, index, 0])
        items = [{"key": "save"}]
        for i in range(self.rounds):
            items.append({
                "key": f"round{i}",
                "table": i % 2,
                "seed": _seed(rng),
                "csv": os.path.join(self.workdir, f"snapshot{i % 2}.csv"),
            })
        return items

    def run(self, state, item, tr):
        if item["key"] == "save":
            for tab, path in zip(state["tables"], state["paths"]):
                with tr.span("symbols.save_table") as counts:
                    sym.save_table(tab, path)
                counts["bytes"] = os.path.getsize(path)
            return None
        path = state["paths"][item["table"]]
        with tr.span("symbols.load_table", bytes=os.path.getsize(path)):
            tab = sym.load_table(path)
        f = _random_field(tr, item["seed"], self.bound, 2.0, 2, 2)
        modes = lattice_size(self.bound, 2)
        times = np.linspace(0.0, self.T1, self.steps + 1)
        with tr.span("solvers.steady", modes=modes):
            flow = sol.stokes_steady(tab, f)
            residual = sol.stokes_residual(tab, flow, f)
        with tr.span("solvers.steady", modes=modes):
            dec = sol.navier_decompose(tab, *self.LAME)
            disp = sol.navier_steady(dec, f)
        with tr.span("solvers.steady", modes=modes):
            u0 = sol.leray_project(tab, f)
        with tr.span("solvers.evolve", modes=modes * self.steps):
            decay = sol.stokes_evolve(tab, u0, None, times)
        with tr.span("solvers.evolve", modes=modes * self.steps):
            wave = sol.navier_evolve(dec, f, flow.velocity, None, times)
        with tr.span("fields.to_csv") as counts:
            fields.to_csv(wave.states[-1], item["csv"])
        counts["bytes"] = os.path.getsize(item["csv"])
        return {"table": tab, "f": f, "flow": flow, "residual": residual, "disp": disp,
                "u0": u0, "decay": decay, "wave": wave}

    def check(self, state, item, out, tr):
        rep = ck.Report()
        if item["key"] == "save":
            for tab, path in zip(state["tables"], state["paths"]):
                with open(path) as fh:
                    lines = fh.read().splitlines()
                want = 1 + lattice_size(tab.bound, 2) - 1 + len(tab.lambda_radial_map)
                rep.expect("symbols", "cache line count", len(lines) == want, f"{len(lines)} != {want}")
            return rep
        tab, ref = out["table"], state["tables"][item["table"]]
        same = (np.array_equal(tab.lam, ref.lam)
                and tab.lambda_radial_map == ref.lambda_radial_map
                and tab.tol == ref.tol
                and np.array_equal(tab.orientation.vec, ref.orientation.vec)
                and (tab.kernel.family, tab.kernel.horizon, tab.kernel.beta, tab.kernel.normalization)
                == (ref.kernel.family, ref.kernel.horizon, ref.kernel.beta, ref.kernel.normalization))
        rep.expect("symbols", "cache round trip is exact", same)
        lam = tab.lam
        f = out["f"]
        ck.stokes(rep, tab, f, out["flow"])
        rep.at_most("solvers", "stokes_residual", out["residual"], 1e-12)
        mu, lam_lame = self.LAME
        rep.at_most("solvers", "navier residual",
                    ck.rel_max(ck.navier_matrix_apply(lam, mu, lam_lame, out["disp"].coeffs), f.coeffs),
                    1e-12)
        # unforced Stokes flow decays mode by mode as exp(-|lambda|^2 t)
        states = out["decay"].states
        exact = np.exp(-ck.abs2(lam) * self.T1)[..., None] * out["u0"].coeffs
        rep.at_most("solvers", "stokes decay", ck.rel_max(states[-1].coeffs, exact), 1e-12)
        norms = [fields.l2_norm(s) for s in states]
        rep.expect("solvers", "stokes energy decreasing",
                   all(b < a for a, b in zip(norms[:-1], norms[1:])))
        wave = out["wave"]
        rep.at_most("solvers", "hamiltonian drift",
                    ck.hamiltonian_drift(lam, mu, lam_lame, wave.states, wave.extras["rates"]), 1e-10)
        snap = wave.states[-1].coeffs
        table = np.loadtxt(item["csv"], delimiter=",", skiprows=1, ndmin=2)
        rows = table[:, 2::2] + 1j * table[:, 3::2]
        rep.expect("fields", "csv round trip is exact",
                   rows.shape == (snap.shape[0] * snap.shape[1], 2)
                   and np.array_equal(rows, snap.reshape(-1, 2)))
        for name, value in (("velocity_l2", fields.l2_norm(out["flow"].velocity)),
                            ("displacement_l2", fields.l2_norm(out["disp"])),
                            ("wave_l2", fields.l2_norm(wave.states[-1]))):
            rep.observe("solvers", name, value, 1e-7 * value)
        return rep


WORKLOADS = {w.name: w for w in (Sweep2d, Field3d, Bond1d, Cached2d)}
