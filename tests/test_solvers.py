import dataclasses
import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from nlspectral import fields as fl
from nlspectral import normalize
from nlspectral import operators as ops
from nlspectral import quadrature as quad
from nlspectral import solvers as sol
from nlspectral.errors import KernelError
from nlspectral.fields import l2_norm, s_norm
from nlspectral.symbols import (Orientation, SymbolTable, build_table, local_table,
                                verify_bounds)
import oracles


def test_stokes_gradient_forcing_gives_pure_pressure(table2):
    # fhat = lambda(xi0) on one mode: the projector annihilates it
    f = oracles.complex_zeros(2, 8, (2,))
    f.set_mode((2, 1), table2.lam_at((2, 1)))
    s = sol.stokes_steady(table2, f)
    assert l2_norm(s.velocity) <= 1e-14
    assert s.pressure.coeffs[2 + 8, 1 + 8] == pytest.approx(1.0, abs=1e-13)


def test_stokes_orthogonal_forcing_gives_pure_velocity(table2):
    lam = table2.lam_at((1, 3))
    fvec = np.array([-np.conj(lam[1]), np.conj(lam[0])])  # perp to conj(lam)
    assert abs(np.conj(lam) @ fvec) < 1e-14
    f = oracles.complex_zeros(2, 8, (2,))
    f.set_mode((1, 3), fvec)
    s = sol.stokes_steady(table2, f)
    assert l2_norm(s.pressure) <= 1e-14
    expect = fvec / float(np.sum(np.abs(lam) ** 2))
    np.testing.assert_allclose(s.velocity.coeffs[1 + 8, 3 + 8], expect, atol=1e-14)


def test_stokes_rejects_degenerate_table(table2):
    # a public table whose symbol vanishes at a nonzero mode must not give a
    # plausible solution: only xi = 0 is pinned, and no such table is made
    lam = table2.lam.copy()
    lam[tuple(np.array((3, -2)) + table2.bound)] = 0.0
    with pytest.raises(KernelError, match="degenerate"):
        SymbolTable(table2.kernel, table2.orientation, table2.bound, lam,
                    table2.radial, table2.tol)
    with pytest.raises(KernelError, match="degenerate"):
        dataclasses.replace(table2, lam=lam)
    sol.stokes_steady(table2, fl.random_field(71, 8, 2.0, components=2))


def _field(table, components, bound=None, dimension=None):
    """A random field of the table's N and d unless given, with these components (0: scalar)."""
    return fl.random_field(5, bound or table.bound, 2.0, dimension=dimension or table.dimension,
                           components=components)


def _navier(t):
    return sol.navier_decompose(t, 1.0, 0.5)


# entry point: (table dimension, components it expects (0: scalar), call with the field)
_ENTRY_POINTS = {
    "leray_project": (2, 2, sol.leray_project),
    "stokes_steady": (2, 2, sol.stokes_steady),
    "stokes_residual": (2, 2, lambda t, f: sol.stokes_residual(
        t, sol.stokes_steady(t, _field(t, 2)), f)),
    "stokes_stability": (2, 2, lambda t, f: sol.stokes_stability(
        t, sol.stokes_steady(t, _field(t, 2)), f)),
    "stokes_evolve u0": (2, 2, lambda t, u: sol.stokes_evolve(t, u, None, [0.0, 0.1])),
    "stokes_evolve forcing": (2, 2, lambda t, f: sol.stokes_evolve(
        t, sol.leray_project(t, _field(t, 2)), f, [0.0, 0.1])),
    "stokes_evolve forcing(t)": (2, 2, lambda t, f: sol.stokes_evolve(
        t, sol.leray_project(t, _field(t, 2)), lambda s: f, [0.0, 0.1])),
    "helmholtz2d": (2, 2, sol.helmholtz2d),
    "helmholtz2d_reconstruct q": (2, 0, lambda t, q: sol.helmholtz2d_reconstruct(
        t, _field(t, 0), q)),
    "helmholtz3d": (3, 3, sol.helmholtz3d),
    "divcurl3d f": (3, 0, lambda t, f: sol.divcurl3d(t, f, fl.SpectralField.zeros(3, 6, (3,)))),
    "divcurl3d g": (3, 3, lambda t, g: sol.divcurl3d(t, fl.SpectralField.zeros(3, 6), g)),
    "navier_steady": (2, 2, lambda t, f: sol.navier_steady(_navier(t), f)),
    "navier_apply": (2, 2, lambda t, u: sol.navier_apply(_navier(t), u)),
    "navier_energy": (2, 2, lambda t, u: sol.navier_energy(_navier(t), u)),
    "navier_evolve g": (2, 2, lambda t, g: sol.navier_evolve(
        _navier(t), g, _field(t, 2), None, [0.0, 0.1])),
    "navier_evolve h": (2, 2, lambda t, h: sol.navier_evolve(
        _navier(t), _field(t, 2), h, None, [0.0, 0.1])),
    "navier_evolve forcing": (2, 2, lambda t, f: sol.navier_evolve(
        _navier(t), _field(t, 2), _field(t, 2), lambda s: f, [0.0, 0.1])),
    "hamiltonian_per_mode u": (2, 2, lambda t, u: sol.hamiltonian_per_mode(
        _navier(t), u, _field(t, 2))),
    "hamiltonian_per_mode v": (2, 2, lambda t, v: sol.hamiltonian_per_mode(
        _navier(t), _field(t, 2), v)),
}

# how a field misfits a table of (N, d) that expects k components
_MISFITS = {
    "bound": lambda t, k: _field(t, k, bound=t.bound - 2),
    "dimension": lambda t, k: _field(t, k, dimension=5 - t.dimension),
    "components": lambda t, k: _field(t, 0 if k else t.dimension),
    "one more component": lambda t, k: _field(t, k + 1),
}


@pytest.mark.parametrize("misfit", _MISFITS)
@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_solvers_check_their_fields_against_the_table(table2, table3, entry, misfit):
    # at the parent a 2D 3-component field and a 3D table came back from
    # stokes_steady with component shape (5, 3), and a misfit bound raised
    # numpy's broadcast error, which names nothing
    d, k, call = _ENTRY_POINTS[entry]
    table = table2 if d == 2 else table3
    call(table, fl.SpectralField.zeros(d, table.bound, (k,) if k else ()))  # a field that fits
    with pytest.raises(ValueError, match="does not fit a table|expected component shape"):
        call(table, _MISFITS[misfit](table, k))


def test_stokes_residual_and_divergence(table2):
    f = fl.random_field(71, 8, 2.0, components=2)
    s = sol.stokes_steady(table2, f)
    assert sol.stokes_residual(table2, s, f) <= 1e-12
    assert np.max(np.abs(ops.divergence(table2, s.velocity).coeffs)) <= 1e-12
    assert sol.stokes_stability(table2, s, f) <= 2.0


def test_stokes_outputs_zero_mean_and_real(table2):
    f = fl.random_field(72, 8, 2.0, components=2)
    s = sol.stokes_steady(table2, f)
    assert abs(s.pressure.coeffs[8, 8]) == 0.0
    assert np.max(np.abs(s.velocity.coeffs[8, 8])) == 0.0
    herm = s.velocity.coeffs - np.conj(s.velocity.coeffs[::-1, ::-1])
    assert np.max(np.abs(herm)) <= 1e-15


def test_stokes_convergence_first_order():
    n = Orientation.from_angle(0.7)
    f = fl.random_field(2024, 8, 3.0, components=2)
    deltas = [0.2, 0.1, 0.05, 0.025]
    errs = {"err_u": [], "err_p": [], "err_div": []}
    for delta in deltas:
        k = normalize("constant", 2, horizon=delta)
        tab = build_table(k, n, 8)
        e = sol.stokes_errors(tab, f)
        for key in errs:
            errs[key].append(e[key])
    from nlspectral.experiments import fit_slope

    for key, vals in errs.items():
        assert 0.9 <= fit_slope(deltas, vals) <= 1.5
    # divergence defect is genuinely nonzero at finite horizon
    assert errs["err_div"][0] > 1e-6


def test_stokes_gradient_mode_velocity_errors_vanish():
    # orientation parallel to the mode makes lambda parallel to xi, so both
    # solutions are pure pressure and the velocity/divergence errors vanish;
    # the two pressures still differ by O(delta)
    n = Orientation.from_vector([1.0, 0.0])
    k = normalize("constant", 2, horizon=0.1)
    tab = build_table(k, n, 4)
    f = oracles.complex_zeros(2, 4, (2,))
    f.set_mode((2, 0), tab.lam_at((2, 0)))
    e = sol.stokes_errors(tab, f)
    assert e["err_u"] <= 1e-14
    assert e["err_div"] <= 1e-14
    assert 0.0 < e["err_p"] < 0.2


def test_leray_projector_idempotent_annihilates_gradients(table2):
    P = oracles.leray_matrix(table2)
    PP = np.einsum("...ij,...jk->...ik", P, P)
    assert np.max(np.abs(PP - P)) <= 1e-12
    lam_action = np.einsum("...ij,...j->...i", P, table2.lam)
    assert np.max(np.abs(lam_action)) <= 1e-12
    u = fl.random_field(73, 8, 1.0, components=2)
    pu = sol.leray_project(table2, u)
    assert np.max(np.abs(ops.divergence(table2, pu).coeffs)) <= 1e-12
    # the unit-symbol form applies the dense projector
    dense = np.einsum("...ij,...j->...i", P, u.coeffs)
    assert np.max(np.abs(pu.coeffs - dense)) <= 16 * _EPS * np.max(np.abs(u.coeffs))


def test_stokes_evolve_decay_and_initial_check(table2):
    u0 = sol.leray_project(table2, fl.random_field(74, 8, 2.0, components=2))
    times = np.linspace(0.0, 0.4, 9)
    traj = sol.stokes_evolve(table2, u0, None, times)
    seq = [l2_norm(s) for s in traj.states]
    assert all(b < a for a, b in zip(seq[:-1], seq[1:]))
    raw = fl.random_field(74, 8, 2.0, components=2)
    with pytest.raises(ValueError):
        sol.stokes_evolve(table2, raw, None, times)


def test_stokes_evolve_matches_heat_kernel_per_mode(table2):
    u0 = sol.leray_project(table2, fl.random_field(75, 8, 2.0, components=2))
    times = np.array([0.0, 0.13, 0.4])
    traj = sol.stokes_evolve(table2, u0, None, times)
    decay = np.exp(-table2.abs2 * 0.4)[..., None]
    np.testing.assert_allclose(traj.states[-1].coeffs, u0.coeffs * decay, atol=1e-14)


def test_stokes_trajectory_converges_to_local():
    n = Orientation.from_angle(0.7)
    loc = local_table(2, 6)
    u_base = sol.leray_project(loc, fl.random_field(76, 6, 3.0, components=2))
    times = np.linspace(0.0, 0.5, 11)
    ref = sol.stokes_evolve(loc, u_base, None, times)
    errs = []
    for delta in (0.2, 0.1, 0.05):
        k = normalize("constant", 2, horizon=delta)
        tab = build_table(k, n, 6)
        traj = sol.stokes_evolve(tab, sol.leray_project(tab, u_base), None, times)
        errs.append(sol.trajectory_l2_error(traj, ref))
    assert errs[2] < errs[1] < errs[0]


def test_helmholtz2d_exactness(table2):
    u = fl.random_field(81, 8, 1.0, components=2)
    p, q = sol.helmholtz2d(table2, u)
    rec = sol.helmholtz2d_reconstruct(table2, p, q)
    assert np.max(np.abs(rec.coeffs - u.coeffs)) <= 1e-12
    assert abs(p.coeffs[8, 8]) == 0.0 and abs(q.coeffs[8, 8]) == 0.0
    # stability of the splitting
    assert sol.helmholtz_stability(table2, u, (p, q)) <= 2.0 + 1e-9


def test_helmholtz2d_gradient_input_has_no_rotational_part(table2):
    g = fl.random_field(82, 8, 1.0)
    p, q = sol.helmholtz2d(table2, ops.gradient(table2, g))
    assert np.max(np.abs(q.coeffs)) <= 1e-13
    np.testing.assert_allclose(p.coeffs, g.coeffs, atol=1e-13)


def test_helmholtz3d_exactness(table3):
    u = fl.random_field(83, 6, 1.0, dimension=3, components=3)
    p, v = sol.helmholtz3d(table3, u)
    rec = sol.helmholtz3d_reconstruct(table3, p, v)
    assert np.max(np.abs(rec.coeffs - u.coeffs)) <= 1e-12
    gauge = np.sum(table3.lam * v.coeffs, axis=-1)
    assert np.max(np.abs(gauge)) <= 1e-12


def test_divcurl_recovers_gradient_solution(table3):
    # D(Gp) = L p and C(Gp) = 0, so data (f = Lp, g = 0) has solution u = G p
    p = fl.random_field(84, 6, 1.0, dimension=3)
    expect = ops.gradient(table3, p)
    f = ops.divergence(table3, expect)
    g = fl.SpectralField.zeros(3, 6, (3,))
    u, rep = sol.divcurl3d(table3, f, g)
    np.testing.assert_allclose(u.coeffs, expect.coeffs, atol=1e-12)
    assert rep["residual"] <= 1e-10


def test_divcurl_zero_data_zero_solution(table3):
    z0 = fl.SpectralField.zeros(3, 6)
    z1 = fl.SpectralField.zeros(3, 6, (3,))
    u, rep = sol.divcurl3d(table3, z0, z1)
    assert l2_norm(u) == 0.0


def test_divcurl_incompatible_data_rejected(table3):
    g = fl.random_field(85, 6, 1.0, dimension=3, components=3)
    f = fl.SpectralField.zeros(3, 6)
    with pytest.raises(ValueError):
        sol.divcurl3d(table3, f, g)


def _divcurl_normal_equations(table, f, g):
    """Reference: per-mode normal equations of the 4x3 stack, solved batched."""
    lam = table.lam
    lam_neg = table.lam_neg()
    z = np.zeros_like(lam[..., 0])
    K = np.stack([
        np.stack([z, -lam[..., 2], lam[..., 1]], axis=-1),
        np.stack([lam[..., 2], z, -lam[..., 0]], axis=-1),
        np.stack([-lam[..., 1], lam[..., 0], z], axis=-1),
    ], axis=-2)
    KH = np.conj(np.swapaxes(K, -1, -2))
    M = np.einsum("...i,...j->...ij", np.conj(lam_neg), lam_neg) + KH @ K
    rhs = np.conj(lam_neg) * f.coeffs[..., None] + np.einsum("...ij,...j->...i", KH, g.coeffs)
    nz = table.abs2 > 0.0
    u = np.zeros_like(g.coeffs)
    u[nz] = np.linalg.solve(M[nz], rhs[nz][..., None])[..., 0]
    return u


@pytest.fixture(scope="module")
def frac_table3():
    k = normalize("fractional", 3, horizon=0.1, beta=1.5)
    return build_table(k, Orientation.from_vector([1.0, -2.0, 0.5]), 6)


@pytest.mark.parametrize("which", ["table3", "frac_table3"])
@pytest.mark.parametrize("compatible", [True, False])
def test_divcurl_closed_form_matches_normal_equations(request, which, compatible):
    tab = request.getfixturevalue(which)
    ustar = fl.random_field(87, 6, 1.0, dimension=3, components=3)
    if compatible:
        f, g = ops.divergence(tab, ustar), ops.curl3d(tab, ustar)
    else:  # least squares: the closed form is the minimizer for any data
        f = fl.random_field(88, 6, 1.0, dimension=3)
        g = fl.random_field(89, 6, 1.0, dimension=3, components=3)
    u, _ = sol.divcurl3d(tab, f, g, residual_tol=np.inf)
    ref = _divcurl_normal_equations(tab, f, g)
    assert np.max(np.abs(u.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))
    if compatible:
        assert np.max(np.abs(u.coeffs - ustar.coeffs)) <= 1e-12


@pytest.mark.parametrize("which", ["table3", "frac_table3"])
def test_divcurl_friedrichs_ratio_is_coercivity(request, which):
    tab = request.getfixturevalue(which)
    ustar = fl.random_field(90, 6, 1.0, dimension=3, components=3)
    u, rep = sol.divcurl3d(tab, ops.divergence(tab, ustar), ops.curl3d(tab, ustar))
    ratio = 1.0 + l2_norm(u) ** 2 / l2_norm(ops.gradient(tab, u)) ** 2
    assert rep["friedrichs_ratio"] == pytest.approx(ratio, rel=1e-14)
    a2 = tab.abs2
    assert rep["friedrichs_ratio"] <= 1.0 + 1.0 / np.min(a2[a2 > 0.0])


def test_divcurl_friedrichs_stable_across_deltas():
    n = [1.0, -2.0, 0.5]
    ratios = []
    for delta in (0.2, 0.1, 0.05):
        k = normalize("constant", 3, horizon=delta)
        tab = build_table(k, Orientation.from_vector(n), 6)
        ustar = fl.random_field(86, 6, 1.0, dimension=3, components=3)
        f = ops.divergence(tab, ustar)
        g = ops.curl3d(tab, ustar)
        _, rep = sol.divcurl3d(tab, f, g)
        ratios.append(rep["friedrichs_ratio"])
    assert (max(ratios) - min(ratios)) / max(ratios) < 0.25


def test_navier_korn_and_energy(table2):
    for mu, lam_lame in [(1.0, 1.0), (1.0, -1.5), (2.0, 0.0)]:
        dec = sol.navier_decompose(table2, mu, lam_lame)
        u = fl.random_field(91, 8, 2.0, components=2)
        e_sym = sol.navier_energy(dec, u)
        e_asm = sol.navier_energy_assembled(table2, u, mu, lam_lame)
        assert e_asm == pytest.approx(e_sym, rel=1e-10)
        korn_const = min(mu, lam_lame + 2.0 * mu)
        assert 2.0 * e_sym >= korn_const * s_norm(u, table2) ** 2 - 1e-10


def test_navier_rejects_bad_lame(table2):
    with pytest.raises(ValueError):
        sol.navier_decompose(table2, 0.0, 1.0)
    with pytest.raises(ValueError):
        sol.navier_decompose(table2, 1.0, -2.0)


def test_navier_steady_residual(table2):
    dec = sol.navier_decompose(table2, 1.0, -1.5)
    f = fl.random_field(92, 8, 2.0, components=2)
    u = sol.navier_steady(dec, f)
    res = sol.navier_apply(dec, u)
    assert np.max(np.abs(res.coeffs - f.coeffs)) <= 1e-12


def test_navier_operator_versus_definition(table2):
    # P u = -mu L u - (lambda + mu) G(D u), assembled from the base operators
    mu, lam_lame = 1.3, -0.4
    dec = sol.navier_decompose(table2, mu, lam_lame)
    u = fl.random_field(93, 8, 2.0, components=2)
    direct = sol.navier_apply(dec, u)
    assembled = (ops.diffusion(table2, u) * -mu
                 + ops.gradient(table2, ops.divergence(table2, u)) * -(lam_lame + mu))
    scale = np.max(np.abs(direct.coeffs))
    assert np.max(np.abs(direct.coeffs - assembled.coeffs)) <= 1e-13 * scale


def test_navier_steady_convergence_vnorm():
    n = Orientation.from_angle(0.7)
    f = fl.random_field(2024, 8, 3.0, components=2)
    mu, lam_lame = 1.0, 1.0
    dec0 = sol.navier_decompose(local_table(2, 8), mu, lam_lame)
    u_loc = sol.navier_steady(dec0, f)
    deltas = [0.2, 0.1, 0.05, 0.025]
    errs = []
    for delta in deltas:
        k = normalize("constant", 2, horizon=delta)
        tab = build_table(k, n, 8)
        dec = sol.navier_decompose(tab, mu, lam_lame)
        errs.append(sol.v_norm_error(tab, dec, sol.navier_steady(dec, f), u_loc))
    from nlspectral.experiments import fit_slope

    assert 0.9 <= fit_slope(deltas, errs) <= 1.5


def test_navier_hamiltonian_conserved(table2):
    dec = sol.navier_decompose(table2, 1.0, 1.0)
    g = fl.random_field(94, 8, 2.0, components=2)
    h = fl.random_field(95, 8, 2.0, components=2)
    times = np.linspace(0.0, 1.0, 17)
    traj = sol.navier_evolve(dec, g, h, None, times)
    H0 = sol.hamiltonian_per_mode(dec, traj.states[0], traj.extras["rates"][0])
    floor = np.maximum(H0, 1e-30)
    for s, r in zip(traj.states, traj.extras["rates"]):
        H = sol.hamiltonian_per_mode(dec, s, r)
        assert float(np.max(np.abs(H - H0) / floor)) <= 1e-10


def test_navier_forced_step_matches_quadrature():
    # one mode, constant forcing: compare against the explicit particular
    # solution y = g cos(w t) + (f/w^2)(1 - cos(w t)) with h = 0
    k = normalize("constant", 2, horizon=0.1)
    tab = build_table(k, Orientation.from_vector([1.0, 0.0]), 2)
    dec = sol.navier_decompose(tab, 1.0, 1.0)
    xi = (1, 0)
    lam = tab.lam_at(xi)
    g = oracles.complex_zeros(2, 2, (2,))
    gvec = lam / np.linalg.norm(lam)       # inside the Pi eigenspace
    g.set_mode(xi, gvec)
    h = oracles.complex_zeros(2, 2, (2,))
    f = oracles.complex_zeros(2, 2, (2,))
    f.set_mode(xi, 0.3 * gvec)
    times = np.linspace(0.0, 0.7, 8)
    traj = sol.navier_evolve(dec, g, h, f, times)
    idx = (1 + 2, 0 + 2)
    a = dec.a[idx]
    w = np.sqrt(a)
    t = times[-1]
    expect = gvec * np.cos(w * t) + 0.3 * gvec / a * (1.0 - np.cos(w * t))
    np.testing.assert_allclose(traj.states[-1].coeffs[idx], expect, atol=1e-12)


def test_navier_trajectory_converges_to_local():
    n = Orientation.from_angle(0.7)
    g = fl.random_field(96, 6, 3.0, components=2)
    h = fl.random_field(97, 6, 3.0, components=2)
    times = np.linspace(0.0, 0.5, 11)
    ref = sol.navier_evolve(sol.navier_decompose(local_table(2, 6), 1.0, 1.0), g, h, None, times)
    errs = []
    for delta in (0.2, 0.1, 0.05):
        k = normalize("constant", 2, horizon=delta)
        tab = build_table(k, n, 6)
        dec = sol.navier_decompose(tab, 1.0, 1.0)
        errs.append(sol.trajectory_l2_error(sol.navier_evolve(dec, g, h, None, times), ref))
    assert errs[2] < errs[1] < errs[0]


def test_nonlocal_and_local_navier_matrices_do_not_commute(table2):
    dec = sol.navier_decompose(table2, 1.0, 1.0)
    dec0 = sol.navier_decompose(local_table(2, 8), 1.0, 1.0)
    idx = (3 + 8, 4 + 8)   # mode (3, 4), not aligned with the orientation
    eye = np.eye(2, dtype=complex)
    Pi, Pi0 = (np.outer(d.table.hat[idx], np.conj(d.table.hat[idx])) for d in (dec, dec0))
    P = dec.a[idx] * Pi + dec.b[idx] * (eye - Pi)
    P0 = dec0.a[idx] * Pi0 + dec0.b[idx] * (eye - Pi0)
    comm = P @ P0 - P0 @ P
    assert np.max(np.abs(comm)) > 1e-3


def test_projector_spectral_decomposition(table2):
    dec = sol.navier_decompose(table2, 1.0, 1.0)
    idx = (2 + 8, 5 + 8)
    Pi = np.outer(dec.table.hat[idx], np.conj(dec.table.hat[idx]))
    assert np.max(np.abs(Pi @ Pi - Pi)) <= 1e-12
    assert np.max(np.abs(Pi - Pi.conj().T)) <= 1e-12
    assert dec.a[idx] > 0 and dec.b[idx] > 0


def test_stokes_evolve_forced_step_exact(table2):
    # constant forcing, one step: uhat(t) = E uhat0 + (1-E)/|lam|^2 P fhat
    u0 = sol.leray_project(table2, fl.random_field(77, 8, 2.0, components=2))
    f = fl.random_field(78, 8, 2.0, components=2)
    dt = 0.2
    traj = sol.stokes_evolve(table2, u0, f, np.array([0.0, dt]))
    a2 = table2.abs2[..., None]
    E = np.exp(-a2 * dt)
    P = oracles.leray_matrix(table2)
    pf = np.einsum("...ij,...j->...i", P, f.coeffs)
    inv = np.zeros_like(a2)
    inv[a2 > 0] = 1.0 / a2[a2 > 0]
    expect = E * u0.coeffs + (1.0 - E) * inv * pf
    np.testing.assert_allclose(traj.states[-1].coeffs, expect, atol=1e-14)
    # pressure responds instantaneously to the forcing
    lam_h = np.conj(table2.lam)
    p_expect = np.einsum("...i,...i->...", lam_h, f.coeffs) * inv[..., 0]
    np.testing.assert_allclose(traj.extras["pressures"][0].coeffs, p_expect,
                               atol=1e-14)


def test_leray_fixes_divergence_free_fields(table2):
    u = sol.leray_project(table2, fl.random_field(79, 8, 1.0, components=2))
    again = sol.leray_project(table2, u)
    np.testing.assert_allclose(again.coeffs, u.coeffs, atol=1e-14)


def test_helmholtz_outputs_real_for_real_input(table2):
    u = fl.random_field(87, 8, 1.0, components=2)
    p, q = sol.helmholtz2d(table2, u)
    for part in (p, q):
        assert part.real
        herm = part.coeffs - np.conj(part.coeffs[::-1, ::-1])
        assert np.max(np.abs(herm)) <= 1e-14


def _navier_evolve_reference(table, dec, g, h, forcing, times):
    """Per-step navier_evolve through the dense projector: four projections and
    fresh cos/sin every step."""
    Pi = oracles.symbol_projector(table)

    def apply(fa, fb, c):
        pc = np.einsum("...ij,...j->...i", Pi, c)
        return fa[..., None] * pc + fb[..., None] * (c - pc)

    wa, wb = np.sqrt(dec.a), np.sqrt(dec.b)
    inva, invb = (np.divide(1.0, x, out=np.zeros_like(x), where=x > 0.0)
                  for x in (dec.a, dec.b))
    u, v = g.coeffs.astype(complex), h.coeffs.astype(complex)
    states, rates = [u.copy()], [v.copy()]
    for t0, t1 in zip(times[:-1], times[1:]):
        dt = t1 - t0
        ca, cb = np.cos(wa * dt), np.cos(wb * dt)
        sa = np.where(wa > 0.0, np.sin(wa * dt) / np.where(wa > 0.0, wa, 1.0), dt)
        sb = np.where(wb > 0.0, np.sin(wb * dt) / np.where(wb > 0.0, wb, 1.0), dt)
        u_new = apply(ca, cb, u) + apply(sa, sb, v)
        v_new = apply(-wa * np.sin(wa * dt), -wb * np.sin(wb * dt), u) + apply(ca, cb, v)
        if forcing is not None:
            f = forcing(t0).coeffs
            u_new = u_new + apply((1.0 - ca) * inva, (1.0 - cb) * invb, f)
            v_new = v_new + apply(sa * dec.a * inva, sb * dec.b * invb, f)
        u, v = u_new, v_new
        states.append(u.copy())
        rates.append(v.copy())
    return states, rates


def _mode_norm(c):
    return np.sqrt(np.sum(np.abs(c) ** 2, axis=-1))


def _navier_floor(dec, states, rates, forcing, times):
    """Rounding floors of |navier_evolve - reference| for displacements and rates.

    Both forms take the exact step of their own input and differ by
    rounding only (e = 2^-53).  Per mode let w+ and w- be the larger and
    smaller of sqrt(a) and sqrt(b).  A difference (du, dv) has energy norm
    E = (|dv|^2 + du^H P du)^(1/2) <= w+ |du| + |dv|, which the exact
    unforced step keeps, while the forcing terms cancel in a difference;
    and |du| <= E / w-, |dv| <= E.  One step of either form combines the
    state (u, v) and the forcing f with factors of at most 1 into u and of
    at most max(1, w+) into v (for |dt| <= 1).  The projection rounds at
    most 2d + 12 times per term (the dense Pi c: Pi_ij from lambda_i,
    conj(lambda_j) and 1/|lambda|^2, then d products and their sum; or
    hat^H c and hat sigma), the difference c - Pi c and the combinations
    5 times more: K = 8 (d + 2) e >= (2d + 17) e of m = |u| + |v| + |f|
    per entry, so E <= 2 K max(1, w+) m_j for the step from t_j, per form.
    Splitting g and h at the start and forming the stored state at t_k
    round less than one step together, counted as one more with m_k.
    Summed over j <= k on the two forms:

        E_k = 4 K max(1, w+) sum_j m_j,  floors E_k / w- and E_k

    (zero at xi = 0, where w- = 0 and both forms carry the same zeros).
    """
    k = 8 * (dec.table.dimension + 2) * 2.0**-53
    wa, wb = np.sqrt(dec.a), np.sqrt(dec.b)
    hi, lo = np.maximum(wa, wb), np.minimum(wa, wb)
    m = [_mode_norm(u) + _mode_norm(v) for u, v in zip(states, rates)]
    if forcing is not None:
        m = [mj + _mode_norm(forcing(t).coeffs) for mj, t in zip(m, times)]
    energy = 4 * k * np.maximum(1.0, hi) * np.cumsum(m, axis=0)
    return np.divide(energy, lo, out=np.zeros_like(energy), where=lo > 0.0), energy


def _stokes_evolve_reference(table, u0, forcing, times):
    """Per-step stokes_evolve through the dense projector: a fresh exp(-a2 dt) every step."""
    a2, P = table.abs2[..., None], oracles.leray_matrix(table)
    inv = np.divide(1.0, a2, out=np.zeros_like(a2), where=a2 > 0.0)
    u = u0.coeffs.astype(complex)
    states = [u.copy()]
    for t0, t1 in zip(times[:-1], times[1:]):
        decay = np.exp(-a2 * (t1 - t0))
        u = decay * u
        if forcing is not None:
            pf = np.einsum("...ij,...j->...i", P, forcing(t0).coeffs)
            u = u + (1.0 - decay) * inv * pf
        states.append(u.copy())
    return states


def _stokes_floor(table, states, forcing, times):
    """Rounding floor of |stokes_evolve - reference| for a forced flow, per step and mode.

    The two forms differ only in the projection of the forcing, each off
    by at most K |f| with K = 8 (d + 2) e as in _navier_floor; the gain
    (1 - exp(-a2 dt)) / a2 <= dt carries it into u.  Both then multiply
    by the decay (<= 1, so earlier differences shrink) and add, rounding
    differently on their different operands: at most 2 e |u| on each side.
    Summed over the steps before k:

        F_k = sum_{j < k} (2 K gain_j |f(t_j)| + 4 e |u_{j+1}|).
    """
    e = 2.0**-53
    k = 8 * (table.dimension + 2) * e
    a2 = table.abs2
    inv = np.divide(1.0, a2, out=np.zeros_like(a2), where=a2 > 0.0)
    floors = [np.zeros_like(a2)]
    for j, (t0, t1) in enumerate(zip(times[:-1], times[1:])):
        gain = (1.0 - np.exp(-a2 * (t1 - t0))) * inv
        local = 2 * k * gain * _mode_norm(forcing(t0).coeffs) + 4 * e * _mode_norm(states[j + 1])
        floors.append(floors[-1] + local)
    return floors


# non-uniform, with a run of equal steps and a repeated time (dt = 0); and
# linspace grids whose step is not dyadic, so successive dt differ in the last bits
_GRIDS = [np.array([0.0, 0.013, 0.05, 0.05, 0.11, 0.17, 0.23, 0.29, 0.5, 0.61]),
          np.linspace(0.0, 1.0, 11), np.linspace(0.0, 0.5, 11), np.linspace(0.0, 0.2, 5)]


def _forcing(t):
    return fl.random_field(int(1000 * t) + 3, 8, 2.0, components=2) * (1.0 + t)


@pytest.mark.parametrize("times", _GRIDS)
@pytest.mark.parametrize("forcing", [None, _forcing])
def test_navier_evolve_matches_per_step_reference(table2, forcing, times):
    dec = sol.navier_decompose(table2, 1.0, 0.5)
    g = fl.random_field(40, 8, 2.0, components=2)
    h = fl.random_field(41, 8, 2.0, components=2)
    traj = sol.navier_evolve(dec, g, h, forcing, times)
    states, rates = _navier_evolve_reference(table2, dec, g, h, forcing, times)
    assert len(traj.states) == len(states) == len(times)
    floor_u, floor_v = _navier_floor(dec, states, rates, forcing, times)
    for got, want, floor in zip(traj.states + traj.extras["rates"], states + rates,
                                list(floor_u) + list(floor_v)):
        assert np.all(np.abs(got.coeffs - want) <= floor[..., None])


@pytest.mark.parametrize("times", _GRIDS)
@pytest.mark.parametrize("forcing", [None, _forcing])
def test_stokes_evolve_matches_per_step_reference(table2, forcing, times):
    u0 = sol.leray_project(table2, fl.random_field(42, 8, 2.0, components=2))
    traj = sol.stokes_evolve(table2, u0, forcing, times)
    states = _stokes_evolve_reference(table2, u0, forcing, times)
    assert len(traj.states) == len(states)
    if forcing is None:  # the decay alone: the same products, bit for bit
        for got, want in zip(traj.states, states):
            np.testing.assert_array_equal(got.coeffs, want)
        return
    floors = _stokes_floor(table2, states, forcing, times)
    for got, want, floor in zip(traj.states, states, floors):
        assert np.all(np.abs(got.coeffs - want) <= floor[..., None])


def _stokes_evolve_two_passes(table, u0, forcing, times):
    """stokes_evolve as it was with a forcing at every time: the states at the
    left ends in one pass, then the pressures with the forcing called again."""
    a2, inv, hat = table.abs2, table.inv_abs2, table.hat
    u, states, pressures = u0.coeffs.astype(complex), [u0.coeffs], []
    for t0, t1 in zip(times[:-1], times[1:]):
        decay = sol._spread(np.exp(-a2 * (t1 - t0)), table.dimension)
        f = forcing(t0).coeffs
        u = decay * u + (1.0 - decay) * inv[..., None] * (f - sol._along(hat, f)[1])
        states.append(u)
    for t in times:
        pressures.append(np.einsum("...i,...i->...", np.conj(table.lam), forcing(t).coeffs) * inv)
    return states, pressures


@pytest.mark.parametrize("times", _GRIDS)
def test_stokes_evolve_calls_the_forcing_once_per_time(table2, times):
    # one call serves the step from t and the pressure at t, with the bits of two
    u0 = sol.leray_project(table2, fl.random_field(42, 8, 2.0, components=2))
    calls = []

    def counted(t):
        calls.append(t)
        return _forcing(t)

    traj = sol.stokes_evolve(table2, u0, counted, times)
    assert calls == list(times)
    states, pressures = _stokes_evolve_two_passes(table2, u0, _forcing, times)
    for got, want in zip(traj.states, states):
        assert np.array_equal(got.coeffs, want)
    for got, want in zip(traj.extras["pressures"], pressures):
        assert np.array_equal(got.coeffs, want)
    assert len(traj.states) == len(traj.extras["pressures"]) == len(times)


_BAD_TIMES = {"backward": [0.0, -0.5], "nan": [0.0, math.nan], "inf": [0.0, math.inf],
              "two-d": [[0.0, 0.1]], "empty": []}


@pytest.mark.parametrize("times", _BAD_TIMES.values(), ids=_BAD_TIMES.keys())
def test_stokes_evolve_rejects_bad_time_grids(table2, times):
    # a decreasing step would run the heat flow backward: 1.33 grows to 3.8e23
    u0 = sol.leray_project(table2, fl.random_field(42, 8, 2.0, components=2))
    with pytest.raises(ValueError, match="times"):
        sol.stokes_evolve(table2, u0, None, times)


@pytest.mark.parametrize("times", [v for k, v in _BAD_TIMES.items() if k != "backward"],
                         ids=[k for k in _BAD_TIMES if k != "backward"])
def test_navier_evolve_rejects_bad_time_grids(table2, times):
    dec = sol.navier_decompose(table2, 1.0, 0.5)
    g = fl.random_field(40, 8, 2.0, components=2)
    with pytest.raises(ValueError, match="times"):
        sol.navier_evolve(dec, g, g, None, times)


def test_navier_evolve_runs_backward(table2):
    # the step is exact for either sign of dt: there and back returns to the start
    dec = sol.navier_decompose(table2, 1.0, 0.5)
    g = fl.random_field(40, 8, 2.0, components=2)
    h = fl.random_field(41, 8, 2.0, components=2)
    traj = sol.navier_evolve(dec, g, h, None, [0.0, 0.7, -0.2, 0.0])
    assert l2_norm(traj.states[1] - g) > 0.1
    np.testing.assert_allclose(traj.states[-1].coeffs, g.coeffs, atol=1e-13)
    np.testing.assert_allclose(traj.extras["rates"][-1].coeffs, h.coeffs, atol=1e-13)


def test_navier_split_parts(table2):
    # the spectra (1, 0) and (0, 1) give the two eigenspace parts of c: they
    # sum to c, and Pi c has no part outside its eigenspace
    dec = sol.navier_decompose(table2, 1.0, 1.0)
    u = fl.random_field(43, 8, 1.0, components=2)
    c = u.coeffs
    one, zero = np.ones_like(dec.a), np.zeros_like(dec.a)
    pc, qc = dec.apply(one, zero, u), dec.apply(zero, one, u)
    np.testing.assert_array_equal(qc, c - pc)
    np.testing.assert_allclose(dec.apply(zero, one, fl.SpectralField(8, 2, pc)), 0.0, atol=1e-15)
    np.testing.assert_array_equal(dec.apply(dec.a, dec.b, u),
                                  dec.a[..., None] * pc + dec.b[..., None] * qc)


# ---------------------------------------------------------------------------
# per-mode algebra over random tables
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


def _random_kernel(family, d, beta, delta):
    if family == "sine":
        return normalize("sine", d, horizon=delta)
    if family == "constant":
        return normalize("constant", d, horizon=delta)
    return normalize("fractional", d, beta=beta, horizon=delta)


def _random_orientation(d, angles):
    a, b = angles
    return (np.array([math.cos(a), math.sin(a)]) if d == 2 else
            np.array([math.sin(b) * math.cos(a), math.sin(b) * math.sin(a), math.cos(b)]))


_TABLE_ARGS = dict(
    d=st.sampled_from([2, 3]),
    family=st.sampled_from(["constant", "fractional", "sine"]),
    beta=st.floats(1.0, 1.95),
    delta=st.floats(0.02, 1.0),
    angles=st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, math.pi)),
    bound=st.integers(1, 6),
)
_random_tables = given(**_TABLE_ARGS)


@settings(max_examples=25, deadline=None)
@_random_tables
def test_per_mode_algebra_property(d, family, beta, delta, angles, bound):
    n = _random_orientation(d, angles)
    table = build_table(_random_kernel(family, d, beta, delta), n, bound)
    # |lambda(xi)| <= sqrt(2) d |xi| on every nonzero mode
    assert verify_bounds(table)["max_ratio"] <= math.sqrt(2.0) * d
    # the Leray projector is idempotent and self-adjoint per mode; its
    # entries are at most 1 and each carries a few roundings per term
    P = oracles.leray_matrix(table)
    tol = 16 * d * _EPS
    assert np.max(np.abs(np.einsum("...ij,...jk->...ik", P, P) - P)) <= tol
    assert np.max(np.abs(P - np.conj(np.swapaxes(P, -1, -2)))) <= tol
    # the unit symbol: |hat| = 1 up to the roundings of |lambda|^2 (d + 1),
    # its inverse square root (2) and the products (2), 0 at xi = 0
    hat = table.hat
    zero = (bound,) * d
    assert not np.any(hat[zero])
    unit = np.sqrt(np.sum(np.abs(hat) ** 2, axis=-1))
    unit[zero] = 1.0
    assert np.max(np.abs(unit - 1.0)) <= (d + 6) * _EPS
    # leray_project is idempotent and annihilates lambda, relative to the
    # field, with the roundings of hat^H c, hat sigma and the difference
    u = fl.random_field(bound + 7, bound, 1.0, dimension=d, components=d)
    pu = sol.leray_project(table, u)
    assert np.max(np.abs(sol.leray_project(table, pu).coeffs - pu.coeffs)) \
        <= tol * np.max(np.abs(u.coeffs))
    grad = fl.SpectralField(bound, d, table.lam.copy(), real=False)
    assert np.all(np.abs(sol.leray_project(table, grad).coeffs)
                  <= tol * _mode_norm(table.lam)[..., None])
    if d == 3:
        # curl grad p = lambda x (lambda p): lambda_y (lambda_z p) - lambda_z (lambda_y p)
        # per mode, two complex products of at most sqrt(5) roundings each per term
        p = fl.random_field(bound, bound, 1.0, dimension=3)
        cg = ops.curl3d(table, ops.gradient(table, p)).coeffs
        scale = table.abs2 * np.abs(p.coeffs)
        assert np.all(np.abs(cg) <= 8 * _EPS * scale[..., None])
        _assert_double_curl(table, fl.random_field(bound + 3, bound, 1.0, dimension=3,
                                                   components=3))


def _assert_double_curl(table, f):
    """C^-n C^n f = G D f - L f per mode (docs/curl_symbol.md):
    -conj(lambda) x (lambda x f) = -lambda (conj(lambda) . f) + |lambda|^2 f.

    With unit roundoff u = 2^-53 a complex product is off by sqrt(5) u
    relative and a sum or difference by u.  lambda x f is then off by at
    most 3.3 u |lambda| |f| per entry, and the second cross product, with
    its own rounding, by 3.3 u |lambda|^2 |f| (sqrt(3) from the three
    entries of the first) + 3.3 u |lambda|^2 |f|: under 10 u |lambda|^2 |f|.
    conj(lambda) . f is off by (sqrt(5) + 2) u |lambda| |f|, the gradient
    adds sqrt(5) u, |lambda|^2 f carries about (d + 3) u from the squares,
    their sum and the product, and the final difference u of the sum of
    both terms (2 |lambda|^2 |f|): under 16 u |lambda|^2 |f|.  In all,
    at most 26 u = 13 eps of |lambda|^2 |f|; 16 eps is allowed.
    """
    lhs = ops.curl3d(table, ops.curl3d(table, f), sign=-1)
    rhs = ops.gradient(table, ops.divergence(table, f)) - ops.diffusion(table, f)
    scale = table.abs2 * _mode_norm(f.coeffs)
    assert np.all(np.abs(lhs.coeffs - rhs.coeffs) <= 16 * _EPS * scale[..., None])


@settings(max_examples=10, deadline=None)
@_random_tables
def test_reflection_property(d, family, beta, delta, angles, bound):
    """build_table(-n) is table.lam_neg() bit for bit, the only cross-check of lam_neg.

    The closed angular form takes c = xi^.n, so -n gives -c exactly, and
    at even l the Chebyshev (2D) and Legendre (3D) recurrences keep
    Z_l(-c) = Z_l(c) and Z_l'(-c) = -Z_l'(c) bit for bit: the real part is
    negated exactly.  The imaginary part does not depend on n.
    """
    n = _random_orientation(d, angles)
    kernel = _random_kernel(family, d, beta, delta)
    table = build_table(kernel, n, bound)
    assert np.array_equal(build_table(kernel, -n, bound).lam, table.lam_neg())


@settings(max_examples=10, deadline=None)
@example(d=2, family="fractional", beta=1.0, delta=0.021484375, angles=(0.0, 0.0), bound=1,
         perm=[1, 0, 2], signs=(-1, -1, -1))
@given(**_TABLE_ARGS, perm=st.permutations(range(3)),
       signs=st.tuples(*[st.sampled_from([-1, 1])] * 3))
def test_lattice_symmetry_property(d, family, beta, delta, angles, bound, perm, signs):
    """For every signed permutation Q of the axes, lambda_{Qn}(Q xi) = Q lambda_n(xi).

    Q maps the lattice and the half-ball of n onto those of Qn.  The
    magnitudes |xi| are the same integers, so Lambda is the same bits and
    Im lambda maps exactly.  Re lambda maps up to rounding: c = xi^.n and
    xi^ - c n are sums taken in another order.
    16 eps max|lambda| is allowed, plus the floor 2 eps sum v |H| that a
    radial sum near sum v less sum v puts on the absolute accuracy of
    Re lambda (|H| = pi or 2 pi, the measure of the half circle or the
    hemisphere; see test_symbols._assert_re_lambda_matches_cos_sum).  The
    floor matters at a small horizon, where sum v is large against
    max|lambda|.
    """
    n = _random_orientation(d, angles)
    q = np.diag(signs[:d]) @ np.eye(d, dtype=int)[[p for p in perm if p < d]]
    kernel = _random_kernel(family, d, beta, delta)
    table = build_table(kernel, n, bound)
    moved = build_table(kernel, q @ n, bound)
    modes = fl.lattice(bound, d).modes
    got = moved.lam[tuple((modes @ q.T + bound).T)]
    want = table.lam[tuple((modes + bound).T)] @ q.T
    mass = float(np.sum(quad.scaled_radial_rule(kernel, panels=1, n_nodes=24)[1]))
    floor = 2 * _EPS * mass * (math.pi if d == 2 else 2 * math.pi)
    assert np.max(np.abs(got - want)) <= 16 * _EPS * np.max(np.abs(table.lam)) + floor
