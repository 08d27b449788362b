import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nlspectral import epsilon_cutoff, fields as fl
from nlspectral import normalize
from nlspectral import operators as ops
from nlspectral import solvers as sol
from nlspectral.errors import KernelError
from nlspectral.fields import l2_norm, s_norm
from nlspectral.symbols import (Orientation, SymbolTable, build_table, local_table,
                                verify_bounds)


def test_stokes_gradient_forcing_gives_pure_pressure(table2):
    # fhat = lambda(xi0) on one mode: the projector annihilates it
    f = fl.SpectralField.zeros(2, 8, (2,), real=False)
    f.set_mode((2, 1), table2.lam_at((2, 1)), hermitian=False)
    s = sol.stokes_steady(table2, f)
    assert l2_norm(s.velocity) <= 1e-14
    assert s.pressure.at((2, 1)) == pytest.approx(1.0, abs=1e-13)


def test_stokes_orthogonal_forcing_gives_pure_velocity(table2):
    lam = table2.lam_at((1, 3))
    fvec = np.array([-np.conj(lam[1]), np.conj(lam[0])])  # perp to conj(lam)
    assert abs(np.conj(lam) @ fvec) < 1e-14
    f = fl.SpectralField.zeros(2, 8, (2,), real=False)
    f.set_mode((1, 3), fvec, hermitian=False)
    s = sol.stokes_steady(table2, f)
    assert l2_norm(s.pressure) <= 1e-14
    expect = fvec / float(np.sum(np.abs(lam) ** 2))
    np.testing.assert_allclose(s.velocity.at((1, 3)), expect, atol=1e-14)


def test_stokes_rejects_degenerate_table(table2):
    # a public table whose symbol vanishes at a nonzero mode must not give a
    # plausible solution: only xi = 0 is pinned
    lam = table2.lam.copy()
    lam[tuple(np.array((3, -2)) + table2.bound)] = 0.0
    bad = SymbolTable(table2.kernel, table2.orientation, table2.bound, lam,
                      table2.lambda_radial_map, table2.tol)
    f = fl.random_field(71, 8, 2.0, components=2)
    with pytest.raises(KernelError, match="vanishes"):
        sol.stokes_steady(bad, f)
    sol.stokes_steady(table2, f)


def test_stokes_residual_and_divergence(table2):
    f = fl.random_field(71, 8, 2.0, components=2)
    s = sol.stokes_steady(table2, f)
    assert sol.stokes_residual(table2, s, f) <= 1e-12
    assert np.max(np.abs(ops.divergence(table2, s.velocity).coeffs)) <= 1e-12
    assert sol.stokes_stability(table2, s, f) <= 2.0


def test_stokes_outputs_zero_mean_and_real(table2):
    f = fl.random_field(72, 8, 2.0, components=2)
    s = sol.stokes_steady(table2, f)
    assert abs(s.pressure.at((0, 0))) == 0.0
    assert np.max(np.abs(s.velocity.at((0, 0)))) == 0.0
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
    f = fl.SpectralField.zeros(2, 4, (2,), real=False)
    f.set_mode((2, 0), tab.lam_at((2, 0)), hermitian=False)
    e = sol.stokes_errors(tab, f)
    assert e["err_u"] <= 1e-14
    assert e["err_div"] <= 1e-14
    assert 0.0 < e["err_p"] < 0.2


def test_leray_projector_idempotent_annihilates_gradients(table2):
    P = sol.leray_matrix(table2)
    PP = np.einsum("...ij,...jk->...ik", P, P)
    assert np.max(np.abs(PP - P)) <= 1e-12
    lam_action = np.einsum("...ij,...j->...i", P, table2.lam)
    assert np.max(np.abs(lam_action)) <= 1e-12
    u = fl.random_field(73, 8, 1.0, components=2)
    pu = sol.leray_project(table2, u)
    assert np.max(np.abs(ops.divergence(table2, pu).coeffs)) <= 1e-12


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
    decay = np.exp(-table2.abs2() * 0.4)[..., None]
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
    assert abs(p.at((0, 0))) == 0.0 and abs(q.at((0, 0))) == 0.0
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
    nz = table.abs2() > 0.0
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
    a2 = tab.abs2()
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
    dec0 = sol.local_navier_decomposition(2, 8, mu, lam_lame)
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
    g = fl.SpectralField.zeros(2, 2, (2,), real=False)
    gvec = lam / np.linalg.norm(lam)       # inside the Pi eigenspace
    g.set_mode(xi, gvec, hermitian=False)
    h = fl.SpectralField.zeros(2, 2, (2,), real=False)
    f = fl.SpectralField.zeros(2, 2, (2,), real=False)
    f.set_mode(xi, 0.3 * gvec, hermitian=False)
    times = np.linspace(0.0, 0.7, 8)
    traj = sol.navier_evolve(dec, g, h, f, times)
    idx = (1 + 2, 0 + 2)
    a = dec.a[idx]
    w = np.sqrt(a)
    t = times[-1]
    expect = gvec * np.cos(w * t) + 0.3 * gvec / a * (1.0 - np.cos(w * t))
    np.testing.assert_allclose(traj.states[-1].at(xi), expect, atol=1e-12)


def test_navier_trajectory_converges_to_local():
    n = Orientation.from_angle(0.7)
    g = fl.random_field(96, 6, 3.0, components=2)
    h = fl.random_field(97, 6, 3.0, components=2)
    times = np.linspace(0.0, 0.5, 11)
    ref = sol.navier_evolve(sol.local_navier_decomposition(2, 6, 1.0, 1.0),
                            g, h, None, times)
    errs = []
    for delta in (0.2, 0.1, 0.05):
        k = normalize("constant", 2, horizon=delta)
        tab = build_table(k, n, 6)
        dec = sol.navier_decompose(tab, 1.0, 1.0)
        errs.append(sol.trajectory_l2_error(sol.navier_evolve(dec, g, h, None, times), ref))
    assert errs[2] < errs[1] < errs[0]


def test_nonlocal_and_local_navier_matrices_do_not_commute(table2):
    dec = sol.navier_decompose(table2, 1.0, 1.0)
    dec0 = sol.local_navier_decomposition(2, 8, 1.0, 1.0)
    idx = (3 + 8, 4 + 8)   # mode (3, 4), not aligned with the orientation
    eye = np.eye(2, dtype=complex)
    P = dec.a[idx] * dec.Pi[idx] + dec.b[idx] * (eye - dec.Pi[idx])
    P0 = dec0.a[idx] * dec0.Pi[idx] + dec0.b[idx] * (eye - dec0.Pi[idx])
    comm = P @ P0 - P0 @ P
    assert np.max(np.abs(comm)) > 1e-3


def test_projector_spectral_decomposition(table2):
    dec = sol.navier_decompose(table2, 1.0, 1.0)
    idx = (2 + 8, 5 + 8)
    Pi = dec.Pi[idx]
    assert np.max(np.abs(Pi @ Pi - Pi)) <= 1e-12
    assert np.max(np.abs(Pi - Pi.conj().T)) <= 1e-12
    assert dec.a[idx] > 0 and dec.b[idx] > 0


def test_stokes_evolve_forced_step_exact(table2):
    # constant forcing, one step: uhat(t) = E uhat0 + (1-E)/|lam|^2 P fhat
    u0 = sol.leray_project(table2, fl.random_field(77, 8, 2.0, components=2))
    f = fl.random_field(78, 8, 2.0, components=2)
    dt = 0.2
    traj = sol.stokes_evolve(table2, u0, f, np.array([0.0, dt]))
    a2 = table2.abs2()[..., None]
    E = np.exp(-a2 * dt)
    P = sol.leray_matrix(table2)
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


def _navier_evolve_reference(dec, g, h, forcing, times):
    """Per-step navier_evolve: four projections and fresh cos/sin every step."""
    wa, wb = np.sqrt(dec.a), np.sqrt(dec.b)
    inva, invb = np.zeros_like(dec.a), np.zeros_like(dec.b)
    inva[dec.nonzero] = 1.0 / dec.a[dec.nonzero]
    invb[dec.nonzero] = 1.0 / dec.b[dec.nonzero]
    u, v = g.coeffs.astype(complex), h.coeffs.astype(complex)
    states, rates = [u.copy()], [v.copy()]
    for t0, t1 in zip(times[:-1], times[1:]):
        dt = t1 - t0
        ca, cb = np.cos(wa * dt), np.cos(wb * dt)
        sa = np.where(wa > 0.0, np.sin(wa * dt) / np.where(wa > 0.0, wa, 1.0), dt)
        sb = np.where(wb > 0.0, np.sin(wb * dt) / np.where(wb > 0.0, wb, 1.0), dt)
        u_new = dec.apply(ca, cb, u) + dec.apply(sa, sb, v)
        v_new = dec.apply(-wa * np.sin(wa * dt), -wb * np.sin(wb * dt), u) \
            + dec.apply(ca, cb, v)
        if forcing is not None:
            f = forcing(t0).coeffs
            u_new = u_new + dec.apply((1.0 - ca) * inva, (1.0 - cb) * invb, f)
            v_new = v_new + dec.apply(sa * dec.a * inva, sb * dec.b * invb, f)
        u, v = u_new, v_new
        states.append(u.copy())
        rates.append(v.copy())
    return states, rates


def _stokes_evolve_reference(table, u0, forcing, times):
    """Per-step stokes_evolve: a fresh exp(-a2 dt) every step."""
    a2, inv, P = table.abs2()[..., None], sol._inv_abs2(table), sol.leray_matrix(table)
    u = u0.coeffs.astype(complex)
    states = [u.copy()]
    for t0, t1 in zip(times[:-1], times[1:]):
        decay = np.exp(-a2 * (t1 - t0))
        u = decay * u
        if forcing is not None:
            pf = np.einsum("...ij,...j->...i", P, forcing(t0).coeffs)
            u = u + (1.0 - decay) * inv[..., None] * pf
        states.append(u.copy())
    return states


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
    states, rates = _navier_evolve_reference(dec, g, h, forcing, times)
    assert len(traj.states) == len(states) == len(times)
    for got, want in zip(traj.states + traj.extras["rates"], states + rates):
        np.testing.assert_array_equal(got.coeffs, want)


@pytest.mark.parametrize("times", _GRIDS)
@pytest.mark.parametrize("forcing", [None, _forcing])
def test_stokes_evolve_matches_per_step_reference(table2, forcing, times):
    u0 = sol.leray_project(table2, fl.random_field(42, 8, 2.0, components=2))
    traj = sol.stokes_evolve(table2, u0, forcing, times)
    states = _stokes_evolve_reference(table2, u0, forcing, times)
    assert len(traj.states) == len(states)
    for got, want in zip(traj.states, states):
        np.testing.assert_array_equal(got.coeffs, want)


def test_navier_split_parts(table2):
    dec = sol.navier_decompose(table2, 1.0, 1.0)
    c = fl.random_field(43, 8, 1.0, components=2).coeffs
    pc, qc = dec.split(c)
    np.testing.assert_array_equal(qc, c - pc)
    np.testing.assert_allclose(dec.split(pc)[1], 0.0, atol=1e-15)
    np.testing.assert_array_equal(dec.apply(dec.a, dec.b, c),
                                  dec.combine(dec.a, dec.b, (pc, qc)))


# ---------------------------------------------------------------------------
# per-mode algebra over random tables
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


def _random_kernel(family, d, beta, delta):
    if family == "sine":
        return normalize("sine", d, horizon=delta)
    if family == "constant":
        return normalize("constant", d, horizon=delta)
    kernel = normalize("fractional", d, beta=beta, horizon=delta)
    return epsilon_cutoff(kernel, delta / 16) if family == "clamped" else kernel


@settings(max_examples=25, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    family=st.sampled_from(["constant", "fractional", "clamped", "sine"]),
    beta=st.floats(1.0, 1.95),
    delta=st.floats(0.02, 1.0),
    angles=st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, math.pi)),
    bound=st.integers(1, 6),
)
def test_per_mode_algebra_property(d, family, beta, delta, angles, bound):
    a, b = angles
    n = (np.array([math.cos(a), math.sin(a)]) if d == 2 else
         np.array([math.sin(b) * math.cos(a), math.sin(b) * math.sin(a), math.cos(b)]))
    table = build_table(_random_kernel(family, d, beta, delta), n, bound)
    # |lambda(xi)| <= sqrt(2) d |xi| on every nonzero mode
    assert verify_bounds(table)["max_ratio"] <= math.sqrt(2.0) * d
    # the Leray projector is idempotent and self-adjoint per mode; its
    # entries are at most 1 and each carries a few roundings per term
    P = sol.leray_matrix(table)
    tol = 16 * d * _EPS
    assert np.max(np.abs(np.einsum("...ij,...jk->...ik", P, P) - P)) <= tol
    assert np.max(np.abs(P - np.conj(np.swapaxes(P, -1, -2)))) <= tol
    if d == 3:
        # curl grad p = lambda x (lambda p): lambda_y (lambda_z p) - lambda_z (lambda_y p)
        # per mode, two complex products of at most sqrt(5) roundings each per term
        p = fl.random_field(bound, bound, 1.0, dimension=3)
        cg = ops.curl3d(table, ops.gradient(table, p)).coeffs
        scale = table.abs2() * np.abs(p.coeffs)
        assert np.all(np.abs(cg) <= 8 * _EPS * scale[..., None])
