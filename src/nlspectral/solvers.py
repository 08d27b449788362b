"""Closed-form per-mode solvers built on the half-ball symbols.

Each solver inverts a small per-mode system: steady/unsteady Stokes through
the saddle-point inverse and the nonlocal Leray projector, the Helmholtz
splittings in 2D/3D, the 3D div-curl system by closed-form least squares,
and steady plus time-dependent Navier elasticity through the rank-one
projector Pi = lambda lambda^H / |lambda|^2 (Leray is I - Pi), applied as
Pi c = hat (hat^H c) through the table's unit symbol hat = lambda / |lambda|.
Each divides by the table's 1/|lambda|^2 (inv_abs2), which a table's own
validation keeps finite, and checks its fields with operators._check.  The
delta -> 0 (local) counterparts run through the exact same code paths with
lambda(xi) = i xi (symbols.local_table).
"""

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .fields import SpectralField, l2_norm, s_norm
from .symbols import SymbolTable, local_table

_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _inverse(x):
    """1/x per mode, 0 where x is 0."""
    return np.divide(1.0, x, out=np.zeros_like(x), where=x != 0.0)


def _along(hat, c):
    """(sigma, Pi c): the coordinate sigma = hat^H c of c along hat, and hat sigma."""
    sigma = np.einsum("...i,...i->...", np.conj(hat), c)
    return sigma, hat * sigma[..., None]


def _potential(table, c):
    """lambda^H c / |lambda|^2 per mode: the scalar whose gradient is Pi c."""
    return np.einsum("...i,...i->...", np.conj(table.lam), c) * table.inv_abs2


def leray_project(table, u):
    """Project a vector field onto the nonlocally divergence-free subspace: u - Pi u."""
    ops._check(table, u, (table.dimension,))
    out = u.coeffs - _along(table.hat, u.coeffs)[1]
    return SpectralField(u.bound, u.dimension, out, real=u.real)


@dataclass
class StokesSolution:
    velocity: SpectralField
    pressure: SpectralField


def stokes_steady(table, f):
    """Steady Stokes solve: velocity through the projector, gradient pressure.

    uhat = (I - lambda lambda^H/|lambda|^2) fhat / |lambda|^2 and
    phat = lambda^H fhat / |lambda|^2 per mode.
    """
    ops._check(table, f, (table.dimension,))
    u = (f.coeffs - _along(table.hat, f.coeffs)[1]) * table.inv_abs2[..., None]
    p = _potential(table, f.coeffs)
    return StokesSolution(
        SpectralField(f.bound, f.dimension, u, real=f.real),
        SpectralField(f.bound, f.dimension, p, real=f.real),
    )


def stokes_residual(table, sol, f):
    """Max per-mode residual of -L u + G p - f; machine-zero by construction."""
    ops._check(table, f, (table.dimension,))
    lhs = (ops.diffusion(table, sol.velocity) * -1.0 + ops.gradient(table, sol.pressure))
    return float(np.max(np.abs(lhs.coeffs - f.coeffs)))


def stokes_stability(table, sol, f):
    """Empirical constant (||u||_S + ||p||_2) / ||f||_(S*)."""
    ops._check(table, f, (table.dimension,))
    dual = float(np.sqrt(np.sum(table.inv_abs2[..., None] * np.abs(f.coeffs) ** 2)))
    return (s_norm(sol.velocity, table) + l2_norm(sol.pressure)) / max(dual, 1e-300)


def stokes_errors(table, f):
    """L2 errors of the nonlocal Stokes solution against the local one; its local divergence."""
    local = local_table(f.dimension, f.bound)
    nonlocal_sol, local_sol = stokes_steady(table, f), stokes_steady(local, f)
    return {
        "err_u": l2_norm(nonlocal_sol.velocity - local_sol.velocity),
        "err_p": l2_norm(nonlocal_sol.pressure - local_sol.pressure),
        "err_div": l2_norm(ops.divergence(local, nonlocal_sol.velocity)),
    }


# ---------------------------------------------------------------------------
# evolution (heat-Stokes and elastic waves), exact per-mode propagation
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    times: np.ndarray
    states: list            # SpectralField per time (velocity/displacement)
    extras: dict            # solver-specific companions (pressures, rates)


def _forcing_at(forcing, t, table):
    """The forcing at t, a d-vector field of the table (ops._check); None without one."""
    if forcing is None:
        return None
    f = forcing(t) if callable(forcing) else forcing
    ops._check(table, f, (table.dimension,))
    return f


def _time_grid(times, backward):
    """times as a nonempty finite 1-D float grid, nondecreasing unless ``backward``."""
    times = np.asarray(times, dtype=float)
    bad = times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times))
    if bad or not backward and np.any(np.diff(times) < 0.0):
        raise ValueError(f"times must be a nonempty finite 1-D grid"
                         f"{'' if backward else ' that never decreases'}, got {times!r}")
    return times


def _spread(x, d):
    """Per-mode x repeated over d components, for products with contiguous vectors."""
    return np.repeat(x[..., None], d, axis=-1)


def stokes_evolve(table, u0, forcing, times):
    """Evolve the unsteady Stokes system from a nonlocally divergence-free u0.

    The forcing is treated as piecewise constant on the time grid (evaluated
    at interval left endpoints) and the exponential integrating factor is
    applied exactly, so the only time discretization error is the forcing
    interpolation.  Pressure responds instantaneously to the forcing.  The
    times must not decrease, and u0's largest divergence coefficient must
    be at most 1e-10 max(1, |u0|).
    """
    times = _time_grid(times, backward=False)
    div0 = float(np.max(np.abs(ops.divergence(table, u0).coeffs)))  # checks u0 (ops._check)
    if div0 > 1e-10 * max(1.0, l2_norm(u0)):
        raise ValueError(
            f"initial velocity is not nonlocally divergence-free (defect {div0!r}); "
            "construct it with leray_project"
        )
    a2, inv = table.abs2, table.inv_abs2
    states = [u0.copy()]
    pressures = []
    u = u0.coeffs.astype(complex)
    last_dt = None
    # the forcing at each time serves its pressure and the step that starts there
    for i, t0 in enumerate(times):
        f = _forcing_at(forcing, t0, table)
        p = np.zeros(inv.shape, dtype=complex) if f is None else _potential(table, f.coeffs)
        pressures.append(SpectralField(u0.bound, u0.dimension, p, real=u0.real))
        if i + 1 == len(times):
            break
        dt = times[i + 1] - t0
        if dt != last_dt:  # a uniform grid computes the decay once
            last_dt, decay = dt, _spread(np.exp(-a2 * dt), table.dimension)
        u = decay * u
        if f is not None:
            u = u + (1.0 - decay) * inv[..., None] * (f.coeffs - _along(table.hat, f.coeffs)[1])
        states.append(SpectralField(u0.bound, u0.dimension, u, real=u0.real))
    return Trajectory(times, states, {"pressures": pressures})


def trajectory_l2_error(traj_a, traj_b):
    """L2-in-time L2-in-space distance between two trajectories (same grid)."""
    if len(traj_a.states) != len(traj_b.states):
        raise ValueError("trajectories must share the time grid")
    sq = np.array([
        l2_norm(a - b) ** 2 for a, b in zip(traj_a.states, traj_b.states)
    ])
    trap = getattr(np, "trapezoid", None) or np.trapz
    return float(np.sqrt(trap(sq, traj_a.times)))


# ---------------------------------------------------------------------------
# Helmholtz decompositions
# ---------------------------------------------------------------------------

def helmholtz2d(table, u):
    """Split u into a nonlocal gradient and a rotated reflected gradient.

    u = G p + J G^- q with J the quarter rotation; per mode the two columns
    (lambda, J lambda^-) are Hermitian-orthogonal with equal length |lambda|,
    so the potentials are plain orthogonal projections:

        phat = lambda^H uhat / |lambda|^2,  qhat = lambda^T J uhat / |lambda|^2.
    """
    if table.dimension != 2:
        raise ValueError("2D Helmholtz decomposition needs a 2D table")
    ops._check(table, u, (2,))
    p = _potential(table, u.coeffs)
    ju = np.einsum("ij,...j->...i", _J2, u.coeffs)
    q = np.einsum("...i,...i->...", table.lam, ju) * table.inv_abs2
    return (
        SpectralField(u.bound, 2, p, real=u.real),
        SpectralField(u.bound, 2, q, real=u.real),
    )


def helmholtz2d_reconstruct(table, p, q):
    ops._check(table, q, ())
    grad_p = ops.gradient(table, p)
    lam_neg = table.lam_neg()
    grad_q = lam_neg * q.coeffs[..., None]
    rot = np.einsum("ij,...j->...i", _J2, grad_q)
    out = grad_p.coeffs + rot
    return SpectralField(p.bound, 2, out, real=False)


def helmholtz3d(table, u):
    """3D splitting u = G p + C^- v with the gauge D^- v = 0.

    phat = lambda^H uhat / |lambda|^2 and vhat = lambda x uhat / |lambda|^2.
    """
    if table.dimension != 3:
        raise ValueError("3D Helmholtz decomposition needs a 3D table")
    ops._check(table, u, (3,))
    p = _potential(table, u.coeffs)
    v = np.cross(table.lam, u.coeffs) * table.inv_abs2[..., None]
    return (
        SpectralField(u.bound, 3, p, real=u.real),
        SpectralField(u.bound, 3, v, real=u.real),
    )


def helmholtz3d_reconstruct(table, p, v):
    grad_p = ops.gradient(table, p)
    curl_v = ops.curl3d(table, v, sign=-1)
    return grad_p + curl_v


def helmholtz_stability(table, u, parts):
    """Empirical constant sum of part energy norms over ||u||_2."""
    total = sum(s_norm(part, table) for part in parts)
    return total / max(l2_norm(u), 1e-300)


# ---------------------------------------------------------------------------
# div-curl system (3D)
# ---------------------------------------------------------------------------

def divcurl3d(table, f, g, residual_tol=1e-10):
    """Solve D u = f, C u = g per mode, in closed form.

    The normal matrix of the 4x3 stack (lambda^-, lambda x .) is exactly
    |lambda|^2 I, so the least-squares solution is

        u = -(lambda f + conj(lambda) x g) / |lambda|^2.

    The compatibility D^- g = 0 is required; an inconsistent right-hand side
    surfaces as a residual above ``residual_tol`` and raises ValueError.
    Returns (u, report) with the max per-mode residual and the Friedrichs
    ratio (||u||^2 + ||Gu||^2) / (||Du||^2 + ||Cu||^2).  Per mode
    |Du|^2 + |Cu|^2 = |Gu|^2 = |lambda|^2 |u|^2, so the ratio is
    1 + ||u||^2 / ||Gu||^2 <= 1 + 1 / min |lambda|^2: its stability across
    horizons is the coercivity floor min |lambda| over the nonzero modes.
    """
    if table.dimension != 3:
        raise ValueError("div-curl solver is three-dimensional")
    ops._check(table, f, ())
    ops._check(table, g, (3,))
    lam, lam_neg = table.lam, table.lam_neg()
    u = -(lam * f.coeffs[..., None] + np.cross(np.conj(lam), g.coeffs)) * table.inv_abs2[..., None]
    ufield = SpectralField(g.bound, 3, u, real=False)

    div_res = np.einsum("...i,...i->...", lam_neg, u) - f.coeffs
    curl_res = np.cross(lam, u) - g.coeffs
    residual = max(float(np.max(np.abs(div_res))), float(np.max(np.abs(curl_res))))
    if residual > residual_tol * max(1.0, l2_norm(f) + l2_norm(g)):
        raise ValueError(
            f"div-curl data inconsistent: residual {residual!r} exceeds tolerance; "
            "g must satisfy the reflected-divergence compatibility"
        )
    grad = ops.gradient(table, ufield)
    div = ops.divergence(table, ufield)
    curl = ops.curl3d(table, ufield)
    num = l2_norm(ufield) ** 2 + l2_norm(grad) ** 2
    den = l2_norm(div) ** 2 + l2_norm(curl) ** 2
    report = {
        "residual": residual,
        "friedrichs_ratio": num / max(den, 1e-300),
    }
    return ufield, report


# ---------------------------------------------------------------------------
# Navier elasticity
# ---------------------------------------------------------------------------

@dataclass
class NavierModeDecomposition:
    """Rank-one spectral split of the per-mode Navier matrix.

    P(xi) = a Pi + b (I - Pi), a = (lambda_lame + 2 mu) |lambda|^2 and
    b = mu |lambda|^2, with Pi = hat hat^H for the table's unit symbol hat
    (zero at xi = 0).  The eigen-coordinates of c are sigma = hat^H c
    (eigenvalue a) and the complement c - hat sigma (eigenvalue b).
    """

    table: SymbolTable
    a: np.ndarray
    b: np.ndarray

    def apply(self, fa, fb, u):
        """phi(P) c = fa Pi c + fb (c - Pi c) for the scalar spectra fa = phi(a), fb = phi(b)
        and the coefficients c of u, a d-vector field of the table (ops._check)."""
        ops._check(self.table, u, (self.table.dimension,))
        pc = _along(self.table.hat, u.coeffs)[1]
        return fa[..., None] * pc + fb[..., None] * (u.coeffs - pc)


def navier_decompose(table, mu, lam_lame):
    if mu <= 0.0 or lam_lame + 2.0 * mu <= 0.0:
        raise ValueError(
            f"inadmissible Lame constants (mu={mu}, lambda={lam_lame}): "
            "need mu > 0 and lambda + 2 mu > 0"
        )
    return NavierModeDecomposition(table, (lam_lame + 2.0 * mu) * table.abs2, mu * table.abs2)


def navier_steady(dec, f):
    u = dec.apply(_inverse(dec.a), _inverse(dec.b), f)
    return SpectralField(f.bound, f.dimension, u, real=f.real)


def navier_apply(dec, u):
    """P u, the Navier operator applied per mode."""
    out = dec.apply(dec.a, dec.b, u)
    return SpectralField(u.bound, u.dimension, out, real=False)


def navier_quadratic_form(dec, u):
    """sum uhat^H P uhat (real, equals twice the elastic energy)."""
    pu = dec.apply(dec.a, dec.b, u)
    return float(np.real(np.sum(np.conj(u.coeffs) * pu)))


def navier_energy(dec, u):
    """Elastic energy from the symbol quadratic form."""
    return 0.5 * navier_quadratic_form(dec, u)


def navier_energy_assembled(table, u, mu, lam_lame):
    """Elastic energy assembled from the divergence and strain fields."""
    div = ops.divergence(table, u)
    e = ops.strain(table, u)
    return 0.5 * lam_lame * l2_norm(div) ** 2 + mu * l2_norm(e) ** 2


def navier_evolve(dec, g, h, forcing, times):
    """Elastic wave propagation with exact per-mode trigonometric updates.

    Piecewise-constant forcing on the grid; the update is the exact
    variation-of-constants step for u_tt + P u = f, for any sign of dt.
    The displacement u and its rate v are carried in the eigen-coordinates
    (sigma, w) of P, so a step is per-mode scalar updates and a stored
    state is hat sigma + w.  Returns displacement and velocity trajectories.
    """
    times = _time_grid(times, backward=True)
    table, hat, d = dec.table, dec.table.hat, dec.table.dimension
    for u in (g, h):
        ops._check(table, u, (d,))
    # the transverse factors are computed once per mode, then spread over d
    a, b, invb = dec.a, _spread(dec.b, d), _spread(_inverse(dec.b), d)
    wa, wb, inva = np.sqrt(a), np.sqrt(dec.b), _inverse(a)

    def factors(w, dt):
        """cos(w dt), sin(w dt)/w with the w -> 0 limit dt (zero mode only), -w sin(w dt)."""
        c, s = np.cos(w * dt), np.sin(w * dt)
        return c, np.where(w > 0.0, s / np.where(w > 0.0, w, 1.0), dt), -w * s

    (su, pu), (sv, pv) = _along(hat, g.coeffs), _along(hat, h.coeffs)
    wu, wv = g.coeffs - pu, h.coeffs - pv
    states = [SpectralField(g.bound, d, g.coeffs.astype(complex), real=g.real)]
    rates = [SpectralField(g.bound, d, h.coeffs.astype(complex), real=h.real)]
    last_dt = None
    for t0, t1 in zip(times[:-1], times[1:]):
        dt = t1 - t0
        f = _forcing_at(forcing, t0, table)
        if dt != last_dt:  # a uniform grid computes cos/sin once
            last_dt = dt
            (ca, sa, ma), (cb, sb, mb) = factors(wa, dt), (_spread(x, d) for x in factors(wb, dt))
        su, sv = ca * su + sa * sv, ma * su + ca * sv
        wu, wv = cb * wu + sb * wv, mb * wu + cb * wv
        if f is not None:
            sf, pf = _along(hat, f.coeffs)
            wf = f.coeffs - pf
            su, sv = su + (1.0 - ca) * inva * sf, sv + sa * a * inva * sf
            wu, wv = wu + (1.0 - cb) * invb * wf, wv + sb * b * invb * wf
        states.append(SpectralField(g.bound, d, hat * su[..., None] + wu, real=g.real))
        rates.append(SpectralField(g.bound, d, hat * sv[..., None] + wv, real=g.real))
    return Trajectory(times, states, {"rates": rates})


def hamiltonian_per_mode(dec, u, v):
    """|uhat_t|^2 + uhat^H P uhat per mode; conserved by the unforced flow."""
    ops._check(dec.table, v, (dec.table.dimension,))
    pu = dec.apply(dec.a, dec.b, u)
    return np.real(np.sum(np.conj(u.coeffs) * pu, axis=-1)
                   + np.sum(np.abs(v.coeffs) ** 2, axis=-1))


def v_norm_error(table, dec, u, reference):
    """V-norm distance (||w||_2^2 + what^H P what)^(1/2), w = u - reference."""
    w = u - reference
    return float(np.sqrt(l2_norm(w) ** 2 + navier_quadratic_form(dec, w)))
