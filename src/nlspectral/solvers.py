"""Closed-form per-mode solvers built on the half-ball symbols.

Each solver inverts a small per-mode system: steady/unsteady Stokes through
the saddle-point inverse and the nonlocal Leray projector, the Helmholtz
splittings in 2D/3D, the 3D div-curl system by closed-form least squares,
and steady plus time-dependent Navier elasticity through the rank-one
projector decomposition of the mode matrix.  The delta -> 0 (local)
counterparts run through the exact same code paths with lambda(xi) = i xi.
"""

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import KernelError
from .fields import SpectralField, l2_norm
from .symbols import local_table

_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _inv_abs2(table):
    """1/|lambda|^2 with the pinned zero mode xi = 0 mapped to zero.

    Raises KernelError if lambda vanishes at any other mode.
    """
    a2 = table.abs2()
    zero = (table.bound,) * table.dimension
    a2[zero] = 1.0
    if np.any(a2 == 0.0):
        raise KernelError("degenerate symbol: lambda vanishes at a nonzero mode")
    out = 1.0 / a2
    out[zero] = 0.0
    return out


def leray_matrix(table):
    """Per-mode projector I - lambda conj(lambda)^T / |lambda|^2."""
    lam = table.lam
    d = table.dimension
    inv = _inv_abs2(table)
    proj = np.einsum("...i,...j->...ij", lam, np.conj(lam)) * inv[..., None, None]
    eye = np.eye(d)
    return eye - proj


def leray_project(table, u):
    """Project a vector field onto the nonlocally divergence-free subspace."""
    P = leray_matrix(table)
    out = np.einsum("...ij,...j->...i", P, u.coeffs)
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
    if f.component_shape != (table.dimension,):
        raise ValueError("Stokes forcing must be a d-vector field")
    inv = _inv_abs2(table)
    P = leray_matrix(table)
    u = np.einsum("...ij,...j->...i", P, f.coeffs) * inv[..., None]
    p = np.einsum("...i,...i->...", np.conj(table.lam), f.coeffs) * inv
    return StokesSolution(
        SpectralField(f.bound, f.dimension, u, real=f.real),
        SpectralField(f.bound, f.dimension, p, real=f.real),
    )


def stokes_residual(table, sol, f):
    """Max per-mode residual of -L u + G p - f; machine-zero by construction."""
    lhs = (ops.diffusion(table, sol.velocity) * -1.0 + ops.gradient(table, sol.pressure))
    return float(np.max(np.abs(lhs.coeffs - f.coeffs)))


def stokes_stability(table, sol, f):
    """Empirical constant (||u||_S + ||p||_2) / ||f||_(S*)."""
    from .fields import s_norm

    inv = _inv_abs2(table)
    dual = float(np.sqrt(np.sum(inv[..., None] * np.abs(f.coeffs) ** 2)))
    return (s_norm(sol.velocity, table) + l2_norm(sol.pressure)) / max(dual, 1e-300)


def local_divergence(u):
    """Local divergence i xi . uhat, used for the incompressibility defect."""
    return ops.divergence(local_table(u.dimension, u.bound), u)


def stokes_errors(table, f):
    """L2 errors of the nonlocal Stokes solution against the local one."""
    nonlocal_sol = stokes_steady(table, f)
    local_sol = stokes_steady(local_table(f.dimension, f.bound), f)
    return {
        "err_u": l2_norm(nonlocal_sol.velocity - local_sol.velocity),
        "err_p": l2_norm(nonlocal_sol.pressure - local_sol.pressure),
        "err_div": l2_norm(local_divergence(nonlocal_sol.velocity)),
    }


# ---------------------------------------------------------------------------
# evolution (heat-Stokes and elastic waves), exact per-mode propagation
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    times: np.ndarray
    states: list            # SpectralField per time (velocity/displacement)
    extras: dict            # solver-specific companions (pressures, rates)


def _forcing_at(forcing, t, template):
    if forcing is None:
        return None
    f = forcing(t) if callable(forcing) else forcing
    if f.component_shape != template.component_shape:
        raise ValueError("forcing component shape mismatch")
    return f


def stokes_evolve(table, u0, forcing, times, div_tol=1e-10):
    """Evolve the unsteady Stokes system from a nonlocally divergence-free u0.

    The forcing is treated as piecewise constant on the time grid (evaluated
    at interval left endpoints) and the exponential integrating factor is
    applied exactly, so the only time discretization error is the forcing
    interpolation.  Pressure responds instantaneously to the forcing.
    """
    times = np.asarray(times, dtype=float)
    if u0.component_shape != (table.dimension,):
        raise ValueError("initial velocity must be a d-vector field")
    div0 = float(np.max(np.abs(ops.divergence(table, u0).coeffs)))
    if div0 > div_tol * max(1.0, l2_norm(u0)):
        raise ValueError(
            f"initial velocity is not nonlocally divergence-free (defect {div0!r}); "
            "construct it with leray_project"
        )
    a2 = table.abs2()[..., None]
    inv = _inv_abs2(table)
    P = leray_matrix(table)
    lam_h = np.conj(table.lam)

    states = [u0.copy()]
    pressures = []
    u = u0.coeffs.astype(complex)
    last_dt = None
    for t0, t1 in zip(times[:-1], times[1:]):
        dt = t1 - t0
        f = _forcing_at(forcing, t0, u0)
        if dt != last_dt:  # a uniform grid computes the decay once
            last_dt, decay = dt, np.exp(-a2 * dt)
        u = decay * u
        if f is not None:
            pf = np.einsum("...ij,...j->...i", P, f.coeffs)
            u = u + (1.0 - decay) * inv[..., None] * pf
        states.append(SpectralField(u0.bound, u0.dimension, u.copy(), real=u0.real))
    for t in times:
        f = _forcing_at(forcing, t, u0)
        if f is None:
            p = np.zeros(inv.shape, dtype=complex)
        else:
            p = np.einsum("...i,...i->...", lam_h, f.coeffs) * inv
        pressures.append(SpectralField(u0.bound, u0.dimension, p, real=u0.real))
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
    if table.dimension != 2 or u.component_shape != (2,):
        raise ValueError("2D Helmholtz decomposition needs a 2-vector field")
    inv = _inv_abs2(table)
    lam = table.lam
    p = np.einsum("...i,...i->...", np.conj(lam), u.coeffs) * inv
    ju = np.einsum("ij,...j->...i", _J2, u.coeffs)
    q = np.einsum("...i,...i->...", lam, ju) * inv
    return (
        SpectralField(u.bound, 2, p, real=u.real),
        SpectralField(u.bound, 2, q, real=u.real),
    )


def helmholtz2d_reconstruct(table, p, q):
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
    if table.dimension != 3 or u.component_shape != (3,):
        raise ValueError("3D Helmholtz decomposition needs a 3-vector field")
    inv = _inv_abs2(table)
    lam = table.lam
    p = np.einsum("...i,...i->...", np.conj(lam), u.coeffs) * inv
    v = np.cross(lam, u.coeffs) * inv[..., None]
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
    from .fields import s_norm

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
    if f.component_shape != () or g.component_shape != (3,):
        raise ValueError("data must be (scalar f, 3-vector g)")
    lam = table.lam
    lam_neg = table.lam_neg()
    inv = _inv_abs2(table)
    u = -(lam * f.coeffs[..., None] + np.cross(np.conj(lam), g.coeffs)) * inv[..., None]
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

    P(xi) = a Pi + b (I - Pi) with Pi = lambda lambda^H / |lambda|^2,
    a = (lambda_lame + 2 mu) |lambda|^2 and b = mu |lambda|^2.
    """

    bound: int
    dimension: int
    mu: float
    lam_lame: float
    Pi: np.ndarray
    a: np.ndarray
    b: np.ndarray
    nonzero: np.ndarray

    def split(self, coeffs):
        """(Pi c, c - Pi c), the parts of c in the two eigenspaces of P."""
        pc = np.einsum("...ij,...j->...i", self.Pi, coeffs)
        return pc, coeffs - pc

    @staticmethod
    def combine(fa, fb, parts):
        """fa Pi c + fb (c - Pi c) from parts = split(c)."""
        return fa[..., None] * parts[0] + fb[..., None] * parts[1]

    def apply(self, fa, fb, coeffs):
        """phi(P) coeffs for the scalar spectra fa = phi(a), fb = phi(b)."""
        return self.combine(fa, fb, self.split(coeffs))


def navier_decompose(table, mu, lam_lame):
    if mu <= 0.0 or lam_lame + 2.0 * mu <= 0.0:
        raise ValueError(
            f"inadmissible Lame constants (mu={mu}, lambda={lam_lame}): "
            "need mu > 0 and lambda + 2 mu > 0"
        )
    lam = table.lam
    a2 = table.abs2()
    inv = _inv_abs2(table)
    Pi = np.einsum("...i,...j->...ij", lam, np.conj(lam)) * inv[..., None, None]
    a = (lam_lame + 2.0 * mu) * a2
    b = mu * a2
    return NavierModeDecomposition(
        table.bound, table.dimension, mu, lam_lame, Pi, a, b, a2 > 0.0
    )


def navier_steady(dec, f):
    if f.component_shape != (dec.dimension,):
        raise ValueError("Navier forcing must be a d-vector field")
    fa = np.zeros_like(dec.a)
    fb = np.zeros_like(dec.b)
    fa[dec.nonzero] = 1.0 / dec.a[dec.nonzero]
    fb[dec.nonzero] = 1.0 / dec.b[dec.nonzero]
    u = dec.apply(fa, fb, f.coeffs)
    return SpectralField(f.bound, f.dimension, u, real=f.real)


def navier_apply(dec, u):
    """P u, the Navier operator applied per mode."""
    out = dec.apply(dec.a, dec.b, u.coeffs)
    return SpectralField(u.bound, u.dimension, out, real=False)


def navier_quadratic_form(dec, u):
    """sum uhat^H P uhat (real, equals twice the elastic energy)."""
    pu = dec.apply(dec.a, dec.b, u.coeffs)
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
    variation-of-constants step for u_tt + P u = f, split over the two
    eigenspaces of P.  Returns displacement and velocity trajectories.
    """
    times = np.asarray(times, dtype=float)
    if g.component_shape != (dec.dimension,) or h.component_shape != (dec.dimension,):
        raise ValueError("initial displacement/velocity must be d-vector fields")
    wa = np.sqrt(dec.a)
    wb = np.sqrt(dec.b)
    inva = np.zeros_like(dec.a)
    invb = np.zeros_like(dec.b)
    inva[dec.nonzero] = 1.0 / dec.a[dec.nonzero]
    invb[dec.nonzero] = 1.0 / dec.b[dec.nonzero]

    u = g.coeffs.astype(complex)
    v = h.coeffs.astype(complex)
    states, rates = [SpectralField(g.bound, g.dimension, u.copy(), real=g.real)], [
        SpectralField(g.bound, g.dimension, v.copy(), real=h.real)
    ]
    last_dt = None
    for t0, t1 in zip(times[:-1], times[1:]):
        dt = t1 - t0
        f = _forcing_at(forcing, t0, g)
        if dt != last_dt:  # a uniform grid computes cos/sin once
            last_dt = dt
            ca, cb = np.cos(wa * dt), np.cos(wb * dt)
            sin_a, sin_b = np.sin(wa * dt), np.sin(wb * dt)
            # sin(w dt)/w with the w -> 0 limit dt (zero mode only)
            sa = np.where(wa > 0.0, sin_a / np.where(wa > 0.0, wa, 1.0), dt)
            sb = np.where(wb > 0.0, sin_b / np.where(wb > 0.0, wb, 1.0), dt)
            ma, mb = -wa * sin_a, -wb * sin_b
        pu, pv = dec.split(u), dec.split(v)
        u_new = dec.combine(ca, cb, pu) + dec.combine(sa, sb, pv)
        v_new = dec.combine(ma, mb, pu) + dec.combine(ca, cb, pv)
        if f is not None:
            pf = dec.split(f.coeffs)
            u_new = u_new + dec.combine((1.0 - ca) * inva, (1.0 - cb) * invb, pf)
            v_new = v_new + dec.combine(sa * dec.a * inva, sb * dec.b * invb, pf)
        u, v = u_new, v_new
        states.append(SpectralField(g.bound, g.dimension, u.copy(), real=g.real))
        rates.append(SpectralField(g.bound, g.dimension, v.copy(), real=g.real))
    return Trajectory(times, states, {"rates": rates})


def hamiltonian_per_mode(dec, u, v):
    """|uhat_t|^2 + uhat^H P uhat per mode; conserved by the unforced flow."""
    pu = dec.apply(dec.a, dec.b, u.coeffs)
    return np.real(np.sum(np.conj(u.coeffs) * pu, axis=-1)
                   + np.sum(np.abs(v.coeffs) ** 2, axis=-1))


def local_navier_decomposition(dimension, bound, mu, lam_lame):
    return navier_decompose(local_table(dimension, bound), mu, lam_lame)


def v_norm_error(table, dec, u, reference):
    """V-norm distance (||w||_2^2 + what^H P what)^(1/2), w = u - reference."""
    w = u - reference
    return float(np.sqrt(l2_norm(w) ** 2 + navier_quadratic_form(dec, w)))
