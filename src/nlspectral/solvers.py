"""Closed-form per-mode solvers built on the half-ball symbols.

Each solver inverts a small per-mode system: steady/unsteady Stokes through
the saddle-point inverse and the nonlocal Leray projector, the Helmholtz
splittings in 2D/3D, the 3D div-curl system by closed-form least squares,
and steady plus time-dependent Navier elasticity through the rank-one
projector Pi = lambda lambda^H / |lambda|^2 (Leray is I - Pi), applied as
Pi c = hat (hat^H c) through the unit symbol hat = lambda / |lambda|.  The
delta -> 0 (local) counterparts run through the exact same code paths with
lambda(xi) = i xi.
"""

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import KernelError
from .fields import SpectralField, l2_norm, s_norm
from .symbols import local_table

_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _inverse(x):
    """1/x per mode, 0 where x is 0."""
    return np.divide(1.0, x, out=np.zeros_like(x), where=x != 0.0)


def _abs2_inv(table):
    """|lambda|^2 and its inverse per mode, 0 at xi = 0; KernelError if lambda is 0 elsewhere."""
    a2 = table.abs2()
    zero = (table.bound,) * table.dimension
    if np.count_nonzero(a2 == 0.0) > (a2[zero] == 0.0):
        raise KernelError("degenerate symbol: lambda vanishes at a nonzero mode")
    inv = _inverse(a2)
    inv[zero] = 0.0
    return a2, inv


def _unit_symbol(table, inv):
    """hat = lambda / |lambda| per mode from inv = 1/|lambda|^2; zero at xi = 0."""
    return table.lam * np.sqrt(inv)[..., None]


def _along(hat, c):
    """(sigma, Pi c): the coordinate sigma = hat^H c of c along hat, and hat sigma."""
    sigma = np.einsum("...i,...i->...", np.conj(hat), c)
    return sigma, hat * sigma[..., None]


def leray_project(table, u):
    """Project a vector field onto the nonlocally divergence-free subspace: u - Pi u."""
    hat = _unit_symbol(table, _abs2_inv(table)[1])
    out = u.coeffs - _along(hat, u.coeffs)[1]
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
    inv = _abs2_inv(table)[1]
    u = (f.coeffs - _along(_unit_symbol(table, inv), f.coeffs)[1]) * inv[..., None]
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
    inv = _abs2_inv(table)[1]
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


def stokes_evolve(table, u0, forcing, times, div_tol=1e-10):
    """Evolve the unsteady Stokes system from a nonlocally divergence-free u0.

    The forcing is treated as piecewise constant on the time grid (evaluated
    at interval left endpoints) and the exponential integrating factor is
    applied exactly, so the only time discretization error is the forcing
    interpolation.  Pressure responds instantaneously to the forcing.  The
    times must not decrease.
    """
    times = _time_grid(times, backward=False)
    if u0.component_shape != (table.dimension,):
        raise ValueError("initial velocity must be a d-vector field")
    div0 = float(np.max(np.abs(ops.divergence(table, u0).coeffs)))
    if div0 > div_tol * max(1.0, l2_norm(u0)):
        raise ValueError(
            f"initial velocity is not nonlocally divergence-free (defect {div0!r}); "
            "construct it with leray_project"
        )
    a2, inv = _abs2_inv(table)
    hat = None if forcing is None else _unit_symbol(table, inv)

    states = [u0.copy()]
    pressures = []
    u = u0.coeffs.astype(complex)
    last_dt = None
    for t0, t1 in zip(times[:-1], times[1:]):
        dt = t1 - t0
        f = _forcing_at(forcing, t0, u0)
        if dt != last_dt:  # a uniform grid computes the decay once
            last_dt, decay = dt, _spread(np.exp(-a2 * dt), table.dimension)
        u = decay * u
        if f is not None:
            u = u + (1.0 - decay) * inv[..., None] * (f.coeffs - _along(hat, f.coeffs)[1])
        states.append(SpectralField(u0.bound, u0.dimension, u, real=u0.real))
    for p, t in zip(np.zeros((len(times),) + inv.shape, dtype=complex), times):
        f = _forcing_at(forcing, t, u0)
        if f is not None:
            p = np.einsum("...i,...i->...", np.conj(table.lam), f.coeffs) * inv
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
    inv = _abs2_inv(table)[1]
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
    inv = _abs2_inv(table)[1]
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
    inv = _abs2_inv(table)[1]
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

    P(xi) = a Pi + b (I - Pi), a = (lambda_lame + 2 mu) |lambda|^2 and
    b = mu |lambda|^2, with Pi = hat hat^H for the unit symbol hat (zero at
    xi = 0).  The eigen-coordinates of c are sigma = hat^H c (eigenvalue a)
    and the complement c - hat sigma (eigenvalue b).
    """

    bound: int
    dimension: int
    mu: float
    lam_lame: float
    hat: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def split(self, coeffs):
        """(Pi c, c - Pi c), the parts of c in the two eigenspaces of P."""
        pc = _along(self.hat, coeffs)[1]
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
    a2, inv = _abs2_inv(table)
    return NavierModeDecomposition(table.bound, table.dimension, mu, lam_lame,
                                   _unit_symbol(table, inv), (lam_lame + 2.0 * mu) * a2, mu * a2)


def navier_steady(dec, f):
    if f.component_shape != (dec.dimension,):
        raise ValueError("Navier forcing must be a d-vector field")
    u = dec.apply(_inverse(dec.a), _inverse(dec.b), f.coeffs)
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
    variation-of-constants step for u_tt + P u = f, for any sign of dt.
    The displacement u and its rate v are carried in the eigen-coordinates
    (sigma, w) of P, so a step is per-mode scalar updates and a stored
    state is hat sigma + w.  Returns displacement and velocity trajectories.
    """
    times = _time_grid(times, backward=True)
    d = dec.dimension
    if g.component_shape != (d,) or h.component_shape != (d,):
        raise ValueError("initial displacement/velocity must be d-vector fields")
    a, b = dec.a, _spread(dec.b, d)
    wa, wb = np.sqrt(a), np.sqrt(b)
    inva, invb = _inverse(a), _inverse(b)

    def factors(w, dt):
        """cos(w dt), sin(w dt)/w with the w -> 0 limit dt (zero mode only), -w sin(w dt)."""
        c, s = np.cos(w * dt), np.sin(w * dt)
        return c, np.where(w > 0.0, s / np.where(w > 0.0, w, 1.0), dt), -w * s

    (su, pu), (sv, pv) = _along(dec.hat, g.coeffs), _along(dec.hat, h.coeffs)
    wu, wv = g.coeffs - pu, h.coeffs - pv
    states = [SpectralField(g.bound, d, g.coeffs.astype(complex), real=g.real)]
    rates = [SpectralField(g.bound, d, h.coeffs.astype(complex), real=h.real)]
    last_dt = None
    for t0, t1 in zip(times[:-1], times[1:]):
        dt = t1 - t0
        f = _forcing_at(forcing, t0, g)
        if dt != last_dt:  # a uniform grid computes cos/sin once
            last_dt = dt
            (ca, sa, ma), (cb, sb, mb) = factors(wa, dt), factors(wb, dt)
        su, sv = ca * su + sa * sv, ma * su + ca * sv
        wu, wv = cb * wu + sb * wv, mb * wu + cb * wv
        if f is not None:
            sf, pf = _along(dec.hat, f.coeffs)
            wf = f.coeffs - pf
            su, sv = su + (1.0 - ca) * inva * sf, sv + sa * a * inva * sf
            wu, wv = wu + (1.0 - cb) * invb * wf, wv + sb * b * invb * wf
        states.append(SpectralField(g.bound, d, dec.hat * su[..., None] + wu, real=g.real))
        rates.append(SpectralField(g.bound, d, dec.hat * sv[..., None] + wv, real=g.real))
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
