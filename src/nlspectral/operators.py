"""Per-mode application of the nonlocal operators to spectral fields.

Everything on the fast path is multiplication by cached symbols: gradient by
lambda (outer product for vector fields), adjoint divergence by the reflected
symbol -conj(lambda), diffusion by -|lambda|^2, curl by the complex cross
product lambda x (componentwise, no conjugation: forced by linearity of the
defining integral over exp(i xi.x)).  The physical-space integral form lives
only in the quadrature oracles at the bottom, which never touch symbols.
"""

import numpy as np

from . import quadrature as quad
from .fields import SpectralField, _check
from .errors import KernelError


def gradient(table, u):
    """Nonlocal gradient: scalar -> vector, vector -> (derivative, component) matrix."""
    _check(table, u, (), (table.dimension,))
    lam = table.lam
    if u.component_shape == ():
        out = lam * u.coeffs[..., None]
    else:
        out = lam[..., :, None] * u.coeffs[..., None, :]
    # conjugate symmetry of the table keeps real fields real
    return SpectralField(u.bound, u.dimension, out, real=u.real)


def divergence(table, u):
    """Adjoint nonlocal divergence of a vector field: -conj(lambda).uhat."""
    _check(table, u, (table.dimension,))
    out = -np.sum(np.conj(table.lam) * u.coeffs, axis=-1)
    return SpectralField(u.bound, u.dimension, out, real=u.real)


def diffusion(table, u):
    """Composition divergence(gradient(.)): multiply by -|lambda|^2."""
    _check(table, u)
    mult = -table.abs2
    out = u.coeffs * mult.reshape(mult.shape + (1,) * len(u.component_shape))
    return SpectralField(u.bound, u.dimension, out, real=u.real)


def curl3d(table, v, sign=1):
    """Nonlocal curl lambda x vhat (componentwise complex cross product).

    sign=-1 applies the reflected-orientation curl, whose symbol is
    -conj(lambda).
    """
    if table.dimension != 3:
        raise KernelError("curl needs a 3D table")
    _check(table, v, (3,))
    lam = table.lam if sign > 0 else table.lam_neg()
    out = np.cross(lam, v.coeffs)
    return SpectralField(v.bound, v.dimension, out, real=v.real)


def strain(table, u):
    """Symmetric part of the gradient of a displacement field."""
    g = gradient(table, u)
    sym = 0.5 * (g.coeffs + np.swapaxes(g.coeffs, -1, -2))
    return SpectralField(u.bound, u.dimension, sym, real=u.real)


# ---------------------------------------------------------------------------
# 1D averaging and the doubly nonlocal symbol
# ---------------------------------------------------------------------------

def _window_rule(eta):
    """96-point Gauss-Legendre nodes on (0, eps) and weights times eta's profile."""
    x, w = quad.legendre(96)
    z = 0.5 * eta.epsilon * (x + 1.0)
    return z, 0.5 * eta.epsilon * w * eta.profile(z)


def averaging_symbol(eta, xi):
    """Symbol of the two-point averaging operator with window eta.

    a(xi) = 1/2 + (1/2) int eta(|z|) cos(xi z) dz.  eta is any object with
    ``epsilon`` (half-width) and a vectorized ``profile(z)`` for z >= 0 whose
    two-sided mass is 1; a mass more than 1e-8 from 1 is rejected.
    """
    z, wz = _window_rule(eta)
    mass = 2.0 * float(np.sum(wz))
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"averaging window must have unit mass, got {mass!r}")
    xi = np.asarray(xi, dtype=float)
    return 0.5 + np.sum(wz * np.cos(np.multiply.outer(xi, z)), axis=-1)


class AveragingWindow:
    """Constant-profile unit-mass window eta_eps(z) = 1/(2 eps) on [-eps, eps]."""

    def __init__(self, epsilon):
        if epsilon <= 0:
            raise ValueError("window half-width must be positive")
        self.epsilon = float(epsilon)

    def profile(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(np.abs(z) <= self.epsilon, 0.5 / self.epsilon, 0.0)


def bond_symbol(gamma, xi):
    """Symbol of the two-point diffusion with bond kernel gamma.

    ell(xi) = 2 int_{-delta}^{delta} gamma(|a|) (cos(xi a) - 1) da, computed
    with gamma's own quadrature rule (``gamma.nodes``/``gamma.weights`` over
    (0, delta), one-sided).
    """
    xi = np.asarray(xi, dtype=float)
    a, w = gamma.nodes, gamma.weights
    return 4.0 * np.sum(w * (np.cos(np.multiply.outer(xi, a)) - 1.0), axis=-1)


# frequencies per stride of the cosine recurrence, between direct re-seeds
_RESEED = 32


def _frequency_step(xi):
    """h of a 1-D, finite float array xi = h (1..K), h > 0, to 4 ulps; else ValueError."""
    if xi.ndim != 1 or len(xi) == 0 or not np.all(np.isfinite(xi)) or not xi[0] > 0.0:
        raise ValueError(f"xi must be a 1-D, finite h (1..K) with h > 0, got {xi!r}")
    h = float(xi[0])
    if np.any(np.abs(xi - h * np.arange(1, len(xi) + 1)) > 4.0 * np.finfo(float).eps * xi):
        raise ValueError(f"xi must be the uniform frequencies h (1..K), got {xi!r}")
    return h


def _cos_sums(theta, wrow, wcol, count):
    """wrow . (cos(k theta) @ wcol) for k = 1..count, one value per frequency.

    c_k = cos(k theta) comes from c_{k+1} = 2 c_1 c_k - c_{k-1}; c_k and
    c_{k+1} are taken from cos directly at every multiple k of _RESEED, so
    no value is more than _RESEED - 2 steps from its two seeds.
    """
    out = np.empty(count)
    cur = np.cos(theta)
    two_c1 = 2.0 * cur
    prev, nxt = np.ones_like(theta), np.empty_like(theta)
    for k in range(1, count + 1):
        if k > 1:
            if k % _RESEED <= 1:
                np.cos(np.multiply(theta, k, out=nxt), out=nxt)
            else:
                np.subtract(np.multiply(two_c1, cur, out=nxt), prev, out=nxt)
            prev, cur, nxt = cur, nxt, prev
        out[k - 1] = wrow @ (cur @ wcol)
    return out


def double_symbol_direct(gamma, eta, xi):
    """Unfactored tensor quadrature of the doubly nonlocal symbol at xi = h (1..K).

    Integrates the four-point combination cos(xi(y+r)) - 1 - cos(xi r) +
    cos(xi y) over the product of the two windows; used as the independent
    side of the factorization check.  Two-sided in both variables via the
    windows' even symmetry, the integrand at xi = k h is cos(k h (y + r)) +
    cos(k h (y - r)) - 2 - 2 cos(k h r) + 2 cos(k h y).  The coupled terms
    stay on the (y, r) grid, in row blocks of at most ``quad._BLOCK``
    entries: cos(k theta) comes from the three-term recurrence (_cos_sums)
    and each frequency's value is wy . (c_k @ wr).  The one-variable terms
    are sums of cos over one axis times the other window's mass.  Nothing
    splits cos(a + b) + cos(a - b) into 2 cos a cos b, which would make the
    check the product it checks.

    ``xi`` must be 1-D, finite and equal to h (1..K) with h > 0, to 4 ulps
    per entry; anything else is a ValueError.

    Error bound, with u = 2^-53, S = _RESEED and X = K h (delta + eps) the
    largest angle: a recurrence step adds at most 3u of rounding and 4u
    through c_1's own (one ulp), and an error made j steps back is
    multiplied by the Chebyshev |U_j(c_1)| <= j + 1.  A value is at most
    S - 2 steps from its seed pair, two direct cosines each off by at most
    (2 + X) u (one ulp and the rounded argument), so every grid cosine is
    within (2S - 3)(2 + X) u + 3.5 (S - 1)(S - 2) u of cos at its rounded
    angle: about 4.4e3 u at S = 32 and X = 16, crit07's largest.  The
    steps' part is capped by S however large K is; only the seeds' rounded
    arguments grow with X, as a direct cos's does.  The coupled terms carry
    that times 4 sum|wy| sum|wr|, and the one-variable cosines (2 + X) u
    times 8 sum|wy| sum|wr|, beside the rounding of the sums and angles.
    """
    xi = np.asarray(xi, dtype=float)
    h = _frequency_step(xi)
    r, wr = _window_rule(eta)
    y, wy = gamma.nodes, gamma.weights
    total = 2.0 * (wr.sum() * (np.cos(np.multiply.outer(xi, y)) @ wy)
                   - wy.sum() * (np.cos(np.multiply.outer(xi, r)) @ wr)
                   - wy.sum() * wr.sum())
    step = max(1, quad._BLOCK // (2 * len(r)))
    for lo in range(0, len(y), step):
        rows = y[lo:lo + step, None]
        theta = h * np.concatenate([rows + r, rows - r])
        total += _cos_sums(theta, np.tile(wy[lo:lo + step], 2), wr, len(xi))
    return 2.0 * total


# ---------------------------------------------------------------------------
# physical-space oracle (direct quadrature of the defining integral)
# ---------------------------------------------------------------------------

def _oracle(kernel, orientation, u_callable, points, sign):
    """2 sign sum_k w_k (u(x + sign s_k) - u(x)) . dirs_k at each row of points.

    One fixed half-ball rule: 32 radial nodes times 48 angles in 2D, or
    times 24 polar angles and 48 azimuths in 3D.  The points go in blocks
    of at most ``quad._BLOCK`` (point, offset, axis) entries, a cache-sized
    budget; each block is contracted with one matmul against 2 w dirs.
    """
    n_angular = 48 if kernel.dimension == 2 else (24, 48)
    r, dirs, w = quad.halfball_points(kernel, orientation, 1, 32, n_angular)
    pts = np.asarray(points, dtype=float)
    offsets = sign * r[:, None] * dirs
    wdirs = 2.0 * sign * w[:, None] * dirs
    step = max(1, quad._BLOCK // offsets.size)
    blocks = []
    for p in (pts[lo:lo + step] for lo in range(0, len(pts), step)):
        du = u_callable(p[:, None, :] + offsets) - u_callable(p)[:, None]
        blocks.append(np.tensordot(du, wdirs, du.ndim - 1))
    return np.concatenate(blocks)


def gradient_oracle(kernel, orientation, u_callable, points):
    """Evaluate the nonlocal gradient of a scalar function by direct quadrature.

    2 int w_delta(|s|) (s/|s|) (u(x+s) - u(x)) ds at each row of ``points``,
    with u given analytically (periodic extension included by the caller's
    formula).  This path never forms Fourier symbols.
    """
    return _oracle(kernel, orientation, u_callable, points, 1.0)


def divergence_oracle(kernel, orientation, u_callable, points):
    """Direct quadrature of the adjoint divergence of a vector function.

    2 int w_delta(|s|) (s/|s|) . (u(x) - u(x - s)) ds at each row of
    ``points``; the companion of gradient_oracle for vector fields.
    """
    return _oracle(kernel, orientation, u_callable, points, -1.0)
