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
from .fields import SpectralField
from .errors import KernelError


def _check(table, field, components=None):
    """ValueError unless field has the table's N and d and, if given, these components."""
    if field.bound != table.bound or field.dimension != table.dimension:
        raise ValueError(f"a field of N={field.bound}, d={field.dimension} does not fit "
                         f"a table of N={table.bound}, d={table.dimension}")
    if components is not None and field.component_shape != components:
        raise ValueError(f"expected component shape {components}, got {field.component_shape}")


def gradient(table, u):
    """Nonlocal gradient: scalar -> vector, vector -> (derivative, component) matrix."""
    _check(table, u)
    lam = table.lam
    if u.component_shape == ():
        out = lam * u.coeffs[..., None]
    elif u.component_shape == (table.dimension,):
        out = lam[..., :, None] * u.coeffs[..., None, :]
    else:
        raise ValueError("gradient expects a scalar or d-vector field")
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


def double_symbol_direct(gamma, eta, xi):
    """Unfactored tensor quadrature of the doubly nonlocal symbol.

    Integrates the four-point combination cos(xi(y+r)) - 1 - cos(xi r) +
    cos(xi y) over the product of the two windows; used as the independent
    side of the factorization check.  The frequencies go in blocks of at
    most ``quad._BLOCK`` (xi, y, r) entries, a cache-sized budget; one
    frequency is the least block.  Every block is formed in the same two
    slab buffers, allocated once, so no block maps fresh memory.
    """
    r, wr = _window_rule(eta)
    y, wy = gamma.nodes, gamma.weights
    xi = np.asarray(xi, dtype=float)
    flat = xi.reshape(-1)
    out = np.empty(len(flat))
    step = max(1, quad._BLOCK // (len(y) * len(r)))
    slab = np.empty((2, min(step, len(flat)), len(y), len(r)))
    for lo in range(0, len(flat), step):
        ky = np.multiply.outer(flat[lo:lo + step], y)[:, :, None]
        kr = np.multiply.outer(flat[lo:lo + step], r)[:, None, :]
        four, minus = slab[:, :len(ky)]
        # two-sided in both variables via even symmetry of the windows:
        # cos(ky + kr) + cos(ky - kr) - 2 - 2 cos(kr) + 2 cos(ky), in place
        np.cos(np.add(ky, kr, out=four), out=four)
        np.cos(np.subtract(ky, kr, out=minus), out=minus)
        four += minus
        four -= 2.0
        four -= 2.0 * np.cos(kr)
        four += 2.0 * np.cos(ky)
        out[lo:lo + step] = 2.0 * np.einsum("kyr,y,r->k", four, wy, wr)
    return out.reshape(xi.shape)


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
