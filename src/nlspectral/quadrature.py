"""Weighted quadrature over half-disks, half-balls and the 1D interval (0, delta].

``scaled_radial_rule``, the radial rule of every symbol table, integrates
against w_delta(r) r^(d-1) dr on (0, delta]: Gauss-Jacobi (Golub-Welsch)
for the singular r^-beta weight, else composite Gauss-Legendre.  The
half-ball rules refuse a clamped kernel (``ball_dimension``): the
half-ball operators need no clamp near the origin, and the one clamp,
of the 1D fractional kernel, is integrated by ``_interval_rule``.
``halfball_points``, the one half-ball rule, is that radial rule times
Gauss-Legendre angles on the
half-circle (2D) or polar angles times an azimuth trapezoid on the
hemisphere (3D) about the orientation, as physical offsets and weights.  The symbol tables close
their angular integrals (``symbols``), so it serves the physical-space
checks alone: ``integrate_halfball``, the oracles of ``operators`` and
the test oracles.  ``_interval_rule`` is the 1D rule on (0, delta] (``onedim``).

Every refinement check in the package goes through ``settle``: it
evaluates a ladder of levels (panel doublings, grown node counts, or a
fixed pair) and accepts the finer of the first two successive levels whose
largest change is at most tol times the finer level's largest magnitude;
otherwise it raises QuadratureConvergenceError with the last error and
level.  Composite Gauss-Legendre rules come from ``gl_panels``, except
those that ``onedim._cross_integral`` and ``operators._window_rule`` build
from Gauss-Legendre nodes themselves.
"""

from functools import lru_cache
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import KernelError, QuadratureConvergenceError
from .kernels import eval_kernel

DEFAULT_TOL = 1e-10
_TINY = 1e-300
# Entries per float64 temporary (256 KiB) in the blocked loops of onedim,
# operators and symbols.  The allocator maps a multi-megabyte block afresh
# and unmaps or trims it on free, so every block of that size faults its
# pages in again; blocks of this size are reused from the heap, in cache.
_BLOCK = 32_768


# ---------------------------------------------------------------------------
# refinement driver and Gauss-Legendre panels
# ---------------------------------------------------------------------------

def settle(evaluate, levels, tol, what):
    """Evaluate successive levels until two agree; return the finer value.

    ``evaluate(level)`` returns an array, a scalar, or a tuple of them (the
    parts).  Two successive levels agree when the largest change over all
    parts is at most tol times the largest magnitude over all parts of the
    finer level.  Raises QuadratureConvergenceError naming ``what``, the
    last error and the last level when the ladder runs out first.
    """
    prev, err, level = None, math.inf, None
    for level in levels:
        val = evaluate(level)
        parts = val if isinstance(val, tuple) else (val,)
        if prev is not None:
            scale = max(max(float(np.max(np.abs(p))) for p in parts), _TINY)
            err = max(float(np.max(np.abs(p - q))) for p, q in zip(parts, prev))
            if err <= tol * scale:
                return val
        prev = parts
    raise QuadratureConvergenceError(
        f"{what} did not settle within tol={tol}: last error {err!r} at level {level!r}"
    )


@lru_cache(maxsize=None)
def legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1] (cached, read-only)."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def jacobi(n, gamma):
    """Gauss-Jacobi nodes and weights on [-1, 1] for (1 + x)^gamma (cached, read-only).

    Golub and Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the symmetric Jacobi matrix of the weight, and each weight is mu0 =
    2^(gamma+1)/(gamma+1) times the square of its eigenvector's first
    component.  Low moments stay right to about n eps mu0 as gamma -> -1.
    """
    # the recurrence coefficients of the Jacobi polynomials P_k^(0, gamma)
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + gamma
    diag = np.concatenate([[gamma / (gamma + 2.0)], gamma * gamma / (s * (s + 2.0))])
    off = 2.0 * k * (k + gamma) / (s * np.sqrt(s * s - 1.0))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    w = 2.0 ** (gamma + 1.0) / (gamma + 1.0) * vec[0] ** 2
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gl_panels(edges, n):
    """Composite n-point Gauss-Legendre rule over the panels between edges.

    Panels with b <= a are skipped; nodes come out panel by panel in edge
    order.
    """
    x, w = legendre(n)
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    keep = b > a
    mid, half = 0.5 * (a[keep] + b[keep]), 0.5 * (b[keep] - a[keep])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def geometric_edges(a, b):
    """Panel edges from a to b doubling in width away from a > 0."""
    if a <= 0.0:
        return [a, b]
    edges = [a]
    while edges[-1] * 2.0 < b:
        edges.append(edges[-1] * 2.0)
    edges.append(b)
    return edges


def _split_rule(edges, panels, n):
    """GL rule on each edge interval cut into ``panels`` equal panels.

    Each interval ends at its own lo + panels * step, which may differ from
    the next interval's lo in the last bit, so the intervals are not merged
    into one edge list.
    """
    parts = [
        gl_panels(lo + (hi - lo) / panels * np.arange(panels + 1), n)
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


# ---------------------------------------------------------------------------
# radial rule and the half-ball rule
# ---------------------------------------------------------------------------

def ball_dimension(kernel):
    """The kernel's dimension; KernelError, naming it, unless it is 2 or 3 and unclamped."""
    d = kernel.dimension
    if d not in (2, 3) or kernel.cutoff_rho > 0.0:
        raise KernelError(f"symbols and radial rules need an unclamped 2D or 3D kernel, got "
                          f"dimension {d} and cutoff {kernel.cutoff_rho!r}")
    return d


def scaled_radial_rule(kernel, panels=1, n_nodes=24):
    """Nodes/weights (r, v) with sum v*g(r) ~ int_0^delta w_delta(r) r^(d-1) g dr.

    Built on (0, 1] and scaled by the horizon, for an unclamped 2D or 3D
    kernel (``ball_dimension``; 1D kernels have their own rule,
    ``_interval_rule``).  For fractional kernels the algebraic weight
    rho^(d-1-beta) is built into a Gauss-Jacobi rule; the smooth profiles
    take ``panels`` Gauss-Legendre panels on [0, 1].
    """
    d = ball_dimension(kernel)
    if kernel.is_singular:
        gamma = d - 1.0 - kernel.beta
        x, w = jacobi(n_nodes * panels, gamma)
        rho = 0.5 * (x + 1.0)
        v = kernel.normalization * w * 0.5 ** (gamma + 1.0)
    else:
        rho, w = _split_rule([0.0, 1.0], panels, n_nodes)
        v = w * kernel.profile(rho) * rho ** (d - 1)
    return kernel.horizon * rho, v / kernel.horizon


def frame_matrix(n):
    """Rotation taking the reference axis (e1 in 2D, e3 in 3D) to n."""
    n = np.asarray(n, dtype=float)
    if n.shape == (2,):
        return np.array([[n[0], -n[1]], [n[1], n[0]]])
    if n.shape == (3,):
        pick = np.argmin(np.abs(n))
        axis = np.zeros(3)
        axis[pick] = 1.0
        t1 = np.cross(n, axis)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n, t1)
        return np.stack([t1, t2, n], axis=1)
    raise ValueError(f"orientation must be a 2- or 3-vector, got shape {n.shape}")


def halfball_points(kernel, orientation, panels=1, n_radial=24, n_angular=None):
    """The half-ball rule as physical offsets: radii r, directions dirs, weights w.

    sum_k w[k] f(r[k], dirs[k]) approximates the integral of
    w_delta(|s|) f(|s|, s/|s|) over B_delta intersected with s.n >= 0.
    Every node count is multiplied by ``panels``.  The radii are
    scaled_radial_rule at n_radial nodes; the directions, about n, are
    n_angular Gauss-Legendre angles on (-pi/2, pi/2) in 2D (default 32),
    or in 3D n_angular = (polar, azimuth) counts (default (16, 32)):
    Gauss-Legendre polar angles on (0, pi/2), sin(polar) in the weights,
    times a trapezoid in azimuth.  The nodes run radius-major: each radius
    over every direction.
    """
    r, v = scaled_radial_rule(kernel, panels, n_radial)
    if kernel.dimension == 2:
        n_angular = 32 if n_angular is None else n_angular
        theta, wang = gl_panels([-0.5 * math.pi, 0.5 * math.pi], n_angular * panels)
        ref = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        n_polar, n_az = (c * panels for c in ((16, 32) if n_angular is None else n_angular))
        polar, wpolar = gl_panels([0.0, 0.5 * math.pi], n_polar)
        phi = np.repeat(polar, n_az)
        az = np.tile(2.0 * math.pi * np.arange(n_az) / n_az, n_polar)
        sp = np.sin(phi)
        ref = np.stack([sp * np.cos(az), sp * np.sin(az), np.cos(phi)], axis=1)
        wang = np.repeat(wpolar * np.sin(polar), n_az) * (2.0 * math.pi / n_az)
    dirs = ref @ frame_matrix(orientation).T
    return (np.repeat(r, len(dirs)), np.tile(dirs, (len(r), 1)),
            np.repeat(v, len(dirs)) * np.tile(wang, len(r)))


def integrate_halfball(kernel, orientation, f, tol=DEFAULT_TOL):
    """Adaptively integrate w_delta(|s|) f(|s|, s/|s|) over the half-ball.

    f must be vectorized: f(r, dirs) with r of shape (K,) and dirs (K, d),
    returning (K,) or (K, m).  halfball_points at its default counts is
    refined by panel doublings, 1 to 32 panels; raises
    QuadratureConvergenceError when two successive levels still differ by
    more than tol (relative).
    """
    def evaluate(p):
        r, dirs, w = halfball_points(kernel, orientation, p)
        vals = np.asarray(f(r, dirs))
        if vals.shape[0] != len(r):
            raise ValueError("integrand must return one row per quadrature node")
        return np.tensordot(w, vals, axes=(0, 0))

    return settle(evaluate, (2**i for i in range(6)), tol, "half-ball quadrature")


# ---------------------------------------------------------------------------
# the 1D rule on (0, delta]
# ---------------------------------------------------------------------------

def _interval_rule(kernel, panels, n_nodes=24):
    """Nodes/weights (s, v) with sum v*g(s) ~ int_0^delta w_delta(s) g(s) ds, 1D kernel.

    n_nodes * panels Gauss-Jacobi nodes for an uncut fractional kernel, else
    Gauss-Legendre panels: on (0, delta) for a smooth profile, and for a
    clamped one on the clamp and the octaves above its radius, where the
    power law still spans many decades.
    """
    delta = kernel.horizon
    if kernel.is_singular:
        gamma = 1.0 - kernel.beta
        x, w = jacobi(n_nodes * panels, gamma)
        s = delta * (0.5 * (x + 1.0))
        scale = kernel.normalization / delta ** (2.0 - kernel.beta)
        return s, scale * w * 0.5 ** (gamma + 1.0) * delta ** (gamma + 1.0) / s
    eps = kernel.cutoff_rho * delta
    edges = [0.0] + geometric_edges(eps, delta) if eps > 0.0 else [0.0, delta]
    s, w = _split_rule(edges, panels, n_nodes)
    return s, w * eval_kernel(kernel, s)
