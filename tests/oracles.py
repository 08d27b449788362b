"""Test-only quadrature oracles for the half-disk, half-ball and full-ball integrals.

``halfdisk_cartesian`` and ``monte_carlo_halfball`` integrate
w_delta(|s|) f(|s|, s/|s|) over the half-ball of an orientation by rules
that share nothing with ``nlspectral.quadrature.halfball_points``;
``refinement_errors`` reports that rule's own panel ladder.
``full_ball_quadrature`` integrates the full-ball factors by an angular
product rule, the reference for their closed Bessel form, the sphere's area
times the radial sums of ``symbols._radial_orders``.  ``re_lambda_cos_sum``
is Re lambda as the direct cosine sum over ``halfball_points``: the
reference for the closed angular form of ``symbols._re_lambda``.
``symbol_projector`` and ``leray_matrix`` are the per-mode projectors as dense
d x d matrices, the reference for the unit-symbol form of ``nlspectral.solvers``.
``affine_gradient_oracle`` is the half-ball quadrature of the gradient of an
affine map, the consistency check; ``evaluate_at`` sums a field's modes at
arbitrary points, the per-point reference of the 1D bond energy.
``complex_zeros`` is a zero field that is not kept real, so that
``set_mode`` fills one coefficient alone.
"""

import math

import numpy as np

from nlspectral import quadrature as quad
from nlspectral import symbols as sym
from nlspectral.fields import SpectralField, lattice_grid
from nlspectral.kernels import eval_kernel


def refinement_errors(kernel, orientation, f, panel_list, n_radial=24, n_angular=None):
    """Self-reported error estimates |I(p) - I(p_prev)| along a panel ladder."""
    vals = []
    for p in panel_list:
        r, dirs, w = quad.halfball_points(kernel, orientation, p, n_radial, n_angular)
        vals.append(np.tensordot(w, np.asarray(f(r, dirs)), axes=(0, 0)))
    return [
        float(np.max(np.abs(np.asarray(b) - np.asarray(a))))
        for a, b in zip(vals[:-1], vals[1:])
    ]


def halfdisk_cartesian(kernel, orientation, f, cells=2048):
    """Midpoint rule on the half-disk bounding box, indicator included.

    Grid axes are aligned with the orientation so the straight edge of the
    half-disk falls on a grid line; only the circular arc is approximated.
    """
    delta = kernel.horizon
    h = delta / cells
    x = (np.arange(cells) + 0.5) * h
    y = (np.arange(-cells, cells) + 0.5) * h
    X, Y = np.meshgrid(x, y, indexing="ij")
    r = np.hypot(X, Y)
    mask = r <= delta
    X, Y, r = X[mask], Y[mask], r[mask]
    R = quad.frame_matrix(orientation)
    pts = np.stack([X, Y], axis=1) @ R.T
    dirs = pts / r[:, None]
    vals = np.asarray(f(r, dirs))
    return np.tensordot(eval_kernel(kernel, r) * h * h, vals, axes=(0, 0))


def monte_carlo_halfball(kernel, orientation, f, samples=200_000, seed=0):
    """Plain Monte Carlo over the half-ball, for coarse checks."""
    d = kernel.dimension
    delta = kernel.horizon
    rng = np.random.default_rng(seed)
    n = np.asarray(orientation, dtype=float)
    pts = rng.uniform(-delta, delta, size=(samples, d))
    r = np.linalg.norm(pts, axis=1)
    keep = (r <= delta) & (pts @ n >= 0.0) & (r > 0.0)
    pts, r = pts[keep], r[keep]
    vals = np.asarray(f(r, pts / r[:, None]))
    box = (2.0 * delta) ** d
    return box * np.tensordot(eval_kernel(kernel, r), vals, axes=(0, 0)) / samples


def full_ball_quadrature(kernel, ks, nr, na, odd):
    """Full-ball factors Lambda (``odd``) or m at ks by angular quadrature.

    The radial rule of ``symbols._radial_orders`` at nr nodes times na
    Gauss-Legendre angles: in 2D four quarter-disk integrals over (0, pi/2),
    in 3D the polar integral of the sphere over (0, pi) with weight
    sin(phi), the azimuth integrated out.  One sine or cosine per
    (magnitude, radius, angle), in blocks of 64 magnitudes.
    """
    r, vr = quad.scaled_radial_rule(kernel, panels=1, n_nodes=nr)
    if kernel.dimension == 2:
        theta, va = quad.gl_panels([0.0, 0.5 * math.pi], na)
        c, front = np.cos(theta), 4.0
    else:
        phi, w = quad.gl_panels([0.0, math.pi], na)
        c, va, front = np.cos(phi), w * np.sin(phi), 2.0 * math.pi
    ks = np.asarray(ks, dtype=float)
    out = np.empty(len(ks))
    for lo in range(0, len(ks), 64):
        phase = ks[lo:lo + 64, None, None] * r[None, :, None] * c
        if odd:
            out[lo:lo + 64] = np.einsum("kij,i,j->k", np.sin(phase), vr, va * c)
        else:
            out[lo:lo + 64] = np.einsum("kij,i,j->k", np.cos(phase) - 1.0, vr, va)
    return front * out


def half_ball_node_counts(kernel, kmax):
    """Node counts (nr, na) of the half-ball product rule at k delta <= kmax.

    The radial count of the symbol tables; the angular counts grow with
    kmax so that the rule resolves cos(k r s.xi^) to rounding: na
    half-circle angles in 2D, na = (polar, azimuth) in 3D.
    """
    nr = sym._radial_count(kmax)
    if kernel.dimension == 2:
        return nr, 32 + int(2.0 * kmax)
    return nr, (16 + int(1.2 * kmax), 32 + 2 * int(kmax))


def half_ball_bumps(nr, na, count):
    """The counts (nr, na) and the count - 1 refinements that follow them.

    The radial counts are those of the symbol tables' ladder
    (``symbols._radial_bumps``).
    """
    for _ in range(count):
        yield nr, na
        nr = sym._bump_radial(nr)
        na = (int(na * 1.5) + 1 if isinstance(na, int) else
              (int(na[0] * 1.5) + 1, int(na[1] * 1.5) + 2))


def re_lambda_cos_sum(kernel, xi, n, nr, na):
    """Reference Re lambda at the modes xi (Q, d) for the orientation n.

    The direct sum 2 sum_k w_k dirs_k (cos(r_k xi.dirs_k) - 1) over one
    cosine per (mode, node) of ``quad.halfball_points`` at nr radial and na
    angular nodes (half-circle angles in 2D, (polar, azimuth) in 3D);
    chunked over modes to bound the phase tensor.
    """
    r, dirs, w = quad.halfball_points(kernel, n, 1, nr, na)
    proj = np.asarray(xi, dtype=float) @ dirs.T
    wdir = 2.0 * w[:, None] * dirs
    out = np.empty((len(proj), len(wdir[0])))
    for lo in range(0, len(proj), 64):
        out[lo:lo + 64] = (np.cos(r * proj[lo:lo + 64]) - 1.0) @ wdir
    return out


def symbol_projector(table):
    """Dense per-mode projector Pi = lambda lambda^H / |lambda|^2, zero at xi = 0."""
    lam, a2 = table.lam, table.abs2
    inv = np.divide(1.0, a2, out=np.zeros_like(a2), where=a2 > 0.0)
    return np.einsum("...i,...j->...ij", lam, np.conj(lam)) * inv[..., None, None]


def leray_matrix(table):
    """Dense per-mode Leray projector I - Pi."""
    return np.eye(table.dimension) - symbol_projector(table)


def affine_gradient_oracle(kernel, orientation, matrix, tol=quad.DEFAULT_TOL):
    """Direct quadrature of the gradient of u(x) = A x + b (any x, by translation).

    Returns the constant matrix produced by the integral; consistency demands
    it equal A^T (gradient indexed as (derivative, component)).
    """
    A = np.asarray(matrix, dtype=float)

    def f(r, dirs):
        # s (x) (A s)/|s| = r dir (x) (A dir)
        au = dirs @ A.T
        return 2.0 * r[:, None, None] * dirs[:, :, None] * au[:, None, :]

    flat = quad.integrate_halfball(
        kernel, orientation, lambda r, u: f(r, u).reshape(len(r), -1), tol=tol
    )
    d = kernel.dimension
    return flat.reshape(d, d)


def evaluate_at(field, points):
    """Direct mode summation at arbitrary points, shape (..., d) -> (..., comp)."""
    pts = np.asarray(points, dtype=float)
    modes = lattice_grid(field.bound, field.dimension).reshape(field.dimension, -1)
    flat = field.coeffs.reshape((modes.shape[1],) + field.component_shape)
    phase = np.exp(1j * np.tensordot(pts, modes, axes=(-1, 0)))
    vals = np.tensordot(phase, flat, axes=(-1, 0))
    return vals.real if field.real else vals


def complex_zeros(dimension, bound, component_shape=()):
    """A zero field whose coefficients need not be conjugate symmetric."""
    field = SpectralField.zeros(dimension, bound, component_shape)
    field.real = False
    return field
