"""One-sided 1D operators and the bond-kernel form of their Dirichlet energy.

The one-sided gradients are

    G^{+-} u(x) = +-2 int_0^delta w_delta(s) (u(x +- s) - u(x)) ds

with Fourier symbols lambda^{+-}(xi) = +-2 int_0^delta w_delta(s)
(exp(+-i xi s) - 1) ds.  For integrable kernels the one-sided Dirichlet
energy coincides with a two-point (bond) energy whose even kernel is

    rho(a) = 2 a^2 int_0^delta w_delta(b) (w_delta(a) - w_delta(a+b)) db,

supported on (-delta, delta) with unit L1 mass; it is nonnegative when the
profile is non-increasing and may change sign otherwise.  Non-integrable
profiles are handled by clamping the kernel near the origin and letting the
clamp radius shrink: the clamped bond kernels increase monotonically and
their mass tends to one.

The clamped kernels agree with the profile above their radii, so one pass
builds every clamp level.  All levels share the abscissae (the mesh and one
bond rule whose panel edges hold every radius) and, per abscissa a, one row
of panels for the cross term int w(b) w(a+b) db: the doubling ladder of the
finest radius, cut at every radius eps_j and at eps_j - a.  Each panel then
lies wholly inside or outside each level's clamp, in b and in a + b, and is
a piece of a doubling panel, where 16 Gauss nodes are exact to rounding.
The profile is evaluated once per node, and each level's cross term is a
sum of per-panel sums (``_cross_integral``).
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .errors import KernelError
from .kernels import FRACTIONAL, epsilon_cutoff, eval_kernel

# The clamp defect of the bond-kernel mass is the squared first moment of
# the clamped kernel, 1 - beta eps^(2-beta) + O(eps^2), so the ladder must
# descend to ~5e-7 for the mass to land within 1e-6 of one at beta = 1.
DEFAULT_EPS_SEQUENCE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 5e-7)
MESH_SIZE = 2048
_NODES = 16   # Gauss-Legendre nodes per panel of the cross term (see _cross_integral)


def graded_mesh(delta, size=MESH_SIZE):
    """Interior mesh of (0, delta) clustered at both endpoints, of a positive whole size."""
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
        raise ValueError(f"mesh size must be a positive integer, got {size!r}")
    t = (np.arange(size) + 0.5) / size
    return delta * (t**2 * (3.0 - 2.0 * t))


@dataclass
class RhoKernel:
    """Even bond kernel sampled on a graded mesh of (0, delta).

    ``value`` interpolates rho on the mesh at arbitrary points;
    ``nodes``/``weights`` give a one-sided quadrature rule for integrals of
    rho(a)/a^2 against smooth functions, which is exactly the bond-kernel
    measure of the induced diffusion.
    """

    delta: float
    mesh: np.ndarray
    values: np.ndarray
    l1_mass: float
    nodes: np.ndarray
    weights: np.ndarray
    epsilon: float = 0.0

    def value(self, a):
        """rho at |a|: interpolated on the mesh inside the support, zero beyond delta."""
        a = np.abs(a)
        return np.where(a <= self.delta, np.interp(a, self.mesh, self.values), 0.0)


def _edge_matrix(levels, a, top):
    """Panel edges shared by every level's w(b) w(a+b) on (0, top), a row per a.

    ``levels`` are one profile clamped at several radii, or one kernel.  The
    edges are each level's breakpoints e (its clamp radius among them) and
    e - a, and for a clamped power profile, which varies over decades above
    its clamp, the doubling ladders of the finest radius in b and in a + b.
    So each panel lies on one side of every clamp in b and in a + b, and is
    a piece of a doubling panel.  Row i holds 0, the distinct edges inside
    (0, top_i) in increasing order and top_i, padded with copies of top_i;
    returns the rows and their edge counts.  Requires top > 0.
    """
    delta = levels[0].horizon
    cols = [top]
    for e in {delta * r for k in levels for r in k.breakpoints()}:
        cols += [np.full_like(a, e), e - a]
    finest = min(levels, key=lambda k: k.cutoff_rho)
    if finest.family == FRACTIONAL and finest.cutoff_rho > 0.0:
        eps = finest.cutoff_rho * delta
        for anchor in (np.full_like(a, eps), eps - a):
            anchor = np.where(anchor <= 0.0, np.minimum(eps, top) * 0.5, anchor)
            # doubling is exact, so column k is the k-th doubling of the anchor
            k = np.arange(max(1, int(np.max(np.ceil(np.log2(top / anchor)))) + 1))
            cols.append(anchor[:, None] * 2.0**k)
    top = top[:, None]
    edges = np.column_stack(cols)
    edges = np.sort(np.where((edges > 0.0) & (edges < top), edges, top), axis=1)
    edges[:, 1:] = np.where(edges[:, 1:] == edges[:, :-1], top, edges[:, 1:])
    edges = np.sort(edges, axis=1)
    counts = np.sum(edges < top, axis=1) + 2
    return np.column_stack([np.zeros_like(a), edges]), counts


def _cross_integral(kernel, a, edges, clamps):
    """int w_j(b) w_j(a+b) db over the panels of each row of edges, one row per level j.

    ``kernel`` is the finest level and ``clamps`` holds each level's clamp
    radius eps_j and value c_j (0 and 0 for an unclamped kernel).  The
    profile is evaluated once per node, at b and a + b, and gives per panel
    S = sum wb w(b) w(a+b) and T = sum wb w(a+b).  A panel lies on one side
    of each clamp (``_edge_matrix``), and a + b >= b, so level j's panel
    term is S where neither factor is clamped, c_j T where only w(b) is,
    and c_j^2 times the panel width where both are.  Zero-width panels
    (padding) add nothing; the nodes and weights of the others are those of
    ``quad.gl_panels`` on the row.

    16 nodes put the Gauss error below rounding.  Breakpoints and clamp
    edges are panel edges, so inside a panel each factor is entire or
    polynomial for the smooth profiles, constant where clamped, and for a
    power profile singular only at b = 0 and b = -a (w(b) is clamped on
    the first panel, which ends at or below the finest radius).  Each panel
    [lo, hi] past the first is a piece of a doubling panel of the finest
    ladder, so hi - lo <= lo, and both points lie at least one panel width
    left of lo: at t <= -3 in the panel's unit coordinate, whose Bernstein
    ellipse has parameter 3 + sqrt(8) = 5.83.  The 16-point Gauss error is
    then about 5.83^-32 = 3e-25 relative, at every level.
    """
    x, w = quad.legendre(_NODES)
    lo, hi = edges[:, :-1], edges[:, 1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    b = mid[..., None] + half[..., None] * x
    wab = half[..., None] * w * eval_kernel(kernel, a[:, None, None] + b)
    t = np.sum(wab, axis=2)
    s = np.sum(wab * eval_kernel(kernel, b), axis=2)
    eps, c = clamps
    return np.sum(np.where(a[:, None] + mid < eps, c * c * (hi - lo),
                           np.where(mid < eps, c * t, s)), axis=2)


def _kernel_mass(kernel):
    """int_0^delta w_delta(s) ds on 1 to 64 panels, settled to 1e-12: the factor of the k-part."""
    return quad.settle(lambda p: float(np.sum(quad._interval_rule(kernel, p)[1])),
                       (2**i for i in range(7)), 1e-12, "kernel mass quadrature")


def _rho_pointwise(kernel, a_values, eps_sequence=()):
    """rho(a) of the kernel clamped at each radius, a row per radius (or its own, for none).

    A row is the level's k-part 2 a^2 w(a) int_0^delta w, its kernel mass
    settled once, plus its h-part -2 a^2 int_0^(delta-a) w(b) w(a+b) db; the
    h-parts of all levels come from one panel row per abscissa and one
    evaluation of the profile on it (``_cross_integral``).  Rows with the
    same number of panel edges share one (rows, panels, nodes) array, of at
    most ``quad._BLOCK`` entries, so that its temporaries stay in cache and
    are not returned to the system after each block.  Abscissae at or
    beyond the horizon have no cross term.
    """
    delta = kernel.horizon
    levels = [epsilon_cutoff(kernel, e) for e in eps_sequence] or [kernel]
    # each level's clamp radius and value (0 and 0 unclamped), shaped (level, 1, 1)
    clamps = np.array([(delta * k.cutoff_rho, k.cutoff_value / delta**2)
                       for k in levels]).T[:, :, None, None]
    rho = np.array([2.0 * a_values * a_values * eval_kernel(k, a_values) * _kernel_mass(k)
                    for k in levels])
    live = np.flatnonzero(delta - a_values > 0.0)
    a = a_values[live]
    if len(a):
        finest = min(levels, key=lambda k: k.cutoff_rho)
        cross = np.empty((len(levels), len(a)))
        edges, counts = _edge_matrix(levels, a, delta - a)
        for c in np.unique(counts):
            rows = np.flatnonzero(counts == c)
            step = max(1, quad._BLOCK // ((c - 1) * _NODES))
            for r in (rows[i:i + step] for i in range(0, len(rows), step)):
                cross[:, r] = _cross_integral(finest, a[r], edges[r, :c], clamps)
        rho[:, live] -= 2.0 * a * a * cross
    return rho


def _endpoint_graded_edges(delta, extra=()):
    """Panel edges of (0, delta) doubling away from 1e-7 delta at both endpoints."""
    left = quad.geometric_edges(delta * 1e-7, delta * 0.5)
    right = [delta - e for e in left]
    return sorted({0.0, delta} | set(left) | set(right)
                  | {e for e in extra if 0.0 < e < delta})


def _rho_levels(kernel, mesh_size, eps_sequence=()):
    """RhoKernel of the kernel clamped at each radius, or of the kernel alone.

    Every level shares one abscissa set: the mesh and a bond rule on
    endpoint-graded panels whose edges hold every clamp radius and the
    kernel's own (a clamped kernel's rho has a kink there), so each level
    keeps its own radius as a panel edge.  One ``_rho_pointwise``
    call evaluates every level there, and each level gets its own values,
    two-sided L1 mass 2 int_0^delta rho(a) da and weights of the one-sided
    rule for int_0^delta rho(a)/a^2 g(a) da.
    """
    delta = kernel.horizon
    mesh = graded_mesh(delta, mesh_size)
    extra = [*eps_sequence, *(delta * r for r in kernel.breakpoints())]
    a, wa = quad.gl_panels(_endpoint_graded_edges(delta, extra), 32)
    rho = _rho_pointwise(kernel, np.concatenate([mesh, a]), eps_sequence)
    levels = []
    for eps, values in zip(eps_sequence or (0.0,), rho):
        wr = wa * values[len(mesh):]
        levels.append(RhoKernel(delta, mesh, values[:len(mesh)], 2.0 * float(np.sum(wr)),
                                a, wr / (a * a), eps))
    return levels


def rho_from_kernel(kernel, mesh_size=MESH_SIZE):
    """Bond kernel of an integrable 1D kernel, by direct quadrature.

    Rejects non-integrable kernels (fractional with beta >= 1); those go
    through rho_regularized.
    """
    if kernel.dimension != 1:
        raise KernelError("rho is a one-dimensional construction")
    if not kernel.is_integrable:
        raise KernelError(
            "kernel is not integrable; use rho_regularized for the clamped limit"
        )
    return _rho_levels(kernel, mesh_size)[0]


def rho_regularized(kernel, eps_sequence=DEFAULT_EPS_SEQUENCE, mesh_size=MESH_SIZE):
    """Clamped bond kernels for a non-increasing 1D kernel, plus their limit.

    Returns (levels, limit): one RhoKernel per clamp radius eps (decreasing)
    and the finest level standing in for the eps -> 0 limit.  All levels
    come from one evaluation of the profile, so every radius is checked
    first.  Monotone increase in shrinking eps is verified on the mesh.
    """
    if kernel.dimension != 1:
        raise KernelError("rho is a one-dimensional construction")
    if not kernel.is_nonincreasing:
        raise KernelError("regularized rho needs a non-increasing kernel profile")
    eps_sequence = sorted(eps_sequence, reverse=True)
    if not eps_sequence or not all(0.0 < e < kernel.horizon for e in eps_sequence):
        raise KernelError(f"clamp radii must be a non-empty sequence in (0, delta), "
                          f"got {eps_sequence!r}")
    levels = _rho_levels(kernel, mesh_size, eps_sequence)
    for coarse, fine in zip(levels[:-1], levels[1:]):
        if np.any(fine.values < coarse.values - 1e-9 * np.max(np.abs(fine.values))):
            raise KernelError("clamped bond kernels failed to increase monotonically")
    return levels, levels[-1]


# ---------------------------------------------------------------------------
# one-sided symbols and energies
# ---------------------------------------------------------------------------

def one_sided_symbol(kernel, xi):
    """Fourier symbol lambda^+ of G^+ at the frequencies xi (vectorized).

    lambda^+ = 2 int_0^delta w_delta(s)(exp(i xi s) - 1) ds, settled to
    1e-12 over two interval rules.  G^- has lambda^- = -conj(lambda^+): the
    real part flips with the side, the imaginary part does not.
    """
    if kernel.dimension != 1:
        raise KernelError("one-sided operators are one-dimensional")
    xi = np.asarray(xi, dtype=float)

    def level(rule):
        s, w = quad._interval_rule(kernel, *rule)
        ph = np.multiply.outer(xi, s)
        re = 2.0 * np.sum(w * (np.cos(ph) - 1.0), axis=-1)
        im = 2.0 * np.sum(w * np.sin(ph), axis=-1)
        return re + 1j * im

    return quad.settle(level, ((2, 48), (3, 64)), 1e-12, "one-sided symbol quadrature")


def one_sided_energy(kernel, u):
    """Dirichlet energy sum |lambda^+(xi)|^2 |uhat(xi)|^2 of a 1D field.

    |lambda^-|^2 = |lambda^+|^2, so it is the energy of either side.
    """
    xi = np.arange(-u.bound, u.bound + 1, dtype=float)
    lam = one_sided_symbol(kernel, xi)
    mag2 = np.abs(lam) ** 2
    w = mag2.reshape(mag2.shape + (1,) * len(u.component_shape))
    return float(np.sum(w * np.abs(u.coeffs) ** 2))


def bond_energy(rho, u):
    """Bond-form energy 2 int_0^delta rho(a) int |(u(x+a)-u(x))/a|^2 dx/(2pi) da.

    The x-integral is a uniform trapezoid over the period on max(512,
    4N + 2) points (exact for band-limited integrands).  u(x+a) is a
    separable phase sum: with exp(ik(x+a)) = exp(ikx) exp(ika), the real
    and imaginary parts of exp(ikx) uhat_k (per mode and x) and of exp(ika)
    (per mode and bond node) are computed once, and each block of at most
    ``quad._BLOCK`` (part, x, a) entries, a cache-sized budget, accumulates
    u(x+a) mode by mode in real arithmetic.  Every entry is summed in the same order whatever the
    blocks, so the value does not depend on the budget; a BLAS matmul's
    per-entry rounding changes with the block width.  The result is
    comparable with one_sided_energy, both in coefficient normalization.
    No Fourier symbol enters this path.
    """
    grid = max(512, 4 * u.bound + 2)
    x = -np.pi + 2.0 * np.pi * np.arange(grid) / grid
    a, wa = rho.nodes, rho.weights
    k = np.arange(-u.bound, u.bound + 1, dtype=float)
    xk = (np.exp(1j * np.multiply.outer(x, k)) * u.coeffs).T
    ka = np.exp(1j * np.multiply.outer(k, a))
    # coefficients of Re exp(ika) (first 2N+1 rows) and Im exp(ika) (the
    # rest) in Re u(x+a), and for a complex field also in Im u(x+a)
    if u.real:
        coef = np.vstack([xk.real, -xk.imag])
    else:
        coef = np.block([[xk.real, xk.imag], [-xk.imag, xk.real]])
    phases = np.vstack([ka.real, ka.imag])
    ux = np.sum(coef[:len(k)], axis=0)
    x_mean = np.empty(len(a))
    # even blocks, so none holds a single node (at least 4 per block): the
    # x-mean of one column is summed pairwise, of wider blocks row by row
    count = -(-len(a) // max(4, quad._BLOCK // len(ux)))
    bounds = [i * len(a) // count for i in range(count + 1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        uxa = np.zeros((len(ux), hi - lo))
        for c, p in zip(coef, phases[:, lo:hi]):
            uxa += c[:, None] * p
        x_mean[lo:hi] = np.sum((uxa - ux[:, None]) ** 2, axis=0) / grid
    return 2.0 * float(np.sum(wa * x_mean))


def energy_equivalence_check(kernel, u, rho):
    """Compare the spectral one-sided energy with the bond-form energy of rho,
    the kernel's RhoKernel (rho_from_kernel or a level of rho_regularized).

    Returns a dict with both values and their relative gap.
    """
    e_plus = one_sided_energy(kernel, u)
    e_rho = bond_energy(rho, u)
    gap = abs(e_plus - e_rho) / max(e_plus, e_rho, 1e-300)
    return {"e_plus": e_plus, "e_rho": e_rho, "gap": gap}


def sine_rho_closed_form(a):
    """Closed-form bond kernel of the sine-profile kernel at horizon 1."""
    a = np.asarray(a, dtype=float)
    abs_a = np.abs(a)
    return (
        np.pi * a**2 * np.sin(np.pi * abs_a)
        + (np.pi**2 * a**2 / 4.0)
        * ((abs_a - 1.0) * np.cos(np.pi * a) - np.sin(np.pi * abs_a) / np.pi)
    )
