"""Fourier symbols of the half-ball nonlocal operators on the integer lattice.

The nonlocal gradient with orientation n acts on the mode exp(i xi.x) as
multiplication by a complex d-vector lambda(xi) whose parts are

    Re lambda(xi) = 2 int_{half ball} w_delta(|s|) (s/|s|) (cos(xi.s) - 1) ds
    Im lambda(xi) = Lambda(|xi|) xi/|xi|

with the radial factor

    Lambda(k) = int_{full ball} w_delta(|s|) (s.e/|s|) sin(k s.e) ds

independent of both the orientation and the unit vector e.  Its angular
integral is closed: Lambda(k) = 2 pi int_0^delta w_delta(r) r J1(k r) dr
in 2D and 4 pi int_0^delta w_delta(r) r^2 j1(k r) dr in 3D, and the drift
factor m has J0 - 1 and j0 - 1 in their place, so each is one sum over the
radial rule.

The half-ball integral of Re lambda is closed as well (_re_lambda): with
c = xi.n/|xi|, it is a sum over even orders l of Bessel radial sums
R_l(|xi|) times T_l(c) along n and T_l'(c) across it in 2D, with
spherical Bessel j_l and Legendre P_l in their place in 3D, so the only
quadrature left is the radial rule (docs/full_ball.md).

Conjugate symmetry lambda(-xi) = conj(lambda(xi)) halves the lattice and
holds exactly as computed.
"""

from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
import math

import numpy as np

from . import quadrature as quad
from .errors import KernelError, QuadratureConvergenceError
from .kernels import KernelSpec, from_config
from .results import mode_rows, write_text

UNIT_TOL = 1e-14
_CHUNK = 500_000  # max entries per block: (l, k, r) in _radial_orders, (k, r) in _full_ball


def _finite_vector(v):
    """v as a float array; ValueError unless it is a finite 1-D vector."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or not np.all(np.isfinite(v)):
        raise ValueError(f"orientation must be a finite 1-D vector, got {v!r}")
    return v


@dataclass(frozen=True)
class Orientation:
    """Unit vector selecting the half-space of interaction."""

    vec: np.ndarray

    def __post_init__(self):
        v = _finite_vector(self.vec)
        object.__setattr__(self, "vec", v)
        # written so that a NaN norm fails it too
        if not abs(np.linalg.norm(v) - 1.0) <= UNIT_TOL:
            raise ValueError(f"orientation must be unit length, |n| = {np.linalg.norm(v)!r}")

    @classmethod
    def from_angle(cls, alpha):
        return cls(np.array([math.cos(alpha), math.sin(alpha)]))

    @classmethod
    def from_vector(cls, v):
        v = _finite_vector(v)
        top = float(np.max(np.abs(v), initial=0.0))
        if top == 0.0:
            raise ValueError("cannot orient along the zero vector")
        # scaled by the power of two at max|v|, exactly, so that |v| neither
        # overflows nor underflows and v/|v| keeps its bits
        v = np.ldexp(v, -math.frexp(top)[1])
        return cls(v / np.linalg.norm(v))

    @property
    def dimension(self):
        return len(self.vec)


@dataclass
class SymbolTable:
    """Cached symbols lambda(xi) over the lattice cube [-N, N]^d minus 0.

    ``lam`` has shape (2N+1,)*d + (d,) indexed by xi + N per axis.
    ``lambda_radial_map`` caches the radial factor keyed by the integer
    |xi|^2.  Local tables (``is_local``) carry lambda(xi) = i xi and are the
    delta -> 0 counterparts used by the error studies.
    """

    kernel: KernelSpec | None
    orientation: Orientation | None
    bound: int
    lam: np.ndarray
    lambda_radial_map: dict = field(default_factory=dict)
    tol: float = quad.DEFAULT_TOL
    is_local: bool = False

    @property
    def dimension(self):
        return self.lam.ndim - 1

    def lam_at(self, xi):
        idx = tuple(int(c) + self.bound for c in xi)
        return self.lam[idx]

    def lam_neg(self):
        """Symbol of the reflected orientation: lambda_{-n} = -conj(lambda_n)."""
        return -np.conj(self.lam)

    def abs2(self):
        return np.sum(np.abs(self.lam) ** 2, axis=-1)


def lattice_modes(bound, dimension):
    """All nonzero integer frequencies in the cube, shape (Q, d)."""
    axes = [np.arange(-bound, bound + 1)] * dimension
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dimension)
    return grid[np.any(grid != 0, axis=1)]


def _positive_half(modes):
    """Lexicographically positive representative of each (xi, -xi) pair."""
    mask = np.zeros(len(modes), dtype=bool)
    prior_zero = np.ones(len(modes), dtype=bool)
    for c in range(modes.shape[1]):
        mask |= prior_zero & (modes[:, c] > 0)
        prior_zero &= modes[:, c] == 0
    return modes[mask]


def _radial_count(kmax):
    return 24 + int(kmax)


def _full_ball(kernel, ks, nr, odd):
    """Full-ball factors at the magnitudes ks: Lambda if ``odd``, else m.

    Lambda(k) = int w_delta (s.e/|s|) sin(k s.e) ds and m(k) = int w_delta
    (cos(k s.e) - 1) ds.  The angular integrals are closed (x = k r):
    2 pi J1(x) and 2 pi (J0(x) - 1) over the circle, 4 pi j1(x) and
    4 pi (j0(x) - 1) over the sphere, so each factor is one radial sum
    (docs/full_ball.md).  Magnitudes go in blocks of at most _CHUNK (k, r)
    entries, each summed on its own.  scipy.special is imported here, at
    the first table build, so that 1D work never loads it.
    """
    from scipy.special import j0, j1, spherical_jn

    r, vr = quad.scaled_radial_rule(kernel, panels=1, n_nodes=nr)
    if kernel.dimension == 2:
        front, radial = 2.0 * math.pi, j1 if odd else j0
    else:
        front, radial = 4.0 * math.pi, partial(spherical_jn, 1 if odd else 0)
    ks = np.asarray(ks, dtype=float)
    out = np.empty(len(ks))
    step = max(1, _CHUNK // len(r))
    for lo in range(0, len(ks), step):
        vals = radial(np.multiply.outer(ks[lo:lo + step], r))
        if not odd:
            vals -= 1.0
        out[lo:lo + step] = np.einsum("ki,i->k", vals, vr)
    return front * out


def _bessel_orders(lmax, x, d):
    """Bessel J_l(x) (d = 2) or spherical j_l(x) (d = 3) for l = 0..lmax at x > 0.

    The shape is (lmax + 1,) + x.shape.  Both satisfy f_(l-1) + f_(l+1) =
    (2l + d - 2) f_l/x, so the ratios rho_l = f_l/f_(l-1) come from the
    downward recurrence rho_l = 1/((2l + d - 2)/x - rho_(l+1)), started at
    rho = 0 at the order lmax + 20 + ceil(max x).  Each step scales the
    start's relative error by rho_l rho_(l+1), about (x/2l)^2 once l is
    past x, so it is far below rounding by the order lmax.  Then
    f_l = f_0 rho_1 ... rho_l, or f_l = f_1 rho_2 ... rho_l where
    |f_1| > |f_0|: near a zero of f_0, 1/rho_1 is a difference near 0 and
    its rounding would spoil every f_l.  The start pair is scipy.special's
    j0 and j1 in 2D, and j_0 = sin x/x and j_1 = (j_0 - cos x)/x in 3D.
    x > 0 keeps every step finite.
    """
    x = np.asarray(x, dtype=float)
    inv = 1.0 / x
    out = np.empty((lmax + 1,) + x.shape)
    ratio, step = np.zeros_like(x), np.empty_like(x)
    for l in range(lmax + 20 + math.ceil(float(np.max(x))), 0, -1):
        np.multiply(inv, 2 * l + d - 2, out=step)
        step -= ratio
        if l <= lmax:
            ratio = out[l]
        np.divide(1.0, step, out=ratio)
    if d == 2:
        from scipy.special import j0, j1

        f0, f1 = j0(x), j1(x)
    else:
        f0 = np.sin(x) * inv
        f1 = (f0 - np.cos(x)) * inv
    from_f1 = np.abs(f1) > np.abs(f0)
    out[0] = np.where(from_f1, f1, f0)
    if lmax >= 1:
        out[1] = np.where(from_f1, 1.0, out[1])
    for l in range(1, lmax + 1):
        out[l] *= out[l - 1]
    out[0] = f0
    return out


def _zonal(lmax, t, d):
    """T_l(t) and T_l'(t) (d = 2) or P_l(t) and P_l'(t) (d = 3) for l = 0..lmax.

    Each of shape (lmax + 1,) + t.shape, from T_(l+1) = 2t T_l - T_(l-1)
    and T_(l+1)' = 2 T_l + 2t T_l' - T_(l-1)', or (l + 1) P_(l+1) =
    (2l + 1) t P_l - l P_(l-1) and P_(l+1)' = P_(l-1)' + (2l + 1) P_l.
    Every term of a right side has the parity of its left side, so negating
    t negates exactly the odd orders of T_l and P_l and the even ones of
    their derivatives.
    """
    t = np.asarray(t, dtype=float)
    p = np.empty((lmax + 1,) + t.shape)
    dp = np.empty_like(p)
    p[0], dp[0] = 1.0, 0.0
    if lmax >= 1:
        p[1], dp[1] = t, 1.0
    for l in range(1, lmax):
        if d == 2:
            p[l + 1] = 2.0 * t * p[l] - p[l - 1]
            dp[l + 1] = 2.0 * p[l] + 2.0 * t * dp[l] - dp[l - 1]
        else:
            p[l + 1] = ((2 * l + 1) * t * p[l] - l * p[l - 1]) / (l + 1)
            dp[l + 1] = dp[l - 1] + (2 * l + 1) * p[l]
    return p, dp


def _half_ball_weights(lmax, d):
    """The factors w_l of the even orders l <= lmax of Re lambda (_re_lambda).

    2D: w_l = 2 e_l (-1)^(l/2) int_(-pi/2)^(pi/2) cos(theta) cos(l theta)
    dtheta, with e_0 = 1 and e_l = 2 the Jacobi-Anger factors; the moment
    is -2 (-1)^(l/2)/(l^2 - 1), so w_0 = 4 and w_l = -8/(l^2 - 1).

    3D: w_l = 4 pi (2l + 1) (-1)^(l/2) a_l, a_l = int_0^1 t P_l(t) dt.
    Legendre's equation ((1 - t^2) P_l')' = -l(l + 1) P_l, times t and
    integrated by parts over [0, 1], gives int_0^1 (1 - t^2) P_l' dt =
    l(l + 1) a_l; integrating the left side by parts once more gives
    2 a_l - P_l(0).  So a_l = -P_l(0)/((l - 1)(l + 2)), and with
    (-1)^(l/2) P_l(0) = (l - 1)!!/l!!, the product of the positive factors
    (m + 1)/(m + 2) over even m < l, w_l = -4 pi (2l + 1) (l - 1)!!/(l!!
    (l - 1)(l + 2)): 2 pi at l = 0 and negative after, with no
    cancellation.
    """
    l = np.arange(0, lmax + 1, 2)
    if d == 2:
        w = -8.0 / (l * l - 1.0)
        w[0] = 4.0
        return w
    p0 = np.cumprod(np.concatenate([[1.0], (l[:-1] + 1.0) / (l[:-1] + 2.0)]))
    return -4.0 * math.pi * (2 * l + 1) * p0 / ((l - 1) * (l + 2))


def _orders(x, d):
    """The even truncation order L of the expansion of Re lambda at arguments k r <= x.

    With S = sum_i |v_i|, the term of order l >= 2 of Re lambda
    (_re_lambda) is w_l R_l(k) times a bracket of length at most
    - l in 2D (sqrt(cos^2 l alpha + l^2 sin^2 l alpha) with c = cos alpha),
      with |w_l| = 8/(l^2 - 1) and |R_l(k)| <= S (x/2)^l/l!, so the term is
      at most 8 S l/(l^2 - 1) (x/2)^l/l!;
    - sqrt(P_l(c)^2 + P_l^1(c)^2) <= sqrt(1 + l(l + 1)/2) in 3D (the
      addition theorem at equal arguments bounds P_l^1(c)^2 by l(l + 1)/2),
      with |w_l| = 4 pi (2l + 1) |P_l(0)|/((l - 1)(l + 2)), |P_l(0)| <= 1
      and |R_l(k)| <= S x^l/(2l + 1)!!, so the term is at most
      4 pi (2l + 1) S x^l/(2l + 1)!!.
    Past l >= x each even term of these bounds is at most 1/4 of the one
    before, so the tail beyond L is at most twice the bound at L + 2, and
    L is the least even order >= x - 2 that makes it at most 2 w_0 eps S:
    twice the rounding that the l = 0 term, w_0 sum_i v_i (f_0(k r_i) - 1),
    already carries (docs/full_ball.md).
    """
    log_x, L = math.log(x), 0
    while True:
        m = L + 2
        if d == 2:
            front = 2.0 * m / (m * m - 1.0)
            log_b = m * (log_x - math.log(2.0)) - math.lgamma(m + 1)
        else:
            front = 2 * m + 1
            log_b = m * log_x - (math.lgamma(2 * m + 2) - m * math.log(2.0) - math.lgamma(m + 1))
        if m >= x and front * math.exp(log_b) <= 0.5 * np.finfo(float).eps:
            return L
        L += 2


def _radial_orders(kernel, ks, nr, lmax):
    """R_l(k) = sum_i v_i (f_l(k r_i) - [l = 0]) for the even l <= lmax, shape (lmax//2 + 1, K).

    f_l is J_l in 2D and j_l in 3D (_bessel_orders), over the radial rule
    of _full_ball, whose weights hold w_delta r^(d-1); magnitudes go in
    blocks of at most _CHUNK (l, k, r) entries.
    """
    r, vr = quad.scaled_radial_rule(kernel, panels=1, n_nodes=nr)
    out = np.empty((lmax // 2 + 1, len(ks)))
    step = max(1, _CHUNK // (len(r) * (lmax + 1)))
    for lo in range(0, len(ks), step):
        f = _bessel_orders(lmax, np.multiply.outer(ks[lo:lo + step], r), kernel.dimension)[::2]
        f[0] -= 1.0
        out[:, lo:lo + step] = f @ vr
    return out


def _re_lambda(kernel, modes, n):
    """Re lambda at the nonzero integer modes (Q, d) for the unit orientation n.

    Returns the function of the radial count nr that evaluates it; the
    angular integral over the half-ball s.n >= 0 is closed.  With k = |xi|,
    xi^ = xi/k and c = xi^.n,

        Re lambda(xi) = sum_(l even <= L) w_l R_l(k) [Z_l(c) n + Z_l'(c) (xi^ - c n)]

    where Z_l is T_l in 2D and P_l in 3D (_zonal), w_l the factors of
    _half_ball_weights, R_l the radial sums of _radial_orders and L the
    order of _orders (docs/full_ball.md).
    - 2D: in the Jacobi-Anger series cos(x cos phi) = J_0(x) + 2 sum_(m >= 1)
      (-1)^m J_2m(x) cos(2m phi), the half-circle keeps the moment
      int cos(theta) cos(l theta) dtheta along n and l times it across n,
      where sin(l alpha) = sin(alpha) T_l'(c)/l.
    - 3D: in cos(x xi^.s) = sum_(l even) (2l + 1) (-1)^(l/2) j_l(x)
      P_l(xi^.s) and the addition theorem about n, the azimuth keeps the
      m = 0 term along n, with a_l = int_0^1 t P_l dt, and the m = 1 term
      across it, with P_l^1(c) = -sqrt(1 - c^2) P_l'(c) and
      int_0^1 (1 - t^2) P_l' dt/(l(l + 1)), which is a_l again.
    The polynomial factors are computed here, once; each call sums R_l
    over the radial rule at nr nodes.  Z_l(-c) = Z_l(c) and Z_l'(-c) =
    -Z_l'(c) hold bit for bit at even l, so the orientation -n gives
    exactly -Re lambda.
    """
    d = kernel.dimension
    modes = np.asarray(modes)
    q2_unique, q2_index = np.unique(np.sum(modes**2, axis=1), return_inverse=True)
    ks = np.sqrt(q2_unique.astype(float))
    lmax = _orders(kernel.horizon * float(ks[-1]), d)
    xhat = modes / ks[q2_index, None]
    c = xhat @ n
    lateral = xhat - c[:, None] * n
    p, dp = _zonal(lmax, c, d)
    weights = _half_ball_weights(lmax, d)[:, None]
    along, across = weights * p[::2], weights * dp[::2]

    def evaluate(nr):
        rad = _radial_orders(kernel, ks, nr, lmax)[:, q2_index]
        return (np.sum(rad * along, axis=0)[:, None] * n
                + np.sum(rad * across, axis=0)[:, None] * lateral)

    return evaluate


def _bump_radial(nr):
    return int(nr * 1.5) + 1


def _radial_bumps(nr, count):
    """The radial count nr and the count - 1 radial bumps that follow it."""
    for _ in range(count):
        yield nr
        nr = _bump_radial(nr)


def build_table(kernel, orientation, bound, tol=quad.DEFAULT_TOL, max_bumps=3, oversample=1):
    """Build the symbol table for (kernel, orientation) up to |xi|_inf <= N.

    Every entry is verified by recomputation on a refined rule; construction
    raises QuadratureConvergenceError if refinement fails to settle within
    tol (relative, per table) and KernelError if any symbol magnitude
    degenerates to zero.  The angular integrals are closed (_re_lambda,
    _full_ball), so the ladder refines the radial count alone, which grows
    with delta sqrt(d) N.  ``oversample`` starts the ladder that many levels
    up it, less one (the "quad.panels" config knob).
    """
    if bound < 1:
        raise ValueError("lattice bound must be at least 1")
    d = kernel.dimension
    n = np.asarray(orientation.vec if isinstance(orientation, Orientation) else orientation,
                   dtype=float)
    orientation = orientation if isinstance(orientation, Orientation) else Orientation(n)
    if len(n) != d:
        raise ValueError("orientation dimension does not match the kernel")

    half = _positive_half(lattice_modes(bound, d))
    kmax = kernel.horizon * math.sqrt(d) * bound
    skip = max(0, int(oversample) - 1)
    levels = _radial_bumps(_radial_count(kmax), skip + max_bumps + 1)
    re_at = _re_lambda(kernel, half, n)
    q2 = np.sum(half**2, axis=1)
    q2_unique, q2_index = np.unique(q2, return_inverse=True)
    ks = np.sqrt(q2_unique.astype(float))

    re_half, lam_rad = quad.settle(
        lambda nr: (re_at(nr), _full_ball(kernel, ks, nr, odd=True)),
        islice(levels, skip, None), tol, f"symbol quadrature for N={bound}")

    rad_map = {int(q): float(v) for q, v in zip(q2_unique, lam_rad)}
    norms = np.sqrt(q2.astype(float))
    im_abs = (lam_rad[q2_index] / norms)[:, None] * half

    lam = np.zeros((2 * bound + 1,) * d + (d,), dtype=complex)
    idx_pos = tuple((half + bound).T)
    idx_neg = tuple((-half + bound).T)
    val = re_half + 1j * im_abs
    lam[idx_pos] = val
    lam[idx_neg] = np.conj(val)

    table = SymbolTable(kernel, orientation, bound, lam, rad_map, tol)
    _validate(table)
    return table


def _validate(table):
    modes = lattice_modes(table.bound, table.dimension)
    idx = tuple((modes + table.bound).T)
    mags = np.sqrt(table.abs2()[idx])
    if np.any(mags == 0.0):
        raise KernelError("degenerate kernel: a symbol magnitude vanished")
    d = table.dimension
    ratio = mags / np.linalg.norm(modes, axis=1)
    bound = math.sqrt(2.0) * d * (1.0 + 1e-9)
    if float(np.max(ratio)) > bound:
        raise KernelError(
            f"symbol bound violated: max |lambda|/|xi| = {float(np.max(ratio))!r}"
        )


def local_table(dimension, bound):
    """The delta -> 0 counterpart: lambda(xi) = i xi through the same layout."""
    modes = lattice_modes(bound, dimension)
    lam = np.zeros((2 * bound + 1,) * dimension + (dimension,), dtype=complex)
    idx = tuple((modes + bound).T)
    lam[idx] = 1j * modes
    rad = {int(q): math.sqrt(q) for q in np.unique(np.sum(modes**2, axis=1))}
    return SymbolTable(None, None, bound, lam, rad, 0.0, is_local=True)


def _settled_full_ball(kernel, k, odd, tol, what):
    """_full_ball at one magnitude k >= 0, settled over a ladder of 4 nr levels."""
    if k == 0.0:
        return 0.0
    return quad.settle(lambda n: float(_full_ball(kernel, [k], n, odd)[0]),
                       _radial_bumps(_radial_count(kernel.horizon * k), 4),
                       tol, f"{what} at k={k}")


def lambda_radial(kernel, k, tol=quad.DEFAULT_TOL):
    """Radial symbol factor Lambda_delta(k) for a single magnitude k >= 0."""
    return _settled_full_ball(kernel, k, True, tol, "Lambda quadrature")


def mass_factor(kernel, k, tol=quad.DEFAULT_TOL):
    """Full-ball factor m_delta(k) <= 0 multiplying the drift direction."""
    return _settled_full_ball(kernel, k, False, tol, "mass-factor quadrature")


def star_symbol(kernel, kvec, xi, tol=quad.DEFAULT_TOL):
    """Symbol of the drift-stabilized radial gradient.

    mu(xi) = i Lambda(|xi|) xi/|xi| + m(|xi|) kvec: the first term is the
    radially symmetric (full ball, orientation-free) gradient, the second the
    orientation-dependent stabilization along the constant vector kvec.
    """
    xi = np.asarray(xi, dtype=float)
    k = float(np.linalg.norm(xi))
    if k == 0.0:
        raise ValueError("star symbol undefined at xi = 0")
    kvec = np.asarray(kvec, dtype=float)
    mu = 1j * lambda_radial(kernel, k, tol) * xi / k
    if np.any(kvec != 0.0):
        mu = mu + mass_factor(kernel, k, tol) * kvec
    return mu


def star_table(kernel, kvec, bound, tol=quad.DEFAULT_TOL):
    """Dense lattice table of the star symbol, for operator application."""
    d = kernel.dimension
    modes = lattice_modes(bound, d)
    q2 = np.sum(modes**2, axis=1)
    q2_unique, q2_index = np.unique(q2, return_inverse=True)
    ks = np.sqrt(q2_unique.astype(float))
    kmax = kernel.horizon * float(np.max(ks))
    nr = _radial_count(kmax)
    nr2 = _bump_radial(nr)
    lam_rad = _full_ball(kernel, ks, nr2, odd=True)
    mvals = _full_ball(kernel, ks, nr2, odd=False)
    err = max(
        float(np.max(np.abs(lam_rad - _full_ball(kernel, ks, nr, odd=True)))),
        float(np.max(np.abs(mvals - _full_ball(kernel, ks, nr, odd=False)))),
    )
    # not settle(): both errors are scaled by max|Lambda| alone, tighter than
    # settle's scale over both parts wherever max|m| exceeds max|Lambda|
    if err > tol * max(float(np.max(np.abs(lam_rad))), 1e-300):
        raise QuadratureConvergenceError("star-symbol quadrature did not settle")
    kvec = np.asarray(kvec, dtype=float)
    table = np.zeros((2 * bound + 1,) * d + (d,), dtype=complex)
    table[tuple((modes + bound).T)] = (
        (1j * lam_rad[q2_index])[:, None] * modes / np.sqrt(q2)[:, None]
        + mvals[q2_index][:, None] * kvec
    )
    return table


def verify_bounds(table):
    """Lattice extremes of the symbol magnitude, for coercivity reports."""
    modes = lattice_modes(table.bound, table.dimension)
    idx = tuple((modes + table.bound).T)
    mags = np.sqrt(table.abs2()[idx])
    ratio = mags / np.linalg.norm(modes, axis=1)
    return {
        "min_abs": float(np.min(mags)),
        "max_abs": float(np.max(mags)),
        "max_ratio": float(np.max(ratio)),
        "argmin": tuple(int(c) for c in modes[int(np.argmin(mags))]),
    }


# ---------------------------------------------------------------------------
# portable text cache
# ---------------------------------------------------------------------------

def save_table(table, path):
    """Write the table as decimal text, one lattice mode per line."""
    if table.is_local:
        raise ValueError("local tables are analytic; nothing to cache")
    k = table.kernel
    if k.family == "tabulated":
        raise ValueError("tabulated kernels are not supported by the text cache")
    hdr = (
        f"# nlspectral-symbols d={k.dimension} N={table.bound} family={k.family} "
        f"beta={'' if k.beta is None else repr(k.beta)} delta={k.horizon!r} "
        f"n={','.join(repr(float(c)) for c in table.orientation.vec)} tol={table.tol!r}"
    )
    modes = lattice_modes(table.bound, table.dimension)
    body = mode_rows(modes, table.lam[tuple((modes + table.bound).T)], " ")
    radial = sorted(table.lambda_radial_map.items())
    tail = "L %d %.17g\n" * len(radial) % tuple(x for qv in radial for x in qv)
    write_text(path, chain([hdr + "\n"], body, [tail]))


def load_table(path):
    """Read a cache written by save_table, all or nothing.

    Raises ValueError unless the header is complete and well formed, the body
    is the mode lines and then the L lines, each of its own width and ended
    by a newline, as save_table writes them, and every nonzero lattice mode
    and the radial factor of every |xi|^2 of the lattice are listed exactly
    once; KernelError if a loaded symbol fails the table validation.  The
    body is parsed in one pass: one token list, with ";" closing each line,
    and one float conversion of the mode tokens.
    """
    with open(path) as fh:
        header = next((ln for ln in fh if ln.strip()), "")
        text = fh.read()
    if not header.startswith("# nlspectral-symbols"):
        raise ValueError(f"not a symbol cache: {path}")
    try:
        fields = dict(tok.split("=", 1) for tok in header.split()[2:])
        d = int(fields["d"])
        bound = int(fields["N"])
        cfg = {"family": fields["family"], "dimension": d, "delta": float(fields["delta"])}
        if fields["beta"]:
            cfg["beta"] = float(fields["beta"])
        kernel = from_config(cfg)
        orientation = Orientation(np.array([float(c) for c in fields["n"].split(",")]))
        tol = float(fields["tol"])
        if bound < 1 or orientation.dimension != d:
            raise ValueError(f"N={bound} and n={fields['n']} do not fit d={d}")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"symbol cache {path} has a malformed header") from exc
    toks = text.replace("\n", " ; ").split()
    cut = toks.index("L") if "L" in toks else len(toks)
    rows, radial = toks[:cut], toks[cut:]
    width = 3 * d + 1                   # a mode line's tokens and its ";"
    n_rows, n_radial = len(rows) // width, len(radial) // 4
    if (len(rows) != n_rows * width or len(radial) != n_radial * 4
            or not rows.count(";") == rows[width - 1::width].count(";") == n_rows
            or not radial.count(";") == radial[3::4].count(";") == n_radial
            or radial[::4].count("L") != n_radial):
        raise ValueError(f"symbol cache {path} has a malformed line")
    del rows[width - 1::width]
    try:
        body = np.array(rows, dtype=float).reshape(n_rows, 3 * d)
        rad = {int(q): float(v) for q, v in zip(radial[1::4], radial[2::4])}
    except ValueError as exc:
        raise ValueError(f"symbol cache {path} has a malformed line") from exc
    modes = body[:, :d].astype(int)
    inside = np.all((modes == body[:, :d]) & (np.abs(modes) <= bound), axis=1)
    idx = modes + bound
    seen = np.zeros((2 * bound + 1,) * d, dtype=int)
    seen[(bound,) * d] = 1          # the zero mode is pinned, never stored
    np.add.at(seen, tuple(idx[inside].T), 1)
    if not np.all(inside) or np.any(seen != 1):
        raise ValueError(f"symbol cache {path} lacks or repeats a mode of N={bound}")
    q2 = np.unique(np.sum(lattice_modes(bound, d) ** 2, axis=1))
    if n_radial != len(q2) or set(rad) != set(q2.tolist()):
        raise ValueError(f"symbol cache {path} lacks or repeats a radial line of N={bound}")
    lam = np.zeros((2 * bound + 1,) * d + (d,), dtype=complex)
    lam[tuple(idx.T)] = np.ascontiguousarray(body[:, d:]).view(complex)
    table = SymbolTable(kernel, orientation, bound, lam, rad, tol)
    _validate(table)
    return table
