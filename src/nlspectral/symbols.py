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

In 3D the hemisphere integral of Re lambda is closed as well
(_re_lambda_3d): with c = xi.n/|xi|, it is a sum over even orders l of
spherical-Bessel radial sums R_l(|xi|) times P_l(c) along n and P_l'(c)
across it, so the only quadrature left is the radial rule
(docs/full_ball.md).

In 2D Re lambda is filled by tensor quadrature whose angular directions
s_j = R s^_j are taken in the lattice frame (R the orientation frame
matrix).  There exp(i r xi.s_j) is the product over coordinates of
exp(i r xi_c s_jc), exact to rounding, with no rotation back:

- blocked phase powers: exp(i n theta) for n = 0..N is
  exp(i q b theta) exp(i m theta) with n = q b + m, b = ceil(sqrt(N+1)),
  about 2 sqrt(N+1) complex exps per (direction, radius);
- conjugate fold: the second coordinate, over -N..N, takes its half n < 0
  as the conjugates of n > 0;
- real-only last contraction: with A the first coordinate's factors and
  the radial weights, P = Re A . cos and Q = Im A . sin over n >= 0 give
  the radial sum at +n and -n of the second coordinate as P - Q and
  P + Q: two real matmuls per direction over N+1 columns.

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
_CHUNK = 500_000  # max entries per chunk of directions (_re_lambda) or magnitudes (_full_ball)


@dataclass(frozen=True)
class Orientation:
    """Unit vector selecting the half-space of interaction."""

    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=float)
        object.__setattr__(self, "vec", v)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise ValueError(f"orientation must be a finite 1-D vector, got {v!r}")
        # written so that a NaN norm fails it too
        if not abs(np.linalg.norm(v) - 1.0) <= UNIT_TOL:
            raise ValueError(f"orientation must be unit length, |n| = {np.linalg.norm(v)!r}")

    @classmethod
    def from_angle(cls, alpha):
        return cls(np.array([math.cos(alpha), math.sin(alpha)]))

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, dtype=float)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("cannot orient along the zero vector")
        return cls(v / norm)

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


def _node_counts(kernel, kmax):
    """Radial and half-circle node counts (nr, na) of a 2D level at k delta <= kmax."""
    return _radial_count(kmax), 32 + int(2.0 * kmax)


def _half_rule_arrays(kernel, nr, na):
    """Scaled radial nodes/weights and the half-circle directions about e1 with weights."""
    r, vr = quad.scaled_radial_rule(kernel, panels=1, n_nodes=nr)
    theta, va = quad.half_angles_2d(na)
    return r, vr, np.stack([np.cos(theta), np.sin(theta)], axis=1), va


def _phase_powers(theta, count):
    """exp(i n theta) for n = 0..count-1, on a new axis before the last of theta.

    With b = ceil(sqrt(count)) and n = q b + m (0 <= m < b), exp(i n theta)
    is exp(i q b theta) exp(i m theta): b + ceil(count / b), about
    2 sqrt(count), complex exps per entry of theta in place of count, and
    each power within a few ulp of the direct exp.
    """
    theta = np.asarray(theta, dtype=float)[..., None, :]
    b = math.isqrt(count - 1) + 1
    small = np.exp(1j * (np.arange(b)[:, None] * theta))
    big = np.exp(1j * (np.arange(0, count, b)[:, None] * theta))
    pw = big[..., :, None, :] * small[..., None, :, :]
    return pw.reshape(pw.shape[:-3] + (-1, pw.shape[-1]))[..., :count, :]


def _re_lambda(kernel, bound, frame, nr, na):
    """2D Re lambda on the half-lattice grid 0..N x (-N..N), in the lattice frame.

    With s_j = frame @ s^_j, exp(i r xi.s_j) = exp(i r xi_1 s_j1) exp(i r
    xi_2 s_j2).  Each coordinate's factors exp(i n s_jc r_i), n = 0..N, are
    blocked phase powers; the signed second axis takes its half n < 0 as
    their conjugates.  With A the first coordinate's factors times vr, the
    radial sum Re sum_i vr_i exp(i r_i xi.s_j) at second coordinate +n and
    -n is P - Q and P + Q, where P = Re A . cos and Q = Im A . sin over
    n >= 0: two real matmuls per direction.  Less sum vr this is
    sum_i vr_i (cos(r_i xi.s_j) - 1).  Directions are taken in chunks of
    at most _CHUNK entries; returns shape (N+1, 2N+1, 2).
    """
    r, vr, dirs, va = _half_rule_arrays(kernel, nr, na)
    n1, n2 = bound + 1, 2 * bound + 1
    s = dirs @ frame.T                          # (J, 2) directions, lattice frame
    ws = va[:, None] * s
    out = np.zeros((n1 * n2, 2))
    chunk = max(1, _CHUNK // (n1 * (5 * len(r) + 2 * n1 + n2)))
    for lo in range(0, len(s), chunk):
        sc = s[lo:lo + chunk]
        fac = _phase_powers(sc[:, :, None] * r, n1)   # (Jc, 2, N+1, nr)
        a = fac[:, 0] * vr
        last = fac[:, 1].transpose(0, 2, 1)
        p = np.matmul(np.ascontiguousarray(a.real), np.ascontiguousarray(last.real))
        q = np.matmul(np.ascontiguousarray(a.imag), np.ascontiguousarray(last.imag))
        p -= np.sum(vr)
        g = np.empty((len(sc), n1, n2))
        np.add(p[:, :, :0:-1], q[:, :, :0:-1], out=g[:, :, :bound])
        np.subtract(p, q, out=g[:, :, bound:])
        out += g.reshape(len(sc), -1).T @ ws[lo:lo + chunk]
    return 2.0 * out.reshape(n1, n2, 2)


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


def _spherical_jn(lmax, x):
    """Spherical Bessel j_l(x) for l = 0..lmax at x > 0, shape (lmax + 1,) + x.shape.

    The ratios rho_l = j_l/j_(l-1) come from the downward recurrence
    rho_l = 1/((2l + 1)/x - rho_(l+1)), started at rho = 0 at the order
    lmax + 20 + ceil(max x).  Each step scales the start's relative error
    by rho_l rho_(l+1), about (x/2l)^2 once l is past x, so it is far
    below rounding by the order lmax.  Then j_l = j_0 rho_1 ... rho_l with
    j_0 = sin x/x, or j_l = j_1 rho_2 ... rho_l with j_1 = (j_0 - cos x)/x
    where |j_1| > |j_0|: near a zero of j_0, 1/rho_1 is a difference near
    0 and its rounding would spoil every j_l.  x > 0 keeps every step
    finite.
    """
    x = np.asarray(x, dtype=float)
    inv = 1.0 / x
    out = np.empty((lmax + 1,) + x.shape)
    ratio = np.zeros_like(x)
    for l in range(lmax + 20 + math.ceil(float(np.max(x))), 0, -1):
        ratio = 1.0 / ((2 * l + 1) * inv - ratio)
        if l <= lmax:
            out[l] = ratio
    j0 = np.sin(x) * inv
    j1 = (j0 - np.cos(x)) * inv
    from_j1 = np.abs(j1) > np.abs(j0)
    out[0] = np.where(from_j1, j1, j0)
    if lmax >= 1:
        out[1] = np.where(from_j1, 1.0, out[1])
    np.cumprod(out, axis=0, out=out)
    out[0] = j0
    return out


def _legendre(lmax, t):
    """P_l(t) and P_l'(t) for l = 0..lmax, each of shape (lmax + 1,) + t.shape.

    (l + 1) P_(l+1) = (2l + 1) t P_l - l P_(l-1) and P_(l+1)' = P_(l-1)' +
    (2l + 1) P_l.  Both keep the parity of P_l and P_l' bit for bit:
    negating t negates exactly the odd orders of P and the even ones of P'.
    """
    t = np.asarray(t, dtype=float)
    p = np.empty((lmax + 1,) + t.shape)
    dp = np.empty_like(p)
    p[0], dp[0] = 1.0, 0.0
    if lmax >= 1:
        p[1], dp[1] = t, 1.0
    for l in range(1, lmax):
        p[l + 1] = ((2 * l + 1) * t * p[l] - l * p[l - 1]) / (l + 1)
        dp[l + 1] = dp[l - 1] + (2 * l + 1) * p[l]
    return p, dp


def _hemisphere_weights(lmax):
    """w_l = 4 pi (2l + 1) (-1)^(l/2) a_l for the even l <= lmax, a_l = int_0^1 t P_l(t) dt.

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
    p0 = np.cumprod(np.concatenate([[1.0], (l[:-1] + 1.0) / (l[:-1] + 2.0)]))
    return -4.0 * math.pi * (2 * l + 1) * p0 / ((l - 1) * (l + 2))


def _orders(x):
    """The even truncation order L of the 3D expansion at arguments k r <= x.

    The term of order l >= 2 of Re lambda (_re_lambda_3d) is w_l R_l(k)
    times a vector of length sqrt(P_l(c)^2 + P_l^1(c)^2) <=
    sqrt(1 + l(l + 1)/2) (the addition theorem at equal arguments bounds
    P_l^1(c)^2 by l(l + 1)/2), and |w_l| = 4 pi (2l + 1) |P_l(0)|/((l - 1)
    (l + 2)) with |P_l(0)| <= 1, so the term is at most
    4 pi (2l + 1) |R_l(k)|.
    With |j_l(x)| <= x^l/(2l + 1)!!, |R_l(k)| <= S x^l/(2l + 1)!! where
    S = sum_i |v_i|, and past l >= x each even term of these bounds is at
    most 1/4 of the one before.  The tail beyond L is therefore at most
    8 pi S (2L + 5) x^(L+2)/(2L + 5)!!, and L is the least even order
    >= x - 2 that makes it at most 4 pi eps S: the rounding that the l = 0
    term, 2 pi sum_i v_i (j_0(k r_i) - 1), already carries
    (docs/full_ball.md).
    """
    log_x, L = math.log(x), 0
    while True:
        m = L + 2
        log_b = m * log_x - (math.lgamma(2 * m + 2) - m * math.log(2.0) - math.lgamma(m + 1))
        if m >= x and (2 * m + 1) * math.exp(log_b) <= 0.5 * np.finfo(float).eps:
            return L
        L += 2


def _radial_orders(kernel, ks, nr, lmax):
    """R_l(k) = sum_i v_i (j_l(k r_i) - [l = 0]) for the even l <= lmax, shape (lmax//2 + 1, K).

    Over the radial rule of _full_ball, whose weights hold w_delta r^2;
    magnitudes go in blocks of at most _CHUNK (l, k, r) entries.
    """
    r, vr = quad.scaled_radial_rule(kernel, panels=1, n_nodes=nr)
    out = np.empty((lmax // 2 + 1, len(ks)))
    step = max(1, _CHUNK // (len(r) * (lmax + 1)))
    for lo in range(0, len(ks), step):
        j = _spherical_jn(lmax, np.multiply.outer(ks[lo:lo + step], r))[::2]
        j[0] -= 1.0
        out[:, lo:lo + step] = j @ vr
    return out


def _re_lambda_3d(kernel, modes, n):
    """3D Re lambda at the nonzero integer modes (Q, 3) for the unit orientation n.

    Returns the function of the radial count nr that evaluates it; the
    angular integral over the hemisphere s.n >= 0 is closed.  With
    k = |xi|, xi^ = xi/k and c = xi^.n, the expansion
    cos(x xi^.s) = sum_(l even) (2l + 1) (-1)^(l/2) j_l(x) P_l(xi^.s) and
    the addition theorem about n give

        Re lambda(xi) = sum_(l even <= L) w_l R_l(k) [P_l(c) n + P_l'(c) (xi^ - c n)]

    with w_l = 4 pi (2l + 1) (-1)^(l/2) a_l (_hemisphere_weights), R_l the
    radial sums of _radial_orders and L the order of _orders
    (docs/full_ball.md).  The azimuth about n keeps the m = 0 term along n,
    with a_l = int_0^1 t P_l dt, and the m = 1 term across it, with
    P_l^1(c) = -sqrt(1 - c^2) P_l'(c) and int_0^1 (1 - t^2) P_l' dt/(l(l + 1)),
    which is a_l again.  The Legendre factors are computed here, once;
    each call sums R_l over the radial rule at nr nodes.  P_l(-c) = P_l(c) and
    P_l'(-c) = -P_l'(c) hold bit for bit, so the orientation -n gives
    exactly -Re lambda.
    """
    modes = np.asarray(modes)
    q2_unique, q2_index = np.unique(np.sum(modes**2, axis=1), return_inverse=True)
    ks = np.sqrt(q2_unique.astype(float))
    lmax = _orders(kernel.horizon * float(ks[-1]))
    xhat = modes / ks[q2_index, None]
    c = xhat @ n
    lateral = xhat - c[:, None] * n
    p, dp = _legendre(lmax, c)
    weights = _hemisphere_weights(lmax)[:, None]
    along, across = weights * p[::2], weights * dp[::2]

    def evaluate(nr):
        rad = _radial_orders(kernel, ks, nr, lmax)[:, q2_index]
        return (np.sum(rad * along, axis=0)[:, None] * n
                + np.sum(rad * across, axis=0)[:, None] * lateral)

    return evaluate


def _bump_radial(nr):
    return int(nr * 1.5) + 1


def _bump(nr, na):
    return _bump_radial(nr), int(na * 1.5) + 1


def _radial_bumps(nr, count):
    """The radial count nr and the count - 1 radial bumps that follow it."""
    for _ in range(count):
        yield nr
        nr = _bump_radial(nr)


def _bumps(nr, na, count):
    """The node counts (nr, na) and the count - 1 bumps that follow them."""
    for _ in range(count):
        yield nr, na
        nr, na = _bump(nr, na)


def build_table(kernel, orientation, bound, tol=quad.DEFAULT_TOL, max_bumps=3, oversample=1):
    """Build the symbol table for (kernel, orientation) up to |xi|_inf <= N.

    Every entry is verified by recomputation on a refined rule; construction
    raises QuadratureConvergenceError if refinement fails to settle within
    tol (relative, per table) and KernelError if any symbol magnitude
    degenerates to zero.  The node counts grow with delta sqrt(d) N: the
    radial and half-circle counts (nr, na) of _node_counts in 2D, the
    radial count alone in 3D, where the angular integral of Re lambda is
    closed (_re_lambda_3d).  ``oversample`` starts the refinement ladder
    that many levels up it, less one (the "quad.panels" config knob).
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
    if d == 2:
        frame = quad.frame_matrix(n)
        pick = (half[:, 0], half[:, 1] + bound)   # _re_lambda's grid 0..N x (-N..N)
        re_part = lambda level: _re_lambda(kernel, bound, frame, *level)[pick]
        levels = _bumps(*_node_counts(kernel, kmax), skip + max_bumps + 1)
    else:
        re_at = _re_lambda_3d(kernel, half, n)
        re_part = lambda level: re_at(*level)
        levels = ((nr,) for nr in _radial_bumps(_radial_count(kmax), skip + max_bumps + 1))
    q2 = np.sum(half**2, axis=1)
    q2_unique, q2_index = np.unique(q2, return_inverse=True)
    ks = np.sqrt(q2_unique.astype(float))

    re_half, lam_rad = quad.settle(
        lambda level: (re_part(level), _full_ball(kernel, ks, level[0], odd=True)),
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


def averaged_energy_density(kernel, xi, samples=64, tol=quad.DEFAULT_TOL):
    """Orientation average of |lambda(xi)|^2 over the circle of orientations.

    Equals Lambda(|xi|)^2 plus the angular mean of |Re lambda|^2; the uniform
    trapezoid over `samples` orientations is spectrally accurate since the
    integrand is smooth and periodic in the orientation angle.  Re lambda at
    every orientation is the direct sum
    2 sum_j va_j s_j sum_i vr_i (cos(r_i xi.s_j) - 1) over one half-ball rule.
    """
    if kernel.dimension != 2:
        raise KernelError("orientation averaging is defined on the circle (d = 2)")
    if samples < 8:
        raise ValueError("need at least 8 orientation samples")
    xi = np.asarray(xi, dtype=float)
    k = float(np.linalg.norm(xi))
    if k == 0.0:
        raise ValueError("undefined at xi = 0")
    kmax = kernel.horizon * k
    nr, na = _node_counts(kernel, kmax)
    nr, na = _bump(nr, na)
    lam_rad = float(_full_ball(kernel, [k], nr, odd=True)[0])
    r, vr, dirs, va = _half_rule_arrays(kernel, nr, na)
    angles = 2.0 * math.pi * np.arange(samples) / samples
    frames = np.stack([quad.frame_matrix((math.cos(a), math.sin(a))) for a in angles])
    s = dirs @ frames.transpose(0, 2, 1)        # (samples, J, 2) directions, lattice frame
    radial = (np.cos(np.multiply.outer(s @ xi, r)) - 1.0) @ vr
    re = 2.0 * np.einsum("aj,j,ajc->ac", radial, va, s)
    return lam_rad**2 + float(np.mean(np.sum(re**2, axis=1)))


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
