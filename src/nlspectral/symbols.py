"""Fourier symbols of the half-ball nonlocal operators on the integer lattice.

The nonlocal gradient with orientation n acts on the mode exp(i xi.x) as
multiplication by a complex d-vector lambda(xi) whose parts are

    Re lambda(xi) = 2 int_{half ball} w_delta(|s|) (s/|s|) (cos(xi.s) - 1) ds
    Im lambda(xi) = Lambda(|xi|) xi/|xi|

with the radial factor

    Lambda(k) = int_{full ball} w_delta(|s|) (s.e/|s|) sin(k s.e) ds

independent of both the orientation and the unit vector e.  The angular
integrals are closed: Re lambda is a sum over even orders l of Bessel
radial sums R_l(|xi|) times T_l(c) along n and T_l'(c) across it, c =
xi.n/|xi|, in 2D, with spherical Bessel j_l and Legendre P_l in 3D
(_re_lambda); Lambda is R_1 times the sphere's area, and a table takes
it from the pass that gives Re lambda.  The only quadrature left is the
radial rule, and every Bessel value comes from one downward recurrence
(docs/full_ball.md).

Conjugate symmetry lambda(-xi) = conj(lambda(xi)) halves the lattice and
holds exactly as computed.

Only the zonal factors and the direction xi^ depend on the orientation, so
the factors of one kernel, lattice and radial count serve every orientation.
_re_lambda takes them from _cached_factors, a thread-safe functools.lru_cache
of _RADIAL_CACHE_SIZE = 4 read-only entries, one full ladder of build_table,
keyed by the kernel (a KernelSpec is hashable, a tabulated profile held as
tuples), the bytes of the distinct |xi| (and in 2D of the modes), the radial
count nr and the order L.  An entry holds the radial sums R_l at the
distinct |xi| in 3D, and in 2D the matrix M of w_l R_l(|xi|) cos(l theta_xi)
and sin(l theta_xi) over the modes with Lambda at each |xi|, so that each
further orientation costs one small product M A(n) (_re_lambda).  Each
level of a refinement ladder is its own entry, so settle still compares
two computed levels, and an orientation sweep hits at whichever level it
settles.  The ladder starts at the radial count whose Gauss error bound on
f_l(k r) is below rounding (_radial_count).  clear_radial_cache empties
the cache, and the CLI calls it at the start of every run.

What depends on the lattice alone comes from the read-only fields.lattice(N, d).
Every SymbolTable is validated when it is made and is read-only; it keeps its
|lambda|^2 (abs2), 1/|lambda|^2 (inv_abs2), unit symbol (hat) and bounds once
computed; verify_bounds returns a copy of the bounds.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
import math

import numpy as np

from . import quadrature as quad
from .errors import KernelError
from .fields import cube_index, lattice
from .kernels import SPHERE_AREA, KernelSpec, from_config
from .results import mode_rows, write_text

UNIT_TOL = 1e-14
# The largest argument k r of the Bessel sums: delta sqrt(d) N in build_table,
# delta k in lambda_radial.  The bound of _orders overflows a float near 2300;
# at 1000 a 2D N = 32 table takes 14 s on one Xeon core.
_MAX_KR = 1000.0
# one ladder of 4 radial levels (build_table), so that an orientation sweep
# of one kernel hits at whichever level its tables settle
_RADIAL_CACHE_SIZE = 4


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


def _read_only(a):
    """a, made read-only."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SymbolTable:
    """Cached symbols lambda(xi) over the lattice cube [-N, N]^d minus 0.

    ``lam`` has shape (2N+1,)*d + (d,) indexed by xi + N per axis and
    ``radial`` is Lambda at each |xi|^2 of fields.lattice(N, d).q2.  Local
    tables (no kernel) carry lambda(xi) = i xi and are the delta -> 0
    counterparts used by the error studies.

    A table is valid by construction, whether built, loaded, local, made by
    hand or by dataclasses.replace: its arrays become read-only; ValueError
    unless they have the shapes above; KernelError unless lambda(0) = 0 and
    0 < |lambda| <= sqrt(2) d |xi| at every other mode, which a NaN fails.
    It is frozen, so no reassigned attribute escapes that check, and a copy
    (pickle, copy.deepcopy) is rebuilt through the constructor.
    """

    kernel: KernelSpec | None
    orientation: Orientation | None
    bound: int
    lam: np.ndarray
    radial: np.ndarray
    tol: float

    def __post_init__(self):
        d, centre = self.dimension, (self.bound,) * self.dimension
        if (self.lam.shape != (2 * self.bound + 1,) * d + (d,)
                or self.radial.shape != lattice(self.bound, d).q2.shape):
            raise ValueError(f"lam {self.lam.shape} and radial {self.radial.shape} "
                             f"do not fit N={self.bound}")
        for a in (self.lam, self.radial):
            _read_only(a)
        if np.any(self.lam[centre]):
            raise KernelError(f"lambda(0) = {self.lam[centre]!r}, not 0")
        rep = self.bounds
        if not rep["min_abs"] > 0.0:
            raise KernelError(f"degenerate kernel: min |lambda| = {rep['min_abs']!r}")
        if not rep["max_ratio"] <= math.sqrt(2.0) * d * (1.0 + 1e-9):
            raise KernelError(f"symbol bound violated: max |lambda|/|xi| = {rep['max_ratio']!r}")

    def __reduce__(self):
        """Copies (pickle, copy.copy, copy.deepcopy) are rebuilt by the constructor,
        so they are checked and read-only like the original."""
        return SymbolTable, (self.kernel, self.orientation, self.bound, self.lam, self.radial,
                             self.tol)

    @property
    def lambda_radial_map(self):
        """Lambda keyed by the integer |xi|^2: a dict built from the lattice's q2 and radial."""
        return dict(zip(lattice(self.bound, self.dimension).q2.tolist(), self.radial.tolist()))

    @cached_property
    def bounds(self):
        """The verify_bounds report, computed once at construction: min and max
        |lambda|, max |lambda|/|xi| and the argmin, over the nonzero modes."""
        n, shape = self.bound, self.lam.shape[:-1]
        centre = math.prod(shape) // 2  # the zero mode, which lattice(...).modes omits
        mags = np.sqrt(np.delete(self.abs2.ravel(), centre))
        ratio = mags / lattice(n, len(shape)).norms
        i = int(np.argmin(mags))
        return {
            "min_abs": float(mags[i]),
            "max_abs": float(np.max(mags)),
            "max_ratio": float(np.max(ratio)),
            "argmin": tuple(int(c) - n for c in np.unravel_index(i + (i >= centre), shape)),
        }

    @property
    def dimension(self):
        return self.lam.ndim - 1

    def lam_at(self, xi):
        return self.lam[cube_index(xi, self.bound, self.dimension)]

    def lam_neg(self):
        """Symbol of the reflected orientation: lambda_{-n} = -conj(lambda_n)."""
        return -np.conj(self.lam)

    @cached_property
    def abs2(self):
        """|lambda|^2 per mode, computed once and read-only."""
        return _read_only(np.sum(np.abs(self.lam) ** 2, axis=-1))

    @cached_property
    def inv_abs2(self):
        """1/|lambda|^2 per mode and 0 at xi = 0, computed once and read-only."""
        a2 = self.abs2
        return _read_only(np.divide(1.0, a2, out=np.zeros_like(a2), where=a2 != 0.0))

    @cached_property
    def hat(self):
        """The unit symbol lambda/|lambda| per mode, 0 at xi = 0; computed once and read-only."""
        return _read_only(self.lam * np.sqrt(self.inv_abs2)[..., None])


def _radial_count(x, d):
    """The first radial count of a ladder whose arguments k r reach x > 0.

    An n-point Gauss rule of a positive weight w on an interval of length h
    misses int w g by g^(2n)(z)/(2n)! int w pi_n^2, and int w pi_n^2 <= 4
    (h/4)^(2n) int w, since the monic Chebyshev polynomial of the interval
    is at most 2 (h/4)^n there.  In rho = r/delta every radial rule is such a
    rule on (0, 1] or on panels of it: Gauss-Jacobi, whose weight holds
    rho^(d-1-beta), or Gauss-Legendre, whose integrand is rho^(d-1) f_l(x
    rho) times the profile.  |f_l^(j)| <= 1 at every order l and j (J_l
    and j_l are averages of a unit phase), so by Leibniz the 2n-th
    derivative of rho^(d-1) f_l(x rho) is at most x^(2n-d+1) (x + 2n)^(d-1),
    and against S = sum_i |v_i| = int w_delta r^(d-1) dr (int rho^(d-1) =
    1/d) the error of every R_l is at most

        4 d (x/4)^(2n-d+1) ((x + 2n)/4)^(d-1)/(2n)!

    for a constant profile and for Gauss-Jacobi.  The count is the least n
    that brings it to eps, the rounding that R_0 already carries
    (docs/full_ball.md), and at least 6.  What another profile adds to the
    derivatives (the sine's, the clamped power law's on its octave panels)
    is left to the ladder, which then settles a level or two later: from 6,
    its levels reach 10, 16 and 25 nodes, which resolve those profiles to
    rounding, while the bound alone falls to 2 as x -> 0, and its ladder
    would end at 11.
    """
    log_eps, n = math.log(np.finfo(float).eps), 6
    while True:
        m = 2 * n
        log_b = (math.log(4 * d) + (m - d + 1) * math.log(0.25 * x)
                 + (d - 1) * math.log(0.25 * (x + m)) - math.lgamma(m + 1))
        if log_b <= log_eps:
            return n
        n += 1


def _start_order(lmax, x, d):
    """The order at which _bessel_orders starts for arguments up to x > 0.

    Past the turning order, where 2l + d - 2 > 2x, each step down shrinks
    the start's relative error by at most q_l^2, q_l = x/(2l + d - 2 - x):
    the start is the least order whose product of q_l^2 from the larger of
    lmax and the turning order reaches eps/2.  In 2D it must also bring
    (x/2)^(L+1)/(L+1)! to eps/8, since the part of Miller's sum past the
    start is at most 8/3 of it (docs/full_ball.md).
    """
    log_eps = math.log(np.finfo(float).eps)
    L, log_q2 = max(lmax, math.floor(x - 0.5 * d + 1.0) + 1, 1), 0.0
    while True:
        log_q2 += 2.0 * math.log(x / (2 * L + d - 2 - x))
        log_tail = (L + 1) * math.log(0.5 * x) - math.lgamma(L + 2) if d == 2 else -math.inf
        if log_q2 <= log_eps - math.log(2.0) and log_tail <= log_eps - math.log(8.0):
            return L
        L += 1


def _bessel_orders(lmax, x, d, start):
    """Bessel J_l(x) (d = 2) or spherical j_l(x) (d = 3) for l = 0..lmax at x > 0.

    Shape (lmax + 1,) + x.shape.  The ratios rho_l = f_l/f_(l-1) come from
    rho_l = 1/((2l + d - 2)/x - rho_(l+1)), started at rho = 0 at ``start``
    (_start_order of lmax and max x, or later).  Then f_l = f_0 rho_1 ...
    rho_l, or f_1 rho_2 ... rho_l where |f_1| > |f_0|: near a zero of f_0,
    1/rho_1 is a rounded difference.  The start pair is j_0 = sin x/x and
    j_1 = (j_0 - cos x)/x in 3D and Miller's in 2D: the pass also sums T_l =
    rho_l (c_l + T_(l+1)), c_l = 2 at even l and 0 at odd, so J_0 + 2 sum
    J_2k = 1 gives 1/J_0 = 1 + rho_1 T_2 and 1/J_1 = 1/rho_1 + T_2.
    """
    x = np.asarray(x, dtype=float)
    inv = 1.0 / x
    out = np.empty((lmax + 1,) + x.shape)
    ratio, step, tail = np.zeros_like(x), np.empty_like(x), np.zeros_like(x)
    for l in range(start, 0, -1):
        np.multiply(inv, 2 * l + d - 2, out=step)
        step -= ratio
        if l <= lmax:
            ratio = out[l]
        np.divide(1.0, step, out=ratio)
        if d == 2 and l >= 2:
            if l % 2 == 0:
                tail += 2.0
            tail *= ratio
    from_f1 = np.abs(ratio) > 1.0  # ratio is rho_1 and step is 1/rho_1
    if d == 2:
        lead = 1.0 / np.where(from_f1, step + tail, 1.0 + ratio * tail)
        f0 = np.where(from_f1, lead * step, lead)
    else:
        f0 = np.sin(x) * inv
        lead = np.where(from_f1, (f0 - np.cos(x)) * inv, f0)
    out[0] = lead
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
    """R_l(k) = sum_i v_i (f_l(k r_i) - [l = 0]) for l = 0..lmax, shape (lmax + 1, K).

    f_l is J_l in 2D and j_l in 3D (_bessel_orders), over the radial rule
    whose weights hold w_delta r^(d-1), in blocks of at most quad._BLOCK (l,
    k, r) entries that share one start order, so any blocks give the same bits.
    """
    r, vr = quad.scaled_radial_rule(kernel, panels=1, n_nodes=nr)
    start = _start_order(lmax, float(np.max(ks)) * float(np.max(r)), kernel.dimension)
    out = np.empty((lmax + 1, len(ks)))
    step = max(1, quad._BLOCK // (len(r) * (lmax + 1)))
    for lo in range(0, len(ks), step):
        f = _bessel_orders(lmax, np.multiply.outer(ks[lo:lo + step], r), kernel.dimension, start)
        f[0] -= 1.0
        out[:, lo:lo + step] = np.einsum("lki,i->lk", f, vr)
    return out


def _harmonics(lmax, u):
    """cos(l theta) at the even l <= lmax and sin(l theta) at the even 2 <= l <= lmax.

    For unit 2-vectors u = (cos theta, sin theta) of shape (..., 2): T_l(u_1)
    and u_2 T_l'(u_1)/l (_zonal), of shapes (L',) + u.shape[:-1] and (L' -
    1,) + u.shape[:-1] with L' = lmax/2 + 1.  Both are unchanged, bit for bit,
    when u is negated.
    """
    u = np.asarray(u)
    p, dp = _zonal(lmax, u[..., 0], 2)
    sin = np.multiply(u[..., 1], dp[2::2])
    sin /= np.arange(2, lmax + 1, 2).reshape((-1,) + (1,) * (u.ndim - 1))
    return p[::2], sin


@lru_cache(maxsize=_RADIAL_CACHE_SIZE)
def _cached_factors(kernel, kbytes, mbytes, nr, lmax):
    """The orientation-free factors of one radial level (_re_lambda), read-only.

    kbytes are the float64 bytes of the distinct |xi| in ascending order.
    3D (mbytes None): the radial sums R_l there (_radial_orders).  2D, where
    mbytes are the float64 bytes of the modes (Q, 2): the pair (M, Lambda),
    M of shape (Q, 2L' - 1), column-major, whose columns are w_l R_l(|xi|)
    cos(l theta_xi) at the even l <= lmax and then w_l R_l(|xi|) sin(l
    theta_xi) at the even 2 <= l <= lmax (_harmonics of xi^), and Lambda =
    2 pi R_1 at the distinct |xi|.
    """
    ks = np.frombuffer(kbytes)
    rad = _radial_orders(kernel, ks, nr, max(lmax, 1))
    if mbytes is None:
        return _read_only(rad)
    modes = np.frombuffer(mbytes).reshape(-1, 2)
    norms = np.sqrt(np.sum(modes**2, axis=1))
    cos, sin = _harmonics(lmax, modes / norms[:, None])
    wr = (_half_ball_weights(lmax, 2)[:, None] * rad[:lmax + 1:2])[:, np.searchsorted(ks, norms)]
    m = np.empty((len(modes), 2 * len(wr) - 1), order="F")
    np.multiply(wr, cos, out=m[:, :len(wr)].T)
    np.multiply(wr[1:], sin, out=m[:, len(wr):].T)
    return _read_only(m), _read_only(SPHERE_AREA[2] * rad[1])


def clear_radial_cache():
    """Empty the cache of the factors that _re_lambda shares across orientations."""
    _cached_factors.cache_clear()


def _re_lambda(kernel, modes, n, q2, index):
    """Re lambda at the nonzero integer modes (Q, d) for the unit orientation n.

    q2 and index are np.unique of the modes' |xi|^2 with return_inverse.
    Returns the function of the radial count nr that evaluates (Re lambda,
    Lambda at each q2); the angular integral over the half-ball s.n >= 0 is
    closed.  With k = |xi|, xi^ = xi/k and c = xi^.n,

        Re lambda(xi) = sum_(l even <= L) w_l R_l(k) [Z_l(c) n + Z_l'(c) (xi^ - c n)]

    where Z_l is T_l in 2D and P_l in 3D (_zonal), w_l the factors of
    _half_ball_weights, R_l the radial sums of _radial_orders and L the
    order of _orders (docs/full_ball.md).
    - 2D: in the Jacobi-Anger series cos(x cos phi) = J_0(x) + 2 sum_(m >= 1)
      (-1)^m J_2m(x) cos(2m phi), the half-circle keeps the moment
      int cos(theta) cos(l theta) dtheta along n and l times it across n,
      where sin(l alpha) = sin(alpha) T_l'(c)/l.  With alpha = theta_xi -
      theta_n and t = n turned by +90 degrees, Re lambda = F n + G t, F =
      sum w_l R_l cos(l alpha) and G = sum w_l R_l l sin(l alpha), and the
      angle sums split [F G] = M A(n): M holds what the modes give
      (_cached_factors) and A(n), of shape (2L' - 1, 2), the rows [cos l
      theta_n, -l sin l theta_n] and [sin l theta_n, l cos l theta_n]
      (_harmonics of n).  So Re lambda = M (A(n) [n; t]), one product per
      orientation over the cached M.
    - 3D: in cos(x xi^.s) = sum_(l even) (2l + 1) (-1)^(l/2) j_l(x)
      P_l(xi^.s) and the addition theorem about n, the azimuth keeps the
      m = 0 term along n, with a_l = int_0^1 t P_l dt, and the m = 1 term
      across it, with P_l^1(c) = -sqrt(1 - c^2) P_l'(c) and
      int_0^1 (1 - t^2) P_l' dt/(l(l + 1)), which is a_l again.  The
      polynomial factors are computed here, once, and each call takes R_l
      from the cache.
    Lambda is R_1 times the sphere's area (lambda_radial).  Each call takes
    the factors of nr radial nodes from the cache (module docstring), which
    other orientations of the same kernel and modes share.  Z_l(-c) =
    Z_l(c) and Z_l'(-c) = -Z_l'(c) hold bit for bit at even l, so A(-n) =
    A(n), [-n; -t] = -[n; t], and the orientation -n gives exactly -Re
    lambda in both dimensions.
    """
    d = kernel.dimension
    ks = np.sqrt(q2.astype(float))
    lmax = _orders(kernel.horizon * float(ks[-1]), d)
    kbytes = ks.tobytes()
    if d == 2:
        # in C order, so that the key does not depend on the layout of modes
        mbytes = np.ascontiguousarray(modes, dtype=float).tobytes()
        cos, sin = _harmonics(lmax, n)
        l = np.arange(2, lmax + 1, 2)
        # A(n): a row per column of M, then A(n) [n; t]
        a = np.concatenate([np.stack([cos, -np.concatenate([[0.0], l * sin])], axis=1),
                            np.stack([sin, l * cos[1:]], axis=1)])
        p = a @ np.array([n, [-n[1], n[0]]])

        def evaluate(nr):
            m, lam_rad = _cached_factors(kernel, kbytes, mbytes, nr, lmax)
            return m @ p, lam_rad

        return evaluate

    # C order, so that xhat @ n takes one path and the bits do not depend on modes' layout
    xhat = np.ascontiguousarray(modes / ks[index, None])
    c = xhat @ n
    lateral = xhat - c[:, None] * n
    p, dp = _zonal(lmax, c, d)
    weights = _half_ball_weights(lmax, d)[:, None]
    along, across = weights * p[::2], weights * dp[::2]

    def evaluate(nr):
        rad = _cached_factors(kernel, kbytes, None, nr, lmax)
        even = rad[:lmax + 1:2][:, index]
        re = (np.sum(even * along, axis=0)[:, None] * n
              + np.sum(even * across, axis=0)[:, None] * lateral)
        return re, SPHERE_AREA[d] * rad[1]

    return evaluate


def _bump_radial(nr):
    return int(nr * 1.5) + 1


def _radial_bumps(nr, count):
    """The radial count nr and the count - 1 radial bumps that follow it."""
    for _ in range(count):
        yield nr
        nr = _bump_radial(nr)


def build_table(kernel, orientation, bound, tol=quad.DEFAULT_TOL):
    """Build the symbol table for (kernel, orientation) up to |xi|_inf <= N.

    Every entry is verified by recomputation on a refined rule; construction
    raises QuadratureConvergenceError if refinement fails to settle within
    tol (relative, per table) and KernelError if the kernel is not 2D or 3D
    or any symbol magnitude degenerates to zero.  The angular integrals are
    closed, and Re lambda and Lambda come from one Bessel pass per level
    (_re_lambda), so the ladder refines the radial count alone: 4 levels,
    from the count whose Gauss error bound on f_l(k r) up to k r = delta
    sqrt(d) N is below rounding (_radial_count).  Each level's factors are
    cached (_cached_factors): a 2D orientation sweep of one kernel and N
    computes each level once, and every other orientation costs one small
    product per level.
    """
    if bound < 1:
        raise ValueError("lattice bound must be at least 1")
    d = quad.ball_dimension(kernel)
    kmax = kernel.horizon * math.sqrt(d) * bound
    if not kmax <= _MAX_KR:
        raise KernelError(f"delta*sqrt(d)*N = {kmax!r} exceeds {_MAX_KR}, the cap of a table")
    orientation = orientation if isinstance(orientation, Orientation) else Orientation(orientation)
    n = orientation.vec
    if len(n) != d:
        raise ValueError("orientation dimension does not match the kernel")

    lat = lattice(bound, d)
    re_half, lam_rad = quad.settle(_re_lambda(kernel, lat.half, n, lat.q2, lat.index),
                                   _radial_bumps(_radial_count(kmax, d), 4),
                                   tol, f"symbol quadrature for N={bound}")

    im_abs = (lam_rad / lat.k)[lat.index][:, None] * lat.half

    lam = np.zeros((2 * bound + 1,) * d + (d,), dtype=complex)
    val, centre = re_half + 1j * im_abs, len(lat.modes) // 2
    lam.reshape(-1, d)[centre + 1:] = val           # the half, after the zero mode
    lam.reshape(-1, d)[centre - 1::-1] = np.conj(val)  # -xi, mirrored before it
    return SymbolTable(kernel, orientation, bound, lam, lam_rad, tol)


def local_table(dimension, bound):
    """The delta -> 0 counterpart: lambda(xi) = i xi through the same layout."""
    lat = lattice(bound, dimension)
    lam = np.zeros((2 * bound + 1,) * dimension + (dimension,), dtype=complex)
    lam[tuple((lat.modes + bound).T)] = 1j * lat.modes
    return SymbolTable(None, None, bound, lam, lat.k, 0.0)


def lambda_radial(kernel, k):
    """Radial symbol factor Lambda_delta(k) for a single magnitude k >= 0.

    The sphere's area times R_1 (_radial_orders), settled to the default
    tolerance over a ladder of 4 radial counts; KernelError unless the
    kernel is 2D or 3D.  |J_1| and |j_1| are at most 1, so |Lambda| <= area
    sum_i |v_i|; that bound is the least scale of the ladder's comparison,
    which near a zero of Lambda would otherwise ask a value near 0 for
    relative accuracy.  KernelError, before any rule, if delta k > _MAX_KR.
    """
    d = quad.ball_dimension(kernel)
    area = SPHERE_AREA[d]
    if k == 0.0:
        return 0.0
    if not kernel.horizon * k <= _MAX_KR:
        raise KernelError(f"delta*k = {kernel.horizon * k!r} exceeds {_MAX_KR}, the cap of Lambda")
    start = _radial_count(kernel.horizon * k, d)
    floor = area * float(np.sum(np.abs(quad.scaled_radial_rule(kernel, 1, start)[1])))
    # settle scales by the largest part of a level, so a constant part floors it
    return quad.settle(lambda nr: (float(area * _radial_orders(kernel, [k], nr, 1)[1, 0]), floor),
                       _radial_bumps(start, 4), quad.DEFAULT_TOL,
                       f"Lambda quadrature at k={k}")[0]


def verify_bounds(table):
    """Lattice extremes of the symbol magnitude, for coercivity reports: a copy of table.bounds."""
    return dict(table.bounds)


# ---------------------------------------------------------------------------
# portable text cache
# ---------------------------------------------------------------------------

def save_table(table, path):
    """Write the table as decimal text, one lattice mode per line."""
    if table.kernel is None:
        raise ValueError("local tables are analytic; nothing to cache")
    k = table.kernel
    if k.family == "tabulated":
        raise ValueError("tabulated kernels are not supported by the text cache")
    hdr = (
        f"# nlspectral-symbols d={k.dimension} N={table.bound} family={k.family} "
        f"beta={'' if k.beta is None else repr(k.beta)} delta={k.horizon!r} "
        f"n={','.join(repr(float(c)) for c in table.orientation.vec)} tol={table.tol!r}"
    )
    lat = lattice(table.bound, table.dimension)
    body = mode_rows(lat.modes, table.lam[tuple((lat.modes + table.bound).T)], " ")
    radial = zip(lat.q2.tolist(), table.radial.tolist())
    tail = "L %d %.17g\n" * len(table.radial) % tuple(chain.from_iterable(radial))
    write_text(path, chain([hdr + "\n"], body, [tail]))


def load_table(path):
    """Read a cache written by save_table, all or nothing.

    Raises ValueError unless the header is complete and well formed, with a
    positive finite tol, and the body is exactly what save_table writes: a
    line for each nonzero lattice mode in the order of lattice(N, d).modes, then
    an L line with a finite Lambda for each distinct |xi|^2 in ascending
    order, each line of its own width and ended by a newline; KernelError
    if a loaded symbol fails the table validation, as a NaN does.  The body
    is parsed in one pass: one token list, with ";" closing each line, and
    one float conversion of the mode tokens.
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
        if not 0.0 < tol < math.inf:
            raise ValueError(f"tol={fields['tol']} is not a positive finite number")
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
        lam_rad = np.array(radial[2::4], dtype=float)
        if not np.all(np.isfinite(lam_rad)):
            raise ValueError("a radial factor is not finite")
    except ValueError as exc:
        raise ValueError(f"symbol cache {path} has a malformed line") from exc
    lat = lattice(bound, d)
    if not np.array_equal(body[:, :d], lat.modes):
        raise ValueError(f"symbol cache {path} lacks, repeats or reorders a mode of N={bound}")
    if not np.array_equal(radial[1::4], lat.q2.astype(str)):
        raise ValueError(f"symbol cache {path} lacks, repeats or reorders an L line of N={bound}")
    lam = np.zeros((2 * bound + 1,) * d + (d,), dtype=complex)
    lam[tuple((lat.modes + bound).T)] = np.ascontiguousarray(body[:, d:]).view(complex)
    return SymbolTable(kernel, orientation, bound, lam, lam_rad, tol)
