"""Radial interaction kernels with horizon scaling and first-moment normalization.

A kernel is a nonnegative radial profile w on the unit ball, scaled to the
horizon delta by

    w_delta(r) = delta**-(d+1) * w(r / delta),

and normalized so that the first moment over the unit ball equals the space
dimension:

    integral_{|x| <= 1} w(|x|) |x| dx = d.

Supported families: constant, fractional (w ~ r**-beta for 1 <= beta < 2),
a fixed sine profile (pi/2) * sin(pi r), and tabulated profiles interpolated
piecewise-linearly on a graded radial mesh.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import KernelError

CONSTANT = "constant"
FRACTIONAL = "fractional"
SINE = "sine"
TABULATED = "tabulated"

FAMILIES = (CONSTANT, FRACTIONAL, SINE, TABULATED)

# Surface measure of the unit sphere S^{d-1}; the d=1 value 2 counts the
# two endpoints of the interval so that spherical-shell formulas hold.
SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

MOMENT_RTOL = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """Normalized radial kernel: family, dimension, horizon and multiplier.

    ``normalization`` is the dimensionless constant multiplying the raw family
    profile; it is computed once by :func:`normalize` and stored so every
    downstream consumer sees bit-identical values.  ``cutoff_rho`` in (0, 1)
    marks an epsilon-regularized kernel (see :func:`epsilon_cutoff`): the
    profile is clamped on [0, cutoff_rho] to ``cutoff_value`` (the infimum
    of the profile over that interval).
    """

    family: str
    dimension: int
    horizon: float
    normalization: float
    beta: float | None = None
    table_r: np.ndarray | None = None
    table_w: np.ndarray | None = None
    cutoff_rho: float = 0.0
    cutoff_value: float = 0.0

    def profile(self, rho):
        """Normalized unit-ball profile w(rho), vectorized over rho >= 0.

        Returns +inf at rho = 0 for the uncut fractional family; callers must
        integrate through that point with weighted quadrature.
        """
        rho = np.asarray(rho, dtype=float)
        inside = rho <= 1.0
        if self.family == FRACTIONAL:
            # out= keeps a 0-d input a 0-d array, which copyto can write into
            with np.errstate(divide="ignore"):
                out = np.power(rho, -self.beta, out=np.empty_like(rho))
            np.copyto(out, 0.0, where=~inside)
        else:
            out = np.zeros_like(rho)
            if self.family == CONSTANT:
                out[inside] = 1.0
            elif self.family == SINE:
                out[inside] = (math.pi / 2.0) * np.sin(math.pi * rho[inside])
            elif self.family == TABULATED:
                out[inside] = np.interp(rho[inside], self.table_r, self.table_w)
            else:
                raise KernelError(f"unknown kernel family {self.family!r}")
        out *= self.normalization
        if self.cutoff_rho > 0.0:
            # cutoff_rho < 1, so the clamp leaves the zeros beyond rho = 1
            np.copyto(out, self.cutoff_value, where=rho <= self.cutoff_rho)
        return out

    @property
    def is_singular(self):
        """True when the profile is unbounded at the origin."""
        return self.family == FRACTIONAL and self.cutoff_rho == 0.0

    @property
    def is_integrable(self):
        """True when w_delta is integrable over its support."""
        if self.family == FRACTIONAL and self.cutoff_rho == 0.0:
            return self.beta < self.dimension
        return True

    @property
    def is_nonincreasing(self):
        if self.family in (CONSTANT, FRACTIONAL):
            return True
        if self.family == TABULATED:
            return bool(np.all(np.diff(self.table_w) <= 1e-15))
        return False

    def breakpoints(self):
        """Profile breakpoints in (0, 1): interpolation knots and cutoff edge."""
        pts = []
        if self.family == TABULATED:
            pts.extend(float(r) for r in self.table_r if 0.0 < r < 1.0)
        if self.cutoff_rho > 0.0:
            pts.append(self.cutoff_rho)
        return sorted(set(pts))


def eval_kernel(kernel, r):
    """Evaluate the scaled kernel w_delta(r); zero outside the horizon."""
    delta = kernel.horizon
    r = np.asarray(r, dtype=float)
    return kernel.profile(r / delta) / delta ** (kernel.dimension + 1)


def _moment_constant(family, d, beta=None):
    """Normalization making the unit-ball first moment equal d, closed form."""
    area = SPHERE_AREA[d]
    if family == CONSTANT:
        return d * (d + 1) / area
    if family == FRACTIONAL:
        return d * (d + 1 - beta) / area
    if family == SINE:
        # integral_0^1 sin(pi r) r^(d+1) dr, d = 1, 2, 3
        radial = {
            1: 1.0 / math.pi,
            2: (math.pi**2 - 4.0) / math.pi**3,
            3: (math.pi**2 - 6.0) / math.pi**3,
        }[d]
        return d / (area * (math.pi / 2.0) * radial)
    raise KernelError(f"no closed-form constant for family {family!r}")


def _tabulated_moment(table_r, table_w, d):
    # integral of the piecewise-linear profile against r^d, segment by segment
    # with 4-point Gauss-Legendre (exact: integrand degree <= d + 1 <= 4).
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(4)
    total = 0.0
    for a, b in zip(table_r[:-1], table_r[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        r = mid + half * x
        total += half * np.sum(w * np.interp(r, table_r, table_w) * r**d)
    return SPHERE_AREA[d] * total


def normalize(family, dimension, horizon=1.0, beta=None, values=None, mesh=None):
    """Construct a KernelSpec satisfying the first-moment condition.

    Closed-form families get analytic constants; tabulated profiles are
    normalized by quadrature on their mesh.  The moment condition is
    re-verified numerically at construction and a failure raises KernelError.
    """
    if dimension not in (1, 2, 3):
        raise KernelError(f"dimension must be 1, 2 or 3, got {dimension}")
    if horizon <= 0.0:
        raise KernelError("horizon must be positive")
    if family not in FAMILIES:
        raise KernelError(f"unknown kernel family {family!r}")

    table_r = table_w = None
    if family == FRACTIONAL:
        if beta is None or not (1.0 <= beta < 2.0):
            raise KernelError(f"fractional exponent must satisfy 1 <= beta < 2, got {beta}")
        const = _moment_constant(family, dimension, beta)
    elif family == TABULATED:
        if values is None:
            raise KernelError("tabulated kernel needs profile values")
        table_w = np.asarray(values, dtype=float)
        if np.any(table_w < 0.0):
            raise KernelError("tabulated kernel values must be nonnegative")
        if mesh is not None:
            table_r = np.asarray(mesh, dtype=float)
        else:
            # geometrically graded toward r = 0; the first knot sits at 0 so
            # interpolation needs no extrapolation
            table_r = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, len(table_w) - 1)])
        if table_r.shape != table_w.shape or len(table_r) < 2:
            raise KernelError("tabulated mesh/values mismatch")
        raw = _tabulated_moment(table_r, table_w, dimension)
        if raw <= 0.0:
            raise KernelError("tabulated kernel has zero first moment")
        const = dimension / raw
    else:
        if beta is not None:
            raise KernelError(f"family {family!r} takes no exponent")
        const = _moment_constant(family, dimension)

    spec = KernelSpec(
        family=family,
        dimension=dimension,
        horizon=float(horizon),
        normalization=float(const),
        beta=None if beta is None else float(beta),
        table_r=table_r,
        table_w=table_w,
    )
    check = moment(spec)
    if not math.isclose(check, dimension, rel_tol=MOMENT_RTOL):
        raise KernelError(
            f"moment condition violated: got {check!r}, expected {dimension}"
        )
    return spec


def moment(kernel):
    """Unit-ball first moment of the profile, by weighted radial quadrature.

    Acts as the construction-time oracle for the normalization constants; it
    deliberately reimplements the integral with scipy nodes instead of the
    quadrature module.
    """
    from scipy.special import roots_jacobi
    from numpy.polynomial.legendre import leggauss

    d = kernel.dimension
    if kernel.is_singular:
        # weight r^(d - beta) folded into a Gauss-Jacobi rule on [0, 1]
        gamma = d - kernel.beta
        x, w = roots_jacobi(48, 0.0, gamma)
        r = 0.5 * (x + 1.0)
        total = kernel.normalization * np.sum(w * 0.5 ** (gamma + 1))
        return SPHERE_AREA[d] * total
    x, w = leggauss(64)
    edges = [0.0] + kernel.breakpoints() + [1.0]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        r = mid + half * x
        total += half * np.sum(w * kernel.profile(r) * r**d)
    return SPHERE_AREA[d] * total


def epsilon_cutoff(kernel, eps):
    """Clamp the kernel on [0, eps] to its infimum there (regularization).

    The returned kernel equals w_delta for r > eps and the constant
    inf_{|y| <= eps} w_delta(|y|) otherwise; it is integrable and, for a
    non-increasing base profile, non-increasing.
    """
    if not (0.0 < eps < kernel.horizon):
        raise KernelError(f"cutoff must satisfy 0 < eps < delta, got {eps}")
    rho_eps = eps / kernel.horizon
    if kernel.family == CONSTANT:
        value = kernel.normalization
    elif kernel.family == FRACTIONAL:
        value = kernel.normalization * rho_eps ** (-kernel.beta)
    else:
        probe = np.linspace(0.0, rho_eps, 4097)
        value = float(np.min(kernel.profile(probe)))
    return replace(kernel, cutoff_rho=float(rho_eps), cutoff_value=float(value))


def from_config(cfg):
    """Build a kernel from its JSON description.

    Expected keys: "family", "dimension", "delta", and "beta" for the
    fractional family; tabulated kernels add "values" and optionally "mesh".
    """
    try:
        family = cfg["family"]
        dimension = int(cfg["dimension"])
        delta = float(cfg["delta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise KernelError(f"bad kernel config: {cfg!r}") from exc
    return normalize(
        family,
        dimension,
        horizon=delta,
        beta=cfg.get("beta"),
        values=cfg.get("values"),
        mesh=cfg.get("mesh"),
    )
