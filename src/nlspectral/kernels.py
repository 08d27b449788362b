"""Radial interaction kernels with horizon scaling and first-moment normalization.

A kernel is a nonnegative radial profile w on the unit ball, scaled to the
horizon delta by

    w_delta(r) = delta**-(d+1) * w(r / delta),

and normalized so that the first moment over the unit ball equals the space
dimension:

    integral_{|x| <= 1} w(|x|) |x| dx = d.

Supported families: constant, fractional (w ~ r**-beta for 1 <= beta < 2)
and a fixed sine profile (pi/2) * sin(pi r), each normalized in closed form.
A KernelSpec holds plain values, so it is hashable and compares by value
(symbols caches by kernel).
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import KernelError

CONSTANT = "constant"
FRACTIONAL = "fractional"
SINE = "sine"

FAMILIES = (CONSTANT, FRACTIONAL, SINE)

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
    marks a clamped 1D fractional kernel (see :func:`epsilon_cutoff`), the
    one the 1D clamp ladder of ``onedim`` builds: the profile is clamped on
    [0, cutoff_rho] to ``cutoff_value``, its value at cutoff_rho.  Every
    field is a plain value, so a KernelSpec is hashable and compares by
    value, as a cache key must.
    """

    family: str
    dimension: int
    horizon: float
    normalization: float
    beta: float | None = None
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


def eval_kernel(kernel, r):
    """Evaluate the scaled kernel w_delta(r); zero outside the horizon."""
    delta = kernel.horizon
    out = kernel.profile(np.asarray(r, dtype=float) / delta)
    out /= delta ** (kernel.dimension + 1)
    # a 0-d input gives a numpy scalar, as the out-of-place division did
    return out[()]


def _moment_constant(family, d, beta=None):
    """Normalization making the unit-ball first moment equal d, closed form."""
    area = SPHERE_AREA[d]
    if family == CONSTANT:
        return d * (d + 1) / area
    if family == FRACTIONAL:
        return d * (d + 1 - beta) / area
    # sine: integral_0^1 sin(pi r) r^(d+1) dr, d = 1, 2, 3
    radial = {
        1: 1.0 / math.pi,
        2: (math.pi**2 - 4.0) / math.pi**3,
        3: (math.pi**2 - 6.0) / math.pi**3,
    }[d]
    return d / (area * (math.pi / 2.0) * radial)


def normalize(family, dimension, horizon=1.0, beta=None):
    """Construct a KernelSpec satisfying the first-moment condition.

    Every family gets its analytic constant.  The moment condition is
    re-verified numerically at construction and a failure raises KernelError.
    """
    if dimension not in (1, 2, 3):
        raise KernelError(f"dimension must be 1, 2 or 3, got {dimension}")
    try:
        scale = float(horizon) ** (dimension + 1)   # what eval_kernel divides by
    except OverflowError:
        scale = math.inf
    if not (horizon > 0.0 and np.finfo(float).tiny <= scale < math.inf):
        raise KernelError(f"horizon must be positive with delta^{dimension + 1} a finite normal "
                          f"float, got delta={horizon!r}")
    if family not in FAMILIES:
        raise KernelError(f"unknown kernel family {family!r}")

    if family == FRACTIONAL:
        if beta is None or not (1.0 <= beta < 2.0):
            raise KernelError(f"fractional exponent must satisfy 1 <= beta < 2, got {beta}")
        const = _moment_constant(family, dimension, beta)
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
    )
    check = moment(spec)
    if not math.isclose(check, dimension, rel_tol=MOMENT_RTOL):
        raise KernelError(
            f"moment condition violated: got {check!r}, expected {dimension}"
        )
    return spec


def moment(kernel):
    """Unit-ball first moment of the profile, by radial integration.

    Acts as the construction-time oracle for the normalization constants; it
    deliberately reimplements the integral instead of using the quadrature
    module.  The singular fractional profile integrates in closed form,
    int_0^1 r^(d - beta) dr = 1/(d - beta + 1); the smooth profiles use a
    64-point Gauss-Legendre rule on [0, 1].
    """
    from numpy.polynomial.legendre import leggauss

    d = kernel.dimension
    if kernel.is_singular:
        return SPHERE_AREA[d] * (kernel.normalization / (d - kernel.beta + 1.0))
    x, w = leggauss(64)
    r = 0.5 + 0.5 * x
    return SPHERE_AREA[d] * (0.5 * np.sum(w * kernel.profile(r) * r**d))


def epsilon_cutoff(kernel, eps):
    """Clamp an uncut 1D fractional kernel on [0, eps] to w_delta(eps).

    The returned kernel equals w_delta for r > eps and w_delta(eps), its
    infimum on [0, eps], below; it is integrable and non-increasing, and is
    a level of the 1D clamp ladder (``onedim.rho_regularized``).  The
    half-ball tables need no clamp, so KernelError for any other kernel.
    """
    if not (kernel.dimension == 1 and kernel.is_singular):
        raise KernelError(f"only an uncut 1D fractional kernel is clamped, got {kernel!r}")
    if not (0.0 < eps < kernel.horizon):
        raise KernelError(f"cutoff must satisfy 0 < eps < delta, got {eps}")
    rho_eps = eps / kernel.horizon
    value = kernel.normalization * rho_eps ** (-kernel.beta)
    return replace(kernel, cutoff_rho=float(rho_eps), cutoff_value=float(value))


def from_config(cfg):
    """Build a kernel from its JSON description.

    Expected keys: "family", "dimension", "delta", and "beta" for the
    fractional family.
    """
    try:
        family = cfg["family"]
        dimension = int(cfg["dimension"])
        delta = float(cfg["delta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise KernelError(f"bad kernel config: {cfg!r}") from exc
    return normalize(family, dimension, horizon=delta, beta=cfg.get("beta"))
