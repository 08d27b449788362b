"""Periodic fields on (-pi, pi)^d stored as truncated Fourier coefficients.

The expansion convention is u(x) = sum_xi uhat(xi) exp(i xi.x) over the
integer lattice; every field is zero-mean (the xi = 0 coefficient is pinned
to zero) and real-valued fields satisfy uhat(-xi) = conj(uhat(xi)).

Coefficients live in a dense cube of shape (2N+1,)*d followed by the
component shape: () for scalars, (d,) for vectors, (d, d) for gradient-type
matrix fields.

What depends on (N, d) alone is computed once: lattice(N, d), a read-only record
kept in an LRU cache of _LATTICE_CACHE_SIZE = 4, which tables and random_field read.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from numbers import Integral, Real

import numpy as np

from .results import mode_rows, write_text

_MASK = (1 << 64) - 1
# a run uses a handful of lattices: a table's, and the local tables' of a sweep
_LATTICE_CACHE_SIZE = 4
Lattice = namedtuple("Lattice", "modes norms half q2 index k")


@dataclass
class SpectralField:
    bound: int
    dimension: int
    coeffs: np.ndarray
    real: bool = True

    def __post_init__(self):
        d, n = self.dimension, 2 * self.bound + 1
        if self.coeffs.shape[:d] != (n,) * d:
            raise ValueError(
                f"coefficient cube {self.coeffs.shape[:d]} does not match N={self.bound}"
            )
        self._zero_mean()

    # -- basic structure ----------------------------------------------------

    @property
    def component_shape(self):
        return self.coeffs.shape[self.dimension:]

    def _zero_mean(self):
        self.coeffs[(self.bound,) * self.dimension] = 0.0

    def copy(self):
        return SpectralField(self.bound, self.dimension, self.coeffs.copy(), self.real)

    def set_mode(self, xi, value):
        """Set mode xi (and -xi to its conjugate in a real field); xi is checked first."""
        at = cube_index(xi, self.bound, self.dimension)
        mirror = tuple(2 * self.bound - i for i in at)
        if at == mirror:
            raise ValueError("the zero mode is pinned to zero")
        self.coeffs[at] = value
        if self.real:
            self.coeffs[mirror] = np.conj(value)
        return self

    @classmethod
    def zeros(cls, dimension, bound, component_shape=()):
        """The zero real field."""
        shape = (2 * bound + 1,) * dimension + tuple(component_shape)
        return cls(bound, dimension, np.zeros(shape, dtype=complex))

    # -- arithmetic ----------------------------------------------------------

    def _like(self, coeffs, real=None):
        return SpectralField(self.bound, self.dimension, coeffs,
                             self.real if real is None else real)

    def __add__(self, other):
        return self._like(self.coeffs + other.coeffs, self.real and other.real)

    def __sub__(self, other):
        return self._like(self.coeffs - other.coeffs, self.real and other.real)

    def __mul__(self, scalar):
        out = self._like(self.coeffs * scalar, self.real and np.isrealobj(scalar))
        out._zero_mean()
        return out

    __rmul__ = __mul__


def cube_index(xi, bound, dimension):
    """The index of mode xi in a (2N+1,)*d cube; ValueError unless xi is a d-tuple of
    whole numbers (ints, numpy integers or integral floats) in [-N, N]^d."""
    xi = tuple(xi)
    if len(xi) != dimension or not all(
            (isinstance(c, Integral) or isinstance(c, Real) and float(c).is_integer())
            and -bound <= c <= bound for c in xi):
        raise ValueError(f"mode {xi!r} is not in the cube [-{bound}, {bound}]^{dimension}")
    return tuple(int(c) + bound for c in xi)


def _check(table, field, *shapes):
    """ValueError unless field has the table's N and d and, if shapes are given, one of them
    as its component shape."""
    if field.bound != table.bound or field.dimension != table.dimension:
        raise ValueError(f"a field of N={field.bound}, d={field.dimension} does not fit "
                         f"a table of N={table.bound}, d={table.dimension}")
    if shapes and field.component_shape not in shapes:
        raise ValueError(f"expected component shape {' or '.join(map(str, shapes))}, "
                         f"got {field.component_shape}")


def lattice_grid(bound, dimension):
    """Integer frequency arrays, one (2N+1,)*d cube per axis."""
    axes = [np.arange(-bound, bound + 1)] * dimension
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=0)


@lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def lattice(bound, dimension):
    """What every table and field on the cube [-N, N]^d shares: a read-only Lattice.

    ``modes``: the nonzero frequencies (Q, d) in the cube's C order, which is
    lexicographic, so ``half`` = modes[Q/2:], after the zero mode, holds the xi
    whose first nonzero coordinate is positive, and -xi mirrors xi about it.
    ``norms`` = |xi| per mode; ``q2`` and ``index`` are np.unique of the half's
    |xi|^2 with return_inverse, and ``k`` = sqrt(q2).
    """
    grid = lattice_grid(bound, dimension).reshape(dimension, -1).T
    modes = grid[np.any(grid != 0, axis=1)]
    half = modes[len(modes) // 2:]
    q2, index = np.unique(np.sum(half**2, axis=1), return_inverse=True)
    rec = Lattice(modes, np.sqrt(np.sum(modes**2, axis=1)), half, q2, index,
                  np.sqrt(q2.astype(float)))
    for a in rec:
        a.setflags(write=False)
    return rec


def l2_norm(field):
    """Coefficient-space L2 norm (sum |uhat|^2)^(1/2); grid L2 is (2 pi)^(d/2) times this."""
    return float(np.sqrt(np.sum(np.abs(field.coeffs) ** 2)))


def s_norm(field, table):
    """Energy norm (sum |lambda(xi)|^2 |uhat(xi)|^2)^(1/2) of a scalar or d-vector
    field of the table."""
    if table is None:
        raise ValueError("energy norms need a symbol table")
    _check(table, field, (), (table.dimension,))
    weight = table.abs2
    extra = field.coeffs.ndim - weight.ndim
    w = weight.reshape(weight.shape + (1,) * extra)
    return float(np.sqrt(np.sum(w * np.abs(field.coeffs) ** 2)))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def grid_points(size, dimension):
    """Uniform sample grid x_j = -pi + 2 pi j / size per axis."""
    x = -np.pi + 2.0 * np.pi * np.arange(size) / size
    return np.stack(np.meshgrid(*([x] * dimension), indexing="ij"), axis=0)


def evaluate(field, size):
    """Sample the field on a uniform size^d grid via zero-padded inverse FFT."""
    d = field.dimension
    n = 2 * field.bound + 1
    if size < n:
        raise ValueError("evaluation grid must resolve the truncation")
    comp = field.component_shape
    full = np.zeros((size,) * d + comp, dtype=complex)
    modes = lattice_grid(field.bound, d)
    phase = (-1.0) ** np.sum(modes, axis=0)
    cube = field.coeffs * phase.reshape(phase.shape + (1,) * len(comp))
    slices = tuple(np.arange(-field.bound, field.bound + 1) % size for _ in range(d))
    full[np.ix_(*slices, *[np.arange(s) for s in comp])] = cube
    vals = np.fft.ifftn(full, axes=tuple(range(d))) * size**d
    return vals.real if field.real else vals


def to_csv(field, path):
    """Snapshot the coefficients: one row per lattice mode, Re/Im per component."""
    d = field.dimension
    modes = lattice_grid(field.bound, d).reshape(d, -1).T
    heads = [f"xi{i + 1}" for i in range(d)]
    for c in range(field.coeffs.size // len(modes)):
        heads += [f"re{c + 1}", f"im{c + 1}"]
    write_text(path, chain([",".join(heads) + "\n"], mode_rows(modes, field.coeffs, ",")))


# ---------------------------------------------------------------------------
# reproducible random fields
# ---------------------------------------------------------------------------

def _uniforms(seed, count):
    """Deterministic uniforms in [0, 1) from a 64-bit splitmix generator.

    State i (from 1) is seed + i * 0x9E3779B97F4A7C15 mod 2^64; each state is
    mixed and its top 53 bits scaled to [0, 1), in uint64 arithmetic.
    """
    z = np.uint64(seed & _MASK) + np.arange(1, count + 1, dtype=np.uint64) \
        * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * (1.0 / (1 << 53))


def random_field(seed, bound, decay, dimension=2, components=0):
    """Reproducible real band-limited field with |uhat| ~ (1+|xi|^2)^(-decay/2).

    The phase stream comes from a fixed 64-bit generator walked over the
    lattice in C order, so coefficients are identical across platforms and
    numpy versions.  components=0 gives a scalar field, d a vector field.
    """
    if decay < 0:
        raise ValueError("spectral decay must be nonnegative")
    d = dimension
    cshape = () if components == 0 else (components,)
    n = 2 * bound + 1
    ncomp = 1 if components == 0 else components
    lat, centre = lattice(bound, d), n**d // 2
    phases = _uniforms(seed, n**d * ncomp).reshape(n**d, ncomp)[centre + 1:]
    # fill the lexicographically positive half (after the zero mode), then mirror
    # conjugates; this keeps |uhat| exactly proportional to the decay profile
    half = np.zeros((n**d, ncomp), dtype=complex)
    amp = ((1.0 + lat.q2) ** (-decay / 2.0))[lat.index, None]
    half[centre + 1:] = amp * np.exp(2j * np.pi * phases)
    half = half.reshape((n,) * d + cshape)
    rev = tuple(slice(None, None, -1) for _ in range(d))
    coeffs = half + np.conj(half[rev])
    return SpectralField(bound, d, coeffs, real=True)
