"""Correctness gates applied to every workload output, outside the timed window.

The gates do not trust the code they check: symbols are compared with a
direct half-ball quadrature of their defining integral, and solver outputs
are put back into the per-mode equations written out here with numpy.
A failed gate is recorded against the layer whose output it checked and
makes its operation count as failed; it never aborts the run.
"""

import math

import numpy as np

from nlspectral import quadrature as quad


class Report:
    """Outcome of the checks on one operation."""

    def __init__(self):
        self.failures = []      # (layer, check, detail)
        self.observed = {}      # golden key -> (layer, value, tolerance)

    def expect(self, layer, name, ok, detail=""):
        if not ok:
            self.failures.append((layer, name, detail))

    def at_most(self, layer, name, value, limit):
        # a NaN compares false, so it fails here as it should
        self.expect(layer, name, bool(value <= limit), f"{value!r} > {limit!r}")

    def observe(self, layer, key, value, tol):
        """Record a value to compare with its golden copy at tolerance ``tol``."""
        self.observed[key] = (layer, float(value), float(tol))

    def compare(self, golden, prefix):
        """Compare every observed value with ``golden[prefix + key]``."""
        for key, (layer, value, _) in self.observed.items():
            ref = golden.get(f"{prefix}.{key}")
            if ref is None:
                self.expect(layer, f"golden {key}", False, "no golden value")
                continue
            want, tol = ref
            self.at_most(layer, f"golden {key}", abs(value - want), tol)


def draw_modes(rng, bound, dimension, count):
    """``count`` random nonzero lattice modes in [-N, N]^d plus the corner (N, ..., N)."""
    modes = []
    while len(modes) < count:
        xi = rng.integers(-bound, bound + 1, size=dimension)
        if np.any(xi != 0):
            modes.append(tuple(int(c) for c in xi))
    return modes + [(bound,) * dimension]


def symbol_oracle(rep, tab, modes, tr):
    """lambda(xi) = 2 int_{half ball} w_delta(|s|) s/|s| (exp(i xi.s) - 1) ds, directly.

    Both parts are integrated on the half-ball about the table's orientation
    by ``quadrature.integrate_halfball`` (panel doubling until two levels
    agree), not by the table build's vectorized lattice sweep, and must agree
    with the table at the table's tolerance.
    """
    n = tab.orientation.vec
    for xi in modes:
        x = np.asarray(xi, dtype=float)

        def integrand(r, dirs):
            return dirs * (np.exp(1j * r * (dirs @ x)) - 1.0)[:, None]

        with tr.span("quadrature.integrate_halfball"):
            ref = 2.0 * quad.integrate_halfball(tab.kernel, n, integrand, tol=tab.tol)
        err = float(np.max(np.abs(tab.lam_at(xi) - ref)))
        rep.at_most("symbols", f"oracle {xi}", err, tab.tol * float(np.max(np.abs(ref))))


def symbol_envelope(rep, tab):
    """0 < |lambda(xi)| <= sqrt(2) d |xi| on the lattice, and lambda(-xi) = conj(lambda(xi))."""
    d, N = tab.dimension, tab.bound
    axes = np.meshgrid(*[np.arange(-N, N + 1)] * d, indexing="ij")
    k = np.sqrt(sum(a.astype(float) ** 2 for a in axes))
    mags = np.sqrt(np.sum(np.abs(tab.lam) ** 2, axis=-1))
    nz = k > 0
    rep.expect("symbols", "positive", bool(np.all(mags[nz] > 0.0)), "a symbol vanished")
    ratio = float(np.max(mags[nz] / k[nz]))
    rep.at_most("symbols", "upper bound", ratio, math.sqrt(2.0) * d * (1.0 + 1e-9))
    flipped = tab.lam[(slice(None, None, -1),) * d]
    rep.at_most("symbols", "conjugate symmetry", float(np.max(np.abs(flipped - np.conj(tab.lam)))),
                tab.tol * float(np.max(mags)))
    return float(np.min(mags[nz])), ratio


def rel_max(a, b):
    """max |a - b| over max(max |b|, 1)."""
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1.0)


def abs2(lam):
    return np.sum(np.abs(lam) ** 2, axis=-1)


def stokes(rep, tab, f, flow, tol=1e-12):
    """|lambda|^2 u + lambda p = f and conj(lambda).u = 0, per mode."""
    lam = tab.lam
    lhs = abs2(lam)[..., None] * flow.velocity.coeffs + lam * flow.pressure.coeffs[..., None]
    rep.at_most("solvers", "stokes residual", rel_max(lhs, f.coeffs), tol)
    u = flow.velocity.coeffs
    div = float(np.max(np.abs(np.sum(np.conj(lam) * u, axis=-1))))
    rep.at_most("solvers", "stokes divergence", div,
                tol * max(float(np.max(np.abs(lam))) * float(np.max(np.abs(u))), 1e-300))


def navier_matrix_apply(lam, mu, lam_lame, u):
    """P u with P = mu |lambda|^2 I + (lambda_L + mu) lambda lambda^H."""
    proj = np.sum(np.conj(lam) * u, axis=-1)[..., None]
    return mu * abs2(lam)[..., None] * u + (lam_lame + mu) * lam * proj


def hamiltonian_drift(lam, mu, lam_lame, states, rates):
    """Largest per-mode relative change of |u_t|^2 + u^H P u along a trajectory."""
    def energy(u, v):
        pu = navier_matrix_apply(lam, mu, lam_lame, u)
        return np.real(np.sum(np.conj(u) * pu, axis=-1)) + np.sum(np.abs(v) ** 2, axis=-1)

    h0 = energy(states[0].coeffs, rates[0].coeffs)
    floor = np.maximum(h0, 1e-30)
    return max(float(np.max(np.abs(energy(s.coeffs, r.coeffs) - h0) / floor))
               for s, r in zip(states, rates))
