import math

import numpy as np
import pytest

from nlspectral import QuadratureConvergenceError, eval_kernel, normalize
from nlspectral import quadrature as quad
from nlspectral.errors import KernelError

import oracles

E1 = np.array([1.0, 0.0])


def ones(r, dirs):
    return np.ones_like(r)


def radius(r, dirs):
    return r


@pytest.mark.parametrize("family,kwargs", [
    ("constant", {}), ("sine", {}), ("fractional", {"beta": 1.5}),
])
def test_half_moment_2d(family, kwargs):
    k = normalize(family, 2, **kwargs)
    assert quad.integrate_halfball(k, E1, radius) == pytest.approx(1.0, rel=1e-10)


def test_radial_rules_refuse_a_1d_kernel():
    # one check names the dimension; a 1D fractional kernel used to reach
    # the Gauss-Jacobi eigensolve at the exponent -beta and fail there
    kernel = normalize("fractional", 1, horizon=0.5, beta=1.5)
    for call in (lambda: quad.scaled_radial_rule(kernel, 1, 8),
                 lambda: quad.halfball_points(kernel, np.ones(1))):
        with pytest.raises(KernelError, match="dimension 1"):
            call()


def test_half_moment_3d():
    k = normalize("constant", 3, horizon=0.4)
    n = np.array([0.0, 0.0, 1.0])
    assert quad.integrate_halfball(k, n, radius) == pytest.approx(1.5, rel=1e-10)


def test_constant_mass_halfdisk():
    # closed form: c * (half disk area weighted) = (3/pi)(pi/2) = 3/2
    k = normalize("constant", 2)
    assert quad.integrate_halfball(k, E1, ones) == pytest.approx(1.5, rel=1e-10)


def test_first_component_closed_form_and_monte_carlo():
    # int_{half disk} w |s| (s_1/|s|) ds = c/3 * 2 = 2/pi for the unit horizon
    k = normalize("constant", 2)
    f = lambda r, dirs: r * dirs[:, 0]
    val = quad.integrate_halfball(k, E1, f)
    assert val == pytest.approx(2.0 / math.pi, rel=1e-10)
    mc = oracles.monte_carlo_halfball(k, E1, f, samples=400_000, seed=5)
    assert mc == pytest.approx(val, rel=5e-3)


def test_singular_moment_beta_19():
    k = normalize("fractional", 2, beta=1.9, horizon=0.7)
    assert quad.integrate_halfball(k, E1, radius) == pytest.approx(1.0, rel=1e-8)


def test_rotation_equivariance(rng):
    k = normalize("sine", 2, horizon=0.5)
    xi = np.array([3.0, -1.0])

    def f(r, dirs):
        s = r[:, None] * dirs
        return np.cos(s @ xi) * dirs[:, 0] ** 2

    base = quad.integrate_halfball(k, E1, f)
    for _ in range(3):
        t = rng.uniform(0.0, 2.0 * np.pi)
        R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

        def f_rot(r, dirs):
            back = dirs @ R   # R^T applied row-wise
            s = r[:, None] * back
            return np.cos(s @ xi) * back[:, 0] ** 2

        val = quad.integrate_halfball(k, R @ E1, f_rot)
        assert val == pytest.approx(base, rel=1e-10)


def test_refinement_estimates_nonincreasing():
    # self-reported error never grows when panels double, on integrands hard
    # enough that the ladder stays above the noise floor
    k = normalize("fractional", 2, beta=1.7, horizon=1.0)
    xi = np.array([9.0, 4.0])

    def f(r, dirs):
        s = r[:, None] * dirs
        return np.cos(s @ xi) - 1.0

    errs = oracles.refinement_errors(k, E1, f, [1, 2, 4], n_radial=4, n_angular=6)
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(errs[:-1], errs[1:]))
    assert errs[0] > 1e-13  # the ladder is in its convergent regime


def test_interval_half_moment():
    k = normalize("constant", 1)
    s, w = quad._interval_rule(k, 1)
    assert float(np.sum(w * s)) == pytest.approx(0.5, rel=1e-12)
    assert float(np.sum(w * s * s)) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_interval_constant_mass():
    # the constant kernel is 1/delta^2 on (0, delta]: its mass is 1/delta
    for delta in (1.0, 0.3):
        s, w = quad._interval_rule(normalize("constant", 1, horizon=delta), 1)
        assert float(np.sum(w)) == pytest.approx(1.0 / delta, rel=1e-12)
        assert np.all((s > 0.0) & (s < delta))


@pytest.mark.parametrize("beta", [1.0, 1.5, 1.9])
def test_interval_rule_integrates_the_singular_weight(beta):
    # uncut fractional kernel, w = C s^-beta on (0, delta]: Gauss-Jacobi
    # integrates s^m w, m >= 1, exactly: C delta^(m + 1 - beta)/(m + 1 - beta)
    k = normalize("fractional", 1, beta=beta, horizon=0.4)
    c = float(eval_kernel(k, 0.1)) * 0.1**beta
    s, w = quad._interval_rule(k, 1)
    for m in (1, 2, 3):
        exact = c * k.horizon ** (m + 1.0 - beta) / (m + 1.0 - beta)
        assert float(np.sum(w * s**m)) == pytest.approx(exact, rel=1e-13)


def test_rule_weights_positive_nodes_interior():
    # radii in (0, delta], unit directions strictly inside the half-space
    for family, kwargs in [("constant", {}), ("fractional", {"beta": 1.8}), ("sine", {})]:
        for n in (E1, np.array([0.48, -0.6, 0.64])):
            k = normalize(family, len(n), horizon=0.4, **kwargs)
            r, dirs, w = quad.halfball_points(k, n)
            assert np.all(w > 0.0)
            assert np.all((r > 0.0) & (r <= 0.4))
            assert np.all(dirs @ n > 0.0)
            np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0, atol=1e-15)


def test_cartesian_midpoint_agrees_with_polar():
    # independent check of the polar product rule on ten lattice modes;
    # the sine profile vanishes at the rim, which the indicator grid needs
    k = normalize("sine", 2, horizon=0.35)
    n = np.array([np.cos(0.6), np.sin(0.6)])
    modes = [(1, 0), (0, 1), (2, 1), (3, -2), (4, 4), (5, 0), (-3, 4), (6, 1),
             (2, -5), (7, -3)]
    for xi in modes:
        xi_arr = np.asarray(xi, dtype=float)

        def f(r, dirs):
            s = r[:, None] * dirs
            return dirs * (np.cos(s @ xi_arr) - 1.0)[:, None]

        polar = quad.integrate_halfball(k, n, f, tol=1e-12)
        cart = oracles.halfdisk_cartesian(k, n, f, cells=1024)
        scale = np.max(np.abs(polar))
        assert np.max(np.abs(polar - cart)) <= 1e-6 * scale


def test_rotation_equivariance_3d(rng):
    from scipy.spatial.transform import Rotation

    k = normalize("constant", 3, horizon=0.4)
    xi = np.array([2.0, -1.0, 1.0])

    def f(r, dirs):
        s = r[:, None] * dirs
        return np.cos(s @ xi) * dirs[:, 2] ** 2

    n = np.array([0.0, 0.0, 1.0])
    base = quad.integrate_halfball(k, n, f)
    for seed in range(2):
        R = Rotation.random(random_state=seed).as_matrix()

        def f_rot(r, dirs):
            back = dirs @ R   # R^T row-wise
            s = r[:, None] * back
            return np.cos(s @ xi) * back[:, 2] ** 2

        val = quad.integrate_halfball(k, R @ n, f_rot)
        assert val == pytest.approx(base, rel=1e-9)


def test_settle_returns_finer_level():
    seen = []

    def evaluate(level):
        seen.append(level)
        return np.array([1.0, 2.0]) + 10.0 ** -level

    val = quad.settle(evaluate, range(1, 10), 1e-6, "probe")
    assert seen == [1, 2, 3, 4, 5, 6, 7]
    np.testing.assert_array_equal(val, np.array([1.0, 2.0]) + 1e-7)


def test_settle_tuple_parts_share_one_scale():
    # the small part alone changes by 1e-3 relative to itself, but the scale
    # is the largest magnitude over both parts
    levels = {0: (np.array([100.0]), np.array([1.0])),
              1: (np.array([100.0]), np.array([1.001]))}
    big, small = quad.settle(levels.__getitem__, [0, 1], 1.1e-5, "probe")
    assert small[0] == 1.001
    with pytest.raises(QuadratureConvergenceError):
        quad.settle(levels.__getitem__, [0, 1], 0.9e-5, "probe")
    with pytest.raises(QuadratureConvergenceError):
        quad.settle(lambda lv: levels[lv][1], [0, 1], 1.1e-5, "probe")


def test_settle_error_names_last_error_and_level():
    with pytest.raises(QuadratureConvergenceError) as info:
        quad.settle(lambda lv: float(lv[0]), [(1, 24), (2, 24), (4, 24)], 1e-12,
                    "toy ladder")
    msg = str(info.value)
    assert "toy ladder" in msg
    assert "last error 2.0" in msg
    assert "level (4, 24)" in msg


def _gl_panels_loop(edges, n):
    """Per-panel reference for gl_panels."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("edges,n", [
    ([0.0, 1.0], 24),
    ([0.0, 1e-7, 2e-7, 0.3, 0.3, 0.7, 1.0], 32),   # an empty panel
    ([0.0, 0.5, 0.25, 1.0], 5),                     # a reversed panel
    (list(np.geomspace(1e-6, 0.5, 20)), 48),
])
def test_gl_panels_matches_panel_loop(edges, n):
    nodes, weights = quad.gl_panels(edges, n)
    ref_nodes, ref_weights = _gl_panels_loop(edges, n)
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(weights, ref_weights)


def test_legendre_is_cached_and_read_only():
    x, w = quad.legendre(12)
    assert quad.legendre(12)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0


@pytest.mark.parametrize("n,gamma", [(24, 0.0), (48, -0.5), (96, 1.0 - 1.99), (72, 0.7),
                                     (85, 1.0 - 1.9867)])
def test_jacobi_matches_scipy_cached_and_read_only(n, gamma):
    """The rule's low moments are exact to the backward error of one eigensolve.

    For the exact rule sum_i w_i f(x_i) = mu0 e1' f(J) e1, J the Jacobi
    matrix.  eigh returns x^ and V^ = Q + dQ with Q orthogonal, Q diag(x^)
    Q' = J + E, and |dQ|, |E| within about n eps |J| (backward stability,
    |J| < 1 as its eigenvalues lie in (-1, 1)).  So sum w^ (1 + x^)^k moves
    from the moment m_k by at most mu0 ((2 + n eps)^k - 2^k) through E and
    mu0 2 n eps 2^k through dQ, and the sum itself rounds by (n + k) eps m_k:
    about n eps (mu0 2^k (k/2 + 2) + 2 m_k) in all.  roots_jacobi misses
    this by 1e-10 to 1e-9 relative at gamma = 1 - 1.99 and 1 - 1.9867, so
    the rules are compared only where gamma is away from -1: nodes within
    2 n eps (Weyl's bound on each side), weights within n^3 eps relative (a
    node off by n eps moves the Christoffel function, whose logarithmic
    derivative is about n^2 near the ends, by n^3 eps).
    """
    x, w = quad.jacobi(n, gamma)
    eps = np.finfo(float).eps
    mu0 = 2.0 ** (gamma + 1.0) / (gamma + 1.0)
    for k in (0, 1, 2, 4):
        exact = 2.0 ** (gamma + k + 1.0) / (gamma + k + 1.0)
        bound = n * eps * (mu0 * 2.0**k * (k / 2 + 2) + 2.0 * exact)
        assert abs(float(np.sum(w * (1.0 + x) ** k)) - exact) <= bound, k
    if gamma >= -0.5:
        from scipy.special import roots_jacobi

        ref_x, ref_w = roots_jacobi(n, 0.0, gamma)
        np.testing.assert_allclose(x, ref_x, rtol=0, atol=2 * n * eps)
        np.testing.assert_allclose(w, ref_w, rtol=n**3 * eps, atol=0)
    again = quad.jacobi(n, gamma)
    assert again[0] is x and again[1] is w
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
