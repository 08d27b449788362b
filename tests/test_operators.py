import numpy as np
import pytest

from nlspectral import fields as fl
from nlspectral import normalize
from nlspectral import operators as ops
from nlspectral import quadrature as quad
from nlspectral import symbols as sym
from nlspectral.onedim import rho_from_kernel
from nlspectral.symbols import Orientation, SymbolTable, build_table, local_table

import oracles


def neg_table(tab):
    """Table of the reflected orientation, built from the reflection relation."""
    return SymbolTable(tab.kernel, Orientation(-tab.orientation.vec), tab.bound,
                       tab.lam_neg(), tab.radial, tab.tol)


def test_gradient_of_zero_is_zero(table2):
    z = fl.SpectralField.zeros(2, 8)
    assert fl.l2_norm(ops.gradient(table2, z)) == 0.0


def test_gradient_local_limit_first_order():
    # gradient of sin(x1) tends to cos(x1) e1 in L2 at rate O(delta)
    n = Orientation.from_angle(0.4)
    errs = []
    deltas = [4e-3, 2e-3, 1e-3]
    for delta in deltas:
        k = normalize("constant", 2, horizon=delta)
        tab = build_table(k, n, 2)
        s = fl.SpectralField.zeros(2, 2)
        s.set_mode((1, 0), -0.5j)
        g = ops.gradient(tab, s)
        g_loc = ops.gradient(local_table(2, 2), s)
        errs.append(fl.l2_norm(g - g_loc))
    for delta, err in zip(deltas, errs):
        assert err <= 3.0 * delta
    assert errs[-1] < errs[0]


def test_gradient_oracle_agreement(const2, table2):
    # direct half-disk quadrature of the defining integral on a 64^2 grid
    pts = fl.grid_points(64, 2).reshape(2, -1).T
    for xi in ((1, 0), (1, 2)):
        xi_arr = np.asarray(xi, dtype=float)
        direct = ops.gradient_oracle(const2, table2.orientation.vec,
                                     lambda X: np.sin(X @ xi_arr), pts)
        s = fl.SpectralField.zeros(2, 8)
        s.set_mode(xi, -0.5j)
        spec = fl.evaluate(ops.gradient(table2, s), 64).reshape(-1, 2)
        gap = np.linalg.norm(direct - spec) / np.linalg.norm(direct)
        assert gap <= 1e-4


def test_affine_consistency_identity(const2):
    out = oracles.affine_gradient_oracle(const2, np.array([1.0, 0.0]), np.eye(2))
    np.testing.assert_allclose(out, np.eye(2), atol=1e-10)


def test_affine_consistency_general(const3, rng):
    A = rng.standard_normal((3, 3))
    n = np.array([0.0, 1.0, 0.0])
    out = oracles.affine_gradient_oracle(const3, n, A)
    np.testing.assert_allclose(out, A.T, atol=1e-9)


def test_adjoint_identity(table2):
    for seed in range(5):
        v = fl.random_field(100 + seed, 8, 1.0)
        u = fl.random_field(200 + seed, 8, 1.0, components=2)
        lhs = complex(np.sum(ops.gradient(table2, v).coeffs * np.conj(u.coeffs)))
        rhs = -complex(np.sum(v.coeffs * np.conj(ops.divergence(table2, u).coeffs)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_diffusion_is_div_grad(table2):
    u = fl.random_field(31, 8, 1.0)
    a = ops.diffusion(table2, u)
    b = ops.divergence(table2, ops.gradient(table2, u))
    scale = np.max(np.abs(a.coeffs))
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-14 * scale


def test_diffusion_coercive(table2):
    u = fl.random_field(32, 8, 1.0)
    quad_form = -complex(np.sum(ops.diffusion(table2, u).coeffs * np.conj(u.coeffs))).real
    floor = sym.verify_bounds(table2)["min_abs"]
    assert quad_form >= floor**2 * fl.l2_norm(u) ** 2 * (1 - 1e-12)


def test_diffusion_orientation_reflection_invariant(table2):
    u = fl.random_field(33, 8, 1.0)
    a = ops.diffusion(table2, u)
    b = ops.diffusion(neg_table(table2), u)
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-14)


def test_null_space_only_constants(table2):
    mags = table2.abs2
    center = (table2.bound,) * 2
    assert mags[center] == 0.0
    mags_flat = mags.copy()
    mags_flat[center] = np.inf
    assert float(np.min(mags_flat)) > 0.0


def test_curl_of_gradient_vanishes(table3):
    p = fl.random_field(41, 6, 1.0, dimension=3)
    cg = ops.curl3d(table3, ops.gradient(table3, p))
    assert np.max(np.abs(cg.coeffs)) <= 1e-12


def test_vector_identity(table3):
    f = fl.random_field(42, 6, 1.0, dimension=3, components=3)
    lhs = ops.curl3d(table3, ops.curl3d(table3, f), sign=-1)
    rhs = ops.gradient(table3, ops.divergence(table3, f)) - ops.diffusion(table3, f)
    scale = np.max(np.abs(rhs.coeffs))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12 * scale


def test_curl_of_zero(table3):
    z = fl.SpectralField.zeros(3, 6, (3,))
    assert np.max(np.abs(ops.curl3d(table3, z).coeffs)) == 0.0


def test_strain_symmetric(table2):
    u = fl.random_field(43, 8, 1.0, components=2)
    e = ops.strain(table2, u)
    np.testing.assert_array_equal(e.coeffs, np.swapaxes(e.coeffs, -1, -2))


def test_strain_trace_identity(table2):
    # Tr(e^{-n}(u)) = D^n u per mode
    u = fl.random_field(44, 8, 1.0, components=2)
    e_neg = ops.strain(neg_table(table2), u)
    trace = np.trace(e_neg.coeffs, axis1=-2, axis2=-1)
    div = ops.divergence(table2, u)
    np.testing.assert_allclose(trace, div.coeffs, atol=1e-13)


def test_strain_on_doubly_orthogonal_mode(table3):
    # uhat orthogonal to both lambda and conj(lambda): the strain matrix has
    # zero trace and Frobenius mass |lambda|^2 |uhat|^2 / 2
    xi = (2, 1, -1)
    lam = table3.lam_at(xi)
    constraints = np.stack([lam, np.conj(lam)])
    v = np.linalg.svd(constraints)[2][-1].conj()
    assert abs(lam @ v) < 1e-12 and abs(np.conj(lam) @ v) < 1e-12
    e = 0.5 * (np.outer(lam, v) + np.outer(v, lam))
    assert abs(np.trace(e)) <= 1e-12
    frob2 = float(np.sum(np.abs(e) ** 2))
    expected = 0.5 * float(np.linalg.norm(lam) ** 2 * np.linalg.norm(v) ** 2)
    assert frob2 == pytest.approx(expected, rel=1e-12)


def test_averaging_symbol_unit_at_zero():
    eta = ops.AveragingWindow(0.05)
    assert ops.averaging_symbol(eta, np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-15)


def test_averaging_rejects_bad_mass():
    class Bad:
        epsilon = 0.05

        def profile(self, z):
            return np.full_like(np.asarray(z, dtype=float), 1.0)

    with pytest.raises(ValueError):
        ops.averaging_symbol(Bad(), np.array([1.0]))


def test_truncation_mismatch_rejected(table2):
    u = fl.random_field(47, 4, 1.0)
    with pytest.raises(ValueError):
        ops.gradient(table2, u)


def test_divergence_arity(table2):
    with pytest.raises(ValueError):
        ops.divergence(table2, fl.random_field(48, 8, 1.0))


def test_divergence_oracle_agreement(const2, table2):
    amps = np.array([0.8, -0.5])
    xi_arr = np.array([1.0, 2.0])
    pts = fl.grid_points(64, 2).reshape(2, -1).T
    direct = ops.divergence_oracle(const2, table2.orientation.vec,
                                   lambda X: np.sin(X @ xi_arr)[..., None] * amps,
                                   pts)
    v = fl.SpectralField.zeros(2, 8, (2,))
    v.set_mode((1, 2), -0.5j * amps)
    spec = fl.evaluate(ops.divergence(table2, v), 64).reshape(-1)
    assert np.linalg.norm(direct - spec) / np.linalg.norm(direct) <= 1e-4


def _oracle_unblocked(kernel, n, u_callable, pts, sign, rule):
    """Both oracles with every (point, offset) pair held at once (reference).

    Returns the einsum contraction and the sums of |2 w du dirs| that bound
    its rounding, per point and output component.
    """
    r, dirs, w = quad.halfball_points(kernel, n, 1, *rule)
    du = sign * (u_callable(pts[:, None, :] + sign * r[:, None] * dirs)
                 - u_callable(pts)[:, None])
    if du.ndim == 2:
        return (2.0 * np.einsum("k,pk,kc->pc", w, du, dirs),
                2.0 * np.einsum("k,pk,kc->pc", np.abs(w), np.abs(du), np.abs(dirs)))
    return (2.0 * np.einsum("k,pkc,kc->p", w, du, dirs),
            2.0 * np.einsum("k,pkc,kc->p", np.abs(w), np.abs(du), np.abs(dirs)))


@pytest.mark.parametrize("oracle", ["gradient", "divergence"])
@pytest.mark.parametrize("dimension", [2, 3])
def test_oracle_blocks_match_unblocked(monkeypatch, oracle, dimension, rng):
    # 37 points in blocks of 1, 5 and 8 (neither divides 37) and in one
    # block.  The differences u(x +- s) - u(x) carry the same bits in every
    # block (u is entry-wise), so only the contraction's rounding differs:
    # a sum of m = K (gradient) or K d (divergence) products 2 w du dirs
    # with at most two roundings each is off by at most (m + 2) e sum |.|
    # on each side, e = 2^-53.
    kernel = normalize("constant", dimension, horizon=0.3)
    n = rng.standard_normal(dimension)
    n /= np.linalg.norm(n)
    rule = (32, 48) if dimension == 2 else (32, (24, 48))  # the oracles' fixed rule
    pts = rng.uniform(-np.pi, np.pi, (37, dimension))
    coef = np.arange(1.0, dimension + 1.0)
    if oracle == "gradient":
        u, call, sign = (lambda X: np.sin(X[..., 0] + X[..., -1] * 2.0)), ops.gradient_oracle, 1.0
    else:
        u, call, sign = (lambda X: np.cos(X * coef)), ops.divergence_oracle, -1.0
    ref, mag = _oracle_unblocked(kernel, n, u, pts, sign, rule)
    size = quad.halfball_points(kernel, n, 1, *rule)[1].size
    m = size if oracle == "divergence" else size // dimension
    for block in [1, size * 5 + 7, size * 8, 10**9]:
        monkeypatch.setattr(quad, "_BLOCK", block)
        got = call(kernel, n, u, pts)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 2.0 * (m + 2) * 2.0**-53 * mag)


@pytest.mark.parametrize("kernel", [
    normalize("constant", 3, horizon=0.3), normalize("fractional", 3, beta=1.5, horizon=0.3),
    normalize("sine", 3, horizon=0.7)], ids=["constant", "fractional", "sine"])
def test_oracles_3d_reproduce_affine_fields(kernel, rng):
    # the oracles at their own 3D rule: the normalization makes the nonlocal
    # gradient of u(x) = a.x + c equal a, and the divergence of A x + b
    # equal trace A, up to rounding
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    A, b = rng.standard_normal((3, 3)), rng.standard_normal(3)
    pts = rng.uniform(-np.pi, np.pi, (5, 3))
    grad = ops.gradient_oracle(kernel, n, lambda X: X @ A[0] + 0.5, pts)
    div = ops.divergence_oracle(kernel, n, lambda X: X @ A.T + b, pts)
    np.testing.assert_allclose(grad, np.tile(A[0], (5, 1)), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(div, np.full(5, np.trace(A)), rtol=0.0, atol=1e-13)


def test_adjoint_identity_3d(table3):
    for seed in range(5):
        v = fl.random_field(300 + seed, 6, 1.0, dimension=3)
        u = fl.random_field(400 + seed, 6, 1.0, dimension=3, components=3)
        lhs = complex(np.sum(ops.gradient(table3, v).coeffs * np.conj(u.coeffs)))
        rhs = -complex(np.sum(v.coeffs * np.conj(ops.divergence(table3, u).coeffs)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def _double_symbol_unblocked(gamma, eta, xi):
    """double_symbol_direct with the whole (xi, y, r) tensor held at once."""
    x, w = quad.legendre(96)
    r = 0.5 * eta.epsilon * (x + 1.0)
    wr = 0.5 * eta.epsilon * w * eta.profile(r)
    y, wy = gamma.nodes, gamma.weights
    ky = np.multiply.outer(np.asarray(xi, dtype=float), y)
    kr = np.multiply.outer(np.asarray(xi, dtype=float), r)
    four = (
        np.cos(ky[..., :, None] + kr[..., None, :])
        + np.cos(ky[..., :, None] - kr[..., None, :])
        - 2.0
        - 2.0 * np.cos(kr)[..., None, :]
        + 2.0 * np.cos(ky)[..., :, None]
    )
    return 2.0 * np.einsum("...yr,y,r->...", four, wy, wr)


@pytest.mark.parametrize("chunk", [None, 1, 3 * 96 * 1000])
@pytest.mark.parametrize("shape", [(20,), (4, 5)])
def test_double_symbol_blocks_match_unblocked(monkeypatch, chunk, shape):
    gamma = rho_from_kernel(normalize("constant", 1, horizon=0.2), mesh_size=128)
    eta = ops.AveragingWindow(0.05)
    xi = np.arange(1.0, 21.0).reshape(shape)
    if chunk is not None:
        monkeypatch.setattr(quad, "_BLOCK", chunk)
    got = ops.double_symbol_direct(gamma, eta, xi)
    assert got.shape == shape
    np.testing.assert_array_equal(got, _double_symbol_unblocked(gamma, eta, xi))
