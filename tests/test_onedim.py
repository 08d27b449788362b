import math

import numpy as np
import pytest

from nlspectral import KernelError, fields as fl, normalize
from nlspectral import onedim as od
from nlspectral import operators as ops


@pytest.fixture(scope="module")
def rho_constant():
    return od.rho_from_kernel(normalize("constant", 1), mesh_size=512)


@pytest.fixture(scope="module")
def rho_sine():
    return od.rho_from_kernel(normalize("sine", 1), mesh_size=512)


def test_constant_rho_closed_form(rho_constant):
    # unit horizon: rho(a) = 2 a^3
    np.testing.assert_allclose(rho_constant.values, 2.0 * rho_constant.mesh**3,
                               atol=1e-12)
    assert rho_constant.l1_mass == pytest.approx(1.0, abs=1e-10)


def test_sine_rho_matches_closed_form_on_mesh(rho_sine):
    closed = od.sine_rho_closed_form(rho_sine.mesh)
    assert np.max(np.abs(rho_sine.values - closed)) <= 1e-8
    assert rho_sine.l1_mass == pytest.approx(1.0, abs=1e-8)


def test_sine_rho_midpoint_value():
    ks = normalize("sine", 1)
    val = float(od._rho_pointwise(ks, np.array([0.5]))[0][0])
    assert val == pytest.approx(3.0 * math.pi / 16.0, abs=1e-10)


def test_sine_rho_changes_sign():
    ks = normalize("sine", 1)
    val = float(od._rho_pointwise(ks, np.array([0.1]))[0][0])
    assert val == pytest.approx(-0.013839, abs=1e-5)
    assert val < 0.0


def test_nonnegative_for_nonincreasing(rho_constant):
    assert np.all(rho_constant.values >= 0.0)


def test_split_parts_sum_to_rho(rho_sine):
    np.testing.assert_allclose(rho_sine.k_part + rho_sine.h_part, rho_sine.values,
                               atol=1e-14)


@pytest.mark.parametrize("family", ["constant", "sine"])
def test_h_part_mass_identity(family):
    # int h = 1 - (int s^2 w)(int w) over (-delta, delta)
    from nlspectral import quadrature as quad

    k = normalize(family, 1)
    s2w = 2.0 * quad.integrate_interval(k, 0.0, 1.0, lambda s: s * s, tol=1e-12)
    w1 = 2.0 * quad.integrate_interval(k, 0.0, 1.0, lambda s: np.ones_like(s), tol=1e-12)
    a, wa = quad.gl_panels(od._endpoint_graded_edges(1.0), 32)
    hmass = 2.0 * float(np.sum(wa * od._rho_pointwise(k, a)[2]))
    assert hmass == pytest.approx(1.0 - s2w * w1, abs=1e-8)


def test_rho_rejects_nonintegrable_kernel():
    kf = normalize("fractional", 1, beta=1.5)
    with pytest.raises(KernelError):
        od.rho_from_kernel(kf)


def test_regularized_rejects_increasing_profile():
    with pytest.raises(KernelError):
        od.rho_regularized(normalize("sine", 1))


def test_regularized_constant_equals_direct(rho_constant):
    levels, limit = od.rho_regularized(normalize("constant", 1),
                                       eps_sequence=(1e-2, 1e-3), mesh_size=512)
    np.testing.assert_allclose(limit.values, rho_constant.values, atol=1e-12)
    assert limit.l1_mass == pytest.approx(rho_constant.l1_mass, abs=1e-10)


def test_regularized_fractional_masses_monotone_to_one():
    kf = normalize("fractional", 1, beta=1.0)
    levels, limit = od.rho_regularized(kf, mesh_size=256)
    masses = [lv.l1_mass for lv in levels]
    assert all(b >= a for a, b in zip(masses[:-1], masses[1:]))
    assert all(m <= 1.0 + 1e-9 for m in masses)
    assert abs(limit.l1_mass - 1.0) <= 1e-6
    # clamp defect of the mass is the squared first moment: 1 - eps + eps^2/4
    for lv in levels[:3]:
        assert lv.l1_mass == pytest.approx((1.0 - lv.epsilon / 2.0) ** 2, rel=1e-6)


def test_regularized_fractional_pointwise_monotone_and_limit():
    kf = normalize("fractional", 1, beta=1.0)
    levels, limit = od.rho_regularized(kf, eps_sequence=(1e-3, 1e-4, 1e-5),
                                       mesh_size=256)
    exact = -(limit.mesh / 2.0) * np.log(limit.mesh * (1.0 - limit.mesh))
    inner = (limit.mesh > 1e-2) & (limit.mesh < 0.9)
    # clamped kernels approach the closed form from below
    assert np.max(limit.values[inner] - exact[inner]) <= 1e-9
    assert np.max(np.abs(limit.values[inner] - exact[inner])) <= 1e-4


def test_one_sided_symbol_constant_closed_form():
    k = normalize("constant", 1, horizon=0.5)
    xi = np.array([1.0, 3.0, 8.0])
    delta = 0.5
    re = 2.0 / delta**2 * (np.sin(xi * delta) / xi - delta)
    im = 2.0 / delta**2 * ((1.0 - np.cos(xi * delta)) / xi)
    lam = od.one_sided_symbol(k, xi)
    np.testing.assert_allclose(lam, re + 1j * im, rtol=1e-12)
    lam_minus = od.one_sided_symbol(k, xi, sign=-1)
    np.testing.assert_allclose(lam_minus, -np.conj(lam), rtol=1e-12)


def test_one_sided_energy_symmetric(table2=None):
    k = normalize("constant", 1)
    u = fl.random_field(55, 6, 1.0, dimension=1)
    assert od.one_sided_energy(k, u, 1) == pytest.approx(
        od.one_sided_energy(k, u, -1), rel=1e-13)


def test_energy_equivalence_constant_sine_mode(rho_constant):
    k = normalize("constant", 1)
    u = fl.SpectralField.zeros(1, 4)
    u.set_mode((1,), -0.5j)   # sin(x)
    out = od.energy_equivalence_check(k, u, rho=rho_constant)
    assert out["gap"] <= 1e-6


def test_energy_equivalence_zero_field(rho_constant):
    k = normalize("constant", 1)
    z = fl.SpectralField.zeros(1, 4)
    out = od.energy_equivalence_check(k, z, rho=rho_constant)
    assert out["e_plus"] == 0.0 and out["e_rho"] == 0.0


def test_bond_symbol_matches_one_sided_energy_density(rho_constant):
    # -2 int k(|a|)(cos(xi a)-1) da over (-d, d) equals |lambda^+(xi)|^2
    k = normalize("constant", 1)
    xi = np.array([1.0, 2.0, 5.0, 9.0])
    bond = ops.bond_symbol(rho_constant, xi)
    lam = od.one_sided_symbol(k, xi)
    assert np.max(np.abs(-bond - np.abs(lam) ** 2)) <= 1e-6


def test_fractional_bond_symbol_matches_after_regularization():
    kf = normalize("fractional", 1, beta=1.0)
    levels, limit = od.rho_regularized(kf, eps_sequence=(1e-4, 1e-5), mesh_size=256)
    xi = np.array([1.0, 3.0])
    bond = ops.bond_symbol(limit, xi)
    lam = od.one_sided_symbol(kf, xi)
    np.testing.assert_allclose(-bond, np.abs(lam) ** 2, rtol=2e-5)


def test_rho_csv_export(tmp_path, rho_constant):
    path = tmp_path / "rho.csv"
    rho_constant.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,rho"
    assert len(lines) == len(rho_constant.mesh) + 1
