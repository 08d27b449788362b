from dataclasses import fields, replace
import math

import numpy as np
import pytest

from nlspectral import KernelError, epsilon_cutoff, eval_kernel, normalize
from nlspectral import kernels
from nlspectral.kernels import MOMENT_RTOL, SPHERE_AREA, from_config, moment
from nlspectral.onedim import DEFAULT_EPS_SEQUENCE


def test_constant_2d_normalization():
    k = normalize("constant", 2)
    assert k.normalization == pytest.approx(3.0 / math.pi, rel=1e-15)


def test_constant_1d_normalization():
    assert normalize("constant", 1).normalization == pytest.approx(1.0, rel=1e-15)


def test_constant_3d_normalization():
    assert normalize("constant", 3).normalization == pytest.approx(3.0 / math.pi, rel=1e-15)


@pytest.mark.parametrize("beta", [1.0, 1.25, 1.5, 1.9])
def test_fractional_2d_normalization(beta):
    k = normalize("fractional", 2, beta=beta)
    assert k.normalization == pytest.approx((3.0 - beta) / math.pi, rel=1e-15)


def test_fractional_beta_one_direct_integral():
    # direct integral at beta = 1: 2 pi C int r dr = pi C = 2 => C = 2/pi
    k = normalize("fractional", 2, beta=1.0)
    assert k.normalization == pytest.approx(2.0 / math.pi, rel=1e-15)


@pytest.mark.parametrize("family,dim,kwargs", [
    ("constant", 1, {}), ("constant", 2, {}), ("constant", 3, {}),
    ("fractional", 1, {"beta": 1.5}), ("fractional", 2, {"beta": 1.9}),
    ("fractional", 3, {"beta": 1.0}),
    ("sine", 1, {}), ("sine", 2, {}), ("sine", 3, {}),
])
def test_moment_condition_by_quadrature(family, dim, kwargs):
    k = normalize(family, dim, **kwargs)
    assert moment(k) == pytest.approx(dim, rel=1e-10)


@pytest.mark.parametrize("args, kwargs", [
    (("constant", 2), {"horizon": 0.1}),
    (("fractional", 3), {"beta": 1.5, "horizon": 0.2}),
], ids=["2d", "3d"])
def test_equal_arguments_give_equal_hashable_kernels(args, kwargs):
    a, b = normalize(*args, **kwargs), normalize(*args, **kwargs)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_kernels_that_differ_in_one_field_compare_unequal():
    # every field of KernelSpec in turn: a float one ulp larger, or another value
    frac = epsilon_cutoff(normalize("fractional", 2, beta=1.5, horizon=0.1), 0.01)
    changed = {"family": "constant", "dimension": 3}
    for field in fields(kernels.KernelSpec):
        value = changed.get(field.name) or float(np.nextafter(getattr(frac, field.name), np.inf))
        assert replace(frac, **{field.name: value}) != frac, field.name


@pytest.mark.parametrize("delta", [1.0, 0.1, 0.01])
def test_scaling_consistency(delta):
    # int_{|x|<=delta} w_delta(|x|)|x| dx = d independent of delta
    from nlspectral.quadrature import scaled_radial_rule
    from nlspectral.kernels import SPHERE_AREA

    for family, kwargs in [("constant", {}), ("fractional", {"beta": 1.5})]:
        k = normalize(family, 2, horizon=delta, **kwargs)
        r, v = scaled_radial_rule(k, panels=2, n_nodes=32)
        val = SPHERE_AREA[2] * float(np.sum(v * r))
        assert val == pytest.approx(2.0, rel=1e-8)


def test_rejects_bad_beta():
    with pytest.raises(KernelError):
        normalize("fractional", 2, beta=0.9)
    with pytest.raises(KernelError):
        normalize("fractional", 2, beta=2.0)


@pytest.mark.parametrize("horizon", [0.0, -0.1, float("nan"), float("inf")])
def test_rejects_a_horizon_that_is_not_positive_and_finite(horizon):
    with pytest.raises(KernelError):
        normalize("constant", 2, horizon=horizon)


def test_eval_constant_scaling():
    k = normalize("constant", 2, horizon=1.0)
    assert eval_kernel(k, 0.5) == pytest.approx(3.0 / math.pi, rel=1e-15)


def test_eval_outside_support_is_zero():
    for family, kwargs in [("constant", {}), ("sine", {}), ("fractional", {"beta": 1.2})]:
        k = normalize(family, 2, horizon=0.3, **kwargs)
        assert eval_kernel(k, 0.6) == 0.0


def test_eval_fractional_closed_form():
    # w_delta(r) = delta^-3 C_beta (r/delta)^-beta
    k = normalize("fractional", 2, beta=1.5, horizon=0.5)
    expected = 0.5 ** (-3) * (1.5 / math.pi) * (0.25 / 0.5) ** (-1.5)
    assert eval_kernel(k, 0.25) == pytest.approx(expected, rel=1e-14)


def test_eval_fractional_unbounded_at_origin():
    k = normalize("fractional", 2, beta=1.5)
    assert np.isinf(eval_kernel(k, 0.0))


def test_cutoff_constant_is_identity():
    k = normalize("constant", 1)
    kc = epsilon_cutoff(k, 0.1)
    r = np.linspace(0.0, 1.2, 50)
    np.testing.assert_allclose(eval_kernel(kc, r), eval_kernel(k, r), rtol=0, atol=0)


def test_cutoff_fractional_plateau():
    k = normalize("fractional", 1, beta=1.0, horizon=1.0)
    kc = epsilon_cutoff(k, 0.1)
    plateau = eval_kernel(k, 0.1)
    np.testing.assert_allclose(eval_kernel(kc, np.array([0.0, 0.05, 0.1])), plateau,
                               rtol=1e-14)
    assert eval_kernel(kc, 0.2) == pytest.approx(eval_kernel(k, 0.2), rel=1e-14)


def test_cutoff_sine_plateau_is_zero():
    k = normalize("sine", 1)
    kc = epsilon_cutoff(k, 0.1)
    assert float(eval_kernel(kc, 0.05)) == 0.0


def test_cutoff_rejects_large_eps():
    k = normalize("constant", 1, horizon=0.5)
    with pytest.raises(KernelError):
        epsilon_cutoff(k, 0.5)


def test_cutoff_below_original_and_nonincreasing():
    k = normalize("fractional", 1, beta=1.3, horizon=1.0)
    kc = epsilon_cutoff(k, 0.05)
    r = np.linspace(1e-4, 0.999, 400)
    wc = eval_kernel(kc, r)
    assert np.all(wc <= eval_kernel(k, r) + 1e-15)
    assert np.all(np.diff(wc) <= 1e-12)


def test_from_config_roundtrip():
    k = from_config({"family": "fractional", "beta": 1.5, "dimension": 2, "delta": 0.2})
    assert k.horizon == 0.2 and k.beta == 1.5


def test_from_config_rejects_garbage():
    with pytest.raises(KernelError):
        from_config({"family": "constant"})


def test_cutoff_makes_fractional_integrable():
    k = normalize("fractional", 1, beta=1.5)
    assert not k.is_integrable
    assert epsilon_cutoff(k, 0.01).is_integrable


def _fractional_profile_gather(kernel, rho):
    """The fractional profile with the inside values gathered and scattered back."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = rho <= 1.0
    with np.errstate(divide="ignore"):
        out[inside] = np.power(rho[inside], -kernel.beta)
    out *= kernel.normalization
    if kernel.cutoff_rho > 0.0:
        out = np.where(rho <= kernel.cutoff_rho, kernel.cutoff_value, out)
        out[rho > 1.0] = 0.0
    return out


@pytest.mark.parametrize("beta", [1.0, 1.4, 1.9])
@pytest.mark.parametrize("cutoff", [None, 1e-3, 0.25])
def test_fractional_profile_matches_gather_form(beta, cutoff):
    k = normalize("fractional", 1, beta=beta, horizon=0.7)
    if cutoff is not None:
        k = epsilon_cutoff(k, cutoff * k.horizon)
    c = k.cutoff_rho or 1e-3
    rho = np.array([0.0, 1e-300, 1e-7, np.nextafter(c, 0.0), c, np.nextafter(c, 1.0),
                    0.3, 0.999, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                    1.5, 1e300])
    with np.errstate(over="ignore"):        # 1e-300 ** -beta overflows to inf
        for r in (rho, rho.reshape(13, 1), rho[4]):
            np.testing.assert_array_equal(k.profile(r), _fractional_profile_gather(k, r))


def _profile_parent(kernel, rho):
    """KernelSpec.profile with the zero store beyond rho = 1 after the clamp."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = rho <= 1.0
    if kernel.family == "constant":
        out[inside] = 1.0
    elif kernel.family == "sine":
        out[inside] = (math.pi / 2.0) * np.sin(math.pi * rho[inside])
    else:
        with np.errstate(divide="ignore"):
            out = np.where(inside, np.power(rho, -kernel.beta), 0.0)
    out *= kernel.normalization
    if kernel.cutoff_rho > 0.0:
        out = np.where(rho <= kernel.cutoff_rho, kernel.cutoff_value, out)
        out[rho > 1.0] = 0.0
    return out


@pytest.mark.parametrize("eps", DEFAULT_EPS_SEQUENCE)
@pytest.mark.parametrize("family, beta", [("constant", None), ("sine", None),
                                          ("fractional", 1.0), ("fractional", 1.4),
                                          ("fractional", 1.9)])
def test_clamped_profile_matches_masked_store(family, beta, eps):
    k = epsilon_cutoff(normalize(family, 1, beta=beta, horizon=1.0), eps)
    c = k.cutoff_rho
    rho = np.array([0.0, np.nextafter(c, 0.0), c, np.nextafter(c, 1.0), 0.3, 0.999,
                    np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.5, 1e300])
    np.testing.assert_array_equal(k.profile(rho), _profile_parent(k, rho))


# beta over [1, 2), up to the last double below 2
_BETAS = list(np.linspace(1.0, 2.0, 21)[:-1]) + [1.99, np.nextafter(2.0, 0.0)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_singular_moment_closed_form_matches_gauss_jacobi_sum(d):
    """The closed form against the 48-node Gauss-Jacobi sum it replaced.

    scipy scales the Jacobi weights to their exact total 2^(gamma+1)/(gamma+1),
    so the sum differs from the closed form only by the rounding of 48
    products and their sum: at most 4 ulp over this grid, against 8 allowed.
    The closed form itself stays within 2 ulp of d.
    """
    from scipy.special import roots_jacobi

    for beta in _BETAS:
        k = normalize("fractional", d, beta=beta)
        gamma = d - k.beta
        _, w = roots_jacobi(48, 0.0, gamma)
        summed = SPHERE_AREA[d] * (k.normalization * np.sum(w * 0.5 ** (gamma + 1)))
        got = moment(k)
        assert abs(got - summed) <= 8 * np.spacing(summed), (d, beta)
        assert abs(got - d) <= 2 * np.spacing(float(d)), (d, beta)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family, beta", [("constant", None), ("sine", None),
                                          ("fractional", 1.0), ("fractional", 1.5),
                                          ("fractional", 1.99)])
def test_moment_rejects_a_normalization_off_by_1e_8(d, family, beta):
    k = normalize(family, d, beta=beta)
    off = replace(k, normalization=k.normalization * (1.0 + 1e-8))
    assert math.isclose(moment(k), d, rel_tol=MOMENT_RTOL)
    assert not math.isclose(moment(off), d, rel_tol=MOMENT_RTOL)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("beta", [1.0, 1.5, 1.99])
def test_normalize_rejects_a_wrong_fractional_constant(d, beta, monkeypatch):
    exact = kernels._moment_constant
    monkeypatch.setattr(kernels, "_moment_constant",
                        lambda *args: exact(*args) * (1.0 + 1e-8))
    with pytest.raises(KernelError, match="moment condition"):
        normalize("fractional", d, beta=beta)


def _eval_kernel_two_pass(kernel, r):
    """eval_kernel with the division by delta^(d+1) into a fresh array."""
    delta = kernel.horizon
    r = np.asarray(r, dtype=float)
    return kernel.profile(r / delta) / delta ** (kernel.dimension + 1)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("clamped", [False, True])
@pytest.mark.parametrize("family, kwargs", [
    ("constant", {}), ("sine", {}), ("fractional", {"beta": 1.0}),
    ("fractional", {"beta": 1.4}),
])
def test_eval_kernel_matches_two_pass_form(d, clamped, family, kwargs):
    k = normalize(family, d, horizon=0.3, **kwargs)
    if clamped:
        k = epsilon_cutoff(k, 0.01)
    r = np.array([0.0, 1e-9, 0.005, 0.01, 0.02, 0.1, 0.29, 0.3, np.nextafter(0.3, 1.0), 0.5])
    with np.errstate(divide="ignore"):
        for x in (r, r.reshape(2, 5), r[3], np.asarray(r[5]), 0.1):
            got, want = eval_kernel(k, x), _eval_kernel_two_pass(k, x)
            assert type(got) is type(want)
            assert np.array_equal(got, want)
