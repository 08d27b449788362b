import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nlspectral import KernelError, epsilon_cutoff, eval_kernel, fields as fl, normalize
from nlspectral import onedim as od
from nlspectral import operators as ops
from nlspectral import quadrature as quad

import oracles


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
    val = float(od._rho_pointwise(ks, np.array([0.5]), od._kernel_mass(ks))[0])
    assert val == pytest.approx(3.0 * math.pi / 16.0, abs=1e-10)


def test_sine_rho_changes_sign():
    ks = normalize("sine", 1)
    val = float(od._rho_pointwise(ks, np.array([0.1]), od._kernel_mass(ks))[0])
    assert val == pytest.approx(-0.013839, abs=1e-5)
    assert val < 0.0


def test_nonnegative_for_nonincreasing(rho_constant):
    assert np.all(rho_constant.values >= 0.0)


@pytest.mark.parametrize("delta", [1.0, 0.3])
def test_constant_rho_pointwise_closed_form(delta):
    # w = 1/delta^2 on (0, delta]: mass 1/delta and rho(a) = 2 a^3/delta^4
    k = normalize("constant", 1, horizon=delta)
    wmass = od._kernel_mass(k)
    assert wmass == pytest.approx(1.0 / delta, rel=1e-14)
    a = np.concatenate([od.graded_mesh(delta, 64), [delta, 1.5 * delta]])
    expect = np.where(a <= delta, 2.0 * a**3 / delta**4, 0.0)
    # within rounding of the k-part 2 a^2/delta^3, which the h-part cancels
    kp = 2.0 * a * a / delta**3
    assert np.all(np.abs(od._rho_pointwise(k, a, wmass) - expect) <= 1e-14 * kp)


@pytest.mark.parametrize("family", ["constant", "sine"])
def test_h_part_mass_identity(family):
    # int h = 1 - (int s^2 w)(int w) over (-delta, delta), the h-part being
    # rho less its k-part 2 a^2 w(a) int w
    k = normalize(family, 1)
    s, w = quad._interval_rule(k, 8)
    s2w = 2.0 * float(np.sum(w * s * s))
    wmass = od._kernel_mass(k)
    a, wa = quad.gl_panels(od._endpoint_graded_edges(1.0), 32)
    hp = od._rho_pointwise(k, a, wmass) - 2.0 * a * a * eval_kernel(k, a) * wmass
    hmass = 2.0 * float(np.sum(wa * hp))
    assert hmass == pytest.approx(1.0 - s2w * 2.0 * wmass, abs=1e-8)


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


# ---------------------------------------------------------------------------
# block evaluation of rho against the per-point reference loop
# ---------------------------------------------------------------------------

def _cross_edges_loop(kernel, a, top):
    """Panel edges of w(b) w(a+b) on (0, top) for one abscissa (reference)."""
    delta = kernel.horizon
    breaks = [delta * r for r in kernel.breakpoints()]
    pts = {0.0, top}
    for e in breaks:
        if 0.0 < e < top:
            pts.add(e)
        if 0.0 < e - a < top:
            pts.add(e - a)
    if kernel.family == "fractional" and kernel.cutoff_rho > 0.0:
        eps = kernel.cutoff_rho * delta
        for anchor in (eps, eps - a):
            if anchor <= 0.0:
                anchor = min(eps, top) * 0.5
            for g in quad.geometric_edges(anchor, top):
                if 0.0 < g < top:
                    pts.add(g)
    return sorted(pts)


def _rho_pointwise_loop(kernel, a_values, wmass):
    """rho one abscissa at a time (reference).

    Settles the kernel mass afresh and requires the caller's to equal it.
    """
    delta = kernel.horizon
    assert wmass == od._kernel_mass(kernel)
    w_at = eval_kernel(kernel, a_values)
    rho = np.empty_like(a_values)
    for i, a in enumerate(a_values):
        top = delta - a
        rho[i] = 2.0 * a * a * w_at[i] * wmass
        if top > 0.0:
            b, wb = quad.gl_panels(_cross_edges_loop(kernel, a, top), od._NODES)
            cross = float(np.sum(wb * eval_kernel(kernel, b) * eval_kernel(kernel, a + b)))
            rho[i] += -2.0 * a * a * cross
    return rho


def _assert_values_close(got, ref):
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _assert_rho_close(got, ref):
    """Two RhoKernels agree: values, mass and bond rule."""
    _assert_values_close(got.values, ref.values)
    assert abs(got.l1_mass - ref.l1_mass) <= 1e-13 * abs(ref.l1_mass)
    assert np.max(np.abs(got.nodes - ref.nodes)) <= 1e-13 * ref.delta
    assert np.max(np.abs(got.weights - ref.weights)) <= 1e-13 * np.max(np.abs(ref.weights))


def _tabulated(horizon=0.8):
    # non-increasing with interior knots: breakpoint and shifted edges
    return normalize("tabulated", 1, horizon=horizon, values=[3.0, 2.5, 1.0, 0.6, 0.1],
                     mesh=[0.0, 0.15, 0.4, 0.65, 1.0])


@pytest.mark.parametrize("make", [
    lambda: normalize("constant", 1, horizon=0.6),
    lambda: normalize("sine", 1),
    _tabulated,
], ids=["constant", "sine", "tabulated"])
def test_block_rho_from_kernel_matches_loop(monkeypatch, make):
    kernel = make()
    got = od.rho_from_kernel(kernel, mesh_size=256)
    monkeypatch.setattr(od, "_rho_pointwise", _rho_pointwise_loop)
    _assert_rho_close(got, od.rho_from_kernel(kernel, mesh_size=256))


@pytest.mark.parametrize("beta", [1.0, 1.4, 1.9])
def test_block_rho_regularized_matches_loop(monkeypatch, beta):
    kernel = normalize("fractional", 1, beta=beta)

    got = od.rho_regularized(kernel, mesh_size=128)[0]
    monkeypatch.setattr(od, "_rho_pointwise", _rho_pointwise_loop)
    ref = od.rho_regularized(kernel, mesh_size=128)[0]
    assert [lv.epsilon for lv in got] == list(od.DEFAULT_EPS_SEQUENCE)
    for g, r in zip(got, ref):
        _assert_rho_close(g, r)


def _special_abscissae(delta, eps):
    """Points below the clamp radius, with top = delta - a below it, and beyond delta."""
    return np.array([0.0, eps / 3.0, eps * (1.0 - 1e-15), eps, eps * (1.0 + 1e-15),
                     2.0 * eps, delta / 3.0, delta - eps, delta - eps / 2.0,
                     delta - 1e-12 * delta, delta, 1.5 * delta])


@pytest.mark.parametrize("beta", [1.0, 1.4, 1.9])
@pytest.mark.parametrize("eps", od.DEFAULT_EPS_SEQUENCE)
def test_block_rho_special_abscissae(beta, eps):
    delta = 0.7
    clamped = epsilon_cutoff(normalize("fractional", 1, beta=beta, horizon=delta), eps)
    a = _special_abscissae(delta, eps)
    wmass = od._kernel_mass(clamped)
    got = od._rho_pointwise(clamped, a, wmass)
    _assert_values_close(got, _rho_pointwise_loop(clamped, a, wmass))
    # at and beyond the horizon rho is its k-part alone
    beyond = a >= delta
    np.testing.assert_array_equal(got[beyond],
                                  (2.0 * a * a * eval_kernel(clamped, a) * wmass)[beyond])
    np.testing.assert_array_equal(od._rho_pointwise(clamped, a[beyond], wmass), got[beyond])


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["constant", "sine", "tabulated", "fractional"]),
    beta=st.floats(1.0, 1.95),
    delta=st.floats(0.05, 2.0),
    eps_frac=st.floats(1e-7, 0.5),
    clamp=st.booleans(),
    size=st.integers(1, 48),
)
def test_block_rho_property(family, beta, delta, eps_frac, clamp, size):
    if family == "tabulated":
        kernel = _tabulated(delta)
    elif family == "fractional":
        kernel = normalize(family, 1, beta=beta, horizon=delta)
    else:
        kernel = normalize(family, 1, horizon=delta)
    eps = eps_frac * delta
    if clamp or family == "fractional":
        kernel = epsilon_cutoff(kernel, eps)
    a = np.concatenate([od.graded_mesh(delta, size), _special_abscissae(delta, eps)])
    wmass = od._kernel_mass(kernel)
    _assert_values_close(od._rho_pointwise(kernel, a, wmass),
                         _rho_pointwise_loop(kernel, a, wmass))


@pytest.mark.parametrize("chunk", [32, 100, 2000])
def test_block_rho_budget_split_changes_nothing(monkeypatch, chunk):
    kernel = epsilon_cutoff(normalize("fractional", 1, beta=1.4), 1e-4)
    a = od.graded_mesh(1.0, 200)
    wmass = od._kernel_mass(kernel)
    whole = od._rho_pointwise(kernel, a, wmass)
    monkeypatch.setattr(quad, "_BLOCK", chunk)
    np.testing.assert_array_equal(od._rho_pointwise(kernel, a, wmass), whole)


def _cross_rounding_floor(kernel, a, nodes):
    """Rounding floor of the h-part of _rho_pointwise at ``nodes`` per panel.

    The cross term sums n = panels * nodes terms t = wb w(b) w(a+b), with
    unit roundoff e = 2^-53.  numpy sums a row pairwise in 8-way unrolled
    blocks of 128, so the sum is off by at most (log2 n + 18) e sum |t|.
    The products wb w w, the half width, 2 a a and each kernel's r/delta,
    profile and 1/delta^2 add at most 12 e |t| more; 30 covers both with
    room.  A node b = mid + half x is off by at most 3 e hi (hi the panel's
    right end) and a + b by e (a + b) more, which moves each factor by that
    much times its slope; the slope comes from a backward difference, which
    never looks past the horizon.  Times the leading 2 a^2:

        floor = 2 a^2 e sum wb ((log2 n + 30) |w(b) w(a+b)|
                                + 3 hi |w'(b)| |w(a+b)| + |w(b)| (a + b + 3 hi) |w'(a+b)|).
    """
    delta = kernel.horizon
    floor = np.zeros_like(a)
    live = np.flatnonzero(delta - a > 0.0)
    edges, counts = od._edge_matrix(kernel, a[live], delta - a[live])
    x, w = quad.legendre(nodes)
    lo, hi = edges[:, :-1, None], edges[:, 1:, None]
    b = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
    wb = 0.5 * (hi - lo) * w
    ab = a[live, None, None] + b

    def slope(s):
        return np.abs(eval_kernel(kernel, s) - eval_kernel(kernel, s * (1.0 - 1e-7))) / (1e-7 * s)

    kb, kab = np.abs(eval_kernel(kernel, b)), np.abs(eval_kernel(kernel, ab))
    log_n = np.log2((counts - 1) * nodes)[:, None, None]
    terms = wb * ((log_n + 30.0) * kb * kab + 3.0 * hi * slope(b) * kab
                  + kb * (ab + 3.0 * hi) * slope(ab))
    floor[live] = 2.0 * a[live] ** 2 * 2.0**-53 * np.sum(terms, axis=(1, 2))
    return floor


@pytest.mark.parametrize("family, beta, eps",
                         [(f, None, 1e-3) for f in ("constant", "sine", "tabulated")]
                         + [("fractional", b, e) for b in (1.0, 1.4, 1.9)
                            for e in od.DEFAULT_EPS_SEQUENCE])
def test_rho_nodes_at_the_rounding_floor(monkeypatch, family, beta, eps):
    # rho at _NODES against a 96-node rule on the same panels: apart from
    # the two rules' rounding (the cross-term floors, and one rounding of
    # kp + hp on each side) they agree, the Gauss error being ~3e-25
    if family == "tabulated":
        kernel = _tabulated()
    elif family == "fractional":
        kernel = epsilon_cutoff(normalize(family, 1, beta=beta), eps)
    else:
        kernel = normalize(family, 1, horizon=0.6)
    a = np.concatenate([od.graded_mesh(kernel.horizon, 64),
                        _special_abscissae(kernel.horizon, eps)])
    wmass = od._kernel_mass(kernel)
    got = od._rho_pointwise(kernel, a, wmass)
    floor = _cross_rounding_floor(kernel, a, od._NODES)
    monkeypatch.setattr(od, "_NODES", 96)
    ref = od._rho_pointwise(kernel, a, wmass)
    kp = 2.0 * a * a * eval_kernel(kernel, a) * wmass  # the h-part is ref - kp
    floor += _cross_rounding_floor(kernel, a, 96) + 2.0**-52 * (np.abs(kp) + np.abs(ref - kp))
    assert np.all(np.abs(got - ref) <= floor)


def _bond_energy_unblocked(rho, u, grid=512):
    """bond_energy by direct mode summation at every (x, x + a) (per-point reference)."""
    if grid < 4 * u.bound + 2:
        grid = 4 * u.bound + 2
    x = -np.pi + 2.0 * np.pi * np.arange(grid) / grid
    a, wa = rho.nodes, rho.weights
    ux = oracles.evaluate_at(u, x[:, None])
    uxa = oracles.evaluate_at(u, (x[:, None] + a[None, :])[..., None])
    diff2 = np.abs(uxa - ux[:, None]) ** 2
    return 2.0 * float(np.sum(wa * np.mean(diff2, axis=0)))


def _bond_energy_floor(rho, u, grid=512):
    """Rounding floor of |bond_energy - _bond_energy_unblocked|.

    With unit roundoff e = 2^-53, S = sum |uhat_k|, N = u.bound and
    y = pi + delta >= |x| + |a|, a sample u(y) = sum_k uhat_k exp(iky) is off
    by at most S e (2 N y + 2N + 9) on either side: the phase k (x + a) or
    k x and k a (2 N y e), the complex exps, the products with uhat_k and
    the second phase factor (9 e in all, generously) and the sum over 2N + 1
    modes ((2N + 1) e).  A difference u(x + a) - u(x) of the two forms is
    then off by at most eta = 4 S e (2 N y + 2N + 9), and |d|^2 with
    |d| <= 2 S by at most (4 S + eta) eta.  Squaring, the x-mean over the
    grid and the sum over the n bond nodes each add their own rounding,
    at most 8 (grid + n + 4) e S^2 per node on the two sides together.
    Summed against the weights, times the leading 2:

        floor = 2 sum |w_a| ((4 S + eta) eta + 8 (grid + n + 4) e S^2).
    """
    e = 2.0**-53
    grid = max(grid, 4 * u.bound + 2)
    s = float(np.sum(np.abs(u.coeffs)))
    eta = 4.0 * s * e * (2.0 * u.bound * (np.pi + rho.delta) + 2.0 * u.bound + 9.0)
    per_node = (4.0 * s + eta) * eta + 8.0 * (grid + len(rho.nodes) + 4) * e * s * s
    return 2.0 * float(np.sum(np.abs(rho.weights))) * per_node


def _bond_field(bound, real):
    """A random 1D field; the complex one is scaled asymmetrically in k."""
    u = fl.random_field(7, bound, 1.0, dimension=1)
    if real:
        return u
    k = np.arange(-bound, bound + 1)
    return fl.SpectralField(bound, 1, u.coeffs * (2.0 + k / bound), real=False)


def _bond_nodes(rho, count):
    """rho with count of its bond nodes (all of them for None), spread over (0, delta)."""
    if count is None:
        return rho
    pick = np.linspace(0, len(rho.nodes) - 1, count).astype(int)
    return od.RhoKernel(rho.delta, rho.mesh, rho.values, rho.l1_mass,
                        rho.nodes[pick], rho.weights[pick])


def _assert_bond_energy(monkeypatch, rho, u, chunks):
    """Every block split gives the one-block value, within the floor of the reference."""
    monkeypatch.setattr(quad, "_BLOCK", 10**12)
    whole = od.bond_energy(rho, u)
    for chunk in chunks:
        monkeypatch.setattr(quad, "_BLOCK", chunk)
        assert od.bond_energy(rho, u) == whole
    assert abs(whole - _bond_energy_unblocked(rho, u)) <= _bond_energy_floor(rho, u)


@pytest.mark.parametrize("chunk", [None, 1, 512 * 9 * 5, 512 * 9 * 7 + 3])
@pytest.mark.parametrize("nodes", [None, 5, 6, 2 * 7 + 1])
def test_bond_energy_blocks_match_unblocked(monkeypatch, rho_constant, chunk, nodes):
    # a chunk of 1 makes blocks of 4 nodes, which leave one node over for
    # some node counts; the other two make blocks of 45 and 63 nodes
    u = _bond_field(4, True)
    _assert_bond_energy(monkeypatch, _bond_nodes(rho_constant, nodes), u,
                        [quad._BLOCK if chunk is None else chunk])


@pytest.mark.parametrize("field", ["complex", "wide"])
@pytest.mark.parametrize("nodes", [None, 5, 6, 2 * 7 + 1])
def test_bond_energy_complex_and_wide_fields(monkeypatch, rho_constant, field, nodes):
    # bound 130 makes the x grid 522 points wide; its reference runs on 31 nodes
    bound = 4 if field == "complex" else 130
    if bound > 4 and nodes is None:
        nodes = 31
    rows = 2 * max(512, 4 * bound + 2)   # Re u and Im u at each x
    # blocks of 4, 5 and 7 nodes, then the default chunk
    _assert_bond_energy(monkeypatch, _bond_nodes(rho_constant, nodes), _bond_field(bound, False),
                        [1, rows * 5, rows * 7 + 3, quad._BLOCK])


@settings(max_examples=20, deadline=None)
@given(bound=st.integers(1, 140), real=st.booleans(), nodes=st.integers(1, 40))
def test_bond_energy_property(rho_constant, bound, real, nodes):
    with pytest.MonkeyPatch.context() as mp:
        _assert_bond_energy(mp, _bond_nodes(rho_constant, nodes), _bond_field(bound, real),
                            [1, quad._BLOCK])


def test_rho_value_vanishes_beyond_the_support():
    rho = od.rho_from_kernel(normalize("constant", 1, horizon=0.6), mesh_size=64)
    np.testing.assert_array_equal(rho.value(np.array([0.9, 5.0, -0.61])), 0.0)
    inside = np.array([0.0, 0.1, -0.3, 0.6, rho.mesh[-1]])
    np.testing.assert_array_equal(rho.value(inside),
                                  np.interp(np.abs(inside), rho.mesh, rho.values))
    assert rho.value(0.3) == rho.value(-0.3) > 0.0


def test_kernel_mass_settled_once_per_level(monkeypatch):
    calls = []
    settle = od._kernel_mass
    monkeypatch.setattr(od, "_kernel_mass", lambda k: calls.append(k) or settle(k))
    od.rho_from_kernel(normalize("constant", 1), mesh_size=32)
    assert len(calls) == 1
    calls.clear()
    levels, _ = od.rho_regularized(normalize("fractional", 1, beta=1.4), mesh_size=32)
    assert [k.cutoff_rho for k in calls] == [lv.epsilon for lv in levels]
