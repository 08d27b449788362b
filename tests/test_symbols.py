import dataclasses
from itertools import product
import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from nlspectral import epsilon_cutoff, normalize
from nlspectral import quadrature as quad
from nlspectral import symbols as sym
from nlspectral.errors import QuadratureConvergenceError

import oracles

# mpmath references (30 digits) for the constant kernel, d=2, delta=0.1
LAMBDA_CONST_K1 = 0.99925022317812043164
LAMBDA_CONST_K5 = 4.9069447261532647035
RE_LAMBDA_34_ANGLE03 = (-0.51213875850697885, -0.5491363567549441)
LAMBDA_FRAC15_K5 = 4.933477915085754464


def test_lambda_radial_against_reference():
    k = normalize("constant", 2, horizon=0.1)
    assert sym.lambda_radial(k, 1.0) == pytest.approx(LAMBDA_CONST_K1, abs=1e-11)
    assert sym.lambda_radial(k, 5.0) == pytest.approx(LAMBDA_CONST_K5, abs=1e-10)
    kf = normalize("fractional", 2, beta=1.5, horizon=0.1)
    assert sym.lambda_radial(kf, 5.0) == pytest.approx(LAMBDA_FRAC15_K5, abs=1e-9)


def test_lambda_radial_zero_frequency():
    k = normalize("constant", 2, horizon=0.1)
    assert sym.lambda_radial(k, 0.0) == 0.0


def test_lambda_radial_within_small_k_band():
    # 1 - k^2/8 <= Lambda/|xi| <= 1 for k = delta |xi| < 1
    k = normalize("constant", 2, horizon=0.1)
    val = sym.lambda_radial(k, 1.0)
    assert 0.9 <= val <= 1.0


def test_re_lambda_reference_angle():
    k = normalize("constant", 2, horizon=0.1)
    tab = sym.build_table(k, sym.Orientation.from_angle(0.3), 4)
    lam = tab.lam_at((3, 4))
    assert lam[0].real == pytest.approx(RE_LAMBDA_34_ANGLE03[0], abs=2e-11)
    assert lam[1].real == pytest.approx(RE_LAMBDA_34_ANGLE03[1], abs=2e-11)
    assert lam[0].imag == pytest.approx(LAMBDA_CONST_K5 * 0.6, abs=2e-10)
    assert lam[1].imag == pytest.approx(LAMBDA_CONST_K5 * 0.8, abs=2e-10)


def test_small_delta_consistency_with_local_symbol():
    # |lambda - i xi| <= C delta at delta = 1e-3 (C ~ d for the moment-normalized
    # kernel; 3 leaves margin)
    delta = 1e-3
    k = normalize("constant", 2, horizon=delta)
    tab = sym.build_table(k, sym.Orientation.from_angle(0.4), 2)
    lam = tab.lam_at((1, 0))
    assert np.linalg.norm(lam - 1j * np.array([1.0, 0.0])) <= 3.0 * delta


def test_re_parallel_iff_orientation_parallel():
    k = normalize("constant", 2, horizon=0.1)
    tab_par = sym.build_table(k, sym.Orientation.from_vector([1.0, 0.0]), 4)
    lam = tab_par.lam_at((2, 0))
    assert abs(lam[1].real) <= 1e-12 * abs(lam[0].real)
    tab_skew = sym.build_table(k, sym.Orientation.from_angle(0.9), 4)
    lam_s = tab_skew.lam_at((2, 0))
    assert abs(lam_s[1].real) > 1e-3 * abs(lam_s[0].real)


def test_upper_bound_d2(table2):
    rep = sym.verify_bounds(table2)
    assert rep["max_ratio"] <= 2.0 * math.sqrt(2.0) + 1e-8
    assert rep["min_abs"] > 0.0


def test_floor_stable_between_deltas():
    # frozen from the first trusted run: the N=8 lattice floor for the
    # constant kernel sits at ~0.9994 for both horizons
    mins = {}
    for delta in (0.1, 0.02):
        k = normalize("constant", 2, horizon=delta)
        tab = sym.build_table(k, sym.Orientation.from_angle(0.7), 8)
        mins[delta] = sym.verify_bounds(tab)["min_abs"]
    assert abs(mins[0.1] - mins[0.02]) / max(mins.values()) < 0.20
    assert mins[0.1] == pytest.approx(0.99944, abs=5e-4)


def test_magnitude_does_not_degrade_for_fixed_mode():
    xi = (5, 3)
    mags = []
    for delta in (0.1, 0.05, 0.02):
        k = normalize("constant", 2, horizon=delta)
        tab = sym.build_table(k, sym.Orientation.from_angle(0.7), 5)
        mags.append(float(np.linalg.norm(tab.lam_at(xi))))
    assert all(m >= 0.8 * mags[0] for m in mags)


def test_conjugate_symmetry_exact(table2):
    modes = sym.lattice_modes(table2.bound, 2)
    for xi in modes[::7]:
        np.testing.assert_array_equal(
            table2.lam_at(-xi), np.conj(table2.lam_at(xi))
        )


def test_reflection_relation():
    k = normalize("constant", 2, horizon=0.1)
    n = sym.Orientation.from_angle(1.35)
    tab = sym.build_table(k, n, 5)
    tab_neg = sym.build_table(k, sym.Orientation(-n.vec), 5)
    np.testing.assert_allclose(tab_neg.lam, tab.lam_neg(), rtol=0, atol=1e-12)


def test_imaginary_part_matches_radial_factor(rng):
    # Im lambda = Lambda(|xi|) xi/|xi| against a direct half-ball sine
    # integral, for random orientations
    k = normalize("constant", 2, horizon=0.1)
    for _ in range(3):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        tab = sym.build_table(k, sym.Orientation.from_angle(ang), 4)
        xi = np.array([3.0, -2.0])

        def f(r, dirs):
            s = r[:, None] * dirs
            return dirs * np.sin(s @ xi)[:, None]

        direct = 2.0 * quad.integrate_halfball(k, tab.orientation.vec, f, tol=1e-12)
        np.testing.assert_allclose(tab.lam_at((3, -2)).imag, direct, atol=1e-10)


def test_divergence_symbol_consistency(table2):
    # -conj(lambda^n)^T equals lambda^{-n}^T entrywise
    np.testing.assert_array_equal(table2.lam_neg(), -np.conj(table2.lam))


def test_lambda_radial_orientation_free(table2):
    k = normalize("constant", 2, horizon=0.1)
    tab_b = sym.build_table(k, sym.Orientation.from_angle(2.2), 8)
    for q2, val in table2.lambda_radial_map.items():
        assert tab_b.lambda_radial_map[q2] == pytest.approx(val, rel=1e-11)


def _lambda_power_series_2d(kernel, freq, beta):
    """Lambda(k) for w(rho) = C rho^-beta in 2D from the power series of J1.

    Lambda = 2 pi int_0^delta w_delta(r) r J1(k r) dr; with r = delta rho,
    x = k delta and J1(x rho) = sum_n (-1)^n (x rho/2)^(2n+1) / (n! (n+1)!),
    each term integrates to 1/(2n + 3 - beta): no quadrature rule and no
    Bessel routine.  beta = 0 is the constant kernel.
    """
    x = freq * kernel.horizon
    total = sum((-1) ** n * (x / 2.0) ** (2 * n + 1)
                / (math.factorial(n) * math.factorial(n + 1) * (2 * n + 3 - beta))
                for n in range(40))
    return 2.0 * math.pi * kernel.normalization / kernel.horizon * total


def test_lambda_bessel_cross_check():
    # the series reference shares neither the radial rule nor scipy's J1
    # with the program
    for family, beta in [("constant", 0.0), ("fractional", 1.0), ("fractional", 1.5),
                         ("fractional", 1.9)]:
        kwargs = {"beta": beta} if family == "fractional" else {}
        k = normalize(family, 2, horizon=0.25, **kwargs)
        for freq in (1.0, 6.0, 20.0):
            ref = _lambda_power_series_2d(k, freq, beta)
            assert sym.lambda_radial(k, freq) == pytest.approx(ref, rel=1e-9)


def test_lambda_radial_3d_closed_polar_form():
    # full-sphere polar integral has the elementary inner form
    # 2 (sin z - z cos z)/z^2 with z = k r
    from nlspectral.kernels import eval_kernel
    from numpy.polynomial.legendre import leggauss

    k = normalize("constant", 3, horizon=0.3)
    x, w = leggauss(200)
    r = 0.15 * (x + 1.0)
    wr = 0.15 * w * eval_kernel(k, r) * r * r
    for freq in (1.0, 4.0):
        z = freq * r
        inner = 2.0 * (np.sin(z) - z * np.cos(z)) / z**2
        ref = 2.0 * math.pi * float(np.sum(wr * inner))
        assert sym.lambda_radial(k, freq) == pytest.approx(ref, rel=1e-9)


def test_star_symbol_pure_imaginary_without_drift():
    k = normalize("constant", 2, horizon=0.1)
    mu = sym.star_symbol(k, np.zeros(2), (3, 4))
    assert np.max(np.abs(mu.real)) == 0.0
    lam_rad = sym.lambda_radial(k, 5.0)
    np.testing.assert_allclose(mu, 1j * lam_rad * np.array([0.6, 0.8]), atol=1e-12)


def test_mass_factor_negative_on_lattice():
    k = normalize("constant", 2, horizon=0.1)
    for freq in (1.0, 2.0, 5.0, 13.0, 45.0):
        assert sym.mass_factor(k, freq) < 0.0


def test_mass_factor_first_order_in_delta():
    deltas = [0.2, 0.1, 0.05, 0.025]
    vals = []
    for d in deltas:
        k = normalize("constant", 2, horizon=d)
        vals.append(abs(sym.mass_factor(k, 1.0)))
    slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_orientation_validation():
    with pytest.raises(ValueError):
        sym.Orientation(np.array([1.0, 1.0]))
    n = sym.Orientation.from_vector([3.0, 4.0])
    np.testing.assert_allclose(n.vec, [0.6, 0.8], rtol=1e-15)


@pytest.mark.parametrize("v, unit", [
    ([1e308, 1e308, 0.0], [math.sqrt(0.5), math.sqrt(0.5), 0.0]),
    ([3e-200, 4e-200, 0.0], [0.6, 0.8, 0.0]),
], ids=["norm-overflows", "norm-underflows"])
def test_orientation_from_vector_far_from_unit_scale(v, unit):
    # |v| computed directly is inf or 0 for these finite, nonzero vectors
    np.testing.assert_allclose(sym.Orientation.from_vector(v).vec, unit, rtol=1e-15, atol=0)


@pytest.mark.parametrize("make", [
    lambda: sym.Orientation(np.array([math.nan, 0.0])),
    lambda: sym.Orientation(np.array([1.0, math.nan, 0.0])),
    lambda: sym.Orientation(np.array([math.inf, 0.0])),
    lambda: sym.Orientation.from_vector([math.nan, 1.0]),
    lambda: sym.Orientation.from_vector([math.inf, 1.0]),
    lambda: sym.Orientation.from_vector([math.inf, 0.0, 0.0]),
    lambda: sym.Orientation(np.array([[1.0, 0.0]])),
    lambda: sym.Orientation(np.array(1.0)),
    lambda: sym.build_table(normalize("constant", 2, horizon=0.1), np.array([math.nan, 0.0]), 4),
], ids=["nan", "nan-3d", "inf", "from-nan", "from-inf", "from-inf-3d", "2-d", "0-d",
     "build-table"])
def test_orientation_rejects_non_finite_or_non_vector(make):
    # a NaN norm used to pass the unit check, and build_table then ran its
    # whole ladder before it failed with "last error nan"
    with pytest.raises(ValueError, match="orientation"):
        make()


def test_local_table_is_i_xi():
    tab = sym.local_table(2, 4)
    np.testing.assert_array_equal(tab.lam_at((2, -3)), 1j * np.array([2.0, -3.0]))
    assert tab.is_local


def test_cache_roundtrip(tmp_path, table2):
    # every bit comes back, signed zeros included
    table = dataclasses.replace(table2, lam=table2.lam.copy())
    table.lam[table.bound + 1, table.bound, 0] = complex(-0.0, table.lam[table.bound + 1, table.bound, 0].imag)
    path = tmp_path / "cache.txt"
    sym.save_table(table, path)
    back = sym.load_table(path)
    np.testing.assert_array_equal(back.lam.view(np.int64), table.lam.view(np.int64))
    assert back.lambda_radial_map == table.lambda_radial_map
    assert all(math.copysign(1.0, back.lambda_radial_map[q]) == math.copysign(1.0, v)
               for q, v in table.lambda_radial_map.items())
    assert back.kernel.family == "constant"
    assert back.bound == table2.bound
    np.testing.assert_allclose(back.orientation.vec, table2.orientation.vec, rtol=0)


def _cut_to_100_lines(lines):
    # an N=8 2D cache cut to 100 lines used to load with 189 zero symbols
    return lines[:100]


def _duplicate_a_mode(lines):
    return lines[:2] + [lines[1]] + lines[3:]


def _mode_outside_bound(lines):
    toks = lines[1].split()
    return lines[:1] + [" ".join(["9"] + toks[1:]) + "\n"] + lines[2:]


def _cut_mid_line(lines):
    return lines[:50] + [lines[50][:10]]


def _move_a_token_to_the_next_line(lines):
    # the token count is right overall, but two lines have the wrong width
    toks = lines[5].split()
    return lines[:5] + [" ".join(toks[:-1]) + "\n", toks[-1] + " " + lines[6]] + lines[7:]


def _non_integer_mode(lines):
    toks = lines[1].split()
    return lines[:1] + [" ".join([toks[0] + ".9"] + toks[1:]) + "\n"] + lines[2:]


def _drop_a_radial_line(lines):
    # a cache cut after a few radial lines used to load with a short map
    return lines[:-1]


def _duplicate_a_radial_line(lines):
    return lines[:-1] + [lines[-2]]


def _cut_radial_line(lines):
    return lines[:-1] + [" ".join(lines[-1].split()[:2]) + "\n"]


def _empty_file(lines):
    return []


def _header_only(lines):
    return lines[:1]


def _header_without_tol(lines):
    return [lines[0].replace(" tol=", " tolerance=")] + lines[1:]


def _header_without_beta(lines):
    return [lines[0].replace(" beta=", " ")] + lines[1:]


def _header_bad_dimension(lines):
    return [lines[0].replace(" d=2 ", " d=two ")] + lines[1:]


def _header_token_without_value(lines):
    return [lines[0].replace(" family=", " family ")] + lines[1:]


def _header_zero_bound(lines):
    return [lines[0].replace(" N=8 ", " N=0 ")] + lines[1:]


def _header_short_orientation(lines):
    hdr = lines[0].split()
    hdr = [tok if not tok.startswith("n=") else tok.split(",")[0] for tok in hdr]
    return [" ".join(hdr) + "\n"] + lines[1:]


@pytest.mark.parametrize("corrupt", [_cut_to_100_lines, _duplicate_a_mode,
                                     _mode_outside_bound, _cut_mid_line,
                                     _move_a_token_to_the_next_line, _non_integer_mode, _drop_a_radial_line,
                                     _duplicate_a_radial_line, _cut_radial_line,
                                     _empty_file, _header_only, _header_without_tol,
                                     _header_without_beta, _header_bad_dimension,
                                     _header_token_without_value, _header_zero_bound,
                                     _header_short_orientation])
def test_corrupt_cache_rejected(tmp_path, table2, corrupt):
    path = tmp_path / "cache.txt"
    sym.save_table(table2, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(corrupt(lines)))
    with pytest.raises(ValueError):
        sym.load_table(path)


def test_table_independent_midpoint_cartesian_check():
    # ten-mode spot check of Re lambda against the indicator midpoint rule
    k = normalize("sine", 2, horizon=0.35)
    n = sym.Orientation.from_angle(0.6)
    tab = sym.build_table(k, n, 3)
    for xi in [(1, 0), (0, 1), (1, 1), (2, -1), (3, 0), (-1, 2), (2, 2),
               (3, -3), (0, 3), (-2, -3)]:
        xi_arr = np.asarray(xi, dtype=float)

        def f(r, dirs):
            s = r[:, None] * dirs
            return dirs * (np.cos(s @ xi_arr) - 1.0)[:, None]

        cart = 2.0 * oracles.halfdisk_cartesian(k, n.vec, f, cells=1024)
        re = tab.lam_at(xi).real
        assert np.max(np.abs(re - cart)) <= 1e-6 * max(np.max(np.abs(re)), 1e-3)


def test_3d_small_delta_consistency():
    delta = 2e-3
    k = normalize("constant", 3, horizon=delta)
    tab = sym.build_table(k, sym.Orientation.from_vector([0.2, -1.0, 0.4]), 2)
    for xi in ((1, 0, 0), (1, 1, -1), (0, 2, 1)):
        lam = tab.lam_at(xi)
        gap = np.linalg.norm(lam - 1j * np.asarray(xi, dtype=float))
        assert gap <= 4.0 * delta * np.sum(np.square(xi))


def test_3d_reflection_and_conjugate_symmetry(table3):
    modes = sym.lattice_modes(table3.bound, 3)
    for xi in modes[::17]:
        np.testing.assert_array_equal(table3.lam_at(-xi), np.conj(table3.lam_at(xi)))
    k = table3.kernel
    tab_neg = sym.build_table(k, sym.Orientation(-table3.orientation.vec), 3)
    sub = sym.build_table(k, table3.orientation, 3)
    np.testing.assert_allclose(tab_neg.lam, sub.lam_neg(), atol=1e-12)


def test_3d_re_lambda_monte_carlo(table3):
    xi = np.array([2.0, 1.0, -1.0])

    def f(r, dirs):
        s = r[:, None] * dirs
        return dirs * (np.cos(s @ xi) - 1.0)[:, None]

    mc = 2.0 * oracles.monte_carlo_halfball(table3.kernel, table3.orientation.vec, f,
                                         samples=4_000_000, seed=8)
    re = table3.lam_at((2, 1, -1)).real
    np.testing.assert_allclose(mc, re, atol=5e-3 * max(1.0, np.max(np.abs(re))))


def test_high_frequency_reference_values():
    # 25-digit quadrature references at delta = 0.2, orientation angle 0.7,
    # mode (40, -33): exercises the large k*delta regime of the node scaling
    k = normalize("constant", 2, horizon=0.2)
    tab = sym.build_table(k, sym.Orientation.from_angle(0.7), 64)
    lam = tab.lam_at((40, -33))
    np.testing.assert_allclose(lam.real, [-7.34702586, -5.71520522], atol=5e-8)
    assert tab.lambda_radial_map[40 * 40 + 33 * 33] == pytest.approx(
        0.9802438750155336, abs=1e-10)
    rep = sym.verify_bounds(tab)
    assert rep["max_ratio"] <= 2.0 * math.sqrt(2.0) + 1e-8
    assert rep["min_abs"] > 0.0


# ---------------------------------------------------------------------------
# Re lambda (closed angular form) against the direct cos sum
# ---------------------------------------------------------------------------

def _assert_re_lambda_matches_cos_sum(kernel, n, bound, modes=None):
    """Re lambda equals the cos sum to 1e-13 max|lambda| plus a floor.

    _re_lambda at the positive half lattice (or at ``modes``), against the
    cos sum over the half-circle or hemisphere product rule of
    ``oracles.half_ball_node_counts``, whose angular error is far below the
    bound.  Each form subtracts a radial sum near sum vr from sum vr: the
    closed form sum_i vr_i (f_0(k r_i) - 1) in its l = 0 term (f_0 = J_0 in
    2D, j_0 in 3D), the reference sum_i vr_i (cos(r_i xi.s_j) - 1).  Either
    way each radial sum carries about eps sum vr of rounding however small
    the difference, and 2 sum_j va_j |s_jc| <= 2 sum va carries it into
    each component: a floor of 2 eps sum vr sum va on the absolute accuracy
    of Re lambda (sum va = pi or 2 pi, against the l = 0 factor 4 or 2 pi).
    It exceeds 1e-13 max|lambda| where sum vr is large against
    max|lambda|, as for beta near 2 at a small horizon.
    """
    d = kernel.dimension
    frame = quad.frame_matrix(n)
    kmax = kernel.horizon * math.sqrt(d) * bound
    if modes is None:
        modes = sym._positive_half(sym.lattice_modes(bound, d))
    nr, na = oracles.half_ball_node_counts(kernel, kmax)
    got = sym._re_lambda(kernel, modes, n)(nr)
    ref = oracles.re_lambda_cos_sum(kernel, modes, frame, nr, na)
    ks = np.linalg.norm(modes, axis=1)
    lam_rad = sym._full_ball(kernel, ks, nr, odd=True)
    scale = float(np.max(np.sqrt(np.sum(ref**2, axis=1) + lam_rad**2)))
    _, vr, _, va = oracles.half_rule(kernel, nr, na)
    floor = 2.0 * np.finfo(float).eps * float(np.sum(vr)) * float(np.sum(va))
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * scale + floor)


@pytest.mark.parametrize("family, beta", [("constant", None), ("fractional", 1.5)])
@pytest.mark.parametrize("d, n, bound", [
    (2, (math.cos(2.3), math.sin(2.3)), 9),
    (3, (0.48, -0.6, 0.64), 5),
    # the benchmark sizes
    (2, (math.cos(0.4), math.sin(0.4)), 32),
    (3, (0.48, -0.6, 0.64), 8),
    # two more 2D sizes
    (2, (math.cos(2.3), math.sin(2.3)), 15),
    (2, (math.cos(2.3), math.sin(2.3)), 16),
])
def test_re_lambda_factorization_matches_cos_sum(family, beta, d, n, bound):
    kernel = normalize(family, d, beta=beta, horizon=0.3)
    _assert_re_lambda_matches_cos_sum(kernel, np.array(n), bound)


def _assert_large_arguments_match_cos_sum(family, beta, d, delta, bound):
    # the corners of the cube and 150 random modes of the positive half
    kernel = normalize(family, d, beta=beta, horizon=delta)
    half = sym._positive_half(sym.lattice_modes(bound, d))
    pick = np.random.default_rng(bound).choice(len(half), 150, replace=False)
    corners = np.array([(bound,) + c for c in product((-bound, bound), repeat=d - 1)])
    n = np.array([0.48, -0.6, 0.64]) if d == 3 else np.array([0.6, -0.8])
    _assert_re_lambda_matches_cos_sum(kernel, n, bound, np.concatenate([corners, half[pick]]))


@pytest.mark.parametrize("family, beta", [
    ("constant", None), ("fractional", 1.5), ("fractional", 1.9)])
@pytest.mark.parametrize("delta, bound", [(1.0, 8), (0.6, 16)])
def test_re_lambda_3d_large_arguments_match_cos_sum(family, beta, delta, bound):
    # k delta up to 13.9 and 16.6, where the expansion needs orders past 40
    _assert_large_arguments_match_cos_sum(family, beta, 3, delta, bound)


@pytest.mark.parametrize("family, beta", [
    ("constant", None), ("fractional", 1.5), ("fractional", 1.9)])
@pytest.mark.parametrize("delta, bound", [(1.0, 16), (0.6, 32)])
def test_re_lambda_2d_large_arguments_match_cos_sum(family, beta, delta, bound):
    # k delta up to 22.6 and 27.2, where the expansion needs orders past 50
    _assert_large_arguments_match_cos_sum(family, beta, 2, delta, bound)


def _assert_table_re_part_matches_cos_sum(family, beta, n):
    # the table's real parts are the cos sum at one radial level of the
    # settle ladder, the product rule's angles refined along with it
    d = len(n)
    kernel = normalize(family, d, beta=beta, horizon=0.2)
    n = sym.Orientation.from_vector(n)
    tab = sym.build_table(kernel, n, 4)
    modes = sym.lattice_modes(4, d)
    nr, na = oracles.half_ball_node_counts(kernel, kernel.horizon * math.sqrt(d) * 4)
    got = tab.lam[tuple((modes + 4).T)].real
    scale = float(np.max(np.abs(tab.lam)))
    assert any(
        np.max(np.abs(got - oracles.re_lambda_cos_sum(kernel, modes,
                                                      quad.frame_matrix(n.vec), *level)))
        <= 1e-13 * scale
        for level in oracles.half_ball_bumps(nr, na, 4)
    )


@pytest.mark.parametrize("family, beta", [("constant", None), ("fractional", 1.5)])
def test_build_table_re_part_matches_cos_sum(family, beta):
    _assert_table_re_part_matches_cos_sum(family, beta, [-0.3, 0.9, 0.2])


@pytest.mark.parametrize("family, beta", [("constant", None), ("fractional", 1.5)])
def test_build_table_2d_re_part_matches_cos_sum(family, beta):
    _assert_table_re_part_matches_cos_sum(family, beta, [-0.3, 0.9])


def test_spherical_jn_matches_scipy():
    # l <= 80 over x in [1e-3, 60], and next to the zeros of j_0 and j_1,
    # where starting the products from the smaller of the two would lose
    # its relative accuracy; scipy itself is within about 7 eps there
    from scipy.special import spherical_jn

    zeros = np.concatenate([math.pi * np.arange(1, 20), [4.493409457909064, 7.725251836937707]])
    x = np.concatenate([np.geomspace(1e-3, 60.0, 2000), zeros + 1e-9, zeros - 1e-7])
    got = sym._bessel_orders(80, x, 3)
    ref = spherical_jn(np.arange(81)[:, None], x)
    assert np.max(np.abs(got - ref)) <= 16 * np.finfo(float).eps


def test_bessel_jn_matches_scipy():
    # the 2D counterpart: J_l for l <= 80 over x in [1e-3, 60], and next to
    # the zeros of J_0 and J_1
    from scipy.special import jn_zeros, jv

    zeros = np.concatenate([jn_zeros(0, 19), jn_zeros(1, 19)])
    x = np.concatenate([np.geomspace(1e-3, 60.0, 2000), zeros + 1e-9, zeros - 1e-7])
    got = sym._bessel_orders(80, x, 2)
    ref = jv(np.arange(81)[:, None], x)
    assert np.max(np.abs(got - ref)) <= 16 * np.finfo(float).eps


def _assert_orders_past_truncation_change_nothing(monkeypatch, d, delta, bound):
    # sixteen more orders than _orders picks move Re lambda by a few eps
    # max|lambda| at most: the dropped tail is below rounding
    kernel = normalize("constant", d, horizon=delta)
    modes = sym._positive_half(sym.lattice_modes(bound, d))
    n = np.array([0.48, -0.6, 0.64]) if d == 3 else np.array([0.6, -0.8])
    nr = sym._radial_count(delta * math.sqrt(d) * bound)
    got = sym._re_lambda(kernel, modes, n)(nr)
    orders = sym._orders
    monkeypatch.setattr(sym, "_orders", lambda x, d: orders(x, d) + 16)
    more = sym._re_lambda(kernel, modes, n)(nr)
    lam_rad = sym._full_ball(kernel, np.linalg.norm(modes, axis=1), nr, odd=True)
    scale = float(np.max(np.sqrt(np.sum(got**2, axis=1) + lam_rad**2)))
    assert np.max(np.abs(more - got)) <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("delta, bound", [(0.05, 2), (0.3, 8), (1.0, 8), (1.0, 20)])
def test_re_lambda_3d_orders_past_truncation_change_nothing(monkeypatch, delta, bound):
    _assert_orders_past_truncation_change_nothing(monkeypatch, 3, delta, bound)


@pytest.mark.parametrize("delta, bound", [(0.05, 2), (0.3, 8), (1.0, 8), (1.0, 20)])
def test_re_lambda_2d_orders_past_truncation_change_nothing(monkeypatch, delta, bound):
    _assert_orders_past_truncation_change_nothing(monkeypatch, 2, delta, bound)


@settings(max_examples=25, deadline=None)
@example(d=2, fractional=True, beta=1.94921875, delta=0.03125, angles=(0.0, 0.0), bound=1)
@given(
    d=st.sampled_from([2, 3]),
    fractional=st.booleans(),
    beta=st.floats(1.0, 1.95),
    delta=st.floats(0.02, 1.0),
    angles=st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, math.pi)),
    bound=st.integers(1, 6),
)
def test_re_lambda_factorization_property(d, fractional, beta, delta, angles, bound):
    a, b = angles
    n = (np.array([math.cos(a), math.sin(a)]) if d == 2 else
         np.array([math.sin(b) * math.cos(a), math.sin(b) * math.sin(a), math.cos(b)]))
    kernel = (normalize("fractional", d, beta=beta, horizon=delta) if fractional
              else normalize("constant", d, horizon=delta))
    _assert_re_lambda_matches_cos_sum(kernel, n, bound)


@pytest.mark.xfail(strict=True, raises=QuadratureConvergenceError,
                   reason="the radial rule does not settle Lambda to 1e-10 as beta -> 2")
def test_build_table_fractional_beta_near_two():
    # with the angular integral closed the last error is still 2.1e-9 at
    # nr = 85, and Lambda alone moves by 1.6e-10, 3.0e-10 and 1.5e-9 from
    # level to level: the radial rule, not an angular one, fails to settle
    kernel = normalize("fractional", 2, beta=1.9867, horizon=0.5)
    sym.build_table(kernel, sym.Orientation.from_vector([0.260, -0.966]), 1)


# ---------------------------------------------------------------------------
# closed Bessel form of the full-ball factors against angular quadrature
# ---------------------------------------------------------------------------

_KERNELS = {
    "constant": lambda d, delta, beta: normalize("constant", d, horizon=delta),
    "fractional": lambda d, delta, beta: normalize("fractional", d, beta=beta, horizon=delta),
    "clamped": lambda d, delta, beta: epsilon_cutoff(
        normalize("fractional", d, beta=beta, horizon=delta), delta / 16),
}


def _lattice_magnitudes(bound, d):
    """The distinct |xi| of the nonzero lattice cube, from 1 to sqrt(d) N."""
    q2 = np.unique(np.sum(sym.lattice_modes(bound, d) ** 2, axis=1))
    return np.sqrt(q2.astype(float))


def _assert_full_ball_matches_quadrature(kernel, ks, nr, odd):
    """_full_ball equals the angular product rule to 1e-12 max|value| plus a floor.

    The reference takes 64 + 4 k_max delta angles, enough that its own
    angular error stays far below the bound.  Lambda has no cancellation.
    m sums vr_i (J0(k r_i) - 1) or vr_i (cos(k r_i c_j) - 1): terms near 1
    less 1, each rounded to about eps whatever the size of the difference,
    so either form carries up to eps |S^(d-1)| sum vr absolute error
    (|S^1| = 2 pi, |S^2| = 4 pi).  Their difference may reach twice that,
    which exceeds 1e-12 max|m| only where k_max delta is small.
    """
    na = 64 + int(4 * kernel.horizon * float(np.max(ks)))
    got = sym._full_ball(kernel, ks, nr, odd)
    ref = oracles.full_ball_quadrature(kernel, ks, nr, na, odd)
    atol = 1e-12 * float(np.max(np.abs(ref)))
    if not odd:
        sphere = 2.0 * math.pi if kernel.dimension == 2 else 4.0 * math.pi
        vr = quad.scaled_radial_rule(kernel, panels=1, n_nodes=nr)[1]
        atol += 2.0 * np.finfo(float).eps * sphere * float(np.sum(vr))
    np.testing.assert_allclose(got, ref, rtol=0, atol=atol)


@pytest.mark.parametrize("odd", [True, False])
@pytest.mark.parametrize("d, na", [(2, 61), (3, (47, 90))])
@pytest.mark.parametrize("chunk", [None, 1, 7 * 40 * 61 + 5])
def test_full_ball_chunks_match_unchunked(monkeypatch, odd, d, na, chunk):
    # each block of magnitudes is summed on its own, so any block size gives
    # the bits of one block; that block is the angular rule at na angles
    # (the polar count in 3D) to 1e-12
    kernel = normalize("fractional", d, horizon=0.1, beta=1.5)
    ks = np.sqrt(np.arange(1, 1500, dtype=float))
    default = sym._CHUNK
    monkeypatch.setattr(sym, "_CHUNK", 40 * len(ks))
    whole = sym._full_ball(kernel, ks, 40, odd)
    monkeypatch.setattr(sym, "_CHUNK", default if chunk is None else chunk)
    np.testing.assert_array_equal(sym._full_ball(kernel, ks, 40, odd), whole)
    ref = oracles.full_ball_quadrature(kernel, ks, 40, na if d == 2 else na[0], odd)
    np.testing.assert_allclose(whole, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("family, beta", [
    ("constant", None), ("fractional", 1.0), ("fractional", 1.5), ("fractional", 1.9),
    ("clamped", 1.5),
])
@pytest.mark.parametrize("d, bound", [(2, 32), (3, 8)])
@pytest.mark.parametrize("delta", [0.2, 0.02])
def test_full_ball_closed_form_matches_quadrature(family, beta, d, bound, delta):
    # the first and last nr of a table's settle ladder, both factors, every
    # |xi| of the lattice from 1 to kmax
    kernel = _KERNELS[family](d, delta, beta)
    ks = _lattice_magnitudes(bound, d)
    levels = list(sym._radial_bumps(sym._radial_count(kernel.horizon * math.sqrt(d) * bound), 4))
    for nr in (levels[0], levels[-1]):
        for odd in (True, False):
            _assert_full_ball_matches_quadrature(kernel, ks, nr, odd)


@settings(max_examples=25, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    family=st.sampled_from(sorted(_KERNELS)),
    beta=st.floats(1.0, 1.95),
    delta=st.floats(0.02, 1.0),
    bound=st.integers(1, 12),
)
def test_full_ball_closed_form_property(d, family, beta, delta, bound):
    kernel = _KERNELS[family](d, delta, beta)
    ks = _lattice_magnitudes(bound if d == 2 else min(bound, 6), d)
    nr = sym._radial_count(kernel.horizon * float(np.max(ks)))
    for odd in (True, False):
        _assert_full_ball_matches_quadrature(kernel, ks, nr, odd)
