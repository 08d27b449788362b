import dataclasses
from itertools import product
import math
import time

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from nlspectral import epsilon_cutoff, normalize
from nlspectral import fields as fl
from nlspectral import quadrature as quad
from nlspectral import symbols as sym
from nlspectral.errors import KernelError
from nlspectral.kernels import SPHERE_AREA

import oracles

# mpmath references (30 digits) for the constant kernel, d=2, delta=0.1
LAMBDA_CONST_K1 = 0.99925022317812043164
LAMBDA_CONST_K5 = 4.9069447261532647035
RE_LAMBDA_34_ANGLE03 = (-0.51213875850697885, -0.5491363567549441)
LAMBDA_FRAC15_K5 = 4.933477915085754464


def _positive_half(bound, d):
    """The lexicographically positive half of the nonzero lattice cube: the
    modes whose first nonzero coordinate is positive (reference)."""
    modes = fl.lattice(bound, d).modes
    return modes[modes[np.arange(len(modes)), np.argmax(modes != 0, axis=1)] > 0]


def _re_lambda(kernel, modes, n):
    """sym._re_lambda at the modes, given np.unique of their |xi|^2 as build_table gives it."""
    return sym._re_lambda(kernel, modes, n, *np.unique(np.sum(modes**2, axis=1),
                                                       return_inverse=True))


def _full_ball(kernel, ks, nr, odd):
    """Lambda (``odd``) or m at the magnitudes ks: the sphere's area times R_1 or R_0.

    R_0 is also the l = 0 radial sum of Re lambda.
    """
    return SPHERE_AREA[kernel.dimension] * sym._radial_orders(kernel, ks, nr, 1)[1 if odd else 0]


def test_lambda_radial_against_reference():
    k = normalize("constant", 2, horizon=0.1)
    assert sym.lambda_radial(k, 1.0) == pytest.approx(LAMBDA_CONST_K1, abs=1e-11)
    assert sym.lambda_radial(k, 5.0) == pytest.approx(LAMBDA_CONST_K5, abs=1e-10)
    kf = normalize("fractional", 2, beta=1.5, horizon=0.1)
    assert sym.lambda_radial(kf, 5.0) == pytest.approx(LAMBDA_FRAC15_K5, abs=1e-9)


@pytest.mark.parametrize("k", [1e6, math.inf, math.nan])
def test_lambda_radial_refuses_delta_k_past_the_cap(k, monkeypatch):
    kernel = normalize("constant", 2, horizon=0.5)
    rules = []
    monkeypatch.setattr(quad, "scaled_radial_rule", lambda *a: rules.append(a))
    start = time.perf_counter()
    with pytest.raises(KernelError, match=f"delta\\*k = {0.5 * k!r} exceeds"):
        sym.lambda_radial(kernel, k)
    assert time.perf_counter() - start < 0.1
    assert rules == []


def test_lambda_radial_at_the_cap():
    # delta k = 1000 exactly: radial rules of 1024 nodes and more
    kernel = normalize("constant", 2, horizon=0.5)
    assert math.isfinite(sym.lambda_radial(kernel, sym._MAX_KR / 0.5))


def test_lambda_radial_zero_frequency():
    k = normalize("constant", 2, horizon=0.1)
    assert sym.lambda_radial(k, 0.0) == 0.0


@pytest.mark.parametrize("kernel", [
    normalize("constant", 1, horizon=0.5), normalize("fractional", 1, beta=1.5, horizon=0.5)],
    ids=["constant", "fractional"])
def test_symbols_refuse_a_1d_kernel(kernel, monkeypatch):
    # a KernelError naming the dimension, before any quadrature
    def no_rule(*args):
        raise AssertionError("a radial rule was built")

    monkeypatch.setattr(quad, "scaled_radial_rule", no_rule)
    for call in (lambda: sym.lambda_radial(kernel, 3.0), lambda: sym.lambda_radial(kernel, 0.0),
                 lambda: sym.build_table(kernel, sym.Orientation(np.ones(1)), 4)):
        with pytest.raises(KernelError, match="dimension 1"):
            call()


@pytest.mark.parametrize("d, delta, k", [
    (2, 1.0, 5.8843), (3, 1.0, 2.0 * math.pi), (2, 0.1, 58.843), (2, 1.0, 83.8907)])
def test_lambda_radial_settles_at_a_zero(d, delta, k):
    # k delta next to a zero of J_1 (2D) or j_1 (3D), where Lambda is about
    # 1e-15 of its terms.  Both levels are resolved, so they differ by
    # rounding alone: each f_1(k r_i) within the 16 eps of the Bessel tests
    # and the nr roundings of the sum, times sum |v_i|, on either side.
    kernel = normalize("constant", d, horizon=delta)
    got = sym.lambda_radial(kernel, k)
    nr = sym._radial_count(delta * k, d)
    for _ in range(4):
        nr = sym._bump_radial(nr)
    ref = _full_ball(kernel, np.array([k]), nr, True)[0]
    area_v = SPHERE_AREA[d] * float(np.sum(np.abs(quad.scaled_radial_rule(kernel, 1, nr)[1])))
    assert abs(got - ref) <= 2.0 * (16 + nr) * np.finfo(float).eps * area_v


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


def _bounds_gathered(table):
    """verify_bounds through the lattice's nonzero modes, gathered (reference)."""
    modes = fl.lattice(table.bound, table.dimension).modes
    mags = np.sqrt(table.abs2[tuple((modes + table.bound).T)])
    ratio = mags / np.linalg.norm(modes, axis=1)
    return {"min_abs": float(np.min(mags)), "max_abs": float(np.max(mags)),
            "max_ratio": float(np.max(ratio)),
            "argmin": tuple(int(c) for c in modes[int(np.argmin(mags))])}


def test_verify_bounds_matches_the_gathered_modes(table2, table3):
    # local_table(2, 3) ties its least magnitude over the four unit modes;
    # the first in lattice order is the one reported
    assert sym.verify_bounds(sym.local_table(2, 3)) == {
        "min_abs": 1.0, "max_abs": math.sqrt(18.0), "max_ratio": 1.0, "argmin": (-1, 0)}
    # the least magnitude right after the zero mode in lattice order, (0, 1)
    local = sym.local_table(2, 3)
    lam = local.lam.copy()
    lam[3, 4] *= 0.5
    after_zero = sym.SymbolTable(None, None, 3, lam, local.radial, 0.0)
    assert sym.verify_bounds(after_zero)["argmin"] == (0, 1)
    tables = [table2, table3, sym.local_table(3, 2), sym.local_table(2, 1), after_zero,
              sym.build_table(normalize("fractional", 2, beta=1.5, horizon=0.3),
                              sym.Orientation.from_angle(-0.4), 5)]
    for tab in tables:
        assert sym.verify_bounds(tab) == _bounds_gathered(tab)


def _built_loaded_local(tmp_path, table):
    path = tmp_path / "cache.txt"
    sym.save_table(table, path)
    return {"built": table, "loaded": sym.load_table(path), "local": sym.local_table(3, 2)}


def test_tables_are_read_only(tmp_path, table2):
    for name, tab in _built_loaded_local(tmp_path, table2).items():
        assert tab.abs2 is tab.abs2, name
        for a in (tab.lam, tab.radial, tab.abs2):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
    np.testing.assert_array_equal(table2.abs2, np.sum(np.abs(table2.lam) ** 2, axis=-1))


def test_verify_bounds_is_a_copy_of_a_fresh_pass(tmp_path, table2):
    tables = _built_loaded_local(tmp_path, table2)
    # a replaced table computes its own bounds, from its own lam
    tables["replaced"] = dataclasses.replace(table2, lam=0.5 * table2.lam)
    for name, tab in tables.items():
        rep = sym.verify_bounds(tab)
        assert rep == _bounds_gathered(tab) == sym.SymbolTable.bounds.func(tab), name
        rep["min_abs"] = -1.0
        assert tab.bounds["min_abs"] > 0.0
    assert tables["replaced"].bounds["min_abs"] == 0.5 * table2.bounds["min_abs"]


def _set(lam, index, value):
    lam = lam.copy()
    lam[index] = value
    return lam


# each symbol breaks 0 < |lambda| <= sqrt(2) d |xi| or lambda(0) = 0 at one place
_BAD_SYMBOLS = {
    "over the bound": (lambda lam: 10.0 * lam, "bound violated"),
    "just over the bound": (lambda lam: _set(lam, (9, 8), [3.0, 0.0]), "bound violated"),
    "zero at a nonzero mode": (lambda lam: _set(lam, (11, 6), 0.0), "degenerate"),
    "NaN at a nonzero mode": (lambda lam: _set(lam, (2, 15, 1), math.nan), "degenerate"),
    "nonzero at xi = 0": (lambda lam: _set(lam, (8, 8, 0), 1e-3j), r"lambda\(0\)"),
}


@pytest.mark.parametrize("made", ["replace", "by hand"])
@pytest.mark.parametrize("name", _BAD_SYMBOLS)
def test_an_invalid_symbol_is_refused_at_construction(table2, made, name):
    # at the parent, replace(table, lam=10 * lam) made a table with max
    # |lambda|/|xi| = 9.99 that stokes_steady solved with
    bad, match = _BAD_SYMBOLS[name]
    lam = bad(table2.lam)
    with pytest.raises(KernelError, match=match):
        if made == "replace":
            dataclasses.replace(table2, lam=lam)
        else:
            sym.SymbolTable(table2.kernel, table2.orientation, 8, lam, table2.radial, table2.tol)


def test_a_table_must_fit_its_lattice(table2):
    local = sym.local_table(2, 3)
    for kwargs in ({"lam": table2.lam}, {"radial": table2.radial}, {"bound": 4},
                   {"lam": table2.lam[..., :1]}):
        with pytest.raises(ValueError, match="do not fit"):
            dataclasses.replace(local, **kwargs)


def test_a_table_is_frozen(table2):
    # reassigning lam would skip the check that construction makes
    with pytest.raises(dataclasses.FrozenInstanceError):
        table2.lam = 10.0 * table2.lam
    assert table2.bounds["max_ratio"] <= 2.0 * math.sqrt(2.0)


@pytest.mark.parametrize("how", ["pickle", "deepcopy", "copy"])
def test_a_copy_is_rebuilt_through_the_constructor(table2, how):
    # pickle and deepcopy used to skip __post_init__: the copy's lam was
    # writable and never checked
    import copy
    import pickle

    copier = {"pickle": lambda t: pickle.loads(pickle.dumps(t)),
              "deepcopy": copy.deepcopy, "copy": copy.copy}[how]
    back = copier(table2)
    for name in ("lam", "radial", "abs2", "inv_abs2", "hat"):
        np.testing.assert_array_equal(getattr(back, name), getattr(table2, name))
        with pytest.raises(ValueError, match="read-only"):
            getattr(back, name)[...] = 0
    assert back.bounds == table2.bounds and back.kernel == table2.kernel
    bad = copy.copy(table2)
    object.__setattr__(bad, "lam", 10.0 * table2.lam)
    with pytest.raises(KernelError, match="symbol bound violated"):
        copier(bad)


def test_inverse_and_unit_symbol_are_kept_and_read_only(tmp_path, table2):
    for name, tab in _built_loaded_local(tmp_path, table2).items():
        assert tab.inv_abs2 is tab.inv_abs2 and tab.hat is tab.hat, name
        zero = (tab.bound,) * tab.dimension
        nonzero = np.ones(tab.abs2.shape, dtype=bool)
        nonzero[zero] = False
        np.testing.assert_array_equal(tab.inv_abs2[nonzero], 1.0 / tab.abs2[nonzero])
        np.testing.assert_array_equal(tab.hat, tab.lam * np.sqrt(tab.inv_abs2)[..., None])
        assert tab.inv_abs2[zero] == 0.0 and not np.any(tab.hat[zero]), name
        for a in (tab.inv_abs2, tab.hat):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


@pytest.mark.parametrize("mode", [(-9, 0), (0, 9), (1,), (1, 0, 0), ()])
def test_lam_at_rejects_a_mode_outside_the_cube(table2, mode):
    # at the parent (-9, 0) wrapped round to lambda(8, 0), and (1,) gave a 17x2 slice
    with pytest.raises(ValueError, match="not in the cube"):
        table2.lam_at(mode)
    np.testing.assert_array_equal(table2.lam_at((-8, 8)), table2.lam[0, 16])


@pytest.mark.parametrize("bound, d", [(5, 2), (3, 3)])
def test_lattice_record_is_computed_once_and_read_only(bound, d):
    lat = fl.lattice(bound, d)
    assert fl.lattice(bound, d) is lat
    grid = fl.lattice_grid(bound, d).reshape(d, -1).T
    modes = grid[np.any(grid != 0, axis=1)]
    half = _positive_half(bound, d)
    q2, index = np.unique(np.sum(half**2, axis=1), return_inverse=True)
    want = {"modes": modes, "norms": np.sqrt(np.sum(modes**2, axis=1)), "half": half,
            "q2": q2, "index": index, "k": np.sqrt(q2.astype(float))}
    assert set(lat._fields) == set(want)
    for name, value in want.items():
        np.testing.assert_array_equal(getattr(lat, name), value)
    # the half follows the zero mode in the flat cube, and -xi mirrors it
    flat = fl.lattice_grid(bound, d).reshape(d, -1).T
    centre = len(flat) // 2
    np.testing.assert_array_equal(flat[centre + 1:], half)
    np.testing.assert_array_equal(flat[centre - 1::-1], -half)
    # C order too, so that _re_lambda's C-ordered xhat is no copy
    for name, value in lat._asdict().items():
        assert not value.flags.writeable and value.flags.c_contiguous, name
    with pytest.raises(AttributeError):
        lat.modes = modes


def test_re_lambda_bits_do_not_depend_on_the_layout_of_modes():
    # xhat @ n took another path for F-ordered modes, 1 ulp apart in 3D
    kernel = normalize("constant", 3, horizon=0.3)
    n = sym.Orientation.from_vector([1.0, -2.0, 0.5]).vec
    lat = fl.lattice(3, 3)
    c_side = sym._re_lambda(kernel, lat.half, n, lat.q2, lat.index)(40)
    f_side = sym._re_lambda(kernel, np.asfortranarray(lat.half), n, lat.q2, lat.index)(40)
    for c, f in zip(c_side, f_side):
        np.testing.assert_array_equal(f, c)


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
    modes = fl.lattice(table2.bound, 2).modes
    for xi in modes[::7]:
        np.testing.assert_array_equal(
            table2.lam_at(-xi), np.conj(table2.lam_at(xi))
        )


def test_reflection_relation():
    # the orientation -n gives exactly -Re lambda and the same Lambda, bit
    # for bit, in both dimensions, for both families and at several angles
    for d, (family, beta), a in product((2, 3), (("constant", None), ("fractional", 1.5)),
                                        (0.0, 1.35, math.pi / 2, 2.9, 4.4)):
        k = normalize(family, d, beta=beta, horizon=0.1)
        v = [math.cos(a), math.sin(a)] if d == 2 else [math.cos(a), math.sin(a) * 0.6, -0.8]
        n = sym.Orientation.from_vector(v)
        tab = sym.build_table(k, n, 5 if d == 2 else 3)
        tab_neg = sym.build_table(k, sym.Orientation(-n.vec), tab.bound)
        np.testing.assert_array_equal(tab_neg.lam, tab.lam_neg())


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
    assert tab.kernel is None


def test_cache_roundtrip(tmp_path, table2):
    # every bit comes back, signed zeros included
    lam, at = table2.lam.copy(), (table2.bound + 1, table2.bound, 0)
    lam[at] = complex(-0.0, lam[at].imag)
    table = dataclasses.replace(table2, lam=lam)
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


def _swap_two_radial_lines(lines):
    # every |xi|^2 once, out of order: the L lines are ascending or refused
    return lines[:-2] + [lines[-1], lines[-2]]


def _swap_two_mode_lines(lines):
    # every mode once, out of lattice order
    return lines[:1] + [lines[2], lines[1]] + lines[3:]


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


def _nan_symbol_cell(lines):
    # a NaN cell used to load, and verify_bounds then reported min_abs = nan
    toks = lines[1].split()
    return lines[:1] + [" ".join(toks[:2] + ["nan"] + toks[3:]) + "\n"] + lines[2:]


def _nan_radial_value(lines):
    return lines[:-1] + [" ".join(lines[-1].split()[:2] + ["nan"]) + "\n"]


def _header_nan_delta(lines):
    hdr = [tok if not tok.startswith("delta=") else "delta=nan" for tok in lines[0].split()]
    return [" ".join(hdr) + "\n"] + lines[1:]


def _header_nan_tol(lines):
    hdr = [tok if not tok.startswith("tol=") else "tol=nan" for tok in lines[0].split()]
    return [" ".join(hdr) + "\n"] + lines[1:]


def _symbol_between_the_bounds(lines):
    # lambda = (3.5 |xi|, 0): the ratio lies above sqrt(2) d = 2.83 and below
    # 2d = 4, so only the bound of the table's validation refuses it
    x, y = (int(t) for t in lines[1].split()[:2])
    return lines[:1] + [f"{x} {y} {3.5 * math.hypot(x, y)!r} 0 0 0\n"] + lines[2:]


@pytest.mark.parametrize("corrupt", [_cut_to_100_lines, _duplicate_a_mode,
                                     _mode_outside_bound, _cut_mid_line,
                                     _move_a_token_to_the_next_line, _non_integer_mode, _drop_a_radial_line,
                                     _duplicate_a_radial_line, _swap_two_radial_lines,
                                     _swap_two_mode_lines, _cut_radial_line,
                                     _empty_file, _header_only, _header_without_tol,
                                     _header_without_beta, _header_bad_dimension,
                                     _header_token_without_value, _header_zero_bound,
                                     _header_short_orientation, _nan_symbol_cell,
                                     _nan_radial_value, _header_nan_tol, _header_nan_delta,
                                     _symbol_between_the_bounds])
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
    modes = fl.lattice(table3.bound, 3).modes
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
    cos sum over ``quad.halfball_points`` at the node counts of
    ``oracles.half_ball_node_counts``, whose angular error is far below the
    bound.  Each form subtracts a radial sum near sum vr from sum vr: the
    closed form sum_i vr_i (f_0(k r_i) - 1) in its l = 0 term (f_0 = J_0 in
    2D, j_0 in 3D), the reference sum_k w_k (cos(r_k xi.s_k) - 1) with
    w_k = vr_i va_j.  Either way each term carries about eps of rounding
    however small the difference, and 2 w_k |s_kc| <= 2 w_k carries it into
    each component: a floor of 2 eps sum w = 2 eps sum vr sum va on the
    absolute accuracy of Re lambda (sum va = pi or 2 pi, against the l = 0
    factor 4 or 2 pi).  It exceeds 1e-13 max|lambda| where sum vr is large
    against max|lambda|, as for beta near 2 at a small horizon.
    """
    d = kernel.dimension
    kmax = kernel.horizon * math.sqrt(d) * bound
    if modes is None:
        modes = _positive_half(bound, d)
    nr, na = oracles.half_ball_node_counts(kernel, kmax)
    got = _re_lambda(kernel, modes, n)(nr)[0]
    ref = oracles.re_lambda_cos_sum(kernel, modes, n, nr, na)
    ks = np.linalg.norm(modes, axis=1)
    lam_rad = _full_ball(kernel, ks, nr, True)
    scale = float(np.max(np.sqrt(np.sum(ref**2, axis=1) + lam_rad**2)))
    w = quad.halfball_points(kernel, n, 1, nr, na)[2]
    floor = 2.0 * np.finfo(float).eps * float(np.sum(w))
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
    half = _positive_half(bound, d)
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
    modes = fl.lattice(4, d).modes
    nr, na = oracles.half_ball_node_counts(kernel, kernel.horizon * math.sqrt(d) * 4)
    got = tab.lam[tuple((modes + 4).T)].real
    scale = float(np.max(np.abs(tab.lam)))
    assert any(
        np.max(np.abs(got - oracles.re_lambda_cos_sum(kernel, modes, n.vec, *level)))
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
    got = sym._bessel_orders(80, x, 3, sym._start_order(80, float(np.max(x)), 3))
    ref = spherical_jn(np.arange(81)[:, None], x)
    assert np.max(np.abs(got - ref)) <= 16 * np.finfo(float).eps


def test_bessel_jn_matches_scipy():
    # the 2D counterpart: J_l for l <= 80 over x in [1e-3, 60], and next to
    # the zeros of J_0 and J_1
    from scipy.special import jn_zeros, jv

    zeros = np.concatenate([jn_zeros(0, 19), jn_zeros(1, 19)])
    x = np.concatenate([np.geomspace(1e-3, 60.0, 2000), zeros + 1e-9, zeros - 1e-7])
    got = sym._bessel_orders(80, x, 2, sym._start_order(80, float(np.max(x)), 2))
    ref = jv(np.arange(81)[:, None], x)
    assert np.max(np.abs(got - ref)) <= 16 * np.finfo(float).eps


@pytest.mark.parametrize("top", [0.3, 60.0])
@pytest.mark.parametrize("lmax", [1, 80])
@pytest.mark.parametrize("d", [2, 3])
def test_bessel_orders_later_start_changes_nothing(d, lmax, top):
    # forty orders above _start_order move no f_l beyond the 16 eps of the
    # scipy comparisons: the start error, and in 2D the dropped part of
    # Miller's sum, are below rounding, at lmax = 1 (the full-ball factors,
    # where x alone sets the start) and at 80, over x up to 0.3, where the
    # start is closest to lmax, and over the scipy tests' grid up to 60
    from scipy.special import jn_zeros

    x = np.geomspace(1e-3, top, 2000)
    if top == 60.0:
        zeros = (np.concatenate([jn_zeros(0, 19), jn_zeros(1, 19)]) if d == 2 else
                 np.concatenate([math.pi * np.arange(1, 20), [4.493409457909064, 7.725251836937707]]))
        x = np.concatenate([x, zeros + 1e-9, zeros - 1e-7])
    start = sym._start_order(lmax, float(np.max(x)), d)
    got = sym._bessel_orders(lmax, x, d, start)
    later = sym._bessel_orders(lmax, x, d, start + 40)
    assert np.max(np.abs(later - got)) <= 16 * np.finfo(float).eps


def _assert_orders_past_truncation_change_nothing(monkeypatch, d, delta, bound):
    # sixteen more orders than _orders picks move Re lambda by a few eps
    # max|lambda| at most: the dropped tail is below rounding
    kernel = normalize("constant", d, horizon=delta)
    modes = _positive_half(bound, d)
    n = np.array([0.48, -0.6, 0.64]) if d == 3 else np.array([0.6, -0.8])
    nr = sym._radial_count(delta * math.sqrt(d) * bound, d)
    got = _re_lambda(kernel, modes, n)(nr)[0]
    orders = sym._orders
    monkeypatch.setattr(sym, "_orders", lambda x, d: orders(x, d) + 16)
    more = _re_lambda(kernel, modes, n)(nr)[0]
    lam_rad = _full_ball(kernel, np.linalg.norm(modes, axis=1), nr, True)
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


@settings(max_examples=10, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    beta=st.sampled_from([None, 1.0, 1.5, 1.9]),
    delta=st.floats(0.02, 3.0),
    angles=st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, math.pi)),
)
def test_re_lambda_along_n_negative_property(d, beta, delta, angles):
    # the paper's coercivity: for a nonnegative kernel, -Re lambda(xi).n is
    # the half-ball integral of 2 w (s^.n)(1 - cos xi.s) >= 0, which is not
    # 0 everywhere, so Re lambda(xi).n < 0 at every xi != 0
    a, b = angles
    n = (np.array([math.cos(a), math.sin(a)]) if d == 2 else
         np.array([math.sin(b) * math.cos(a), math.sin(b) * math.sin(a), math.cos(b)]))
    kernel = (normalize("constant", d, horizon=delta) if beta is None
              else normalize("fractional", d, beta=beta, horizon=delta))
    bound = 32 if d == 2 else 8
    tab = sym.build_table(kernel, n, bound)
    modes = fl.lattice(bound, d).modes
    assert np.all(tab.lam[tuple((modes + bound).T)].real @ n < 0.0)


@pytest.mark.parametrize("d, beta, bound", [
    (d, beta, 4) for d in (2, 3) for beta in (1.97, 1.98, 1.99, 1.995, 1.999)] + [(2, 1.9867, 1)])
def test_build_table_fractional_beta_near_two(d, beta, bound):
    # the tables settle at the default tol and max_bumps as beta -> 2: the
    # Gauss-Jacobi rule at the exponent d - 1 - beta keeps its low moments
    # exact; with scipy's roots_jacobi, Lambda moved by 1.6e-10 to 1.5e-9
    # from level to level at beta = 1.9867 and 2D N = 1 failed to settle
    kernel = normalize("fractional", d, beta=beta, horizon=0.5)
    n = [0.260, -0.966] if d == 2 else [0.48, -0.6, 0.64]
    tab = sym.build_table(kernel, sym.Orientation.from_vector(n), bound)
    assert np.all(np.isfinite(tab.lam))


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
    q2 = np.unique(np.sum(fl.lattice(bound, d).modes ** 2, axis=1))
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
    got = _full_ball(kernel, ks, nr, odd)
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
    default = quad._BLOCK
    monkeypatch.setattr(quad, "_BLOCK", 40 * len(ks))
    whole = _full_ball(kernel, ks, 40, odd)
    monkeypatch.setattr(quad, "_BLOCK", default if chunk is None else chunk)
    np.testing.assert_array_equal(_full_ball(kernel, ks, 40, odd), whole)
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
    levels = list(sym._radial_bumps(sym._radial_count(kernel.horizon * math.sqrt(d) * bound, d), 4))
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
    nr = sym._radial_count(kernel.horizon * float(np.max(ks)), d)
    for odd in (True, False):
        _assert_full_ball_matches_quadrature(kernel, ks, nr, odd)


# ---------------------------------------------------------------------------
# the first radial level
# ---------------------------------------------------------------------------

def _old_radial_count(x, d):
    """The start the ladder had before _radial_count took it from the Gauss bound."""
    return 24 + int(x)


@pytest.mark.parametrize("d, x", [(2, 1e-8), (2, 0.9), (2, 4.5), (3, 2.77), (2, 990.0),
                                  (3, 999.0)])
def test_radial_count_meets_its_bound(d, x):
    # the start meets the bound of its docstring, and one node fewer does
    # not, unless the floor of 6 set it
    def log_bound(n):
        m = 2 * n
        return (math.log(4 * d) + (m - d + 1) * math.log(x / 4)
                + (d - 1) * math.log((x + m) / 4) - math.lgamma(m + 1))

    n = sym._radial_count(x, d)
    assert log_bound(n) <= math.log(np.finfo(float).eps)
    assert n == 6 or log_bound(n - 1) > math.log(np.finfo(float).eps)
    assert n < _old_radial_count(x, d)


def test_a_profile_the_bound_leaves_out_settles_later(radial_passes):
    # at delta sqrt(2) N = 0.28 the ladder starts at 6 nodes: the constant
    # kernel settles at the second level, the sine profile only at the
    # third, since 6 and 10 nodes do not yet agree on it to tol
    for family, levels in (("constant", 2), ("sine", 3)):
        radial_passes.clear()
        sym.build_table(normalize(family, 2, horizon=0.05), sym.Orientation.from_angle(0.4), 4)
        assert len(radial_passes) == levels, family


_SWEEP = {
    "constant": lambda d, delta: normalize("constant", d, horizon=delta),
    "fractional 1.5": lambda d, delta: normalize("fractional", d, beta=1.5, horizon=delta),
    "fractional 1.99": lambda d, delta: normalize("fractional", d, beta=1.99, horizon=delta),
    "fractional 1.999": lambda d, delta: normalize("fractional", d, beta=1.999, horizon=delta),
    "sine": lambda d, delta: normalize("sine", d, horizon=delta),
    "tabulated": lambda d, delta: normalize("tabulated", d, horizon=delta,
                                            values=[3.0, 2.0, 1.0, 0.5]),
    "clamped": lambda d, delta: epsilon_cutoff(
        normalize("fractional", d, beta=1.5, horizon=delta), delta / 16),
    "clamped 1.99": lambda d, delta: epsilon_cutoff(
        normalize("fractional", d, beta=1.99, horizon=delta), delta / 1000),
}


def _assert_matches_the_old_start(monkeypatch, family, d, delta, bound):
    # both ladders settle, and their tables agree within the table's tol
    kernel = _SWEEP[family](d, delta)
    n = sym.Orientation.from_vector(_unit(d))
    new = sym.build_table(kernel, n, bound)
    monkeypatch.setattr(sym, "_radial_count", _old_radial_count)
    sym.clear_radial_cache()
    old = sym.build_table(kernel, n, bound)
    scale = float(np.max(np.abs(old.lam)))
    assert np.max(np.abs(new.lam - old.lam)) <= new.tol * scale
    assert np.max(np.abs(new.radial - old.radial)) <= new.tol * scale


@pytest.mark.parametrize("family", sorted(_SWEEP))
@pytest.mark.parametrize("d, delta, bound", [
    (2, 0.001, 4), (2, 0.1, 8), (2, 0.6, 12), (3, 0.05, 3), (3, 0.5, 4)])
def test_tables_match_the_tables_of_the_old_start(monkeypatch, family, d, delta, bound):
    _assert_matches_the_old_start(monkeypatch, family, d, delta, bound)


# delta sqrt(d) N = 990 and 999, next to the cap of 1000.  The old start's
# rules there have 1013 nodes and more, and a Gauss-Jacobi rule that size
# takes seconds to build, so the fractional kernels sit this one out
@pytest.mark.parametrize("family", ["constant", "sine", "tabulated", "clamped 1.99"])
@pytest.mark.parametrize("d, delta", [(2, 700.0), (3, 577.0)])
def test_tables_next_to_the_cap_match_the_old_start(monkeypatch, family, d, delta):
    _assert_matches_the_old_start(monkeypatch, family, d, delta, 1)


# ---------------------------------------------------------------------------
# the radial cache that orientations of one kernel share
# ---------------------------------------------------------------------------

def _unit(d):
    return np.array([0.6, -0.8]) if d == 2 else np.array([0.48, -0.6, 0.64])


def _one_ulp_more_at(values, i):
    """The tuple values with its entry i one ulp larger."""
    return values[:i] + (float(np.nextafter(values[i], np.inf)),) + values[i + 1:]


_M2 = [[1, 0], [1, 1], [2, 1], [0, 3]]
_M3 = [[1, 0, 0], [1, 1, 0], [2, 1, 0], [0, 3, 0]]     # the |xi| of _M2


def _cache_pair(case):
    """Two (kernel, modes) that differ in one field of the kernel or in the lattice."""
    frac = normalize("fractional", 2, beta=1.5, horizon=0.1)
    tab = normalize("tabulated", 2, horizon=0.1, values=[3.0, 2.0, 1.0, 0.5])
    return {
        "clamped": ((frac, _M2), (epsilon_cutoff(frac, 0.01), _M2)),
        "normalization": ((frac, _M2), (dataclasses.replace(frac, normalization=2.0), _M2)),
        "tabulated value": ((tab, _M2),
                            (dataclasses.replace(tab, table_w=_one_ulp_more_at(tab.table_w, 2)),
                             _M2)),
        "dimension": ((normalize("constant", 2, horizon=0.1), _M2),
                      (normalize("constant", 3, horizon=0.1), _M3)),
        "bound": ((frac, fl.lattice(4, 2).modes), (frac, fl.lattice(5, 2).modes)),
        # one more |xi| below the largest, so the order L is the same
        "lattice": ((frac, _M2), (frac, _M2 + [[2, 0]])),
    }[case]


@pytest.mark.parametrize("case", ["clamped", "normalization", "tabulated value", "dimension",
                                  "bound", "lattice"])
def test_radial_cache_keeps_kernels_apart(case):
    # the second evaluation gets its own entry and the bits of a cold cache
    (ka, ma), (kb, mb) = _cache_pair(case)
    _re_lambda(ka, np.array(ma), _unit(ka.dimension))(30)
    warm = _re_lambda(kb, np.array(mb), _unit(kb.dimension))(30)
    info = sym._cached_factors.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
    sym.clear_radial_cache()
    cold = _re_lambda(kb, np.array(mb), _unit(kb.dimension))(30)
    for w, c in zip(warm, cold):
        np.testing.assert_array_equal(w, c)


def test_radial_cache_entries_are_read_only(const2, const3):
    # 2D: M, of shape (Q, 2L' - 1), and Lambda at the distinct |xi|; 3D: R_l
    ks = np.sqrt(np.unique(np.sum(np.array(_M2) ** 2, axis=1)).astype(float)).tobytes()
    m2 = np.array(_M2, dtype=float).tobytes()
    entry = sym._cached_factors(const2, ks, m2, 30, 4)
    assert sym._cached_factors(const2, ks, m2, 30, 4) is entry
    m, lam_rad = entry
    assert m.shape == (len(_M2), 5) and lam_rad.shape == (4,)
    rad = sym._cached_factors(const3, ks, None, 30, 4)
    assert rad.shape == (5, 4)
    assert sym._cached_factors.cache_info().currsize == 2
    for a in (m, lam_rad, rad):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_orientation_sweep_computes_each_level_once(radial_passes, const2):
    # 8 orientations: one radial pass and one M per level, the rest are hits
    sym.build_table(const2, sym.Orientation.from_angle(0.3), 16)
    first = list(radial_passes)
    for j in range(1, 8):
        sym.build_table(const2, sym.Orientation.from_angle(0.3 + j * math.pi / 4), 16)
    assert len(first) >= 2 and len(set(first)) == len(first)
    assert radial_passes == first
    info = sym._cached_factors.cache_info()
    assert info.misses == info.currsize == len(first)
    assert info.hits >= 7 * 2


@pytest.mark.parametrize("d", [2, 3])
def test_warm_build_matches_cold_build(d):
    kernel = normalize("fractional", d, beta=1.5, horizon=0.2)
    ori = sym.Orientation.from_vector(_unit(d))
    sym.build_table(kernel, sym.Orientation.from_vector(-_unit(d)[::-1]), 6)
    warm = sym.build_table(kernel, ori, 6)
    sym.clear_radial_cache()
    cold = sym.build_table(kernel, ori, 6)
    np.testing.assert_array_equal(warm.lam, cold.lam)
    assert warm.lambda_radial_map == cold.lambda_radial_map


def test_pooled_builds_match_serial_builds():
    # two kernels, four orientations each, interleaved over a 2-thread pool,
    # as a caller's own pool builds them (perfbench's field3d)
    from concurrent.futures import ThreadPoolExecutor

    kernels = [normalize("constant", 2, horizon=0.1),
               normalize("fractional", 2, beta=1.5, horizon=0.1)]
    jobs = [(k, 0.2 + j * math.pi / 4) for j in range(4) for k in kernels]

    def build(job):
        return sym.build_table(job[0], sym.Orientation.from_angle(job[1]), 16)

    # both sides start cold: the pool's threads also race to build the lattice record
    sym.clear_radial_cache()
    fl.lattice.cache_clear()
    with ThreadPoolExecutor(max_workers=2) as pool:
        pooled = list(pool.map(build, jobs))
    sym.clear_radial_cache()
    fl.lattice.cache_clear()
    serial = [build(job) for job in jobs]
    for p, s in zip(pooled, serial):
        for name in ("lam", "radial"):
            np.testing.assert_array_equal(getattr(p, name), getattr(s, name))
        assert p.bounds == s.bounds


def test_radial_cache_is_bounded_and_drops_the_oldest(radial_passes, const2):
    # five levels through a cache of four: the first, least recently used,
    # is computed again, and the last, most recently used, is not
    evaluate = _re_lambda(const2, np.array(_M2), _unit(2))
    for nr in range(20, 20 + sym._RADIAL_CACHE_SIZE + 1):
        evaluate(nr)
    info = sym._cached_factors.cache_info()
    assert info.currsize == info.maxsize == sym._RADIAL_CACHE_SIZE == 4
    assert radial_passes == list(range(20, 25))
    evaluate(24)
    assert radial_passes == list(range(20, 25))
    evaluate(20)
    assert radial_passes == list(range(20, 25)) + [20]


def test_radial_cache_under_contention():
    # six threads on a 1 us switch interval share twelve keys, more than the
    # cache holds: every result keeps the bits of a serial evaluation, and
    # the cache ends within its bound
    import sys
    from concurrent.futures import ThreadPoolExecutor

    kernels = [normalize("constant", 2, horizon=0.1),
               normalize("fractional", 2, beta=1.5, horizon=0.1)]
    jobs = [(i, nr) for i in range(2) for nr in range(20, 26)] * 8

    def evaluate(job):
        return _re_lambda(kernels[job[0]], np.array(_M2), _unit(2))(job[1])

    want = {job: evaluate(job) for job in set(jobs)}
    sym.clear_radial_cache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(evaluate, job) for job in jobs]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for job, parts in zip(jobs, got):
        for g, w in zip(parts, want[job]):
            np.testing.assert_array_equal(g, w)
    assert sym._cached_factors.cache_info().currsize <= sym._RADIAL_CACHE_SIZE
