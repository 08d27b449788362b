import hashlib
import math

import numpy as np
import pytest

from nlspectral import fields as fl
from nlspectral import normalize
from nlspectral import solvers as sol
from nlspectral.symbols import Orientation, build_table

import oracles


def test_parseval_against_grid_quadrature():
    u = fl.random_field(9, 8, 1.0)
    vals = fl.evaluate(u, 64)
    grid_norm = math.sqrt(float(np.mean(np.abs(vals) ** 2)))
    assert grid_norm == pytest.approx(fl.l2_norm(u), rel=1e-10)


def test_single_mode_norms():
    u = oracles.complex_zeros(2, 4)
    u.set_mode((1, 0), 1.0)
    assert fl.l2_norm(u) == 1.0
    k = normalize("constant", 2, horizon=0.1)
    tab = build_table(k, Orientation.from_angle(0.7), 4)
    assert fl.s_norm(u, tab) == pytest.approx(
        float(np.linalg.norm(tab.lam_at((1, 0)))), rel=1e-14)


def test_s_norm_bounded_by_h1(table2):
    u = fl.random_field(15, 8, 1.0, components=2)
    k2 = np.sum(fl.lattice_grid(8, 2) ** 2, axis=0)
    h1 = math.sqrt(float(np.sum(k2[..., None] * np.abs(u.coeffs) ** 2)))
    assert fl.s_norm(u, table2) <= 2.0 * math.sqrt(2.0) * h1 * (1 + 1e-12)


def test_norms_requires_table():
    u = fl.random_field(3, 4, 1.0)
    with pytest.raises(ValueError):
        fl.s_norm(u, None)


def test_random_field_deterministic():
    a = fl.random_field(7, 5, 2.0, components=2)
    b = fl.random_field(7, 5, 2.0, components=2)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


_MASK = (1 << 64) - 1


def _uniforms_reference(seed, count):
    """The scalar splitmix64 walk, one Python-int state at a time."""
    out = np.empty(count)
    state = seed & _MASK
    for i in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out[i] = ((z ^ (z >> 31)) >> 11) * (1.0 / (1 << 53))
    return out


SEEDS = [0, 1, 2**63 + 5, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_match_scalar_splitmix(seed):
    np.testing.assert_array_equal(fl._uniforms(seed, 5000), _uniforms_reference(seed, 5000))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dimension, bound", [(1, 9), (2, 5), (3, 3)])
@pytest.mark.parametrize("vector", [False, True])
def test_random_field_matches_scalar_splitmix(monkeypatch, seed, dimension, bound, vector):
    components = dimension if vector else 0
    fast = fl.random_field(seed, bound, 1.5, dimension, components)
    monkeypatch.setattr(fl, "_uniforms", _uniforms_reference)
    ref = fl.random_field(seed, bound, 1.5, dimension, components)
    np.testing.assert_array_equal(fast.coeffs, ref.coeffs)


# random_field pinned bit for bit: (seed, d, N, vector, mode, the coefficient
# at that mode as float.hex (real, imag) per component, and the first 16 hex
# digits of the sha256 of every coefficient as little-endian complex128)
RANDOM_FIELD_PINS = [
    (0, 1, 9, False, (3,),
     [("-0x1.68135ddb0276fp-3", "-0x1.b4cb0014c42c3p-6")], "8b4da589f89f7e3c"),
    (7, 1, 9, True, (-8,),
     [("-0x1.4a5dcce9fdf33p-6", "-0x1.3d72c4ef269c5p-5")], "bfc5740516f43407"),
    (2**63 + 5, 2, 5, False, (2, -3),
     [("0x1.b9dedf272a306p-4", "0x1.619823519c806p-4")], "0b149914398937dd"),
    (11, 2, 5, True, (0, 4),
     [("-0x1.52dc3a38aca95p-8", "0x1.e8c8688b77c15p-4"),
      ("-0x1.d37d287dedaa8p-7", "-0x1.e5bd32c94b611p-4")], "b0275da873c387c0"),
    (2**64 - 1, 3, 3, False, (1, -2, 3),
     [("0x1.d905cdb0ebfefp-4", "0x1.fe0f2e8ddc4a6p-5")], "4785a284b090da86"),
    (3, 3, 3, True, (-1, 0, 2),
     [("0x1.50f66453962e0p-3", "-0x1.9e89f81c48e67p-3"),
      ("0x1.04daa176bc52bp-2", "0x1.cbaf999e54735p-5"),
      ("0x1.03d854748f691p-2", "-0x1.eee8d4bff35f2p-5")], "141578e37e9225fc"),
]


@pytest.mark.parametrize("seed, dimension, bound, vector, mode, values, digest",
                         RANDOM_FIELD_PINS)
def test_random_field_pinned_bits(seed, dimension, bound, vector, mode, values, digest):
    u = fl.random_field(seed, bound, 1.5, dimension, dimension if vector else 0)
    at = np.atleast_1d(u.coeffs[tuple(m + bound for m in mode)])
    assert [(float(z.real).hex(), float(z.imag).hex()) for z in at] == values
    data = np.ascontiguousarray(u.coeffs, dtype="<c16").tobytes()
    assert hashlib.sha256(data).hexdigest()[:16] == digest


def test_random_field_flat_spectrum_populates_all_modes():
    u = fl.random_field(3, 8, 0.0)
    modes = fl.lattice(8, 2).modes
    mags = np.abs(u.coeffs[tuple((modes + 8).T)])
    assert len(mags) == 17**2 - 1 and np.all(mags > 0.0)
    assert abs(u.coeffs[8, 8]) == 0.0


def test_random_field_decay_profile():
    u = fl.random_field(5, 6, 3.0)
    grid = fl.lattice_grid(6, 2)
    k2 = np.sum(grid**2, axis=0)
    amp = np.abs(u.coeffs)
    mask = k2 > 0
    np.testing.assert_allclose(amp[mask], (1.0 + k2[mask]) ** -1.5, rtol=1e-13)


def test_random_field_real_on_grid():
    u = fl.random_field(11, 6, 1.0, components=2)
    complex_coeffs = u.coeffs.copy()
    u_complex = fl.SpectralField(6, 2, complex_coeffs, real=False)
    vals = fl.evaluate(u_complex, 25)
    assert np.max(np.abs(vals.imag)) < 1e-12


def test_zero_mode_pinned_through_arithmetic():
    a = fl.random_field(1, 4, 1.0)
    b = fl.random_field(2, 4, 1.0)
    for f in (a + b, a - b, 2.5 * a):
        assert abs(f.coeffs[4, 4]) == 0.0


def test_set_mode_rejects_zero_mode():
    u = fl.SpectralField.zeros(2, 4)
    with pytest.raises(ValueError):
        u.set_mode((0, 0), 1.0)


@pytest.mark.parametrize("mode", [(-5, 0), (0, 5), (1,), (1, 2, 0)])
def test_set_mode_rejects_a_mode_outside_the_cube_before_writing(mode):
    # at the parent, (-5, 0) on N = 4 wrote mode (4, 0) and then raised
    # IndexError, leaving the field without its conjugate at (-4, 0)
    u = fl.random_field(8, 4, 1.0)
    before = u.coeffs.copy()
    with pytest.raises(ValueError, match="not in the cube"):
        u.set_mode(mode, 1.0)
    np.testing.assert_array_equal(u.coeffs, before)


@pytest.mark.parametrize("coord", [1.5, -0.5, 1 + 1e-12, math.nan, math.inf, -math.inf,
                                   np.float64(2.5), "1", 1j])
def test_a_non_integral_mode_is_refused_like_one_outside_the_cube(coord):
    # int() truncated 1.5, so set_mode wrote (1, 0) and (-1, 0), and NaN or
    # inf raised a conversion error that named no mode
    u = fl.random_field(8, 4, 1.0)
    before = u.coeffs.copy()
    tab = build_table(normalize("constant", 2, horizon=0.1), Orientation.from_angle(0.7), 4)
    for call in (lambda: u.set_mode((coord, 0), 1.0), lambda: tab.lam_at((0, coord))):
        with pytest.raises(ValueError, match="not in the cube"):
            call()
    np.testing.assert_array_equal(u.coeffs, before)


def test_integral_floats_and_numpy_integers_are_modes():
    u = fl.SpectralField.zeros(2, 4)
    u.set_mode((np.int64(1), -2.0), 1.0)
    u.set_mode((np.float64(-3.0), np.int8(4)), 2.0)
    want = fl.SpectralField.zeros(2, 4).set_mode((1, -2), 1.0).set_mode((-3, 4), 2.0)
    np.testing.assert_array_equal(u.coeffs, want.coeffs)
    tab = build_table(normalize("constant", 2, horizon=0.1), Orientation.from_angle(0.7), 4)
    np.testing.assert_array_equal(tab.lam_at((np.int32(-1), 3.0)), tab.lam_at((-1, 3)))


@pytest.mark.parametrize("field, message", [
    (fl.random_field(1, 4, 1.0, components=5), r"component shape \(\) or \(2,\), got \(5,\)"),
    (fl.SpectralField.zeros(2, 4, (2, 2)), r"component shape \(\) or \(2,\), got \(2, 2\)"),
    (fl.random_field(1, 3, 1.0), "N=3, d=2 does not fit a table of N=4, d=2"),
    (fl.random_field(1, 4, 1.0, dimension=3), "d=3 does not fit"),
], ids=["five-components", "matrix", "bound", "dimension"])
def test_s_norm_checks_the_field_against_the_table(field, message):
    # at the parent a 5-component field returned a number, and a field of
    # another N raised numpy's broadcast error
    tab = build_table(normalize("constant", 2, horizon=0.1), Orientation.from_angle(0.7), 4)
    for call in (lambda: fl.s_norm(field, tab), lambda: sol.helmholtz_stability(tab, field, [field])):
        with pytest.raises(ValueError, match=message):
            call()


def test_component_shapes():
    s = fl.random_field(1, 3, 1.0)
    v = fl.random_field(1, 3, 1.0, components=2)
    assert s.component_shape == ()
    assert v.component_shape == (2,)


def test_evaluate_at_matches_grid():
    u = fl.random_field(13, 5, 1.0)
    x = fl.grid_points(16, 2)
    pts = np.stack([x[0].ravel(), x[1].ravel()], axis=1)
    direct = oracles.evaluate_at(u, pts).reshape(16, 16)
    np.testing.assert_allclose(direct, fl.evaluate(u, 16), atol=1e-12)


def test_field_csv_snapshot(tmp_path):
    u = fl.random_field(19, 2, 1.0, components=2)
    path = tmp_path / "field.csv"
    fl.to_csv(u, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "xi1,xi2,re1,im1,re2,im2"
    assert len(lines) == 26  # 5^2 modes + header
