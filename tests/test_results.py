"""The text writers against per-cell reference writers, and file replacement."""

import json
import os

import numpy as np
import pytest

from nlspectral import fields as fl
from nlspectral import normalize
from nlspectral import results
from nlspectral import symbols as sym
from nlspectral.results import ResultTable, write_csv, write_summary, write_text


# -- per-cell reference writers: one formatted cell at a time -----------------

def _ref_field_csv(field, path):
    d = field.dimension
    modes = fl.lattice_grid(field.bound, d).reshape(d, -1).T
    flat = field.coeffs.reshape(len(modes), -1)
    with open(path, "w", newline="\n") as fh:
        heads = [f"xi{i + 1}" for i in range(d)]
        for c in range(flat.shape[1]):
            heads += [f"re{c + 1}", f"im{c + 1}"]
        fh.write(",".join(heads) + "\n")
        for mode, row in zip(modes, flat):
            cells = [str(int(m)) for m in mode]
            for z in row:
                cells += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            fh.write(",".join(cells) + "\n")


def _ref_save_table(table, path):
    k = table.kernel
    hdr = (
        f"# nlspectral-symbols d={k.dimension} N={table.bound} family={k.family} "
        f"beta={'' if k.beta is None else repr(k.beta)} delta={k.horizon!r} "
        f"n={','.join(repr(float(c)) for c in table.orientation.vec)} tol={table.tol!r}"
    )
    lines = [hdr]
    for mode in fl.lattice(table.bound, table.dimension).modes:
        nums = []
        for comp in table.lam_at(mode):
            nums += [f"{comp.real:.17g}", f"{comp.imag:.17g}"]
        lines.append(" ".join([*(str(int(c)) for c in mode), *nums]))
    for q, v in sorted(table.lambda_radial_map.items()):
        lines.append(f"L {q} {v:.17g}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _ref_write_csv(table, path):
    def fmt(value):
        return f"{value:.17g}" if isinstance(value, float) else str(value)

    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(table.columns) + "\n")
        for row in table.rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _same_bytes(tmp_path, write, ref, obj):
    new, old = tmp_path / "new.txt", tmp_path / "ref.txt"
    write(obj, new)
    ref(obj, old)
    assert new.read_bytes() == old.read_bytes()
    return new.read_bytes()


_SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072e-308,
            1e-310, 1.7976931348623157e308, 0.1, -1.0 / 3.0, 2.0**53, 123456789.0]


@pytest.mark.parametrize("dimension, bound, components",
                         [(1, 8, 0), (2, 4, 0), (2, 4, 2), (3, 2, 3)])
def test_field_csv_matches_reference(tmp_path, dimension, bound, components):
    u = fl.random_field(3, bound, 1.0, dimension, components)
    flat = u.coeffs.reshape(-1)
    bits = np.random.default_rng(dimension).integers(0, 2**64, size=2 * flat.size,
                                                     dtype=np.uint64)
    flat[:] = bits.view(complex)        # NaN payloads, subnormals, both signs
    special = flat[:len(_SPECIAL)]
    special.real, special.imag = _SPECIAL[:len(special)], _SPECIAL[::-1][:len(special)]
    text = _same_bytes(tmp_path, fl.to_csv, _ref_field_csv, u).decode()
    for cell in ("nan", "-inf", "-0", "4.9406564584124654e-324"):
        assert cell in text.replace("\n", ",").split(",")


@pytest.mark.parametrize("block", [1, 3, 25, 26])
def test_mode_rows_blocks_give_the_same_bytes(tmp_path, monkeypatch, table2, block):
    monkeypatch.setattr(results, "_BLOCK", block)
    _same_bytes(tmp_path, fl.to_csv, _ref_field_csv, fl.random_field(5, 2, 1.0, 2, 2))
    _same_bytes(tmp_path, sym.save_table, _ref_save_table, table2)


def test_field_csv_of_a_real_dtype_field(tmp_path):
    u = fl.SpectralField(2, 2, np.arange(25.0).reshape(5, 5) - 12.5)
    _same_bytes(tmp_path, fl.to_csv, _ref_field_csv, u)


@pytest.mark.parametrize("which", ["table2", "table3"])
def test_save_table_matches_reference(tmp_path, request, which):
    table = request.getfixturevalue(which)
    _same_bytes(tmp_path, sym.save_table, _ref_save_table, table)


def test_save_table_fractional_matches_reference(tmp_path):
    k = normalize("fractional", 2, horizon=0.2, beta=1.5)
    table = sym.build_table(k, sym.Orientation.from_angle(2.1), 5)
    _same_bytes(tmp_path, sym.save_table, _ref_save_table, table)


def test_write_csv_matches_reference(tmp_path):
    table = ResultTable(["name", "count", "value", "ok", "npv"])
    table.add("x", 3, 0.1, True, np.float64(-0.0))
    table.add("", -7, float("nan"), False, np.float64(1e-310))
    table.add("constant", 0, -np.inf, True, np.float64(2.0) / 3.0)
    _same_bytes(tmp_path, write_csv, _ref_write_csv, table)


def test_write_summary_matches_json_dump(tmp_path):
    summary = {"b": [0.1, np.float64(2.5), None], "a": {"ok": True, "n": 3}}
    path = tmp_path / "s.json"
    write_summary(summary, path)
    with open(tmp_path / "ref.json", "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("old", ["x" * 10_000 + "\n", "", "a"])
def test_write_text_replaces_an_existing_file(tmp_path, old):
    path = tmp_path / "out.csv"
    path.write_text(old)
    write_text(path, "new,bytes\n1,2\n")
    assert path.read_bytes() == b"new,bytes\n1,2\n"
    write_text(path, "x" * 5000)
    assert path.read_bytes() == b"x" * 5000


def test_write_text_replaces_a_symlink_rather_than_following_it(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("keep\n")
    link = tmp_path / "link.txt"
    os.symlink(target, link)
    write_text(link, "new\n")
    assert not link.is_symlink()
    assert link.read_text() == "new\n"
    assert target.read_text() == "keep\n"


def test_write_text_accepts_strings_in_order(tmp_path):
    path = tmp_path / "out.txt"
    write_text(path, (part for part in ["a,b\n", "", "1,2\n"]))
    assert path.read_bytes() == b"a,b\n1,2\n"


def test_write_text_refuses_a_file_it_may_not_write(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_text("keep\n")
    monkeypatch.setattr(results.os, "access", lambda p, mode: False)
    with pytest.raises(PermissionError):
        write_text(path, "new\n")
    assert path.read_text() == "keep\n"


def test_write_text_truncates_where_the_file_cannot_be_removed(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_text("x" * 100)

    def unlink(p):
        raise PermissionError(13, "directory is read-only", str(p))

    monkeypatch.setattr(results.os, "unlink", unlink)
    write_text(path, "new\n")
    assert path.read_bytes() == b"new\n"


def test_write_text_leaves_a_hard_link_with_the_old_bytes(tmp_path):
    path, other = tmp_path / "out.csv", tmp_path / "other.csv"
    path.write_text("old\n")
    os.link(path, other)
    write_text(path, "new\n")
    assert path.read_text() == "new\n"
    assert other.read_text() == "old\n"


def test_snapshot_over_a_longer_snapshot(tmp_path):
    path = tmp_path / "snap.csv"
    fl.to_csv(fl.random_field(1, 6, 1.0, 2, 2), path)
    small = fl.random_field(2, 2, 1.0, 2, 2)
    fl.to_csv(small, path)
    _ref_field_csv(small, tmp_path / "ref.csv")
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
