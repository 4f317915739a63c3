"""The vectorized CSV writer against the per-row writer it replaced, byte for byte."""

import tempfile
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yprobe import _csv, cli


def reference_csv(path, header, columns):
    """The per-row writer: one "{:.17g}" field per value, formatted by Python."""
    rows = np.column_stack(columns).tolist()
    line = ",".join(["{:.17g}"] * len(header))
    Path(path).write_text("\n".join([",".join(header), *(line.format(*row) for row in rows)]) + "\n")


def assert_same_text(*columns):
    """write_csv and reference_csv give the same bytes for these columns."""
    ncols = np.column_stack(columns).shape[1]
    header = [f"c{j}" for j in range(ncols)]
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp, "new.csv"), Path(tmp, "ref.csv")
        _csv.write_csv(new, header, list(columns))
        reference_csv(ref, header, list(columns))
        got, want = new.read_bytes(), ref.read_bytes()
    if got != want:
        bad = next(i for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())) if a != b)
        pytest.fail(f"line {bad}: {got.splitlines()[bad]!r} != {want.splitlines()[bad]!r}")


def table(values, ncols):
    values = np.asarray(values, dtype=float)
    return values[:values.size // ncols * ncols].reshape(-1, ncols)


SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, 2.2250738585072009e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 1e-300, 1e300, 0.1, 1 / 3, 0.5, 1.0, 123456.5, 1e22, 1e23]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 7), st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                             allow_subnormal=True), min_size=1, max_size=60))
def test_hypothesis_floats(ncols, values):
    values = values * ncols  # at least one whole row
    assert_same_text(table(values, ncols))


def test_special_values():
    for ncols in (1, 2, 5, 7):
        assert_same_text(table(SPECIALS * 7, ncols))
        assert_same_text(table([-v for v in SPECIALS] * 7, ncols))


def test_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2 ** 64, size=142858 * 7, dtype=np.uint64)
    assert_same_text(bits.view(np.float64).reshape(-1, 7))


def test_neighbours_of_powers_of_ten():
    powers = np.array([float(f"1e{e}") for e in range(-310, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    for ncols in (1, 5):
        assert_same_text(table(values, ncols))
        assert_same_text(table(-values, ncols))


def test_notation_switch_points():
    # "g" at precision 17 writes fixed notation for 1e-4 <= |x| < 1e17
    points = np.array([1e-5, 1e-4, 1e16, 1e17])
    values = [points]
    for direction in (0.0, np.inf):
        step = points
        for _ in range(4):
            step = np.nextafter(step, direction)
            values.append(step)
    values = np.concatenate(values)
    assert_same_text(table(np.concatenate([values, -values]), 1))


def test_exact_ties():
    # an odd m * 2**-e with 18 significant decimal digits ends in a 5: a tie at
    # 17 digits, which Python rounds half to even
    values = [m * 2.0 ** -e for e in range(1, 60) for a in (3, 10, 20, 30, 40)
              for m in range(2 ** a + 1, 2 ** a + 100, 2)]
    ties = [x for x in values if len(Decimal(x).as_tuple().digits) == 18]
    assert len(ties) > 300
    assert_same_text(table(ties + [-x for x in ties], 1))


@pytest.mark.parametrize("ncols", [1, 2, 5, 7])
def test_table_shapes(ncols):
    rng = np.random.default_rng(ncols)
    per_block = _csv._BLOCK // ncols
    for rows in (1, 2, per_block - 1, per_block, per_block + 1, 3 * per_block + 5):
        x = rng.normal(size=(rows, ncols)) * 10.0 ** rng.integers(-8, 20, size=(rows, ncols))
        assert_same_text(x)
    # 1-d columns beside a 2-d block of columns, as dressed-evolve passes them
    x = rng.normal(size=(per_block + 3, ncols))
    assert_same_text(x[:, 0], x[:, 1:])


def test_no_runtime_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _csv.write_csv(tmp_path / "x.csv", ["a", "b", "c"], [table(SPECIALS * 3, 3)])


@pytest.mark.parametrize("argv", [
    ["probe-spectrum", "--preset", "fig2b", "--k-value", "250"],
    ["probe-spectrum", "--preset", "fig5c", "--k-value", "250"],
    ["pump-sweeps", "--preset", "fig8"],
    ["dressed-evolve", "--preset", "fig7", "--oracle-check"],
])
def test_preset_columns(tmp_path, monkeypatch, capsys, argv):
    written = []

    def spy(path, header, columns):
        written.append((Path(path), header, columns))
        _csv.write_csv(path, header, columns)

    monkeypatch.setattr(cli, "write_csv", spy)
    assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert written
    for path, header, columns in written:
        reference_csv(tmp_path / "reference.csv", header, columns)
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
