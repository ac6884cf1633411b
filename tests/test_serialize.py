"""The table writer against the per-cell rule.

`Table` and `write_csv` render float cells in numpy and hand only the
cells that rendering cannot certify to `FLOAT_FORMAT`.  The oracle below
formats each cell alone: CSV cells are `str(v)` for an int and
`format(float(v), ".16e")` otherwise (nan and inf included), and a JSON
table is the generic emitter's list of row objects.  Columns are drawn
with signed zeros, subnormals, the largest floats, nan and both
infinities, and integers over the whole int64 range.  A seeded sample of
several hundred thousand floats (every exponent, powers of ten and their
neighbours, large integers, dyadic rationals) checks the float cells
where a near tie or a missed decimal exponent would show.
"""

import json
import os
import string
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import isfinite
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minlen import serialize
from minlen.cli import main
from minlen.oscillator.spectrum import DOParams, QuantumNumber
from minlen.oscillator.wavefunction import GridSpec, wavefunction
from minlen.serialize import FLOAT_FORMAT, Table, dumps_json, write_csv

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
           1.7976931348623157e308, -1.7976931348623157e308,
           float("nan"), float("inf"), float("-inf"), 1e-310, 1.0, -1.5]

floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from(SPECIAL))
ints = st.integers(-(2**63), 2**63 - 1)
names = st.text(string.ascii_letters + "_%\"\\ ", min_size=1, max_size=6)


@st.composite
def tables(draw):
    nrows = draw(st.integers(0, 12))
    header = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    columns = []
    for _ in header:
        cells = draw(st.sampled_from([ints, floats]))
        columns.append(draw(st.lists(cells, min_size=nrows, max_size=nrows)))
    return header, columns


def oracle_csv(header, rows):
    lines = [",".join(header) + "\n"]
    for row in rows:
        cells = [str(v) if isinstance(v, int) else format(float(v), ".16e")
                 for v in row]
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def as_arrays(columns):
    """Each column as the array a caller would pass: int64 when every cell
    is an int, float64 otherwise."""
    return [np.array(c, dtype=np.int64 if all(type(v) is int for v in c)
                     else np.float64) for c in columns]


@given(tables())
@settings(max_examples=300, deadline=None)
@example((["a", "b"], [[], []]))
@example((["x%d", "%s"], [[1, -2], [float("nan"), -0.0]]))
def test_table_matches_per_cell_rule(table):
    header, columns = table
    rows = list(zip(*columns))
    arrays = as_arrays(columns)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        write_csv(path, header, arrays)
        with open(path, "rb") as fh:
            got = fh.read()
    assert got == oracle_csv(header, rows).encode()
    want = dumps_json([dict(zip(header, r)) for r in rows])
    assert dumps_json(Table(header, arrays)) == want
    # the same bytes from plain lists of Python numbers
    assert dumps_json(Table(header, columns)) == want


def test_empty_table(tmp_path):
    assert dumps_json(Table(["a", "b"], [[], []])) == "[]\n"
    path = tmp_path / "e.csv"
    write_csv(path, ["a", "b"], [np.array([], dtype=np.int64), []])
    assert path.read_bytes() == b"a,b\n"


def test_nonfinite_json_column_is_null_and_csv_keeps_tokens(tmp_path):
    col = [1.5, float("nan"), float("inf"), -float("inf"), -0.0]
    text = dumps_json(Table(["v"], [col]))
    assert [r["v"] for r in json.loads(text)] == [1.5, None, None, None, 0.0]
    assert '"v": -0.0000000000000000e+00' in text
    write_csv(tmp_path / "c.csv", ["v"], [col])
    assert (tmp_path / "c.csv").read_text().split("\n")[1:-1] == [
        "1.5000000000000000e+00", "nan", "inf", "-inf",
        "-0.0000000000000000e+00"]


@pytest.mark.parametrize("column", [
    np.array([True, False]),
    np.array([1.0, None], dtype=object),
    ["x", "y"],
    np.array([1 + 2j, 3j]),
], ids=["bool", "object", "str", "complex"])
def test_table_rejects_non_numeric_columns(column, tmp_path):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "t.csv", ["a"], [column])
    with pytest.raises(TypeError):
        dumps_json(Table(["a"], [column]))
    assert not (tmp_path / "t.csv").exists()


def test_table_rejects_ragged_columns():
    with pytest.raises(ValueError):
        Table(["a", "b"], [[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        Table(["a", "b"], [[1.0]])
    with pytest.raises(ValueError):
        Table(["a"], [np.zeros((2, 2))])


def test_numpy_scalars_keep_their_json_type():
    obj = {"t": np.bool_(True), "f": np.bool_(False), "i": np.int64(3),
           "u": np.uint8(7), "neg": np.int32(-2), "x": np.float32(0.5),
           "big": np.uint64(2**64 - 1)}
    assert dumps_json(obj) == (
        '{"t": true, "f": false, "i": 3, "u": 7, "neg": -2, '
        '"x": 5.0000000000000000e-01, "big": 18446744073709551615}\n')


def test_uint64_column_beyond_int64(tmp_path):
    col = np.array([2**64 - 1, 0], dtype=np.uint64)
    write_csv(tmp_path / "u.csv", ["u"], [col])
    assert (tmp_path / "u.csv").read_text() == "u\n18446744073709551615\n0\n"
    assert dumps_json(Table(["u"], [col])) == (
        '[{"u": 18446744073709551615}, {"u": 0}]\n')


def test_real_scalars_are_written_as_floats():
    obj = {"q": Fraction(1, 4), "h": np.float16(-2.0),
           "ld": np.longdouble(0.5), "nan": np.float32("nan")}
    assert dumps_json(obj) == (
        '{"q": 2.5000000000000000e-01, "h": -2.0000000000000000e+00, '
        '"ld": 5.0000000000000000e-01, "nan": null}\n')


@pytest.mark.parametrize("value", [
    object(), 1 + 2j, np.complex128(1j), {1}, b"x",
], ids=["object", "complex", "numpy-complex", "set", "bytes"])
def test_values_without_json_spelling_are_rejected(value):
    with pytest.raises(TypeError):
        dumps_json({"o": value})


def exactness_sample():
    """Seeded floats where the rendering's guards matter: random bit
    patterns over every exponent field (subnormals, nan and inf included),
    every power of ten with both neighbours, random integers up to 2**62
    and dyadic rationals m / 2**j."""
    rng = np.random.default_rng(20061218)
    size = 120_000
    fields = np.resize(np.arange(2048, dtype=np.uint64), size)
    bits = ((rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63))
            | (fields << np.uint64(52))
            | rng.integers(0, 2**52, size, dtype=np.uint64))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([
        bits.view(np.float64),
        [0.0, -0.0, np.nan, np.inf, -np.inf],
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf), -tens,
        rng.integers(-(2**62), 2**62, 40_000).astype(np.float64),
        (rng.integers(-(2**53), 2**53, 40_000)
         / 2.0 ** rng.integers(0, 80, 40_000)),
    ])


def test_float_cells_match_the_scalar_format():
    x = exactness_sample()
    want = [FLOAT_FORMAT % v for v in x.tolist()]
    csv = "".join(Table(["v"], [x]).chunks(for_json=False))
    assert csv.split("\n")[:-1] == want
    text = "".join(Table(["v"], [x]).chunks(for_json=True))
    cells = [c.removeprefix('{"v": ').removesuffix("}")
             for c in text[1:-1].split(", ")]
    assert cells == [w if isfinite(v) else "null"
                     for w, v in zip(want, x.tolist())]


def test_only_uncertain_cells_are_formatted_alone(monkeypatch):
    """Ordinary values, integers and powers of ten are rendered in numpy;
    zeros, non-finite values and an exact rounding tie (17 digits, then a
    5) are formatted one by one."""
    rng = np.random.default_rng(7)
    # below 1e6 a 17-digit rounding tie is rare (under 2**-20 a cell)
    ordinary = np.concatenate([
        rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 6, 5000),
        np.arange(1.0, 1001.0), 10.0 ** np.arange(17), np.full(100, 1.0)])
    alone = [0.0, -0.0, np.nan, np.inf, 45512082456347.6875]
    x = np.concatenate([ordinary, alone])
    scalar = []
    slots = serialize._slots
    monkeypatch.setattr(serialize, "_slots",
                        lambda texts: slots(scalar.extend(texts) or texts))
    text = "".join(Table(["v"], [x]).chunks(for_json=False))
    assert text.split("\n")[:-1] == [FLOAT_FORMAT % v for v in x.tolist()]
    assert scalar == [FLOAT_FORMAT % v for v in alone]


# magnitudes that `_magnitude_cells` cannot certify, placed at mirrored rows
MIRRORED_ALONE = [0.0, 5e-324, float("nan"), float("inf"), 45512082456347.6875]


def counting_magnitudes(rows):
    """A stand-in for `serialize._magnitude_cells` that records how many
    rows each call formats."""
    inner = serialize._magnitude_cells

    def wrapper(a):
        rows.append(a.size)
        return inner(a)
    return wrapper


@st.composite
def mirrored_columns(draw, nrows):
    """(header, columns, broken): float columns whose magnitudes read the
    same backwards, each cell with its own random sign, the uncertified
    magnitudes at drawn mirrored pairs of rows, maybe an int64 column, and
    maybe one cell of one float column changed so that the table is no
    longer mirrored."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = (nrows + 1) // 2
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        mag = np.abs(rng.standard_normal(half)) * 10.0 ** rng.integers(
            -300, 300, half)
        for v in draw(st.lists(st.sampled_from(MIRRORED_ALONE), max_size=6)):
            mag[rng.integers(half)] = v
        mag = np.concatenate([mag, mag[:nrows // 2][::-1]])
        columns.append(np.where(rng.integers(0, 2, nrows) == 1, -mag, mag))
    broken = nrows > 1 and draw(st.booleans())
    if broken:
        col = columns[draw(st.integers(0, len(columns) - 1))]
        rows = st.integers(0, nrows - 1)
        i = draw(rows.filter(lambda i: 2 * i != nrows - 1))
        # any magnitude but that of its mirror cell
        col[i] = 0.5 if abs(col[nrows - 1 - i]) != 0.5 else 0.25
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), rng.integers(
            -(2**63), 2**63 - 1, nrows, dtype=np.int64, endpoint=True))
    header = [f"c{j}" for j in range(len(columns))]
    return header, columns, broken


@pytest.mark.parametrize("nrows", [1, 2, 3, 4095, 4096, 4097, 8193, 8194])
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_mirrored_table_matches_per_cell_rule(nrows, data):
    """A table whose float columns are mirrored in magnitude formats each
    mirrored pair once, and its bytes are still those of the per-cell
    rule; a table with one cell out of mirror takes the plain path."""
    header, columns, broken = data.draw(mirrored_columns(nrows))
    rows = list(zip(*[c.tolist() for c in columns]))
    nfloat = sum(c.dtype.kind == "f" for c in columns)
    formatted = []
    with mock.patch.object(serialize, "_magnitude_cells",
                           counting_magnitudes(formatted)):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.csv")
            write_csv(path, header, columns)
            with open(path, "rb") as fh:
                assert fh.read() == oracle_csv(header, rows).encode()
        assert sum(formatted) == nfloat * (nrows if broken
                                           else (nrows + 1) // 2)
        got = dumps_json(Table(header, columns))
    assert got == dumps_json([dict(zip(header, r)) for r in rows])


@pytest.mark.parametrize("argv, rows", [
    (["wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
      "--n", "3", "--grid-size", "2001"], [1001] * 6),
    (["wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
      "--n", "3", "--grid-size", "2000"], [1000] * 6),
    # four float columns (n and tau are integers), not mirrored
    (["spectrum", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
      "--n-max", "200"], [401] * 4),
], ids=["wavefunction-2001", "wavefunction-2000", "spectrum-401"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mirrored_rows_are_formatted_once(argv, rows, fmt, tmp_path,
                                          monkeypatch):
    """Work-count guard: the magnitude kernel formats the ceil(N/2) rows
    of each float column of a wavefunction table, whose columns are odd
    or even in the grid, and every row of a spectrum table."""
    formatted = []
    monkeypatch.setattr(serialize, "_magnitude_cells",
                        counting_magnitudes(formatted))
    assert main(argv + ["--format", fmt, "--out-dir", str(tmp_path)]) == 0
    assert formatted == rows


@pytest.mark.parametrize("bt, n, size", [
    (0.005, 1, 4001),  # tails of zeros at mirrored nodes
    (0.0, 2, 4097),
    (0.0, 2, 4098),
])
def test_wavefunction_artifacts_match_per_cell_rule(bt, n, size, tmp_path):
    params, qn = DOParams(bt, 1.0), QuantumNumber(n, 1)
    header = ["p_tilde", "q", "psi1", "psi2", "f", "weight"]
    columns = list(wavefunction(params, qn, GridSpec(size)).csv_rows())
    rows = list(zip(*[c.tolist() for c in columns]))
    base = ["wavefunction", "--beta-tilde", repr(bt), "--omega-tilde", "1",
            "--n", str(n), "--grid-size", str(size)]
    for fmt, want in [
            ("csv", oracle_csv(header, rows)),
            ("json", dumps_json([dict(zip(header, r)) for r in rows]))]:
        out = tmp_path / fmt
        assert main(base + ["--format", fmt, "--out-dir", str(out)]) == 0
        path = out / f"wavefunction_n{n}_taup.{fmt}"
        assert path.read_text() == want, fmt


def test_float_tables_stay_unbuilt_at_import():
    """Importing the command line builds no lookup table: a subcommand
    that writes no table pays nothing for them."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import minlen.cli\nfrom minlen import serialize\n"
             "print(serialize._tables.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "0"
