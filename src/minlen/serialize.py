"""Deterministic CSV/JSON writers.

Floats are rendered with 17 significant digits in lowercase scientific
notation (`FLOAT_FORMAT`) so that identical runs produce byte-identical
files.  The JSON writer is a small custom emitter: the stdlib encoder
prints shortest round-trip floats, which is deterministic but does not
honor the fixed format, so we emit the text ourselves (keys keep insertion
order).  JSON has no spelling for NaN or infinity, so non-finite floats are
written as null; CSV keeps Python's nan/inf.

Tables (`Table`, `write_csv`) are given as columns and rendered in numpy,
`CHUNK_ROWS` rows at a time.  Each cell is a `SLOT`-byte slot padded with
NUL bytes; the constant bytes (commas and newlines, or the JSON keys and
braces) are laid around the slots, and the padding is stripped.  A float
cell's magnitude is built by `_magnitude_cells` from its 17-digit integer,
computed in double-double arithmetic; `_signed_cells` then adds the sign
byte, and a cell the kernel cannot certify (zeros, subnormals, non-finite
values, a digit string within 1e-9 of a rounding tie, or a decimal
exponent estimate that missed) is `FLOAT_FORMAT % v` of its own value in
the same slot, so the scalar format is the reference.  An integer cell is
`%d`.  When the magnitudes of every float column read the same backwards,
as the columns of an oscillator state do, row n-1-i reuses the magnitude
cells of row i: the chunks of the lower half and the centre row are
written first, and the upper half, held as text (at most half the table),
follows in order.  `write_csv` writes the chunks as they come; `write_json`
collects the pieces of the whole document before writing.  Any other
column type (bool, object, strings), or a value with no JSON spelling
(complex, object), is a TypeError; other reals are written as floats.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from math import isfinite
from numbers import Real

import numpy as np

FLOAT_FORMAT = "%.16e"
CHUNK_ROWS = 4096
# the widest cell: "-1.2345678901234567e-308", or a 20-digit uint64
SLOT = 24

# 10^k for the k = 16 - floor(log10|x|) of normal doubles
_K0, _K1 = 16 - 308, 16 + 308


def fmt_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


@functools.cache
def _tables():
    """The lookup tables of `_magnitude_cells`, built on first use: "0000" to
    "9999" as four ASCII digits in one uint32 each, then (H, L, b) arrays
    with 10^k = (H + L)·2^b, H in [1/2, 1] and H + L exact to about
    2^-106, for k = _K0.._K1, then "e-308" to "e+308" as 5 bytes each (a
    third exponent digit of 0 is a NUL byte: %e prints at least two)."""
    digits = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    table = []
    for k in range(_K0, _K1 + 1):
        f = Fraction(10) ** k
        b = f.numerator.bit_length() - f.denominator.bit_length()
        if f >= Fraction(2) ** b:
            b += 1
        r = f / Fraction(2) ** b
        h = float(r)
        table.append((h, float(r - Fraction(h)), b))
    arrays = [digits.astype(np.uint8).view(np.uint32)[:, 0]]
    exponents = np.array([b"e%+04d" % k for k in range(-308, 309)], "S5")
    exponents = exponents.view(np.uint8).reshape(-1, 5).copy()
    exponents[exponents[:, 2] == ord("0"), 2] = 0
    arrays += [np.array(column) for column in zip(*table)] + [exponents]
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _split(v):
    """Veltkamp's split: the high 26 bits of v (v minus it is exact)."""
    c = 134217729.0 * v
    return c - (c - v)


def _slots(texts) -> np.ndarray:
    """ASCII strings as rows of SLOT bytes, padded with NUL."""
    return np.array(texts, dtype=f"S{SLOT}").view(np.uint8).reshape(-1, SLOT)


def _magnitude_cells(a: np.ndarray):
    """`FLOAT_FORMAT % v` of each float64 magnitude a = |v| as rows of SLOT
    bytes, less the sign byte that `_signed_cells` sets, and whether each
    cell is certified.

    a = m·2^e is scaled by 10^k, k = 16 - floor(log10 a), as
    m·(H + L)·2^(b+e): m·H exactly by Dekker's product, plus m·L.  The
    rounded result N is the 17-digit integer of the cell, to about 1e-14.
    A cell is certified when a is normal, the fraction rounded off is not
    within 1e-9 of 1/2, the scaled value before rounding is at least
    10^16 and N < 10^17 (a wrong log10 estimate or a carry into the next
    power of ten leaves that range); `_signed_cells` formats every other
    cell alone.  The doubles nearest the lower end are those nearest a
    power of ten, and the tests check them all.  Both results depend on a
    alone, so equal magnitudes give equal cells.
    """
    normal = (a >= sys.float_info.min) & (a <= sys.float_info.max)
    a = np.where(normal, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    m, e = np.frexp(a)
    digits4, h, l, b, exponents = _tables()
    i = 16 - e10 - _K0
    H = h.take(i, mode="clip")
    s = b.take(i, mode="clip") + e
    p = m * H
    mh, Hh = _split(m), _split(H)
    ml, Hl = m - mh, H - Hh
    err = ((mh * Hh - p) + mh * Hl + ml * Hh) + ml * Hl
    # 10^k a = p·2^s, p in [1/4, 1): scaling by 2^s (near 10^16) is exact
    scale = np.ldexp(1.0, s)
    big = p * scale
    whole = np.rint(big)
    frac = (big - whole) + (err + m * l.take(i, mode="clip")) * scale
    carry = np.rint(frac)
    n = whole.astype(np.int64) + carry.astype(np.int64)
    sure = (normal & (np.abs(frac - carry) < 0.5 - 1e-9)
            & ((whole - 1e16) + frac >= 0) & (n < 10**17))

    # the digits of N: lead, then four groups of four
    top = n // 10**8
    lead = top // 10**8
    high, low = top - lead * 10**8, n - top * 10**8
    hh, lh = high // 10**4, low // 10**4
    quads = np.stack([hh, high - hh * 10**4, lh, low - lh * 10**4], axis=1)
    cells = np.empty((len(a), SLOT), np.uint8)
    cells[:, 1] = lead + ord("0")
    cells[:, 2] = ord(".")
    cells[:, 3:19] = digits4[quads].view(np.uint8)
    cells[:, 19:24] = exponents.take(e10 + 308, axis=0, mode="clip")
    return cells, sure


def _signed_cells(cells, x, sure, null_nonfinite: bool):
    """Complete the magnitude cells of the float64 values x in place: the
    sign byte of each certified cell from its own value, and every other
    cell `FLOAT_FORMAT % v` of its own v (or null for JSON)."""
    cells[:, 0] = np.where(x < 0, ord("-"), 0)
    alone = np.flatnonzero(~sure)
    if alone.size:
        cells[alone] = _slots([
            "null" if null_nonfinite and not isfinite(v) else FLOAT_FORMAT % v
            for v in x[alone].tolist()])


class Table:
    """Named columns of equal length; `_emit` writes it as a list of row
    objects."""

    def __init__(self, header, columns):
        self.header = [str(h) for h in header]
        self.columns = [np.asarray(c) for c in columns]
        if len(self.columns) != len(self.header):
            raise ValueError("a table needs one column per header name")
        if any(c.ndim != 1 or len(c) != len(self.columns[0])
               for c in self.columns):
            raise ValueError("table columns must be 1-D and of equal length")
        for c in self.columns:
            if c.dtype.kind not in "iuf":
                raise TypeError(f"cannot write a table column of {c.dtype}")

    def chunks(self, for_json: bool):
        """The rows as text, up to CHUNK_ROWS rows a piece: CSV lines, or
        the JSON list of row objects."""
        ncols = len(self.header)
        if for_json:
            before = [", {"] + [", "] * (ncols - 1)
            before = [s + json.dumps(h) + ": "
                      for s, h in zip(before, self.header)]
            after = "}"
        else:
            before, after = [""] + [","] * (ncols - 1), "\n"
        template, offsets = b"", []
        for piece in before:
            template += piece.encode()
            offsets.append(len(template))
            template += bytes(SLOT)
        template = np.frombuffer(template + after.encode(), np.uint8)

        # one float64 view (or cast) of each float column for the table
        columns = [np.asarray(c, np.float64) if c.dtype.kind == "f" else c
                   for c in self.columns]
        nrows = len(columns[0]) if columns else 0
        # When every float column reads the same backwards in magnitude (the
        # states of the Dirac oscillator have definite parity), the
        # magnitude cells of row i < nrows // 2 also serve row nrows-1-i:
        # the lower half and the centre row are rendered first, and the
        # upper half waits as text until they are out.
        magnitudes = (np.abs(c) for c in columns if c.dtype.kind == "f")
        mirrored = all(np.array_equal(a, a[::-1], equal_nan=True)
                       for a in magnitudes)
        lower = (nrows + 1) // 2 if mirrored else nrows

        def render(lo, hi, mags):
            """Rows lo..hi as text, from the magnitude cells and certainty
            of each float column (None for an integer column)."""
            rows = np.empty((hi - lo, template.size), np.uint8)
            rows[:] = template
            for off, col, mag in zip(offsets, columns, mags):
                cells = rows[:, off:off + SLOT]
                if mag is None:
                    cells[:] = _slots(["%d" % v for v in col[lo:hi].tolist()])
                else:
                    cells[:] = mag[0]
                    _signed_cells(cells, col[lo:hi], mag[1], for_json)
            return rows.tobytes().translate(None, b"\0").decode("ascii")

        upper = []
        if for_json:
            yield "["
        for start in range(0, lower, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, lower)
            mags = [_magnitude_cells(np.abs(c[start:stop]))
                    if c.dtype.kind == "f" else None for c in columns]
            text = render(start, stop, mags)
            # the first row object has no ", " before it
            yield text[2:] if for_json and start == 0 else text
            # rows start..twin have their mirror rows in the upper half
            twin = min(stop, nrows - lower)
            if twin > start:
                k = twin - start
                upper.append(render(nrows - twin, nrows - start, [
                    None if m is None else (m[0][:k][::-1], m[1][:k][::-1])
                    for m in mags]))
        while upper:
            yield upper.pop()
        if for_json:
            yield "]"


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        out.append(fmt_float(obj) if isfinite(obj) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, Table):
        out.extend(obj.chunks(for_json=True))
    elif isinstance(obj, Real):
        # numpy floating scalars other than float64, Fraction
        x = float(obj)
        out.append(fmt_float(x) if isfinite(x) else "null")
    else:
        raise TypeError(f"cannot write a {type(obj).__name__} value as JSON")


def _json_pieces(obj) -> list:
    out: list = []
    _emit(obj, out)
    out.append("\n")
    return out


def dumps_json(obj) -> str:
    return "".join(_json_pieces(obj))


def write_json(path, obj):
    pieces = _json_pieces(obj)
    with open(path, "w") as fh:
        fh.writelines(pieces)


def write_csv(path, header, columns):
    """The table of `columns` under `header`, one line per row."""
    table = Table(header, columns)
    with open(path, "w") as fh:
        fh.write(",".join(table.header) + "\n")
        fh.writelines(table.chunks(for_json=False))
