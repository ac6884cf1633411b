"""Deterministic CSV/JSON writers.

Floats are rendered with 17 significant digits in lowercase scientific
notation (`FLOAT_FORMAT`) so that identical runs produce byte-identical
files.  The JSON writer is a small custom emitter: the stdlib encoder
prints shortest round-trip floats, which is deterministic but does not
honor the fixed format, so we emit the text ourselves (keys keep insertion
order).  JSON has no spelling for NaN or infinity, so non-finite floats are
written as null; CSV keeps Python's nan/inf.

Tables (`Table`, `write_csv`) are given as columns and written through one
row template built once per table: `%d` for an integer column and
`FLOAT_FORMAT` for a float column, with the JSON keys encoded into the
template, so each row is a single `template % row`.  A JSON float column
holding a non-finite value is rendered cell by cell to text or null first.
Any other column type (bool, object, strings), or a value with no JSON
spelling (complex, object), is a TypeError; other reals are written as floats.
"""

from __future__ import annotations

import json
from math import isfinite
from numbers import Real

import numpy as np

FLOAT_FORMAT = "%.16e"


def fmt_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


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

    def _rows(self, for_json: bool):
        """(cell specs, row tuples) for the row template."""
        specs, cols = [], []
        for col in self.columns:
            kind = col.dtype.kind
            cells = col.tolist()
            if kind in "iu":
                specs.append("%d")
            elif kind != "f":
                raise TypeError(f"cannot write a table column of {col.dtype}")
            elif for_json and not np.isfinite(col).all():
                specs.append("%s")
                cells = [fmt_float(x) if isfinite(x) else "null"
                         for x in cells]
            else:
                specs.append(FLOAT_FORMAT)
            cols.append(cells)
        return specs, zip(*cols)

    def csv_text(self) -> str:
        specs, rows = self._rows(for_json=False)
        template = ",".join(specs) + "\n"
        return ",".join(self.header) + "\n" + "".join(
            [template % row for row in rows])

    def json_text(self) -> str:
        specs, rows = self._rows(for_json=True)
        keys = [json.dumps(h).replace("%", "%%") for h in self.header]
        template = "{" + ", ".join(
            f"{k}: {s}" for k, s in zip(keys, specs)) + "}"
        return "[" + ", ".join([template % row for row in rows]) + "]"


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
        out.append(obj.json_text())
    elif isinstance(obj, Real):
        # numpy floating scalars other than float64, Fraction
        x = float(obj)
        out.append(fmt_float(x) if isfinite(x) else "null")
    else:
        raise TypeError(f"cannot write a {type(obj).__name__} value as JSON")


def dumps_json(obj) -> str:
    out: list = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))


def write_csv(path, header, columns):
    """The table of `columns` under `header`, one line per row."""
    text = Table(header, columns).csv_text()
    with open(path, "w") as fh:
        fh.write(text)
