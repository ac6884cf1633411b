"""Deterministic CSV/JSON writers.

Floats are rendered with 17 significant digits in lowercase scientific
notation so that identical runs produce byte-identical files.  The JSON
writer is a small custom emitter: the stdlib encoder prints shortest
round-trip floats, which is deterministic but does not honor the fixed
format, so we emit the text ourselves (keys keep insertion order).  JSON
has no spelling for NaN or infinity, so non-finite floats are written as
null; CSV keeps Python's nan/inf.
"""

from __future__ import annotations

import json
from math import isfinite


def fmt_float(x: float) -> str:
    return format(float(x), ".16e")


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
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
    else:
        # numpy scalars and anything float-like
        try:
            x = float(obj)
        except (TypeError, ValueError):
            out.append(json.dumps(str(obj)))
        else:
            out.append(fmt_float(x) if isfinite(x) else "null")


def dumps_json(obj) -> str:
    out: list = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))


def write_csv(path, header, rows):
    """Rows of floats/ints/strings; floats go through fmt_float."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, (int,)) and not isinstance(v, bool):
                    cells.append(str(v))
                elif isinstance(v, str):
                    cells.append(v)
                else:
                    cells.append(fmt_float(v))
            fh.write(",".join(cells) + "\n")
