"""Golden outputs: every subcommand's report.json and artifacts, byte for byte.

Each case runs `minlen.cli.main` with the argv below into a fresh directory,
checks its exit code (0 for every case) and compares every file it writes
with `tests/golden/<case>/`.  To regenerate a case after an intended
output change, run its argv by hand:

    PYTHONPATH=src python -m minlen.cli <argv...> --out-dir tests/golden/<case>
"""

import json
import math
import os

import numpy as np
import pytest

from minlen.cli import main
from minlen.serialize import dumps_json

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

BT05 = ["--beta-tilde", "0.5", "--omega-tilde", "1.0"]
BT0 = ["--beta-tilde", "0", "--omega-tilde", "1.0"]

CASES = {
    "verify-all-D1": ["verify-algebra", "--dims", "1", "--case", "all"],
    "verify-all-D2": ["verify-algebra", "--dims", "2", "--case", "all"],
    "verify-algebra-D3": ["verify-algebra", "--dims", "3", "--case", "algebra"],
    "verify-poincare-D3": [
        "verify-algebra", "--dims", "3", "--case", "poincare"],
    "verify-reductions-D3": [
        "verify-algebra", "--dims", "3", "--case", "reductions"],
    "verify-snyder-D3": ["verify-algebra", "--dims", "3", "--case", "snyder"],
    "verify-kempf-D3": ["verify-algebra", "--dims", "3", "--case", "kempf"],
    "spectrum": ["spectrum", *BT05, "--n-max", "10"],
    # the only CSV table with integer columns
    "spectrum-csv": ["spectrum", *BT05, "--n-max", "10", "--format", "csv"],
    # e_n of the n = 0 level is -0.0
    "spectrum-diagnostic": [
        "spectrum", "--beta-tilde", "1.5", "--omega-tilde", "1", "--n-max",
        "3", "--diagnostic", "true"],
    "limits": [
        "limits", "--beta-values", "1e-3,1e-4,1e-5", "--omega-tilde", "0.7",
        "--expect-linear"],
    "wavefunction-json-bt05": [
        "wavefunction", *BT05, "--n", "2", "--grid-size", "2001",
        "--format", "json"],
    "wavefunction-csv-bt05": [
        "wavefunction", *BT05, "--n", "2", "--grid-size", "2001",
        "--format", "csv"],
    "wavefunction-json-bt0": [
        "wavefunction", *BT0, "--n", "2", "--grid-size", "2001",
        "--format", "json"],
    "wavefunction-csv-bt0": [
        "wavefunction", *BT0, "--n", "2", "--grid-size", "2001",
        "--format", "csv"],
    "uncertainty": [
        "uncertainty", *BT05, "--n-max", "2", "--grid-size", "2001"],
}


def _files(root):
    return sorted(os.listdir(root))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, tmp_path):
    out = str(tmp_path / case)
    assert main(CASES[case] + ["--out-dir", out]) == 0
    golden = os.path.join(GOLDEN, case)
    assert _files(out) == _files(golden)
    for name in _files(golden):
        with open(os.path.join(out, name), "rb") as fh:
            got = fh.read()
        with open(os.path.join(golden, name), "rb") as fh:
            want = fh.read()
        assert got == want, f"{case}/{name} differs from its golden"


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_outputs_parse_strictly(case):
    """report.json and every JSON artifact are RFC 8259 JSON: no NaN or
    Infinity tokens.  The goldens stand for the outputs, which the test
    above holds byte-identical to them."""
    golden = os.path.join(GOLDEN, case)
    names = [n for n in _files(golden) if n.endswith(".json")]
    assert "report.json" in names
    for name in names:
        with open(os.path.join(golden, name)) as fh:
            json.loads(fh.read(), parse_constant=_reject_constant)


def test_nonfinite_floats_serialize_as_null():
    obj = {"nan": math.nan, "inf": math.inf, "ninf": -math.inf,
           "np": np.float64("nan"), "ok": 1.5}
    assert json.loads(dumps_json(obj), parse_constant=_reject_constant) == {
        "nan": None, "inf": None, "ninf": None, "np": None, "ok": 1.5}
