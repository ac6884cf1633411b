"""scipy is loaded on first use: the exact half and the subcommands that
need no eigenproblem or Pochhammer symbol never import it, and the
module-level wrappers in `wavefunction` stay the names a caller (or a
profiler) patches, returning scipy's own results bit for bit."""

import json
import os
import subprocess
import sys

import numpy as np
import scipy.linalg
import scipy.special

import minlen.oscillator.wavefunction as wfmod
from minlen.oscillator.spectrum import DOParams, QuantumNumber, make_level
from minlen.uncertainty import uncertainty_report

PROBE = r"""
import json, sys
from minlen.cli import main

def loaded():
    return [m for m in ("scipy.linalg", "scipy.special") if m in sys.modules]

out = sys.argv[1]
seen = {"import": loaded()}
for label, argv in [
    ("spectrum", ["spectrum", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
                  "--n-max", "2"]),
    ("limits", ["limits", "--beta-values", "1e-3,1e-4", "--omega-tilde",
                "0.7", "--n-max", "2"]),
    ("verify-algebra", ["verify-algebra", "--dims", "1", "--case",
                        "algebra"]),
    ("uncertainty", ["uncertainty", "--beta-tilde", "0.5", "--omega-tilde",
                     "1.0", "--n-max", "0", "--grid-size", "201"]),
]:
    code = main(argv + ["--out-dir", out + "/" + label])
    seen[label] = [code, loaded()]
print(json.dumps(seen))
"""


def test_scipy_stays_unloaded_until_a_solver_needs_it(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    seen = json.loads(proc.stdout)
    assert seen["import"] == []
    for label in ("spectrum", "limits", "verify-algebra"):
        assert seen[label] == [0, []], label
    # the Gauss rule of the uncertainty moments needs the eigensolver
    code, loaded = seen["uncertainty"]
    assert code == 0 and "scipy.linalg" in loaded


def counting(monkeypatch, name):
    """Replace wfmod.<name> with a wrapper that records (args, kwargs,
    result) of every call."""
    calls = []
    inner = getattr(wfmod, name)

    def wrapper(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(wfmod, name, wrapper)
    return calls


def test_wrappers_are_patchable_and_bit_identical(monkeypatch):
    eigh = counting(monkeypatch, "eigh_tridiagonal")
    poch = counting(monkeypatch, "poch")
    params = DOParams(0.5, 1.0)

    wf = wfmod.wavefunction(params, QuantumNumber(2, 1), wfmod.GridSpec(401))
    assert len(poch) == 1 and eigh == []
    uncertainty_report(wf, params)  # the Gauss rule: one eigenproblem
    assert len(eigh) == 1
    level = make_level(params, QuantumNumber(0, 1))
    wfmod.eigensolve_factorized(params, level.p0_tilde, 3, npts=200)
    assert len(eigh) == 4  # lowest_eigenvalues on each of three grids

    for args, kwargs, out in eigh:
        ref = scipy.linalg.eigh_tridiagonal(*args, **kwargs)
        assert out.tobytes() == ref.tobytes()
    for args, kwargs, out in poch:
        ref = scipy.special.poch(*args, **kwargs)
        assert np.float64(out).tobytes() == np.float64(ref).tobytes()
