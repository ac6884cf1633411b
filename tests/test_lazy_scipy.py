"""No subcommand loads scipy: the numerical half runs on numpy alone, and
only the finite-difference oracle `eigensolve_factorized` imports scipy,
on its first call, through the module-level wrapper
`wavefunction.eigh_tridiagonal`, once for each parity block of each grid.
That wrapper stays the name a caller (or a profiler) patches, returning
scipy's own result on its arguments bit for bit."""

import json
import os
import subprocess
import sys

import scipy.linalg

import minlen.oscillator.wavefunction as wfmod
from minlen.oscillator.spectrum import DOParams, QuantumNumber, make_level
from minlen.uncertainty import uncertainty_report

PROBE = r"""
import json, sys
from minlen.cli import main

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = sys.argv[1]
osc = ["--beta-tilde", "0.5", "--omega-tilde", "1.0"]
seen = {"import": loaded()}
for label, argv in [
    ("spectrum", ["spectrum", *osc, "--n-max", "2"]),
    ("limits", ["limits", "--beta-values", "1e-3,1e-4", "--omega-tilde",
                "0.7", "--n-max", "2"]),
    ("verify-algebra", ["verify-algebra", "--dims", "1", "--case",
                        "algebra"]),
    ("wavefunction", ["wavefunction", *osc, "--n", "2", "--grid-size",
                      "201"]),
    ("uncertainty", ["uncertainty", *osc, "--n-max", "2", "--grid-size",
                     "201"]),
    # bt = 0 takes the Gauss-Hermite branch of the moments
    ("uncertainty-bt0", ["uncertainty", "--beta-tilde", "0",
                         "--omega-tilde", "1.0", "--n-max", "2",
                         "--grid-size", "201"]),
]:
    code = main(argv + ["--out-dir", out + "/" + label])
    seen[label] = [code, loaded()]
print(json.dumps(seen))
"""


def test_no_subcommand_loads_scipy(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    seen = json.loads(proc.stdout)
    assert seen.pop("import") == []
    assert len(seen) == 6
    for label, result in seen.items():
        assert result == [0, []], label


def test_oracle_wrapper_is_patchable_and_bit_identical(monkeypatch):
    calls = []
    inner = wfmod.eigh_tridiagonal

    def counting(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(wfmod, "eigh_tridiagonal", counting)
    params = DOParams(0.5, 1.0)
    wf = wfmod.wavefunction(params, QuantumNumber(2, 1), wfmod.GridSpec(401))
    uncertainty_report(wf, params)  # its Gauss rule folds into numpy's SVD
    assert calls == []
    level = make_level(params, QuantumNumber(0, 1))
    wfmod.eigensolve_factorized(params, level.p0_tilde, 3, npts=200)
    # lowest_eigenvalues on each of three grids, one even and one odd block
    assert len(calls) == 6

    for args, kwargs, out in calls:
        ref = scipy.linalg.eigh_tridiagonal(*args, **kwargs)
        assert out.tobytes() == ref.tobytes()
