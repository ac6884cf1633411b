"""Smoke test of perfbench's tracer against the package it instruments.

perfbench/tracing.py reads minlen names (poly.Coef, Poly.__mul__,
WavefunctionGrid.csv_rows as a generator, ...) from outside the package;
a rename that breaks `perfbench/run.py --trace 1` shows here.
"""

import importlib
import os

from minlen.core import Spacetime
from minlen.oscillator.spectrum import DOParams, QuantumNumber
from minlen.oscillator.wavefunction import GridSpec, wavefunction
from minlen.symbolic.identities import verify_algebra

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_tracer_installs_measures_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    import minlen.oscillator.wavefunction as wfmod

    spans, profile = tracing.SpanTracer(), tracing.CallProfile()
    original = wfmod.WavefunctionGrid.csv_rows
    spans.install()
    profile.install()
    try:
        profile.run("verify", lambda: verify_algebra(Spacetime(1)))
        wf = wfmod.wavefunction(DOParams(0.5, 1.0), QuantumNumber(1, 1),
                                GridSpec(64))
        assert len(list(wf.csv_rows())) == 6
        layers = spans.metrics(1)
        kernel = profile.metrics()
    finally:
        profile.uninstall()
        spans.uninstall()
    assert wfmod.WavefunctionGrid.csv_rows is original
    assert wfmod.wavefunction is wavefunction
    assert layers["wavefunction.grid_points"] == 64
    assert kernel["poly.mul.calls"] > 0
    assert kernel["op.matmul.calls"] > 0
