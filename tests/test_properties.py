"""Whole-range property tests of the closed-form oscillator states.

Parameters are drawn over beta_tilde in {0} u [1e-6, 0.99], omega_tilde in
[0.05, 5], n <= 40, both tau and two grid sizes.  Every state must be
normalized and solve both coupled equations to rounding.  Wherever
bt wt < 1 the grid must be fine enough (quadrature_error <= 1e-6), and
wherever it is, the sampled psi1 must also have exactly n sign changes and
exact parity, so that no state the library passes is wrong.  Beyond, the
wall grows steep (lam = 1/(bt wt) <= 1) and a coarse grid may miss the
norm, but it must say so.  The uncertainty bound must hold where
the moments are finite (bt wt < 2), with equality for the ground state,
and dP must be infinite beyond.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from minlen.oscillator.spectrum import DOParams, QuantumNumber
from minlen.oscillator.wavefunction import GridSpec, wavefunction
from minlen.uncertainty import uncertainty_report

QUADRATURE_TOL = 1e-6

betas = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.99))
omegas = st.floats(min_value=0.05, max_value=5.0)
levels = st.tuples(st.integers(0, 40), st.sampled_from([1, -1])).filter(
    lambda nt: nt != (0, -1))
sizes = st.sampled_from([2001, 4001])


def sign_changes(v):
    v = v[v != 0]
    return int(np.count_nonzero(np.sign(v[:-1]) != np.sign(v[1:])))


@given(betas, omegas, levels, sizes)
@settings(max_examples=300, deadline=None)
def test_states_over_the_whole_range(bt, wt, level, size):
    n, tau = level
    params = DOParams(bt, wt)
    wf = wavefunction(params, QuantumNumber(n, tau), GridSpec(size))
    meta = wf.metadata
    assert abs(wf.norm_squared() - 1.0) <= 1e-12
    assert max(meta["residual_coupled_1"], meta["residual_coupled_2"]) <= 1e-10
    fine = meta["quadrature_error"] <= QUADRATURE_TOL
    assert fine or bt * wt >= 1.0
    if fine:
        assert sign_changes(wf.psi1) == n
        sign = (-1) ** n
        assert np.array_equal(wf.psi1[::-1], sign * wf.psi1)
        assert np.array_equal(wf.psi2[::-1], -sign * wf.psi2)
    rec = uncertainty_report(wf, params)
    if bt * wt < 2.0:
        assert rec["slack"] >= -1e-10
        if n == 0:  # the ground state saturates the bound for every bt
            assert abs(rec["slack"]) <= 1e-10
    else:
        assert rec["deltaP"] == math.inf and rec["deltaX"] == math.inf
