"""Deformed uncertainty bounds, minimal lengths and state moments."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import eval_gegenbauer, roots_jacobi

from minlen.core import DeformationParams
from minlen.oscillator.spectrum import (
    AcceptabilityError,
    DOParams,
    QuantumNumber,
)
from minlen.oscillator.wavefunction import GridSpec, ground_state, wavefunction
from minlen.uncertainty import (
    MomentSet,
    absolute_min_deltaX,
    gup_bound,
    min_deltaX,
    state_moments,
    uncertainty_report,
    ur_bound,
)

floats = st.floats(min_value=-3.0, max_value=3.0)
spreads = st.floats(min_value=0.0, max_value=3.0)


def test_momentset_validation():
    MomentSet(D=2, mean_P=(0.0, 0.0), spread_P=(1.0, 1.0), meansq_P0=1.0)
    with pytest.raises(ValueError):
        MomentSet(D=2, mean_P=(0.0,), spread_P=(1.0, 1.0), meansq_P0=1.0)
    with pytest.raises(ValueError):
        MomentSet(D=1, mean_P=(0.0,), spread_P=(-1.0,), meansq_P0=1.0)
    with pytest.raises(ValueError):
        MomentSet(D=1, mean_P=(0.0,), spread_P=(1.0,), meansq_P0=-1.0)
    # NaN compares False against zero either way; it must fail too
    with pytest.raises(ValueError):
        MomentSet(D=1, mean_P=(0.0,), spread_P=(math.nan,), meansq_P0=1.0)
    with pytest.raises(ValueError):
        MomentSet(D=1, mean_P=(0.0,), spread_P=(1.0,), meansq_P0=math.nan)


def test_momentset_contractions():
    m = MomentSet(D=2, mean_P=(1.0, 2.0), spread_P=(0.5, 0.25), meansq_P0=9.0)
    assert m.meansq_spatial(1) == 0.25 + 1.0
    assert m.meansq_spatial(2) == 0.0625 + 4.0
    assert m.minkowski_meansq() == 9.0 - 1.25 - 4.0625
    with pytest.raises(ValueError):
        m.meansq_spatial(0)
    with pytest.raises(ValueError):
        m.meansq_spatial(3)


# ---- one-parameter bound ----------------------------------------------------


def test_gup_bound_positive_argument_required():
    with pytest.raises(ValueError):
        gup_bound(0.0, 0.1)
    with pytest.raises(ValueError):
        gup_bound(-1.0, 0.1)
    with pytest.raises(ValueError):
        gup_bound(math.nan, 0.1)


@pytest.mark.parametrize("beta", [0.01, 0.3, 2.0])
@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_gup_bound_minimum_oracle(beta, hbar):
    """Golden-section minimization reproduces (1/sqrt(beta), hbar sqrt(beta))."""
    res = minimize_scalar(
        lambda dp: gup_bound(dp, beta, hbar),
        bracket=(1e-3, 1.0 / math.sqrt(beta), 1e3),
        method="golden",
        options={"xtol": 1e-14},
    )
    # the product is flat at its minimum, so the argmin carries the usual
    # sqrt(eps) localization error; the value itself is sharp
    assert abs(res.x * math.sqrt(beta) - 1.0) < 1e-6
    assert abs(res.fun - hbar * math.sqrt(beta)) < 1e-12


@given(st.floats(min_value=1e-3, max_value=10.0), spreads.filter(lambda s: s > 1e-3))
@settings(max_examples=50)
def test_gup_bound_never_below_minimum(beta, dp):
    assert gup_bound(dp, beta) >= math.sqrt(beta) - 1e-12


# ---- covariant bound --------------------------------------------------------


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.tuples(floats, floats, floats),
    st.tuples(spreads, spreads, spreads),
    st.floats(min_value=0.0, max_value=9.0),
    st.integers(1, 3),
)
@settings(max_examples=80)
def test_ur_bound_long_and_compact_forms_agree(beta, betap, mean, sp, p0sq, i):
    """The defining form with the explicit spread sum equals
    (hbar/2)|1 - beta <P.P> + betap <(P^i)^2>|."""
    m = MomentSet(D=3, mean_P=mean, spread_P=sp, meansq_P0=p0sq)
    params = DeformationParams(beta=beta, beta_prime=betap)
    long_form = ur_bound(m, params, i)
    compact = 0.5 * abs(
        1.0 - beta * m.minkowski_meansq() + betap * m.meansq_spatial(i)
    )
    assert math.isclose(long_form, compact, rel_tol=1e-12, abs_tol=1e-12)


def test_ur_bound_permutation_invariant():
    """Relabeling the spatial axes permutes i but leaves the bound alone."""
    params = DeformationParams(beta=0.2, beta_prime=0.1)
    m = MomentSet(
        D=3, mean_P=(0.3, -0.7, 1.1), spread_P=(0.4, 0.9, 0.2), meansq_P0=2.0
    )
    perm = (2, 0, 1)
    mp = MomentSet(
        D=3,
        mean_P=tuple(m.mean_P[j] for j in perm),
        spread_P=tuple(m.spread_P[j] for j in perm),
        meansq_P0=2.0,
    )
    for new_i, old_j in enumerate(perm):
        assert math.isclose(
            ur_bound(mp, params, new_i + 1), ur_bound(m, params, old_j + 1)
        )


def test_ur_bound_undeformed_is_half_hbar():
    m = MomentSet(D=3, mean_P=(1.0, 2.0, 3.0), spread_P=(1.0, 1.0, 1.0), meansq_P0=5.0)
    params = DeformationParams(beta=0.0, beta_prime=0.0)
    assert ur_bound(m, params, 1) == 0.5


def test_min_deltaX_matches_numeric_minimum():
    """Minimize the product bound over the isotropic spread directly."""
    params = DeformationParams(beta=0.05, beta_prime=0.02)
    D = 3
    mean = (0.2, -0.1, 0.3)
    p0sq = 1.5
    i = 1

    def bound_over_dp(dp):
        m = MomentSet(D=D, mean_P=mean, spread_P=(dp,) * D, meansq_P0=p0sq)
        return ur_bound(m, params, i) / dp

    res = minimize_scalar(
        bound_over_dp, bracket=(1e-3, 1.0, 1e3), method="golden",
        options={"xtol": 1e-14},
    )
    m0 = MomentSet(D=D, mean_P=mean, spread_P=(1.0,) * D, meansq_P0=p0sq)
    assert math.isclose(min_deltaX(m0, params, i), res.fun, rel_tol=1e-10)


def test_min_deltaX_requires_isotropy():
    params = DeformationParams(beta=0.1, beta_prime=0.0)
    m = MomentSet(D=2, mean_P=(0.0, 0.0), spread_P=(1.0, 2.0), meansq_P0=0.0)
    with pytest.raises(ValueError):
        min_deltaX(m, params, 1)


def test_min_deltaX_unacceptable_state():
    params = DeformationParams(beta=1.0, beta_prime=0.0)
    m = MomentSet(D=1, mean_P=(0.0,), spread_P=(1.0,), meansq_P0=4.0)
    with pytest.raises(AcceptabilityError):
        min_deltaX(m, params, 1)
    # a NaN mean makes the brace NaN, which is not positive either
    m = MomentSet(D=1, mean_P=(math.nan,), spread_P=(1.0,), meansq_P0=0.0)
    with pytest.raises(AcceptabilityError):
        min_deltaX(m, params, 1)


def test_absolute_min_deltaX_euclidean_value():
    params = DeformationParams(beta=0.09, beta_prime=0.16)
    D = 3
    assert absolute_min_deltaX(params, 0.0, D) == math.sqrt(
        (D * 0.09 + 0.16)
    )
    # hbar scales linearly
    assert absolute_min_deltaX(params, 0.0, D, hbar=2.0) == 2 * math.sqrt(
        D * 0.09 + 0.16
    )


def test_absolute_min_deltaX_shrinks_with_energy_content():
    params = DeformationParams(beta=0.2, beta_prime=0.0)
    a = absolute_min_deltaX(params, 0.0, 1)
    b = absolute_min_deltaX(params, 2.0, 1)
    assert b < a
    with pytest.raises(AcceptabilityError):
        absolute_min_deltaX(params, 6.0, 1)
    with pytest.raises(AcceptabilityError):
        absolute_min_deltaX(DeformationParams(0.1), math.nan, 3)


# ---- oscillator states ------------------------------------------------------


def test_ground_state_saturates_undeformed_bound():
    wt = 0.6
    p = DOParams(0.0, wt)
    g = ground_state(p, 1.0, GridSpec(4001))
    sm = state_moments(g, p)
    assert abs(sm.deltaP - math.sqrt(wt / 2.0)) < 1e-10
    assert abs(sm.deltaX - 1.0 / math.sqrt(2.0 * wt)) < 1e-10
    assert abs(sm.deltaX * sm.deltaP - 0.5) < 1e-10
    assert abs(sm.moments.mean_P[0]) < 1e-12


def test_state_moments_requires_normalization():
    p = DOParams(0.0, 1.0)
    g = ground_state(p, 1.0, GridSpec(2001))
    g.half_psi1 = 2.0 * g.half_psi1
    with pytest.raises(ValueError):
        state_moments(g, p)
    # a NaN norm compares False against any tolerance; it must fail too
    p = DOParams(0.5, 1.0)
    g = wavefunction(p, QuantumNumber(1, 1), GridSpec(401))
    g.half_psi1 = np.full_like(g.half_psi1, np.nan)
    g.half_psi2 = np.full_like(g.half_psi2, np.nan)
    with pytest.raises(ValueError):
        state_moments(g, p)
    with pytest.raises(ValueError):
        uncertainty_report(g, p)


def test_report_requires_the_grids_own_parameters():
    """The bound takes bt from params and the moments come from the grid:
    other parameters would mix two oscillators (slack 0.062 instead of
    0.335 here), so they are refused."""
    p = DOParams(0.5, 1.0)
    wf = wavefunction(p, QuantumNumber(2, 1), GridSpec(2001))
    other = DOParams(0.1, 1.0)
    with pytest.raises(ValueError, match="different oscillator parameters"):
        uncertainty_report(wf, other)
    with pytest.raises(ValueError, match="different oscillator parameters"):
        state_moments(wf, other)
    assert uncertainty_report(wf, p)["slack"] > 0.3


@pytest.mark.parametrize("n", [0, 1, 3])
def test_deformed_states_respect_bound(n):
    p = DOParams(0.5, 1.0)
    wf = wavefunction(p, QuantumNumber(n, 1), GridSpec(4001))
    rec = uncertainty_report(wf, p)
    assert rec["slack"] >= -1e-10
    assert rec["product"] == rec["deltaX"] * rec["deltaP"]
    assert set(rec) == {
        "level", "moments", "bound", "deltaX", "deltaP", "product", "slack",
    }
    assert rec["level"] == {"n": n, "tau": 1}


@pytest.mark.parametrize("bt,wt", [(0.5, 2.0), (1 / 3, 3.0)])
def test_states_at_unit_bt_wt(bt, wt):
    """bt wt = 1 puts the Gauss index mu = lam - 1 at 0 (Chebyshev), where
    the general recurrence coefficient is 0/0 at k = 1: no numpy warning,
    finite moments and the bound holds."""
    p = DOParams(bt, wt)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n in range(4):
            wf = wavefunction(p, QuantumNumber(n, 1), GridSpec(2001))
            rec = uncertainty_report(wf, p)
            assert math.isfinite(rec["product"])
            assert rec["slack"] >= -1e-10


def test_report_momentum_mean_vanishes_by_parity():
    p = DOParams(0.5, 1.0)
    wf = wavefunction(p, QuantumNumber(2, 1), GridSpec(4001))
    rec = uncertainty_report(wf, p)
    assert abs(rec["moments"]["mean_P"][0]) < 1e-10
    assert abs(rec["moments"]["mean_X"]) < 1e-8


@pytest.mark.parametrize("bt,wt,n,tau", [
    (0.5, 1.0, 2, 1), (0.75, 2.0, 1, 1), (0.3, 0.4, 7, -1), (0.9, 2.0, 3, 1)])
def test_moments_match_independent_quadrature(bt, wt, n, tau):
    """<p^2> and <x^2> against scipy's own Gauss-Jacobi rule applied to
    eval_gegenbauer: in z = sin u, psi1 = (1-z^2)^(lam/2) C_n^lam(z),
    psi2 = K (1-z^2)^((lam+1)/2) C_(n-1)^(lam+1)(z), dq = dz/(r cos u)."""
    params = DOParams(bt, wt)
    wf = wavefunction(params, QuantumNumber(n, tau), GridSpec(2001))
    p0 = wf.level.p0_tilde
    c0 = 1.0 - bt * p0**2
    lam, r = 1.0 / (bt * wt), math.sqrt(bt * c0)
    k2 = 2.0 * math.sqrt(c0 / bt) / (p0 + 1.0)
    z, w = roots_jacobi(n + 6, lam - 1.5, lam - 1.5)
    c = eval_gegenbauer
    c1, c2 = c(n, lam, z), c(n - 1, lam + 1, z)
    cc = 1.0 - z * z
    dens = c1**2 + k2**2 * cc * c2**2  # over cos^(2 lam)
    norm = np.sum(w * cc * dens) / r
    meansq_p = np.sum(w * (c0 / bt) * z * z * dens) / r / norm
    # r cos^(lam-1) [-lam z C1 + cos^2 C1'], r k2 cos^lam [...]
    d1 = -lam * z * c1 + cc * 2 * lam * c(n - 1, lam + 1, z)
    d2 = k2 * (-(lam + 1) * z * c2 + cc * 2 * (lam + 1) * c(n - 2, lam + 2, z))
    meansq_x = r * np.sum(w * (d1**2 + cc * d2**2)) / norm
    sm = state_moments(wf, params)
    assert math.isclose(sm.deltaP**2, meansq_p, rel_tol=1e-12)
    assert math.isclose(sm.deltaX**2, meansq_x, rel_tol=1e-12)
