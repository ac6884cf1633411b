"""Closed-form spectrum of the deformed relativistic oscillator."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minlen.oscillator.spectrum import (
    DOParams,
    QuantumNumber,
    UnphysicalDeformationError,
    e_formula,
    energy,
    level_K,
    make_level,
    p0_allowed,
    spectrum_table,
)

params_strategy = st.tuples(
    st.floats(min_value=0.0, max_value=0.95),
    st.floats(min_value=0.05, max_value=3.0),
)


def test_params_validation():
    with pytest.raises(ValueError):
        DOParams(-0.1, 1.0)
    with pytest.raises(ValueError):
        DOParams(0.1, 0.0)
    with pytest.raises(UnphysicalDeformationError):
        DOParams(1.0, 1.0)
    # diagnostic mode lifts the refusal
    DOParams(1.5, 1.0, diagnostic=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("diagnostic", [False, True])
def test_params_reject_nonfinite(bad, diagnostic):
    # a plain ValueError, not the beta_tilde >= 1 refusal, in either mode
    with pytest.raises(ValueError, match="finite"):
        DOParams(bad, 1.0, diagnostic=diagnostic)
    with pytest.raises(ValueError, match="finite"):
        DOParams(0.5, bad, diagnostic=diagnostic)


def test_dimensional_set_consistency():
    p = DOParams.from_dimensional(mass=2.0, c=3.0, hbar=0.5, omega=4.0, beta=0.01)
    assert p.has_dimensions
    assert math.isclose(p.omega_tilde, 0.5 * 4.0 / (2.0 * 9.0))
    assert math.isclose(p.beta, 0.01)
    assert math.isclose(p.a, 0.5 / 6.0)
    with pytest.raises(ValueError):
        DOParams(0.1, 1.0, mass=1.0)  # incomplete dimensional set
    with pytest.raises(ValueError):
        DOParams(0.1, 1.0, mass=1.0, c=1.0, hbar=1.0, omega=2.0)


def test_quantum_number_domain():
    QuantumNumber(0, 1)
    QuantumNumber(1, -1)
    with pytest.raises(ValueError):
        QuantumNumber(0, -1)
    with pytest.raises(ValueError):
        QuantumNumber(-1, 1)
    with pytest.raises(ValueError):
        QuantumNumber(1, 2)
    # quantum numbers are integers; numpy integers pass
    QuantumNumber(np.int64(2), np.int64(-1))
    with pytest.raises(TypeError):
        QuantumNumber(1.5, 1)
    with pytest.raises(TypeError):
        QuantumNumber(2, 1.0)


def test_level_K_closed_form():
    p = DOParams(0.5, 1.0)
    assert level_K(p, 0) == 0.0
    assert math.isclose(level_K(p, 1), 1.0 * (2.0 + 0.5))
    assert math.isclose(level_K(p, 3), 3.0 * (2.0 + 1.5))


def test_ground_level_is_rest_energy():
    for bt in (0.0, 0.1, 0.5, 0.9):
        lev = make_level(DOParams(bt, 0.7), QuantumNumber(0, 1))
        assert lev.p0_tilde == 1.0
        assert lev.e_n == 0.0


@given(params_strategy, st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_fixed_point_identity(pw, n):
    """e_n = K(1 - bt p0^2) must equal p0^2 - 1 at the allowed p0."""
    bt, wt = pw
    p = DOParams(bt, wt)
    qn = QuantumNumber(n, 1)
    p0 = p0_allowed(p, qn)
    e = e_formula(p, n, p0)
    assert math.isclose(e, p0 * p0 - 1.0, rel_tol=1e-10, abs_tol=1e-10)


@given(params_strategy, st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_branches_are_mirror_images(pw, n):
    bt, wt = pw
    p = DOParams(bt, wt)
    plus = p0_allowed(p, QuantumNumber(n, 1))
    minus = p0_allowed(p, QuantumNumber(n, -1))
    assert plus == -minus


def test_undeformed_closed_form():
    p = DOParams(0.0, 0.3)
    for n in range(10):
        p0 = p0_allowed(p, QuantumNumber(n, 1))
        assert math.isclose(p0, math.sqrt(1.0 + 2.0 * 0.3 * n), rel_tol=1e-14)


def test_deformed_spectrum_is_bounded():
    bt, wt = 0.5, 1.0
    p = DOParams(bt, wt)
    bound = 1.0 / math.sqrt(bt)
    prev = 0.0
    for n in range(200):
        p0 = p0_allowed(p, QuantumNumber(n, 1))
        assert prev < p0 < bound
        prev = p0
    # approaches the bound from below
    far = p0_allowed(p, QuantumNumber(10**6, 1))
    assert bound - far < 1e-5


def test_diagnostic_regime_decreases():
    p = DOParams(1.5, 1.0, diagnostic=True)
    p0s = [abs(p0_allowed(p, QuantumNumber(n, 1))) for n in range(5)]
    assert any(b <= a for a, b in zip(p0s, p0s[1:]))
    table = spectrum_table(p, 5)
    assert table.unphysical_decrease


def _dimensional_energy(p, qn):
    """E by the paper's dimensional closed form: tau m c^2 sqrt(1 + 2 wt n)
    at beta = 0, else (tau c/sqrt(beta)) sqrt(1 + (beta m^2 c^2 - 1)/(1 +
    beta m hbar omega n)^2)."""
    m, c = p.mass, p.c
    if p.beta_tilde == 0:
        return qn.tau * m * c**2 * math.sqrt(1.0 + 2.0 * p.omega_tilde * qn.n)
    y = 1.0 + p.beta * m * p.hbar * p.omega * qn.n
    return (qn.tau * c / math.sqrt(p.beta)) * math.sqrt(
        1.0 + (p.beta * m**2 * c**2 - 1.0) / y**2)


def test_energy_matches_both_closed_forms():
    """energy() = m c^2 p0 against the dimensional form, beta = 0 included."""
    for beta in (0.0, 0.05):
        p = DOParams.from_dimensional(
            mass=1.3, c=2.0, hbar=0.7, omega=1.1, beta=beta
        )
        for n in range(6):
            for tau in (1, -1):
                if n == 0 and tau == -1:
                    continue
                qn = QuantumNumber(n, tau)
                assert math.isclose(
                    energy(p, qn), _dimensional_energy(p, qn), rel_tol=1e-12
                )


def test_energy_requires_dimensions():
    with pytest.raises(ValueError):
        energy(DOParams(0.1, 1.0), QuantumNumber(1, 1))


def test_spectrum_table_layout():
    p = DOParams(0.2, 0.8)
    table = spectrum_table(p, 3)
    keys = [(lev.n, lev.tau) for lev in table.levels]
    assert keys == [
        (0, 1), (1, 1), (2, 1), (3, 1), (1, -1), (2, -1), (3, -1),
    ]
    assert not table.unphysical_decrease
    columns = table.columns()
    assert len(columns) == len(table.COLUMNS) == 6
    assert all(len(c) == 7 for c in columns)


def test_spectrum_table_at_nmax_zero_has_the_ground_level():
    table = spectrum_table(DOParams(0.2, 0.8), 0)
    assert [(lev.n, lev.tau) for lev in table.levels] == [(0, 1)]


@pytest.mark.parametrize("bt,n_max", [(1.5, 1), (1.0, 3)])
def test_diagnostic_flag_needs_a_strict_rise(bt, n_max):
    # at bt = 1.5 the first step already falls; at bt = 1 every p0 is 1, and
    # equal neighbours are no rise
    table = spectrum_table(DOParams(bt, 1.0, diagnostic=True), n_max)
    assert table.unphysical_decrease


def test_spectrum_table_rejects_negative_nmax():
    with pytest.raises(ValueError):
        spectrum_table(DOParams(0.2, 0.8), -1)


# ---- the closed forms over the whole double range ---------------------------

EPS = sys.float_info.epsilon
TINY = 5e-324
BETAS = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
OMEGAS = st.floats(min_value=TINY, max_value=sys.float_info.max)
NS = st.integers(0, 10**6)


def _exact_e_n(bt, wt, n):
    """K (1 - bt)/(1 + bt K), the fixed point's p0^2 - 1, in Fractions."""
    bt, x = Fraction(bt), Fraction(wt) * n
    K = x * (2 + bt * x)
    return K * (1 - bt) / (1 + bt * K)


@given(st.floats(min_value=TINY, max_value=1.0, exclude_max=True), OMEGAS,
       NS)
@example(0.5, 1e10, 3)
@example(0.5, 1e300, 3)
@example(0.99, 1e308, 10**6)
@settings(max_examples=300, deadline=None)
def test_p0_matches_overflow_safe_form(bt, wt, n):
    """p0^2 = (1 + (bt - 1)/y^2)/bt, y = 1 + bt wt n; that form cancels two
    near-unit terms scaled by 1/bt, so its roundoff grows like eps/bt."""
    p0 = p0_allowed(DOParams(bt, wt), QuantumNumber(n, 1))
    y = 1.0 + bt * wt * n
    safe = (1.0 + (bt - 1.0) / (y * y)) / bt
    assert math.isclose(p0 * p0, safe, rel_tol=1e-12, abs_tol=1e-13 / bt)


@given(BETAS, OMEGAS, NS)
@example(0.5, 1e10, 1)
@example(0.0, 1e308, 2)
@example(0.99, 1e308, 10**6)
@example(1e-300, 1e308, 2)
@example(0.5, TINY, 1)
@settings(max_examples=300, deadline=None)
def test_e_n_matches_exact_value(bt, wt, n):
    """make_level's e_n within 6 eps of the exact value (eleven roundings
    of half an ulp bound it), or a few subnormal spacings below 2^-1022; inf
    only where the exact value is past the largest double."""
    e = make_level(DOParams(bt, wt), QuantumNumber(n, 1)).e_n
    exact = _exact_e_n(bt, wt, n)
    if math.isinf(e):
        assert exact > Fraction(sys.float_info.max) * Fraction(1 - 6 * EPS)
    else:
        assert abs(Fraction(e) - exact) <= Fraction(6 * EPS) * exact \
            + Fraction(4 * TINY)


def _p0_reference(bt, wt, n, tau):
    """p0_allowed's three branches written out, to pin its bits."""
    K = wt * n * (2.0 + bt * wt * n)
    if bt == 0:
        return tau * math.sqrt(1.0 + K)
    y = 1.0 + bt * wt * n
    if not math.isfinite(bt * K):
        return tau * math.sqrt((1.0 + (bt - 1.0) / (y * y)) / bt)
    return tau * math.sqrt((1.0 + K) / (1.0 + bt * K))


@given(st.one_of(st.just(0.0), BETAS), OMEGAS, st.integers(1, 10**6),
       st.sampled_from([1, -1]))
@example(0.0, 1e308, 2, 1)
@example(0.0, 1e308, 2, -1)
@settings(max_examples=300, deadline=None)
def test_p0_bits_are_unchanged(bt, wt, n, tau):
    """Bit for bit, +-inf included where bt = 0 and K overflows."""
    p0 = p0_allowed(DOParams(bt, wt), QuantumNumber(n, tau))
    assert p0.hex() == _p0_reference(bt, wt, n, tau).hex()
