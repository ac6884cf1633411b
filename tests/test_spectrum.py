"""Closed-form spectrum of the deformed relativistic oscillator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_energy_matches_both_closed_forms():
    p = DOParams.from_dimensional(
        mass=1.3, c=2.0, hbar=0.7, omega=1.1, beta=0.05
    )
    for n in range(6):
        for tau in (1, -1):
            if n == 0 and tau == -1:
                continue
            qn = QuantumNumber(n, tau)
            E = energy(p, qn)
            assert math.isclose(
                E, p.mass * p.c**2 * p0_allowed(p, qn), rel_tol=1e-12
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


def test_spectrum_table_rejects_negative_nmax():
    with pytest.raises(ValueError):
        spectrum_table(DOParams(0.2, 0.8), -1)
