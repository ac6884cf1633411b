"""Metric bookkeeping, deformation parameters and the acceptability bound."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from minlen.core import (
    DeformationParams,
    Spacetime,
    is_acceptable,
    minkowski_square,
    weight_alpha,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def test_metric_signature():
    st3 = Spacetime(3)
    assert st3.metric == (1, -1, -1, -1)
    assert Spacetime(1).metric == (1, -1)


def test_dimension_validation():
    with pytest.raises(ValueError):
        Spacetime(0)
    with pytest.raises(ValueError):
        Spacetime(-2)


@given(st.integers(1, 4), st.data())
def test_lower_is_involutive(D, data):
    arena = Spacetime(D)
    v = data.draw(
        st.tuples(*[rationals for _ in range(D + 1)])
    )
    assert arena.lower(arena.lower(v)) == v


def test_lower_rejects_wrong_length():
    with pytest.raises(ValueError):
        Spacetime(2).lower((1, 2))


def test_minkowski_square_exact():
    arena = Spacetime(3)
    p = (Fraction(5), Fraction(1), Fraction(2), Fraction(3))
    assert minkowski_square(p, arena) == Fraction(25 - 1 - 4 - 9)


@given(st.integers(1, 4), st.data())
def test_minkowski_square_from_lowered(D, data):
    arena = Spacetime(D)
    p = data.draw(st.tuples(*[rationals for _ in range(D + 1)]))
    direct = minkowski_square(p, arena)
    contracted = sum(a * b for a, b in zip(arena.lower(p), p))
    assert direct == contracted


def test_deformation_params_sign_checks():
    DeformationParams(beta=Fraction(1, 10), beta_prime=0)
    with pytest.raises(ValueError):
        DeformationParams(beta=-1)
    with pytest.raises(ValueError):
        DeformationParams(beta=0, beta_prime=-Fraction(1, 2))
    with pytest.raises(ValueError):
        DeformationParams(beta=float("nan"))
    with pytest.raises(ValueError):
        DeformationParams(beta=0.1, beta_prime=float("nan"))


def test_weight_alpha_exact_value():
    # alpha = [2(b+b')]^-1 [2b + b'(D+2) - 2g]
    params = DeformationParams(
        beta=Fraction(1, 4), beta_prime=Fraction(1, 2), gamma=Fraction(1, 8)
    )
    arena = Spacetime(3)
    num = 2 * Fraction(1, 4) + Fraction(1, 2) * 5 - 2 * Fraction(1, 8)
    den = 2 * (Fraction(1, 4) + Fraction(1, 2))
    expect = num / den
    assert weight_alpha(params, arena) == expect
    assert type(weight_alpha(params, arena)) is Fraction


def test_weight_alpha_gamma_shifts_exponent_only():
    arena = Spacetime(2)
    base = DeformationParams(beta=Fraction(1, 3), beta_prime=Fraction(1, 6))
    shifted = DeformationParams(
        beta=Fraction(1, 3), beta_prime=Fraction(1, 6), gamma=Fraction(1, 2)
    )
    diff = weight_alpha(base, arena) - weight_alpha(shifted, arena)
    assert diff == 2 * Fraction(1, 2) / (2 * (Fraction(1, 3) + Fraction(1, 6)))


def test_weight_alpha_undefined_for_undeformed():
    with pytest.raises(ValueError):
        weight_alpha(DeformationParams(beta=0, beta_prime=0), Spacetime(3))


@given(
    st.fractions(min_value=0, max_value=2, max_denominator=40),
    st.fractions(min_value=0, max_value=2, max_denominator=40),
    rationals,
)
def test_acceptability_is_strict_inequality(beta, betap, p0):
    params = DeformationParams(beta=beta, beta_prime=betap)
    lhs = (beta + betap) * p0 * p0
    assert is_acceptable(params, p0) == (lhs < 1)


def test_acceptability_boundary_excluded():
    params = DeformationParams(beta=Fraction(1, 4), beta_prime=0)
    assert not is_acceptable(params, 2)  # (1/4)*4 == 1 exactly
    assert is_acceptable(params, Fraction(199, 100))
