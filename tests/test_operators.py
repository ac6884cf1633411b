"""Normal-ordered operator composition and the physical builders."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from minlen.core import Spacetime
from minlen.symbolic.poly import Coef, Poly, Ring
from minlen.symbolic.operator import (
    Op,
    commutator,
    deformed_position,
    lorentz_generator,
    lowered,
    momentum_operator,
    translation_g,
    translation_generator,
    undeformed_lorentz_generator,
    undeformed_position,
)


def mink_ring(D=2, **subs):
    return Ring(Spacetime(D).metric, **subs)


@st.composite
def small_ops(draw, D=1, max_terms=3, max_wpow=0):
    """Random operators with low derivative orders and coefficients
    monomial * w^-k, k <= max_wpow; enough to exercise the Leibniz
    bookkeeping."""
    ring = mink_ring(D)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        a = tuple(draw(st.integers(0, 2)) for _ in range(ring.nmom))
        e = tuple(draw(st.integers(0, 2)) for _ in range(ring.nsym))
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
        k = draw(st.integers(0, max_wpow)) if max_wpow else 0
        poly = Poly(ring, {ring.pack(e): c})
        terms[a] = terms.get(a, Poly.zero(ring)) + Coef(poly, k)
    return Op(ring, terms)


def test_deriv_then_mult_leibniz():
    # d/dp0 o p0 = 1 + p0 d/dp0
    ring = mink_ring(1)
    d0 = Op.deriv(ring, 0)
    mp0 = Op.mult(Poly.momentum(ring, 0))
    prod = d0 @ mp0
    expect = Op.identity(ring) + (mp0 @ d0)
    assert prod == expect


def test_second_derivative_leibniz():
    # d^2 o p0^2 = 2 + 4 p0 d + p0^2 d^2
    ring = mink_ring(1)
    d0 = Op.deriv(ring, 0)
    p0 = Poly.momentum(ring, 0)
    prod = d0 @ d0 @ Op.mult(p0 * p0)
    two = Op.mult(Poly.const(ring, 2))
    expect = (
        two
        + (Op.mult(p0 * 4) @ d0)
        + (Op.mult(p0 * p0) @ d0 @ d0)
    )
    assert prod == expect


def test_mixed_partials_commute():
    ring = mink_ring(2)
    d0, d1 = Op.deriv(ring, 0), Op.deriv(ring, 1)
    f = Op.mult(
        Poly.momentum(ring, 0) ** 2 * Poly.momentum(ring, 1) ** 3
    )
    assert (d0 @ d1 @ f) == (d1 @ d0 @ f)


@given(small_ops(max_wpow=2), small_ops(max_wpow=2))
@settings(max_examples=30, deadline=None)
def test_composition_matches_application(a, b):
    """Normal-form soundness: (a o b)(f) == a(b(f)) on a generic function,
    and the same for the commutator.  apply shares no code with the
    composition."""
    ring = a.ring
    f = Coef(
        Poly.momentum(ring, 0) ** 2
        + Poly.momentum(ring, 1) * Poly.symbol(ring, "h")
        + 1,
        1,
    )
    af, bf = a.apply(b.apply(f)), b.apply(a.apply(f))
    assert (a @ b).apply(f) == af
    assert commutator(a, b).apply(f) == af - bf


@given(small_ops(), small_ops(), small_ops())
@settings(max_examples=20, deadline=None)
def test_jacobi_identity(a, b, c):
    j = (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )
    assert j.is_zero


@given(small_ops(), small_ops())
@settings(max_examples=20, deadline=None)
def test_commutator_antisymmetry(a, b):
    assert (commutator(a, b) + commutator(b, a)).is_zero


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_commutator_matches_both_full_products(data):
    """The commutator leaves out the order-zero Leibniz terms; the
    difference of the two full products must agree with it."""
    D = data.draw(st.integers(1, 2))
    a = data.draw(small_ops(D, max_wpow=2))
    b = data.draw(small_ops(D, max_wpow=2))
    ab = commutator(a, b)
    assert ab == (a @ b) - (b @ a)
    assert ab == -commutator(b, a)


def test_undeformed_position_momentum_commutator():
    # [x^mu, p^nu] = -h g^{mu nu}
    ring = mink_ring(2)
    h = Poly.symbol(ring, "h")
    for mu in range(3):
        for nu in range(3):
            x = undeformed_position(ring, mu)
            p = momentum_operator(ring, nu)
            c = commutator(x, p)
            g = ring.metric[mu] if mu == nu else 0
            assert c == Op.mult(h * (-g))


def test_deformed_position_reduces_to_undeformed():
    ring = mink_ring(2, beta=0, betap=0, gamma=0)
    for mu in range(3):
        assert deformed_position(ring, mu) == undeformed_position(ring, mu)


def test_deformed_position_gamma_term():
    # gamma only adds h*gamma*p^mu as a multiplication term
    ring = mink_ring(1)
    h = Poly.symbol(ring, "h")
    gam = Poly.symbol(ring, "gamma")
    for mu in range(2):
        diff = deformed_position(ring, mu) - Op.mult(
            h * gam * Poly.momentum(ring, mu)
        )
        zero_gamma = Ring(ring.metric, gamma=0)
        ref = deformed_position(zero_gamma, mu)
        # same derivative structure once the gamma term is removed
        assert sorted(diff.terms) == sorted(ref.terms)


def test_lorentz_generator_normal_orders_to_undeformed():
    ring = mink_ring(2)
    for a in range(3):
        for b in range(a + 1, 3):
            assert lorentz_generator(ring, a, b) == (
                undeformed_lorentz_generator(ring, a, b)
            )


def test_translation_generator_shape():
    ring = mink_ring(1)
    ph = translation_generator(ring, 1)
    assert ph.term_count == 1
    c = ph.terms[(0, 0)]
    assert c.wpow == 1
    assert c == Coef(Poly.momentum(ring, 1) * ring.metric[1], 1)


def test_translation_g_closed_form():
    ring = mink_ring(1)
    g = translation_g(ring)
    assert g.wpow == 2
    beta = Poly.symbol(ring, "beta")
    betap = Poly.symbol(ring, "betap")
    p0 = Poly.momentum(ring, 0)
    p1 = Poly.momentum(ring, 1)
    s = p0 * p0 - p1 * p1
    assert g == Coef(2 * beta - betap - (2 * beta + betap) * beta * s, 2)


def test_scale_is_left_multiplication():
    ring = mink_ring(1)
    d0 = Op.deriv(ring, 0)
    p0 = Poly.momentum(ring, 0)
    assert d0.scale(p0) == Op.mult(p0) @ d0
    # but an Op.mult on the right picks up derivative terms
    assert d0.scale(p0) != d0 @ Op.mult(p0)


def test_lowered_flips_spatial_sign():
    ring = mink_ring(1)
    assert lowered(momentum_operator, ring, 0) == momentum_operator(ring, 0)
    assert lowered(momentum_operator, ring, 1) == momentum_operator(
        ring, 1
    ).scale(Fraction(-1))


def test_ring_mismatch_rejected():
    a = Op.deriv(mink_ring(1), 0)
    b = Op.deriv(mink_ring(2), 0)
    with pytest.raises(ValueError):
        a @ b


def test_apply_on_w_inverse():
    # P_hat applied to a constant gives p_a w^-1
    ring = mink_ring(1)
    ph = translation_generator(ring, 0)
    out = ph.apply(Poly.one(ring))
    assert out == Coef(Poly.momentum(ring, 0), 1)
