"""Exact polynomial ring and localized coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from minlen.core import Spacetime
from minlen.symbolic.poly import BASE_SYMBOLS, Coef, Poly, Ring


def mink_ring(D=2, **subs):
    return Ring(Spacetime(D).metric, **subs)


def random_poly(draw, ring, max_terms=4, max_exp=3):
    terms = {}
    nterms = draw(st.integers(0, max_terms))
    for _ in range(nterms):
        e = tuple(
            draw(st.integers(0, max_exp)) for _ in range(ring.nsym)
        )
        c = draw(
            st.fractions(min_value=-9, max_value=9, max_denominator=12)
        )
        terms[e] = terms.get(e, Fraction(0)) + c
    return Poly(ring, terms)


@st.composite
def polys(draw, D=2):
    return random_poly(draw, mink_ring(D))


def test_ring_symbol_layout():
    ring = mink_ring(2)
    assert ring.names[: len(BASE_SYMBOLS)] == BASE_SYMBOLS
    assert ring.names[len(BASE_SYMBOLS) :] == ("p0", "p1", "p2")
    ering = Ring((-1, -1))
    assert ering.names[len(BASE_SYMBOLS) :] == ("p1", "p2")


def test_ring_rejects_bad_metric():
    with pytest.raises(ValueError):
        Ring((1, 0, -1))


def test_w_definition():
    ring = mink_ring(1)
    p0 = Poly.momentum(ring, 0)
    p1 = Poly.momentum(ring, 1)
    beta = Poly.symbol(ring, "beta")
    assert ring.w == Poly.one(ring) - beta * (p0 * p0 - p1 * p1)


def test_w_is_one_for_undeformed_ring():
    assert Ring((1, -1), beta=0).w_is_one
    assert not Ring((1, -1), beta=Fraction(1, 2)).w_is_one
    assert not Ring((1, -1)).w_is_one


def test_param_substitution():
    ring = mink_ring(1, beta=Fraction(1, 3))
    assert ring.param("beta") == Poly.const(ring, Fraction(1, 3))
    assert ring.param("betap") == Poly.symbol(ring, "betap")


@given(polys(), polys(), polys())
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a - a == Poly.zero(a.ring)


@given(polys(), polys())
@settings(max_examples=60)
def test_diff_is_a_derivation(a, b):
    i = a.ring.momentum_index(0)
    lhs = (a * b).diff(i)
    rhs = a.diff(i) * b + a * b.diff(i)
    assert lhs == rhs


@given(polys())
@settings(max_examples=60)
def test_exact_div_roundtrip(a):
    ring = a.ring
    prod = a * ring.w
    q = prod.exact_div(ring.w)
    assert q == a


def test_exact_div_detects_nondivisibility():
    ring = mink_ring(1)
    p0 = Poly.momentum(ring, 0)
    assert (p0 + 1).exact_div(ring.w) is None
    assert (ring.w + 1).exact_div(ring.w) is None


def test_exact_div_by_zero():
    ring = mink_ring(1)
    with pytest.raises(ZeroDivisionError):
        Poly.one(ring).exact_div(Poly.zero(ring))


@given(polys())
@settings(max_examples=40)
def test_eval_matches_structure(a):
    vals = {n: Fraction(k + 2, 3) for k, n in enumerate(a.ring.names)}
    total = Fraction(0)
    for e, c in a.terms.items():
        t = c
        for i, k in enumerate(e):
            t *= Fraction(vals[a.ring.names[i]]) ** k
        total += t
    assert a.eval(vals) == total


def assert_exact_coefficients(a):
    for c in a.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


@given(polys(), polys(), st.integers(1, 12))
@settings(max_examples=60)
def test_coefficients_are_int_or_proper_fraction(a, b, k):
    ring = a.ring
    i = ring.momentum_index(0)
    results = [a + b, a - b, a * b, a.diff(i), (a * ring.w).exact_div(ring.w)]
    results.append(a.exact_div(Poly.const(ring, k)))
    if b:
        results.append((a * b).exact_div(b))
    for r in results:
        assert_exact_coefficients(r)


def test_exact_div_fractional_quotient():
    ring = mink_ring(1)
    p0 = Poly.momentum(ring, 0)
    q = (2 * (3 * p0 + 1)).exact_div(Poly.const(ring, 4))
    assert q == p0 * Fraction(3, 2) + Fraction(1, 2)
    assert_exact_coefficients(q)
    assert_exact_coefficients(q * 2)  # 3 p0 + 1, back to ints


def test_integral_fraction_is_stored_as_int():
    ring = mink_ring(1)
    a, b = Poly.const(ring, Fraction(4, 2)), Poly.const(ring, 2)
    assert a == b and hash(a) == hash(b)
    assert type(a.terms[ring._zero_exp]) is int


# ---- Coef ------------------------------------------------------------------


def test_coef_equality_ignores_w_factors():
    # w^2 h w^-3 is h w^-1 as a value, though neither field matches
    ring = mink_ring(2)
    h = Poly.symbol(ring, "h")
    c = Coef(ring.w * ring.w * h, 3)
    assert c == Coef(h, 1)
    assert c != Coef(h, 2)


def test_coef_zero_has_no_wpow():
    ring = mink_ring(2)
    assert Coef(Poly.zero(ring), 5).wpow == 0


def test_coef_undeformed_ring_drops_w():
    ring = mink_ring(2, beta=0)
    c = Coef(Poly.momentum(ring, 0), 4)
    assert c.wpow == 0


def test_coef_negation_is_canonical():
    ring = mink_ring(1)
    num = Poly.symbol(ring, "h") * Poly.momentum(ring, 0) + 3
    for k in range(3):
        assert -Coef(num, k) == Coef(-num, k)
    # a numerator that still carries w factors
    assert -Coef(num * ring.w, 2) == Coef(-num, 1)


def test_coef_addition_common_denominator():
    ring = mink_ring(1)
    one = Poly.one(ring)
    # 1/w + 1 = (1 + w)/w
    s = Coef(one, 1) + Coef(one, 0)
    assert s == Coef(one + ring.w, 1)


def test_coef_chain_rule():
    # d/dp^mu of w^-1 is 2 beta p_mu w^-2
    ring = mink_ring(2)
    beta = Poly.symbol(ring, "beta")
    for mu in range(3):
        d = Coef(Poly.one(ring), 1).diff(mu)
        p_lower = Poly.momentum(ring, mu) * ring.metric[mu]
        assert d == Coef(2 * beta * p_lower, 2)


def test_coef_diff_product_consistency():
    # derivative of (p0^2 * w^-1) via Coef matches the hand expansion
    ring = mink_ring(1)
    p0 = Poly.momentum(ring, 0)
    beta = Poly.symbol(ring, "beta")
    d = Coef(p0 * p0, 1).diff(0)
    expect = Coef(2 * p0 * ring.w + 2 * beta * p0 * p0 * p0, 2)
    assert d == expect


def test_coef_eval_matches_rational_function():
    ring = mink_ring(1)
    p0 = Poly.momentum(ring, 0)
    c = Coef(p0, 2)
    vals = {
        "h": Fraction(1),
        "beta": Fraction(1, 4),
        "betap": Fraction(0),
        "gamma": Fraction(0),
        "p0": Fraction(2),
        "p1": Fraction(1),
    }
    w = 1 - Fraction(1, 4) * (4 - 1)
    assert c.eval(vals) == Fraction(2) / w**2


def test_coef_eval_singular_point():
    ring = mink_ring(1)
    vals = {
        "h": Fraction(1),
        "beta": Fraction(1, 3),
        "betap": Fraction(0),
        "gamma": Fraction(0),
        "p0": Fraction(2),
        "p1": Fraction(1),
    }
    assert ring.w.eval(vals) == 0
    with pytest.raises(ZeroDivisionError):
        Coef(Poly.one(ring), 1).eval(vals)


@given(polys(), polys(), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40)
def test_coef_mul_matches_eval(a, b, ka, kb):
    ring = a.ring
    ca, cb = Coef(a, ka), Coef(b, kb)
    prod = ca * cb
    vals = {n: Fraction(k + 1, 7) for k, n in enumerate(ring.names)}
    if ring.w.eval(vals) == 0:
        return
    assert prod.eval(vals) == ca.eval(vals) * cb.eval(vals)
