"""Exact polynomial ring and localized coefficients."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from minlen.core import Spacetime
from minlen.symbolic.identities import SymbolicParams
from minlen.symbolic.poly import (
    BASE_SYMBOLS,
    FIELD_BITS,
    FIELD_MAX,
    Coef,
    Poly,
    Ring,
)


def mink_ring(D=2, **subs):
    return Ring(Spacetime(D).metric, **subs)


def random_poly(draw, ring, max_terms=4, max_exp=3):
    terms = {}
    nterms = draw(st.integers(0, max_terms))
    for _ in range(nterms):
        e = ring.pack(
            tuple(draw(st.integers(0, max_exp)) for _ in range(ring.nsym))
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
@settings(max_examples=40)
def test_eval_matches_structure(a):
    vals = {n: Fraction(k + 2, 3) for k, n in enumerate(a.ring.names)}
    total = Fraction(0)
    for e, c in a.coefficients().items():
        t = c
        for i, k in enumerate(e):
            t *= Fraction(vals[a.ring.names[i]]) ** k
        total += t
    assert a.eval(vals) == total


def assert_reduced(a):
    # nonzero int numerators over a positive denominator coprime to them
    # (so den == 1 for the zero polynomial)
    assert type(a.den) is int and a.den > 0
    assert all(type(c) is int and c for c in a.terms.values())
    assert gcd(a.den, *a.terms.values()) == 1


@given(polys(), polys())
@settings(max_examples=60)
def test_coefficients_keep_reduced_denominator(a, b):
    ring = a.ring
    i = ring.momentum_index(0)
    for r in (a + b, a - b, a * b, a.diff(i)):
        assert_reduced(r)


def test_fractional_poly_keeps_reduced_denominator():
    ring = mink_ring(1)
    p0 = Poly.momentum(ring, 0)
    (e,) = p0.terms  # the packed monomial of p0
    q = Poly(ring, {e: Fraction(3, 2), 0: Fraction(1, 2)})
    assert q == p0 * Fraction(3, 2) + Fraction(1, 2)
    assert_reduced(q)
    assert q.den == 2
    assert_reduced(q * 2)  # 3 p0 + 1, back to ints
    assert (q * 2).den == 1


def test_integral_fraction_is_stored_as_int():
    ring = mink_ring(1)
    a, b = Poly.const(ring, Fraction(4, 2)), Poly.const(ring, 2)
    assert a == b
    with pytest.raises(TypeError):
        hash(a)  # unhashable: == compares values across powers of w
    assert a.den == 1
    assert type(a.terms[ring.pack((0,) * ring.nsym)]) is int


# ---- packed kernel against exponent-tuple arithmetic ----------------------
# The oracle keeps a polynomial as {exponent tuple: Fraction}, the storage the
# packed monomials and content denominator replaced.


def oracle_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def oracle_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def oracle_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
    return out


# small exponents, and ones whose pairwise sums reach FIELD_MAX exactly
EXPONENTS = st.one_of(
    st.integers(0, 3), st.integers(FIELD_MAX // 2 - 1, FIELD_MAX // 2)
)


@st.composite
def tuple_polys(draw, ring):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        e = tuple(draw(EXPONENTS) for _ in range(ring.nsym))
        c = draw(st.fractions(min_value=-9, max_value=9, max_denominator=12))
        terms[e] = terms.get(e, Fraction(0)) + c
    return {e: c for e, c in terms.items() if c}


def from_tuples(ring, a):
    return Poly(ring, {ring.pack(e): c for e, c in a.items()})


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_tuple_oracle(data):
    ring = mink_ring(data.draw(st.integers(1, 3)))
    a, b = data.draw(tuple_polys(ring)), data.draw(tuple_polys(ring))
    pa, pb = from_tuples(ring, a), from_tuples(ring, b)
    i = data.draw(st.integers(0, ring.nsym - 1))
    assert pa.coefficients() == a
    cases = [
        (pa + pb, oracle_add(a, b)),
        (pa - pb, oracle_add(a, {e: -c for e, c in b.items()})),
        (pa * pb, oracle_mul(a, b)),
        (pa.diff(i), oracle_diff(a, i)),
    ]
    for got, want in cases:
        assert got.coefficients() == want
        assert_reduced(got)
    # integer order of packed monomials is lex order of exponent tuples
    assert sorted(a, key=ring.pack) == sorted(a)
    assert max(pa.terms, default=None) == (ring.pack(max(a)) if a else None)


@given(
    st.lists(st.integers(0, FIELD_MAX), min_size=7, max_size=7),
    st.lists(st.integers(-2, 1), min_size=7, max_size=7),
)
@settings(max_examples=150)
def test_packed_order_and_overflow(e1, slack):
    # e2 brings each field of the product to FIELD_MAX + slack, so about
    # one product in seven stays in range and the rest overflow
    ring = mink_ring(2)
    e1 = tuple(e1)
    e2 = tuple(
        max(0, min(FIELD_MAX, FIELD_MAX - a + d)) for a, d in zip(e1, slack)
    )
    k1, k2 = ring.pack(e1), ring.pack(e2)
    assert ring.unpack(k1) == e1 and ring.unpack(k2) == e2
    assert (k1 < k2) == (e1 < e2)
    x, y = Poly(ring, {k1: 1}), Poly(ring, {k2: 1})
    total = tuple(a + b for a, b in zip(e1, e2))
    if max(total) > FIELD_MAX:
        with pytest.raises(OverflowError):
            x * y
    else:
        assert (x * y).coefficients() == {total: 1}


def test_power_past_field_width_raises():
    ring = mink_ring(2)
    for name in (ring.names[0], ring.names[-1]):  # top and bottom fields
        x = Poly.symbol(ring, name)
        top = tuple(FIELD_MAX if n == name else 0 for n in ring.names)
        assert (x**FIELD_MAX).coefficients() == {top: 1}
        with pytest.raises(OverflowError):
            x ** (FIELD_MAX + 1)
    with pytest.raises(OverflowError):
        ring.pack((FIELD_MAX + 1,) + (0,) * (ring.nsym - 1))


def test_constructor_checks_monomials_and_coefficients():
    ring = mink_ring(1)
    guard = 1 << (FIELD_BITS - 1)  # the guard bit of the last field
    for e in (-1, guard, ring.pack((1,) * ring.nsym) << FIELD_BITS, (0,) * 6):
        with pytest.raises(ValueError):
            Poly(ring, {e: 1})
    with pytest.raises(TypeError):
        Poly(ring, {0: 0.5})


def test_w_powers_are_cached():
    ring = mink_ring(2)
    assert ring.w_power(3) == ring.w * ring.w * ring.w
    assert ring.w_power(3) is ring.w_power(3)
    assert ring.w_power(0) == Poly.one(ring)


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
        d = Coef(Poly.one(ring), 1).diff(ring.momentum_index(mu))
        p_lower = Poly.momentum(ring, mu) * ring.metric[mu]
        assert d == Coef(2 * beta * p_lower, 2)


def test_coef_diff_product_consistency():
    # derivative of (p0^2 * w^-1) via Coef matches the hand expansion
    ring = mink_ring(1)
    p0 = Poly.momentum(ring, 0)
    beta = Poly.symbol(ring, "beta")
    d = Coef(p0 * p0, 1).diff(ring.momentum_index(0))
    expect = Coef(2 * p0 * ring.w + 2 * beta * p0 * p0 * p0, 2)
    assert d == expect


def test_coef_chain_rule_in_a_parameter():
    # d/dbeta of w^-1 is s w^-2, since dw/dbeta = -s
    ring = mink_ring(2)
    d = Coef(Poly.one(ring), 1).diff(ring.index["beta"])
    assert d == Coef(ring.s, 2)
    assert d.wpow == 2


def test_float_parameters_rejected():
    # a float is not an exact rational: SymbolicParams(beta=0.1) would run
    # with beta = 3602879701896397/36028797018963968 and pass
    with pytest.raises(TypeError):
        SymbolicParams(beta=0.1).ring(Spacetime(1).metric)
    with pytest.raises(TypeError):
        Ring(Spacetime(1).metric, gamma=1.5)
    with pytest.raises(TypeError):
        Poly.const(mink_ring(1), 0.5)
    ring = mink_ring(1, beta=Fraction(1, 10), betap=0)
    assert ring.param("beta") == Poly.const(ring, Fraction(1, 10))


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
