"""Differential oracle for the first-order invariance residuals.

verify_transformations checks only the O(delta) part of each primed
relation.  Here the full primed relations are built independently of that
linearization: X' = X + c dX and P' = P + c dP for exact rationals c, with
p', w' = 1 - beta s' and g(s') fed to the algebra's own residual builders.
Each residual is applied to a fixed test function and evaluated at a seeded
random rational point (Schwartz-Zippel); the c^1 coefficient, recovered by
exact interpolation, must equal the linearized residual applied and
evaluated the same way.  Only the variations dX and dp come from the
verifier; the primed relations share no code with its O(delta) formulas.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from minlen.core import Spacetime
from minlen.symbolic.identities import (
    SymbolicParams,
    TransformationSpec,
    _first_order_residuals,
    _position_momentum,
    _variations,
    _xp_residual,
    _xx_residual,
)
from minlen.symbolic.operator import Op, commutator
from minlen.symbolic.poly import Poly

# seven nodes c interpolate exactly up to degree 6; the primed residuals
# have degree at most 4 in c (w' times [X', X'], g(s') times P'X')
NODES = [Fraction(k) for k in range(-3, 4)]


def linear_coefficient(values):
    """The c^1 coefficient of the polynomial through (NODES, values)."""
    total = Fraction(0)
    for k, ck in enumerate(NODES):
        # Lagrange basis: coefficients of prod_{j != k} (c - c_j), ascending
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, cj in enumerate(NODES):
            if j != k:
                basis = [Fraction(0)] + basis
                for i in range(len(basis) - 1):
                    basis[i] -= cj * basis[i + 1]
                denom *= ck - cj
        total += values[k] * basis[1] / denom
    return total


def primed_residuals(ring, X, dX, dp, c):
    """The full xp, xx and pp residuals of X + c dX, P + c dP."""
    n = ring.nmom
    Xc = [x + d.scale(c) for x, d in zip(X, dX)]
    pc = [q + d * c for q, d in zip(ring.momenta, dp)]
    Pc = [Op.mult(q) for q in pc]
    sc = ring.metric_square(pc)
    wc, gc = ring.w_of(sc), ring.g_numerator(sc)
    out = {}
    for mu in range(n):
        for nu in range(mu, n):
            out["xp", mu, nu] = _xp_residual(ring, Xc, Pc, pc, wc, mu, nu)
    for mu, nu in combinations(range(n), 2):
        out["xx", mu, nu] = _xx_residual(ring, Xc, Pc, wc, gc, mu, nu)
        out["pp", mu, nu] = commutator(Pc[mu], Pc[nu])
    return out


def setup(D, seed):
    """A ring with beta, betap and gamma pinned at random nonzero integers
    (which keeps the compositions cheap), its X and P, a test function and a
    random rational point of the remaining symbols (h and the momenta)."""
    rng = random.Random(seed)
    nonzero = lambda: rng.choice([-1, 1]) * rng.randint(1, 9)
    while True:
        ring = SymbolicParams(
            beta=nonzero(), betap=nonzero(), gamma=nonzero()
        ).ring(Spacetime(D).metric)
        point = {
            name: Fraction(nonzero(), rng.randint(1, 9)) for name in ring.names
        }
        if ring.w.eval(point) != 0:
            break
    p = ring.momenta
    lin = Poly.one(ring)
    for j, pj in enumerate(p):
        lin = lin + pj * (j + 2)
    f = lin**3 + p[0] * p[0] * p[-1]
    X, P = _position_momentum(ring)
    return ring, X, P, f, point


def specs(st, rng):
    n = st.D + 1
    value = lambda: Fraction(rng.choice([-3, -1, 2, 3]), rng.randint(1, 4))
    return [
        TransformationSpec.rotation(st, a, b, value())
        for a, b in combinations(range(n), 2)
    ] + [TransformationSpec.translation(st, a, value()) for a in range(n)]


def oracle(ring, X, P, f, point, dX, dp):
    """(interpolated c^1 value, linearized value) for every relation."""
    evaluate = lambda op: op.apply(f).eval(point)
    full = [primed_residuals(ring, X, dX, dp, c) for c in NODES]
    # the c^0 part is the algebra itself
    assert all(evaluate(r) == 0 for r in full[NODES.index(0)].values())
    lin = _first_order_residuals(ring, X, P, dX, dp)
    assert set(lin) == set(full[0])
    return {
        key: (linear_coefficient([evaluate(r[key]) for r in full]),
              evaluate(lin[key]))
        for key in lin
    }


@pytest.mark.parametrize("D", [1, 2])
def test_linearization_matches_primed_residuals(D):
    ring, X, P, f, point = setup(D, seed=100 + D)
    st = Spacetime(D)
    for spec in specs(st, random.Random(D)):
        dX, dp = _variations(ring, X, spec)
        for key, (c1, lin) in oracle(ring, X, P, f, point, dX, dp).items():
            # every elementary transformation leaves the algebra invariant
            assert c1 == lin == 0, (spec, key)


@pytest.mark.parametrize("D", [1, 2])
def test_linearization_matches_when_invariance_fails(D):
    ring, X, P, f, point = setup(D, seed=200 + D)
    st = Spacetime(D)
    variations = [
        # dilation X -> X + c X, P -> P - c P exercises the ds terms
        (X, [-q for q in ring.momenta]),
    ] + [
        _variations(ring, X, spec, tamper=("trans-gfun-wrong",))
        for spec in specs(st, random.Random(D))
        if spec.kind == "translation"
    ]
    for dX, dp in variations:
        values = oracle(ring, X, P, f, point, dX, dp)
        assert all(c1 == lin for c1, lin in values.values())
        assert any(c1 != 0 for c1, _ in values.values())


@pytest.mark.parametrize("D", [1, 2])
def test_dilation_breaks_first_order_invariance(D):
    # the invariance check constrains the Lorentz path: a variation that is
    # not a symmetry leaves xp and xx residuals for symbolic parameters
    ring = SymbolicParams().ring(Spacetime(D).metric)
    X, P = _position_momentum(ring)
    res = _first_order_residuals(
        ring, X, P, X, [-q for q in ring.momenta]
    )
    assert all(not r.is_zero for (rel, _, _), r in res.items() if rel != "pp")
    assert all(r.is_zero for (rel, _, _), r in res.items() if rel == "pp")
