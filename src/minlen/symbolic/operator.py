"""Normal-ordered linear differential operators in momentum representation.

An operator is a finite sum of terms c(p) * d^a, with the coefficient (a
Poly, num * w^-k) written to the left of the derivative monomial d^a (a
multi-index over the momentum components).  This normal form is unique up to
the value equality of Poly, so operators are equal iff their terms are.
Composition moves the derivatives of d^a past c_b d^b one at a time, by
d_i o (t d^e) = (d_i t) d^e + t d^(e + e_i), with no table of derivatives.
A commutator leaves out the order-zero terms c_a c_b d^(a+b) of both
products: coefficients commute, so those terms cancel.
"""

from __future__ import annotations

from .poly import Coef, Poly, Ring


class Op:
    """Normal-ordered operator: map from derivative multi-index to Poly."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = {a: c for a, c in terms.items() if not c.is_zero}

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def identity(cls, ring):
        return cls.mult(Poly.one(ring))

    @classmethod
    def mult(cls, f: Poly):
        """Multiplication operator by f."""
        return cls(f.ring, {(0,) * f.ring.nmom: f})

    @classmethod
    def deriv(cls, ring, mu: int):
        """The bare derivative d/dp^mu."""
        ring.momentum_index(mu)  # range check
        a = [0] * ring.nmom
        a[mu] = 1
        return cls(ring, {tuple(a): Poly.one(ring)})

    # ---- linear structure ---------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Op):
            return NotImplemented
        out = dict(self.terms)
        for a, c in other.terms.items():
            _add(out, a, c)
        return Op(self.ring, out)

    def __neg__(self):
        return Op(self.ring, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Op):
            return NotImplemented
        return self + (-other)

    def scale(self, f) -> "Op":
        """Left-multiply by a scalar function (Poly or number)."""
        return Op(self.ring, {a: c * f for a, c in self.terms.items()})

    # ---- composition ---------------------------------------------------
    def __matmul__(self, other: "Op") -> "Op":
        """self @ other: the order-zero products c_a c_b d^(a+b) and the
        rest of the Leibniz rule."""
        out = _leibniz(self, other)
        for b, cb in other.terms.items():
            for a, ca in self.terms.items():
                _add(out, tuple(ai + bi for ai, bi in zip(a, b)), ca * cb)
        return Op(self.ring, out)

    # ---- predicates -----------------------------------------------------
    @property
    def is_zero(self):
        return not self.terms

    @property
    def term_count(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Op):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    # ---- action on functions --------------------------------------------
    def apply(self, f: Poly) -> Poly:
        """Apply the operator to a scalar function."""
        out = Poly.zero(self.ring)
        for a, c in self.terms.items():
            d = f
            for i, ai in enumerate(a):
                for _ in range(ai):
                    d = d.diff(self.ring.momentum_index(i))
            out = out + c * d
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        base = len(self.ring.names) - self.ring.nmom
        parts = []
        for a in sorted(self.terms, reverse=True):
            ds = "".join(
                f" d{self.ring.names[base + i]}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(a)
                if k
            )
            parts.append(f"[{self.terms[a]!r}]{ds}")
        return " + ".join(parts)


def _add(terms: dict, e, c: Poly):
    """terms[e] += c, for a map of derivative multi-indices to Polys."""
    prev = terms.get(e)
    terms[e] = c if prev is None else prev + c


def _leibniz(x: Op, y: Op) -> dict:
    """The terms of x @ y without its order-zero products c_a c_b d^(a+b):
    each d^a of x passes over c_b d^b of y one derivative at a time, and
    the term that no derivative reached, c_b d^(a+b), is left out."""
    if x.ring != y.ring:
        raise ValueError("operators over different rings")
    ring = x.ring
    out = {}
    for b, cb in y.terms.items():
        for a, ca in x.terms.items():
            terms = {b: cb}
            for i, ai in enumerate(a):
                sym = ring.momentum_index(i)
                for _ in range(ai):
                    step = {}
                    for e, t in terms.items():
                        d = t.diff(sym)
                        if d:
                            _add(step, e, d)
                        _add(step, e[:i] + (e[i] + 1,) + e[i + 1:], t)
                    terms = step
            # cb d^(a+b) is the one term of the highest order
            del terms[tuple(ai + bi for ai, bi in zip(a, b))]
            for e, t in terms.items():
                _add(out, e, ca * t)
    return out


def commutator(a: Op, b: Op) -> Op:
    """a @ b - b @ a, without the order-zero terms that cancel."""
    return Op(a.ring, _leibniz(a, b)) - Op(b.ring, _leibniz(b, a))


# ---- builders of the physical operators -------------------------------


def undeformed_position(ring: Ring, mu: int) -> Op:
    """x^mu = -h g^{mu mu} d/dp^mu (so [x^mu, p^nu] = -h g^{mu nu})."""
    g = ring.metric[mu]
    return Op.deriv(ring, mu).scale(Poly.symbol(ring, "h") * (-g))


def momentum_operator(ring: Ring, mu: int) -> Op:
    """P^mu = p^mu, a multiplication operator."""
    return Op.mult(Poly.momentum(ring, mu))


def deformed_position(ring: Ring, mu: int) -> Op:
    """X^mu = (1 - beta s) x^mu - betap p^mu p_nu x^nu + h gamma p^mu.

    All coefficients stay polynomial; the inverse of w is never needed here.
    """
    h = Poly.symbol(ring, "h")
    pmu = Poly.momentum(ring, mu)  # index range check
    out = undeformed_position(ring, mu).scale(ring.w)
    # -betap p^mu p_nu x^nu = +betap h p^mu sum_nu p^nu d_nu
    bp = ring.param("betap") * h * pmu
    for nu in range(ring.nmom):
        out = out + Op.deriv(ring, nu).scale(bp * Poly.momentum(ring, nu))
    return out + Op.mult(h * ring.param("gamma") * pmu)


def lowered(builder, ring: Ring, mu: int) -> Op:
    """Lower the index of a diagonal-metric vector operator."""
    op = builder(ring, mu)
    return op if ring.metric[mu] == 1 else -op


def _angular(position, ring: Ring, a: int, b: int) -> Op:
    """x_a p_b - x_b p_a for the position operator built by `position`."""
    xa = lowered(position, ring, a)
    xb = lowered(position, ring, b)
    pa = lowered(momentum_operator, ring, a)
    pb = lowered(momentum_operator, ring, b)
    return (xa @ pb) - (xb @ pa)


def lorentz_generator(ring: Ring, a: int, b: int) -> Op:
    """L_{ab} = w^-1 A with A = X_a P_b - X_b P_a, built as u + w^-1 (A - w u)
    for u = x_a p_b - x_b p_a: the same value, with no w^-1 left where
    A = w u, as the deformed X gives; a wrong X keeps w^-1 terms, a
    lhat-simplify residual."""
    u = undeformed_lorentz_generator(ring, a, b)
    rest = _angular(deformed_position, ring, a, b) - u.scale(ring.w)
    return u + Op(ring, {k: Coef(c, 1) for k, c in rest.terms.items()})


def undeformed_lorentz_generator(ring: Ring, a: int, b: int) -> Op:
    """x_a p_b - x_b p_a, the expected normal form of L_{ab}."""
    return _angular(undeformed_position, ring, a, b)


def translation_generator(ring: Ring, a: int) -> Op:
    """Phat_a = w^-1 p_a."""
    pa = Poly.momentum(ring, a) * ring.metric[a]
    return Op.mult(Coef(pa, 1))


def translation_g(ring: Ring) -> Poly:
    """g(s) = w^-2 [2 beta - betap - (2 beta + betap) beta s]."""
    return Coef(ring.g_numerator(ring.s), 2)
