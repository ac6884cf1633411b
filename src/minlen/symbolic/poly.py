"""Exact commutative coefficient ring for normal-ordered operators.

Coefficients live in Q[h, beta, betap, gamma, p0, ..., pD] localized at
w = 1 - beta * s, where s = sum_mu g_mu (p^mu)^2 is the metric square of the
momentum.  The symbol h stands for the single central element i*hbar (all
identities handled here are polynomial in i*hbar, so i and hbar are never
separated).

A monomial is one packed int: a field of FIELD_BITS bits per symbol, in lex
order of the symbols above with h in the most significant field.  The top
bit of each field is a guard bit, so an exponent is at most FIELD_MAX.  A
monomial product is one integer addition; the sum of two fields never
carries into the next field, it can only set that field's guard bit, and
Poly.__mul__ raises OverflowError when it does.  Integer order of packed
monomials is the lex order of their exponent tuples.

A Poly holds integer numerators over one content denominator den > 0,
kept reduced: gcd(den, *numerators) == 1, and den == 1 for the zero
polynomial.  Each rational polynomial thus has one representation, and
products, sums and derivatives run on ints.  Rationals enter through the
public constructor and Poly.const only.

A coefficient is a pair num * w^(-k), stored as built with no factor of w
divided out, so there is no canonical form: a == b iff the numerator of
a - b is the zero polynomial, which no power of w changes.  The Lorentz
generator holds the one division by w (Poly.exact_div).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_


BASE_SYMBOLS = ("h", "beta", "betap", "gamma")

FIELD_BITS = 8
FIELD_MAX = (1 << (FIELD_BITS - 1)) - 1  # the largest exponent of a symbol


class Ring:
    """Fixes the metric, the symbol list and optional numeric deformation
    parameters (a parameter left as None stays fully symbolic)."""

    def __init__(self, metric, beta=None, betap=None, gamma=None):
        self.metric = tuple(int(g) for g in metric)
        if any(g not in (1, -1) for g in self.metric):
            raise ValueError("metric entries must be +1 or -1")
        self.nmom = len(self.metric)
        # Minkowski rings label momenta p0..pD, Euclidean ones p1..pD
        off = 0 if self.metric[0] == 1 else 1
        self.names = BASE_SYMBOLS + tuple(
            f"p{i + off}" for i in range(self.nmom)
        )
        self.nsym = len(self.names)
        self.index = {n: i for i, n in enumerate(self.names)}
        # bit offset of each symbol's field, and every field's guard bit
        self.shifts = tuple(
            FIELD_BITS * (self.nsym - 1 - i) for i in range(self.nsym)
        )
        self.guard = sum(1 << (s + FIELD_BITS - 1) for s in self.shifts)
        self.subs = {}
        for name, val in (("beta", beta), ("betap", betap), ("gamma", gamma)):
            if val is not None:
                self.subs[name] = Fraction(val)
        self.momenta = tuple(Poly.momentum(self, j) for j in range(self.nmom))
        self.s = self.metric_square(self.momenta)
        self.w = self.w_of(self.s)
        self.w_is_one = self.w == Poly.one(self)
        self._w_powers = [Poly.one(self), self.w]

    def pack(self, exponents) -> int:
        """The packed monomial of an exponent tuple (one entry per symbol)."""
        if len(exponents) != self.nsym:
            raise ValueError(f"a monomial needs {self.nsym} exponents")
        e = 0
        for k in exponents:
            if k < 0:
                raise ValueError("exponents must be nonnegative")
            if k > FIELD_MAX:
                raise OverflowError(f"exponent {k} exceeds {FIELD_MAX}")
            e = (e << FIELD_BITS) | k
        return e

    def unpack(self, e: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        return tuple((e >> s) & FIELD_MAX for s in self.shifts)

    def w_power(self, k: int) -> "Poly":
        """w^k, computed once per ring and power."""
        powers = self._w_powers
        while len(powers) <= k:
            powers.append(powers[-1] * self.w)
        return powers[k]

    def metric_square(self, p) -> "Poly":
        """s = sum_mu g_mu (p^mu)^2 over momentum polynomials p^0, p^1, ..."""
        s = Poly.zero(self)
        for pj, g in zip(p, self.metric):
            s = s + pj * pj * g
        return s

    def w_of(self, s) -> "Poly":
        """The deformation factor w = 1 - beta s."""
        return Poly.one(self) - self.param("beta") * s

    def g_numerator(self, s) -> "Poly":
        """2 beta - betap - (2 beta + betap) beta s, the numerator of the
        translation function g(s) = numerator * w^-2."""
        beta = self.param("beta")
        betap = self.param("betap")
        return beta * 2 - betap - (beta * 2 + betap) * beta * s

    def param(self, name) -> "Poly":
        """beta/betap/gamma as a Poly: a constant if numerically fixed,
        otherwise the symbol itself."""
        if name in self.subs:
            return Poly.const(self, self.subs[name])
        return Poly.symbol(self, name)

    def momentum_index(self, mu: int) -> int:
        if not 0 <= mu < self.nmom:
            raise ValueError(f"momentum index {mu} out of range")
        return len(BASE_SYMBOLS) + mu

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.metric == other.metric
            and self.subs == other.subs
        )

    def __hash__(self):
        return hash((self.metric, tuple(sorted(self.subs.items()))))

    def __repr__(self):
        return f"Ring(metric={self.metric}, subs={self.subs})"


def _poly(ring, terms, den=1):
    """Trusted constructor for internal results: terms maps packed monomials
    to nonzero ints over den > 0; the content they share is divided out."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {e: c // g for e, c in terms.items()}
    p = object.__new__(Poly)
    p.ring = ring
    p.terms = terms
    p.den = den
    return p


class Poly:
    """Multivariate polynomial with rational coefficients: `terms` maps each
    packed monomial to a nonzero int numerator over the common positive
    denominator `den`, with gcd(den, *terms.values()) == 1."""

    __slots__ = ("ring", "terms", "den")

    def __init__(self, ring: Ring, terms: dict):
        """terms maps packed monomials (Ring.pack) to ints or Fractions."""
        top = 1 << (FIELD_BITS * ring.nsym)
        for e, c in terms.items():
            if type(e) is not int or not 0 <= e < top or e & ring.guard:
                raise ValueError(f"{e!r} is not a packed monomial of {ring}")
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an int or Fraction")
        den = lcm(*(c.denominator for c in terms.values()))
        nums = {
            e: c.numerator * (den // c.denominator)
            for e, c in terms.items()
            if c
        }
        p = _poly(ring, nums, den)
        self.ring, self.terms, self.den = ring, p.terms, p.den

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, ring):
        return _poly(ring, {})

    @classmethod
    def one(cls, ring):
        return _poly(ring, {0: 1})

    @classmethod
    def const(cls, ring, c):
        return cls(ring, {0: c if type(c) is int else Fraction(c)})

    @classmethod
    def symbol(cls, ring, name):
        return _poly(ring, {1 << ring.shifts[ring.index[name]]: 1})

    @classmethod
    def momentum(cls, ring, mu):
        """Contravariant momentum component p^mu (local index mu)."""
        return cls.symbol(ring, ring.names[ring.momentum_index(mu)])

    def coefficients(self) -> dict:
        """The polynomial as a map from exponent tuples to Fractions."""
        unpack, den = self.ring.unpack, self.den
        return {unpack(e): Fraction(c, den) for e, c in self.terms.items()}

    # ---- ring operations ----------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.ring, other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not Poly:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.terms, other.terms
        den = self.den
        if den == other.den:
            if len(a) < len(b):
                a, b = b, a
            out = dict(a)
        else:
            g = gcd(den, other.den)
            fa, fb = other.den // g, den // g
            out = {e: c * fa for e, c in a.items()}
            b = {e: c * fb for e, c in b.items()}
            den *= fa
        for e, c in b.items():
            c += out.get(e, 0)
            if c:
                out[e] = c
            else:
                del out[e]
        return _poly(self.ring, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _poly(
            self.ring, {e: -c for e, c in self.terms.items()}, self.den
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Poly:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        ring = self.ring
        out = {}
        get = out.get
        for e2, c2 in other.terms.items():
            for e1, c1 in self.terms.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        if out and reduce(or_, out) & ring.guard:
            raise OverflowError(f"a product has an exponent over {FIELD_MAX}")
        return _poly(ring, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers live in Coef, not Poly")
        out = Poly.one(self.ring)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.ring == other.ring
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items()), self.den))

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # ---- calculus and evaluation --------------------------------------
    def diff(self, sym_index: int) -> "Poly":
        shift = self.ring.shifts[sym_index]
        unit = 1 << shift
        out = {}
        for e, c in self.terms.items():
            k = (e >> shift) & FIELD_MAX
            if k:
                out[e - unit] = c * k
        return _poly(self.ring, out, self.den)

    def eval(self, values: dict):
        """Evaluate at exact values; `values` maps symbol name -> Fraction."""
        total = Fraction(0)
        for e, c in self.coefficients().items():
            term = c
            for i, k in enumerate(e):
                if k:
                    term *= Fraction(values[self.ring.names[i]]) ** k
            total += term
        return total

    # ---- division ------------------------------------------------------
    def exact_div(self, d: "Poly"):
        """Return q with self == q * d, or None if d does not divide self.

        Single-divisor multivariate division under the lex order; the
        remainder vanishes iff d divides self exactly.
        """
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        guard = self.ring.guard
        rem = {e: Fraction(c, self.den) for e, c in self.terms.items()}
        q = {}
        dl = max(d.terms)
        dc = Fraction(d.terms[dl], d.den)
        rest = [(e, Fraction(c, d.den)) for e, c in d.terms.items() if e != dl]
        while rem:
            m = max(rem)
            c = rem.pop(m)
            # m | guard lends each field of m 2^(FIELD_BITS-1), so no borrow
            # crosses a field; a cleared guard bit marks a field below dl's
            if ((m | guard) - dl) & guard != guard:
                return None
            e = m - dl
            q[e] = coef = c / dc
            for de, dcoef in rest:
                me = e + de
                if me & guard:
                    raise OverflowError(
                        f"a quotient term has an exponent over {FIELD_MAX}")
                nc = rem.get(me, 0) - coef * dcoef
                if nc:
                    rem[me] = nc
                else:
                    rem.pop(me, None)
        return Poly(self.ring, q)

    # ---- display -------------------------------------------------------
    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.coefficients().items(), reverse=True):
            factors = []
            if c != 1 or not any(e):
                factors.append(str(c))
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(self.ring.names[i])
                elif k > 1:
                    factors.append(f"{self.ring.names[i]}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)


class Coef:
    """A localized coefficient num * w^(-wpow), kept as built (wpow 0 when
    num = 0 or w = 1).  Compare values with ==, not by fields; unhashable,
    as a hash consistent with == would need a canonical form."""

    __slots__ = ("num", "wpow")

    def __init__(self, num: Poly, wpow: int = 0):
        if wpow < 0:
            raise ValueError("wpow must be nonnegative")
        if num.is_zero or num.ring.w_is_one:
            wpow = 0
        self.num = num
        self.wpow = wpow

    @property
    def ring(self):
        return self.num.ring

    @classmethod
    def zero(cls, ring):
        return cls(Poly.zero(ring))

    @classmethod
    def one(cls, ring):
        return cls(Poly.one(ring))

    @classmethod
    def of(cls, x):
        if isinstance(x, Coef):
            return x
        if isinstance(x, Poly):
            return cls(x)
        raise TypeError(f"cannot coerce {type(x)} to Coef")

    def _coerce(self, other):
        if isinstance(other, Coef):
            return other
        if isinstance(other, Poly):
            return Coef(other)
        if isinstance(other, (int, Fraction)):
            return Coef(Poly.const(self.ring, other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = max(self.wpow, other.wpow)
        return Coef(self._lift(k) + other._lift(k), k)

    def _lift(self, k):
        """The numerator over the common denominator w^k, k >= wpow."""
        if k == self.wpow:
            return self.num
        return self.num * self.ring.w_power(k - self.wpow)

    __radd__ = __add__

    def __neg__(self):
        return Coef(-self.num, self.wpow)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Coef(self.num * other.num, self.wpow + other.wpow)

    __rmul__ = __mul__

    def __eq__(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.is_zero

    @property
    def is_zero(self):
        return self.num.is_zero

    def diff(self, mu: int) -> "Coef":
        """d/dp^mu, with the chain rule d(w^-k) = 2 k beta p_mu w^-(k+1)."""
        ring = self.ring
        si = ring.momentum_index(mu)
        dnum = self.num.diff(si)
        if self.wpow == 0:
            return Coef(dnum)
        g = ring.metric[mu]
        p_lower = ring.momenta[mu] * g  # p_mu = g_mu p^mu
        extra = self.num * ring.param("beta") * p_lower * (2 * self.wpow)
        return Coef(dnum * ring.w + extra, self.wpow + 1)

    def eval(self, values: dict):
        wval = self.ring.w.eval(values)
        if wval == 0 and self.wpow:
            raise ZeroDivisionError("w vanishes at evaluation point")
        return self.num.eval(values) / wval ** self.wpow

    def __repr__(self):
        if self.wpow == 0:
            return repr(self.num)
        return f"({self.num!r}) * w^-{self.wpow}"
