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

A Poly is the localized element num * w^(-wpow), with wpow = 0 for a zero
numerator and in a ring where w = 1; Coef(num, k) builds num * w^(-k).  The
numerator holds integer coefficients over one content denominator den > 0,
kept reduced: gcd(den, *numerators) == 1, and den == 1 for zero.  Each
rational polynomial thus has one representation, and products, sums and
derivatives run on ints.  Rationals enter through the public constructor
and Poly.const only.

An element is stored as built, with no factor of w divided out, so there
is no canonical form: a == b iff the numerator of a - b is the zero
polynomial, which no power of w changes, and Poly is unhashable.  Nothing
in the kernel divides one polynomial by another.
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
            if val is None:
                continue
            if not isinstance(val, (int, Fraction)):
                raise TypeError(f"{name} = {val!r} is not an int or Fraction")
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


def _poly(ring, terms, den=1, wpow=0):
    """Trusted constructor for internal results: terms maps packed monomials
    to nonzero ints over den > 0; the content they share is divided out.
    wpow is dropped for a zero numerator and in a ring where w = 1."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {e: c // g for e, c in terms.items()}
    if wpow and (not terms or ring.w_is_one):
        wpow = 0
    p = object.__new__(Poly)
    p.ring = ring
    p.terms = terms
    p.den = den
    p.wpow = wpow
    return p


class Poly:
    """The localized element num * w^(-wpow): `terms` maps each packed
    monomial of the numerator to a nonzero int over the common positive
    denominator `den`, with gcd(den, *terms.values()) == 1.  Compare values
    with ==, not by fields; unhashable, as a hash consistent with == would
    need a canonical form."""

    __slots__ = ("ring", "terms", "den", "wpow")

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
        self.ring, self.terms, self.den, self.wpow = ring, p.terms, p.den, 0

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, ring):
        return _poly(ring, {})

    @classmethod
    def one(cls, ring):
        return _poly(ring, {0: 1})

    @classmethod
    def const(cls, ring, c):
        return cls(ring, {0: c})

    @classmethod
    def symbol(cls, ring, name):
        return _poly(ring, {1 << ring.shifts[ring.index[name]]: 1})

    @classmethod
    def momentum(cls, ring, mu):
        """Contravariant momentum component p^mu (local index mu)."""
        return cls.symbol(ring, ring.names[ring.momentum_index(mu)])

    def coefficients(self) -> dict:
        """The numerator as a map from exponent tuples to Fractions."""
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
        k = self.wpow
        if k != other.wpow:
            # lift the operand with the lower power to the common w^-k
            if k < other.wpow:
                self, other = other, self
                k = self.wpow
            other = other * self.ring.w_power(k - other.wpow)
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
        return _poly(self.ring, out, den, k)

    __radd__ = __add__

    def __neg__(self):
        return _poly(
            self.ring, {e: -c for e, c in self.terms.items()}, self.den,
            self.wpow,
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
        return _poly(ring, out, self.den * other.den, self.wpow + other.wpow)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers: build num * w^-k with Coef")
        out = Poly.one(self.ring)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.ring != other.ring:
            return False
        if self.wpow != other.wpow:
            # w^2 h w^-3 equals h w^-1, though no field matches
            return (self - other).is_zero
        return self.den == other.den and self.terms == other.terms

    __hash__ = None

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # ---- calculus and evaluation --------------------------------------
    def diff(self, sym_index: int) -> "Poly":
        """d/d(symbol), with d(num w^-k) = dnum w^-k - k num dw w^-(k+1)."""
        ring = self.ring
        shift = ring.shifts[sym_index]
        unit = 1 << shift
        out = {}
        for e, c in self.terms.items():
            k = (e >> shift) & FIELD_MAX
            if k:
                out[e - unit] = c * k
        k = self.wpow
        d = _poly(ring, out, self.den, k)
        if k:
            dw = ring.w.diff(sym_index)
            d = d - _poly(ring, self.terms, self.den, k + 1) * dw * k
        return d

    def eval(self, values: dict):
        """Evaluate at exact values; `values` maps symbol name -> Fraction."""
        total = Fraction(0)
        for e, c in self.coefficients().items():
            term = c
            for i, k in enumerate(e):
                if k:
                    term *= Fraction(values[self.ring.names[i]]) ** k
            total += term
        if not self.wpow:
            return total
        wval = self.ring.w.eval(values)
        if wval == 0:
            raise ZeroDivisionError("w vanishes at evaluation point")
        return total / wval ** self.wpow

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
        num = " + ".join(parts)
        return f"({num}) * w^-{self.wpow}" if self.wpow else num


def Coef(num: Poly, wpow: int = 0) -> Poly:
    """num * w^(-wpow), the builder of localized values."""
    if wpow < 0:
        raise ValueError("wpow must be nonnegative")
    return _poly(num.ring, num.terms, num.den, num.wpow + wpow)
