"""Exact commutative coefficient ring for normal-ordered operators.

Coefficients live in Q[h, beta, betap, gamma, p0, ..., pD] localized at
w = 1 - beta * s, where s = sum_mu g_mu (p^mu)^2 is the metric square of the
momentum.  The symbol h stands for the single central element i*hbar (all
identities handled here are polynomial in i*hbar, so i and hbar are never
separated).  A rational coefficient is stored as an int when it is integral
and as a Fraction otherwise.

A coefficient is a pair num * w^(-k), stored as built with no factor of w
divided out, so there is no canonical form: a == b iff the numerator of
a - b is the zero polynomial, which no power of w changes.  The Lorentz
generator holds the one division by w (Poly.exact_div).  Monomials are
exponent tuples in lex order of the symbols above (earlier = more
significant).
"""

from __future__ import annotations

from fractions import Fraction


BASE_SYMBOLS = ("h", "beta", "betap", "gamma")


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
        self.subs = {}
        for name, val in (("beta", beta), ("betap", betap), ("gamma", gamma)):
            if val is not None:
                self.subs[name] = Fraction(val)
        self._zero_exp = (0,) * self.nsym
        self.momenta = tuple(Poly.momentum(self, j) for j in range(self.nmom))
        self.s = self.metric_square(self.momenta)
        self.w = self.w_of(self.s)
        self.w_is_one = self.w == Poly.one(self)

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


class Poly:
    """Multivariate polynomial with rational (int or Fraction) coefficients,
    stored as a map from exponent tuples to coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = {
            e: c.numerator if c.denominator == 1 else c
            for e, c in terms.items()
            if c
        }

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def one(cls, ring):
        return cls.const(ring, 1)

    @classmethod
    def const(cls, ring, c):
        return cls(ring, {ring._zero_exp: Fraction(c)})

    @classmethod
    def symbol(cls, ring, name):
        e = [0] * ring.nsym
        e[ring.index[name]] = 1
        return cls(ring, {tuple(e): 1})

    @classmethod
    def momentum(cls, ring, mu):
        """Contravariant momentum component p^mu (local index mu)."""
        return cls.symbol(ring, ring.names[ring.momentum_index(mu)])

    # ---- ring operations ----------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.ring, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

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
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.ring, out)

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
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # ---- calculus and evaluation --------------------------------------
    def diff(self, sym_index: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            k = e[sym_index]
            if k == 0:
                continue
            e2 = list(e)
            e2[sym_index] = k - 1
            e2 = tuple(e2)
            out[e2] = out.get(e2, 0) + c * k
        return Poly(self.ring, out)

    def eval(self, values: dict):
        """Evaluate at exact values; `values` maps symbol name -> Fraction."""
        total = Fraction(0)
        for e, c in self.terms.items():
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
        rem = dict(self.terms)
        q = {}
        dl = max(d.terms)
        dc = d.terms[dl]
        n = self.ring.nsym
        while rem:
            m = max(rem)
            c = rem.pop(m)
            if any(m[i] < dl[i] for i in range(n)):
                return None
            e = tuple(m[i] - dl[i] for i in range(n))
            coef = c // dc if not c % dc else Fraction(c, dc)
            q[e] = q.get(e, 0) + coef
            for de, dcoef in d.terms.items():
                if de == dl:
                    continue
                me = tuple(e[i] + de[i] for i in range(n))
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
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
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
        return self.num * self.ring.w ** (k - self.wpow)

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
