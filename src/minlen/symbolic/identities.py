"""Machine verification of the deformed-algebra and Poincare identities.

Each verify_* function rebuilds the operators from scratch over an exact
coefficient ring, normal-orders both sides of every identity and reports
whether the difference collapses to zero.  Failures are reported, never
raised.  The `tamper` argument injects named coefficient perturbations so
that tests can confirm each identity actually constrains the algebra; a
name the suite does not define is a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations

from ..core import Spacetime
from .poly import Coef, Poly, Ring
from .operator import (
    Op,
    commutator,
    deformed_position,
    lorentz_generator,
    momentum_operator,
    translation_g,
    translation_generator,
    undeformed_lorentz_generator,
)


@dataclass(frozen=True)
class SymbolicParams:
    """Deformation parameters for a verification run.

    None keeps the parameter fully symbolic; an exact rational pins it.
    """

    beta: object = None
    betap: object = None
    gamma: object = None

    def ring(self, metric) -> Ring:
        return Ring(metric, beta=self.beta, betap=self.betap, gamma=self.gamma)


@dataclass
class IdentityCheck:
    identity_id: str
    latex_tag: str
    passed: bool
    residual_term_count: int


@dataclass
class VerificationReport:
    suite: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def record(self, identity_id: str, latex_tag: str, residual: Op):
        self.checks.append(
            IdentityCheck(
                identity_id, latex_tag, residual.is_zero, residual.term_count
            )
        )

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {
                    "identity_id": c.identity_id,
                    "latex_tag": c.latex_tag,
                    "pass": c.passed,
                    "residual_term_count": c.residual_term_count,
                }
                for c in self.checks
            ],
        }


@dataclass(frozen=True)
class TransformationSpec:
    """First-order Lorentz rotation/boost or translation parameters.

    domega is the covariant antisymmetric matrix delta_omega_{mu nu}; da is
    the contravariant shift delta_a^mu.  Entries are ints or Fractions; a
    float is a TypeError, as Fraction(0.1) is not 1/10.
    """

    kind: str
    domega: tuple = None
    da: tuple = None

    def __post_init__(self):
        if self.kind not in ("lorentz", "translation"):
            raise ValueError(f"unknown transformation kind {self.kind!r}")
        if self.kind == "lorentz":
            if self.domega is None:
                raise ValueError("lorentz spec needs domega")
            m = self.domega
            n = len(m)
            for i in range(n):
                if len(m[i]) != n:
                    raise ValueError("domega must be square")
                for j in range(n):
                    if m[i][j] != -m[j][i]:
                        raise ValueError("domega must be antisymmetric")
        else:
            if self.da is None:
                raise ValueError("translation spec needs da")
        for x in chain(*self.domega) if self.kind == "lorentz" else self.da:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"spec entry {x!r} is not an int or Fraction")

    @classmethod
    def rotation(cls, st: Spacetime, a: int, b: int, value=1):
        n = st.D + 1
        m = [[Fraction(0)] * n for _ in range(n)]
        m[a][b], m[b][a] = value, -value
        return cls("lorentz", domega=tuple(tuple(r) for r in m))

    @classmethod
    def translation(cls, st: Spacetime, a: int, value=1):
        da = [Fraction(0)] * (st.D + 1)
        da[a] = value
        return cls("translation", da=tuple(da))


def _check_tamper(tamper, *known):
    for name in tamper:
        if name not in known:
            raise ValueError(f"unknown tamper {name!r}, not one of {known}")


def _position_momentum(ring: Ring):
    """The operator lists X^mu and P^mu over every momentum index."""
    n = ring.nmom
    X = [deformed_position(ring, m) for m in range(n)]
    P = [momentum_operator(ring, m) for m in range(n)]
    return X, P


def _xp_residual(ring, X, P, p, w, mu, nu, betap_scale=1):
    """[X^mu, P^nu] + h[w g^{mu nu} - betap p^mu p^nu].

    p are the momentum polynomials of the operators P, and w = 1 - beta s
    their deformation factor.
    """
    h = Poly.symbol(ring, "h")
    gmn = ring.metric[mu] if mu == nu else 0
    rhs = h * (w * gmn - ring.param("betap") * betap_scale * p[mu] * p[nu])
    return commutator(X[mu], P[nu]) + Op.mult(rhs)


def _xx_residual(ring, X, P, w, g, mu, nu):
    """w o [X^mu, X^nu] - h g (P^mu X^nu - P^nu X^mu), cleared form.

    g is the numerator of the translation function, Ring.g_numerator(s).
    """
    h = Poly.symbol(ring, "h")
    lhs = commutator(X[mu], X[nu]).scale(w)
    rhs = ((P[mu] @ X[nu]) - (P[nu] @ X[mu])).scale(h * g)
    return lhs - rhs


def verify_algebra(
    st: Spacetime, params: SymbolicParams = None, tamper=()
) -> VerificationReport:
    """Check the three covariant commutation relations for every index pair."""
    _check_tamper(
        tamper, "xp-betap-doubled", "xp-w-dropped", "xx-s-term-dropped"
    )
    params = params or SymbolicParams()
    ring = params.ring(st.metric)
    return _algebra_suite(ring, "algebra", tamper)


def _algebra_suite(ring: Ring, suite: str, tamper=()) -> VerificationReport:
    n = ring.nmom
    X, P = _position_momentum(ring)
    rep = VerificationReport(suite)
    betap_scale = 2 if "xp-betap-doubled" in tamper else 1
    w_rhs = Poly.one(ring) if "xp-w-dropped" in tamper else ring.w
    s = Poly.zero(ring) if "xx-s-term-dropped" in tamper else ring.s
    g = ring.g_numerator(s)
    for mu in range(n):
        for nu in range(mu, n):
            res = _xp_residual(
                ring, X, P, ring.momenta, w_rhs, mu, nu, betap_scale
            )
            rep.record(
                f"xp-{mu}{nu}",
                rf"[X^{mu},P^{nu}] = -i\hbar[(1-\beta P\cdot P)g^{{{mu}{nu}}}"
                rf" - \beta' P^{mu} P^{nu}]",
                res,
            )
    for mu, nu in combinations(range(n), 2):
        res = _xx_residual(ring, X, P, ring.w, g, mu, nu)
        rep.record(
            f"xx-{mu}{nu}",
            rf"(1-\beta P\cdot P)[X^{mu},X^{nu}] = i\hbar"
            rf"[2\beta-\beta'-(2\beta+\beta')\beta P\cdot P]"
            rf"(P^{mu}X^{nu}-P^{nu}X^{mu})",
            res,
        )
    for mu, nu in combinations(range(n), 2):
        rep.record(
            f"pp-{mu}{nu}",
            rf"[P^{mu},P^{nu}] = 0",
            commutator(P[mu], P[nu]),
        )
    return rep


def verify_poincare(
    st: Spacetime, params: SymbolicParams = None, tamper=()
) -> VerificationReport:
    """Deformed Lorentz/translation generators realize undeformed iso(D,1)."""
    _check_tamper(tamper, "phat-no-u")
    params = params or SymbolicParams()
    ring = params.ring(st.metric)
    n = ring.nmom
    h = Poly.symbol(ring, "h")
    rep = VerificationReport("poincare")

    pairs = list(combinations(range(n), 2))
    L = {}
    for a, b in pairs:
        Lab = lorentz_generator(ring, a, b)
        L[a, b] = Lab
        rep.record(
            f"lhat-simplify-{a}{b}",
            rf"\hat L_{{{a}{b}}} = x_{a} p_{b} - x_{b} p_{a}",
            Lab - undeformed_lorentz_generator(ring, a, b),
        )

    def Lfull(a, b):
        if a == b:
            return Op.zero(ring)
        if (a, b) in L:
            return L[a, b]
        return -L[b, a]

    def gm(a, b):
        return ring.metric[a] if a == b else 0

    for (a, b), (r_, s_) in combinations(pairs, 2):
        lhs = commutator(L[a, b], L[r_, s_])
        rhs = (
            Lfull(b, s_).scale(Fraction(gm(a, r_)))
            - Lfull(b, r_).scale(Fraction(gm(a, s_)))
            - Lfull(a, s_).scale(Fraction(gm(b, r_)))
            + Lfull(a, r_).scale(Fraction(gm(b, s_)))
        ).scale(h)
        rep.record(
            f"so-{a}{b}-{r_}{s_}",
            rf"[\hat L_{{{a}{b}}},\hat L_{{{r_}{s_}}}]"
            r" = -i\hbar(g\hat L - g\hat L - g\hat L + g\hat L)",
            lhs + rhs,
        )

    Phat = [translation_generator(ring, a) for a in range(n)]
    if "phat-no-u" in tamper:
        # perturbed generator on the commutator side, true RHS
        Phat_lhs = [
            Op.mult(Poly.momentum(ring, a) * ring.metric[a]) for a in range(n)
        ]
    else:
        Phat_lhs = Phat
    for a, b in combinations(range(n), 2):
        rep.record(
            f"phat-{a}{b}",
            rf"[\hat P_{a},\hat P_{b}] = 0",
            commutator(Phat_lhs[a], Phat_lhs[b]),
        )
    for a, b in pairs:
        for r_ in range(n):
            lhs = commutator(L[a, b], Phat_lhs[r_])
            rhs = (
                Phat[a].scale(Fraction(gm(b, r_)))
                - Phat[b].scale(Fraction(gm(a, r_)))
            ).scale(h)
            rep.record(
                f"lp-{a}{b}-{r_}",
                rf"[\hat L_{{{a}{b}}},\hat P_{r_}]"
                rf" = i\hbar(g_{{{b}{r_}}}\hat P_{a} - g_{{{a}{r_}}}\hat P_{b})",
                lhs - rhs,
            )
    return rep


def _variations(ring, X, spec: TransformationSpec, tamper=()):
    """The first-order variations dX^mu (operators) and dp^mu (momentum
    polynomials; dP^mu is multiplication by dp^mu) of a transformation."""
    n = ring.nmom
    g = ring.metric
    if spec.kind == "lorentz":
        dX = []
        dp = []
        for mu in range(n):
            dxm = Op.zero(ring)
            dpm = Poly.zero(ring)
            for nu in range(n):
                c = Fraction(g[mu] * spec.domega[mu][nu])  # domega^mu_nu
                if c:
                    dxm = dxm + X[nu].scale(c)
                    dpm = dpm + ring.momenta[nu] * c
            dX.append(dxm)
            dp.append(dpm)
        return dX, dp
    if "trans-gfun-wrong" in tamper:
        gfun = Coef(ring.g_numerator(Poly.zero(ring)), 1)  # g(0) w^-1
    else:
        gfun = translation_g(ring)
    da_dot_p = Poly.zero(ring)
    for nu in range(n):
        da_dot_p = da_dot_p + ring.momenta[nu] * g[nu] * Fraction(spec.da[nu])
    dX = []
    for mu in range(n):
        c = Poly.const(ring, -Fraction(spec.da[mu]))
        c = c - gfun * (da_dot_p * ring.momenta[mu])
        dX.append(Op.mult(c))
    return dX, [Poly.zero(ring)] * n


def _first_order_residuals(ring, X, P, dX, dp) -> dict:
    """O(delta) parts of the xp, xx and pp residuals under X -> X + dX,
    P -> P + dP, keyed by (relation, mu, nu).

    p, w = 1 - beta s and g(s) vary by dp, dw = -beta ds and
    dg = -(2 beta + betap) beta ds, with ds = 2 sum_mu g_mu p^mu dp^mu.  The
    O(1) parts are the residuals that verify_algebra checks.
    """
    n = ring.nmom
    h = Poly.symbol(ring, "h")
    p = ring.momenta
    betap = ring.param("betap")
    dP = [Op.mult(q) for q in dp]
    zero = Poly.zero(ring)
    ds = zero
    for pj, qj, gj in zip(p, dp, ring.metric):
        ds = ds + pj * qj * (2 * gj)
    # w and g are affine in s, so each varies by its value at ds minus at 0
    dw = ring.w_of(ds) - ring.w_of(zero)
    dg = ring.g_numerator(ds) - ring.g_numerator(zero)
    hg = h * ring.g_numerator(ring.s)
    out = {}
    for mu in range(n):
        for nu in range(mu, n):
            gmn = ring.metric[mu] if mu == nu else 0
            rhs = h * (dw * gmn - betap * (dp[mu] * p[nu] + p[mu] * dp[nu]))
            dxp = commutator(dX[mu], P[nu]) + commutator(X[mu], dP[nu])
            out["xp", mu, nu] = dxp + Op.mult(rhs)
    for mu, nu in combinations(range(n), 2):
        dxx = commutator(dX[mu], X[nu]) + commutator(X[mu], dX[nu])
        dpx = (dP[mu] @ X[nu]) + (P[mu] @ dX[nu])
        dpx = dpx - (dP[nu] @ X[mu]) - (P[nu] @ dX[mu])
        res = dxx.scale(ring.w) - dpx.scale(hg)
        if ds:  # zero for every Lorentz and translation variation
            res = res + _xx_residual(ring, X, P, dw, dg, mu, nu)
        out["xx", mu, nu] = res
    for mu, nu in combinations(range(n), 2):
        dpp = commutator(dP[mu], P[nu]) + commutator(P[mu], dP[nu])
        out["pp", mu, nu] = dpp
    return out


def verify_transformations(
    st: Spacetime,
    params: SymbolicParams = None,
    specs=None,
    tamper=(),
) -> VerificationReport:
    """Generator action and first-order invariance of the algebra.

    The invariance checks test only the O(delta) part of each primed
    relation; its O(1) part is the algebra itself, which verify_algebra
    checks.  By bilinearity in the transformation parameters, checking every
    elementary antisymmetric delta-omega and every elementary delta-a is
    equivalent to a fully symbolic parameter matrix.
    """
    _check_tamper(tamper, "trans-gfun-wrong")
    params = params or SymbolicParams()
    ring = params.ring(st.metric)
    n = ring.nmom
    h = Poly.symbol(ring, "h")
    g = ring.metric
    if specs is None:
        specs = [
            TransformationSpec.rotation(st, a, b)
            for a, b in combinations(range(n), 2)
        ] + [TransformationSpec.translation(st, a) for a in range(n)]
    X, P = _position_momentum(ring)
    L = {}  # L_ab, built the first time a spec needs it
    Phat = [translation_generator(ring, a) for a in range(n)]
    rep = VerificationReport("transformations")

    for si, spec in enumerate(specs):
        if len(spec.domega if spec.kind == "lorentz" else spec.da) != n:
            raise ValueError(f"a spec at D = {st.D} needs size {n} (D + 1)")
        dX, dp = _variations(ring, X, spec, tamper)
        tag = f"{spec.kind}-{si}"
        if spec.kind == "lorentz":
            # delta O^mu = [i/(2 hbar)] domega^{ab} [L_ab, O^mu]
            # cleared of 1/h:  sum_ab domega^{ab} [L_ab, O^mu] + 2h dO^mu = 0
            dP = [Op.mult(q) for q in dp]
            for mu in range(n):
                for ops, dops, sym in ((X, dX, "X"), (P, dP, "P")):
                    acc = Op.zero(ring)
                    for a, b in combinations(range(n), 2):
                        c = Fraction(g[a] * g[b] * spec.domega[a][b])
                        if c:
                            Lab = L.get((a, b))
                            if Lab is None:
                                Lab = L[a, b] = lorentz_generator(ring, a, b)
                            acc = acc + commutator(Lab, ops[mu]).scale(2 * c)
                    rep.record(
                        f"{tag}-gen-{sym}{mu}",
                        rf"\delta {sym}^{mu} = [i/(2\hbar)]\delta\omega^{{ab}}"
                        rf"[\hat L_{{ab}},{sym}^{mu}]",
                        acc + dops[mu].scale(h * 2),
                    )
        else:
            for mu in range(n):
                acc = Op.zero(ring)
                for a in range(n):
                    c = Fraction(spec.da[a])
                    if c:
                        acc = acc + commutator(Phat[a], X[mu]).scale(c)
                rep.record(
                    f"{tag}-gen-X{mu}",
                    rf"\delta X^{mu} = (i/\hbar)\delta a^a[\hat P_a,X^{mu}]",
                    acc + dX[mu].scale(h),
                )
                for a in range(n):
                    if spec.da[a]:
                        rep.record(
                            f"{tag}-gen-P{mu}-{a}",
                            rf"[\hat P_{a},P^{mu}] = 0",
                            commutator(Phat[a], P[mu]),
                        )

        # first-order invariance of the three defining relations
        for (rel, mu, nu), res in _first_order_residuals(
            ring, X, P, dX, dp
        ).items():
            rep.record(
                f"{tag}-inv-{rel}-{mu}{nu}",
                rf"[{rel[0].upper()}'^{mu},{rel[1].upper()}'^{nu}]"
                rf" invariant to O(\delta)",
                res,
            )
    return rep


def verify_reductions(D: int = 3) -> VerificationReport:
    """Snyder special case and the Euclidean (Kempf) analogue."""
    rep = VerificationReport("reductions")
    # Snyder: Minkowski, beta = gamma = 0, betap symbolic
    # (w = 1 and g(s) = -betap there)
    ring = Ring(Spacetime(D).metric, beta=0, gamma=0)
    X, P = _position_momentum(ring)
    g = ring.g_numerator(ring.s)
    for mu, nu in combinations(range(ring.nmom), 2):
        rep.record(
            f"snyder-xx-{mu}{nu}",
            rf"[X^{mu},X^{nu}] = -i\hbar\beta'(P^{mu}X^{nu}-P^{nu}X^{mu})",
            _xx_residual(ring, X, P, ring.w, g, mu, nu),
        )

    # Euclidean mode: metric all -1 reproduces the Kempf relations verbatim
    ering = Ring((-1,) * D)
    erep = _algebra_suite(ering, "kempf")
    for c in erep.checks:
        rep.checks.append(
            IdentityCheck(
                "kempf-" + c.identity_id,
                c.latex_tag.replace("P\\cdot P", "-\\mathbf{P}^2"),
                c.passed,
                c.residual_term_count,
            )
        )

    # undeformed Euclidean limit: canonical commutation relations
    # (w = 1 and g(s) = 0 there)
    cring = Ring((-1,) * D, beta=0, betap=0)
    Xc, Pc = _position_momentum(cring)
    gc = cring.g_numerator(cring.s)
    for i in range(D):
        for j in range(i, D):
            rep.record(
                f"ccr-xp-{i}{j}",
                rf"[X^{i},P^{j}] = i\hbar\delta^{{{i}{j}}}",
                _xp_residual(cring, Xc, Pc, cring.momenta, cring.w, i, j),
            )
    for i, j in combinations(range(D), 2):
        rep.record(
            f"ccr-xx-{i}{j}",
            rf"[X^{i},X^{j}] = 0",
            _xx_residual(cring, Xc, Pc, cring.w, gc, i, j),
        )
    return rep
