"""Exact bound-state spectrum of the (1+1)-dimensional deformed Dirac
oscillator (D = 1, beta' = 0).

Dimensionless conventions: beta_tilde = beta m^2 c^2, omega_tilde =
hbar omega / (m c^2), momenta in units of m c.  The level data come from
the closed-form fixed point e_n = (p0)^2 - 1 of the factorized ladder
problem; the numerical eigensolver in .wavefunction provides the
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Optional


class AcceptabilityError(ValueError):
    """The singularity-free condition on the measure is violated."""


class UnphysicalDeformationError(ValueError):
    """beta_tilde >= 1 requested outside diagnostic mode."""


@dataclass(frozen=True)
class DOParams:
    """Deformed Dirac oscillator parameters.

    The optional dimensional set (mass, c, hbar, omega) turns dimensionless
    outputs into energies; `a = hbar/(mass*c)` is the Compton length used to
    de-dimensionalize positions and momenta.
    """

    beta_tilde: float
    omega_tilde: float
    mass: Optional[float] = None
    c: Optional[float] = None
    hbar: Optional[float] = None
    omega: Optional[float] = None
    diagnostic: bool = False

    def __post_init__(self):
        if not all(map(math.isfinite, (self.beta_tilde, self.omega_tilde))):
            raise ValueError("beta_tilde and omega_tilde must be finite")
        if self.beta_tilde < 0:
            raise ValueError("beta_tilde must be nonnegative")
        if self.omega_tilde <= 0:
            raise ValueError("omega_tilde must be positive")
        if self.beta_tilde >= 1 and not self.diagnostic:
            raise UnphysicalDeformationError(
                "beta_tilde >= 1 gives |E| decreasing with n; "
                "pass diagnostic=True to compute the formulas anyway"
            )
        dims = (self.mass, self.c, self.hbar, self.omega)
        if any(d is not None for d in dims) and any(d is None for d in dims):
            raise ValueError("dimensional set requires mass, c, hbar, omega")
        if self.has_dimensions:
            wt = self.hbar * self.omega / (self.mass * self.c**2)
            if not math.isclose(wt, self.omega_tilde, rel_tol=1e-12):
                raise ValueError(
                    "omega_tilde inconsistent with dimensional set"
                )

    @property
    def has_dimensions(self) -> bool:
        return self.mass is not None

    @property
    def a(self) -> float:
        """Compton length hbar/(m c)."""
        return self.hbar / (self.mass * self.c)

    @property
    def beta(self) -> float:
        """Dimensional deformation parameter beta = beta_tilde/(m c)^2."""
        return self.beta_tilde / (self.mass * self.c) ** 2

    @classmethod
    def from_dimensional(cls, mass, c, hbar, omega, beta, diagnostic=False):
        return cls(
            beta_tilde=beta * mass**2 * c**2,
            omega_tilde=hbar * omega / (mass * c**2),
            mass=mass,
            c=c,
            hbar=hbar,
            omega=omega,
            diagnostic=diagnostic,
        )


@dataclass(frozen=True)
class QuantumNumber:
    """(n, tau): tau = +1 admits n >= 0, tau = -1 admits n >= 1."""

    n: int
    tau: int

    def __post_init__(self):
        if not all(isinstance(x, Integral) for x in (self.n, self.tau)):
            raise TypeError("n and tau must be integers")
        if self.tau not in (1, -1):
            raise ValueError("tau must be +1 or -1")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.tau == -1 and self.n == 0:
            raise ValueError(
                "(n, tau) = (0, -1) has no normalizable solution; "
                "n runs from 1 for tau = -1"
            )


@dataclass(frozen=True)
class SpectrumLevel:
    n: int
    tau: int
    K: float
    p0_tilde: float
    e_n: float
    E_over_mc2: float
    E: Optional[float] = None


def level_K(params: DOParams, n: int) -> float:
    """K = omega_tilde n (2 + beta_tilde omega_tilde n)."""
    wt, bt = params.omega_tilde, params.beta_tilde
    return wt * n * (2.0 + bt * wt * n)


def e_formula(params: DOParams, n: int, p0_tilde: float) -> float:
    """Ladder eigenvalue e_n(p0) = K [1 - beta_tilde p0^2]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return level_K(params, n) * (1.0 - params.beta_tilde * p0_tilde**2)

def p0_allowed(params: DOParams, qn: QuantumNumber) -> float:
    """Self-consistent p0 = tau sqrt((1+K)/(1+beta_tilde K)).

    When beta_tilde > 0 the equivalent closed form
    tau beta^{-1/2} sqrt(1 + (beta-1)/(1 + beta omega n)^2) is evaluated as
    a consistency cross-check.  It cannot overflow, and it gives p0 when
    beta_tilde K does (both forms tend to 1/beta_tilde as K grows).
    """
    bt = params.beta_tilde
    K = level_K(params, qn.n)
    if bt == 0:
        return qn.tau * math.sqrt(1.0 + K)
    y = 1.0 + bt * params.omega_tilde * qn.n  # 1 + bt K = y^2
    alt_sq = (1.0 + (bt - 1.0) / (y * y)) / bt
    if not math.isfinite(bt * K):
        return qn.tau * math.sqrt(alt_sq)
    p0 = qn.tau * math.sqrt((1.0 + K) / (1.0 + bt * K))
    # the alternative form cancels two near-unit terms scaled by 1/bt,
    # so its roundoff grows like eps/bt
    if not math.isclose(p0 * p0, alt_sq, rel_tol=1e-12, abs_tol=1e-13 / bt):
        raise AssertionError(
            "closed forms for p0 disagree; numerical pathology"
        )
    return p0


def energy(params: DOParams, qn: QuantumNumber) -> float:
    """Dimensional energy E_{n,tau}; requires the dimensional set.

    Uses the bounded-spectrum closed form for beta > 0 and the undeformed
    limit tau m c^2 sqrt(1 + 2 omega_tilde n) for beta = 0.
    """
    if not params.has_dimensions:
        raise ValueError("energy() needs the dimensional parameter set")
    m, c = params.mass, params.c
    bt, wt = params.beta_tilde, params.omega_tilde
    if bt == 0:
        E = qn.tau * m * c**2 * math.sqrt(1.0 + 2.0 * wt * qn.n)
    else:
        beta = params.beta
        E = (qn.tau * c / math.sqrt(beta)) * math.sqrt(
            1.0
            + (beta * m**2 * c**2 - 1.0)
            / (1.0 + beta * m * params.hbar * params.omega * qn.n) ** 2
        )
    # must coincide with m c^2 p0 from the fixed point
    ref = m * c**2 * p0_allowed(params, qn)
    if not math.isclose(E, ref, rel_tol=1e-12):
        raise AssertionError("energy forms disagree beyond roundoff")
    return E


def make_level(params: DOParams, qn: QuantumNumber) -> SpectrumLevel:
    K = level_K(params, qn.n)
    p0 = p0_allowed(params, qn)
    # e_n = p0^2 - 1 at the fixed point; K (1 - bt p0^2) is inf * 0 when
    # bt K overflows
    if math.isfinite(params.beta_tilde * K):
        e_n = e_formula(params, qn.n, p0)
    else:
        e_n = p0 * p0 - 1.0
    E = energy(params, qn) if params.has_dimensions else None
    return SpectrumLevel(
        n=qn.n, tau=qn.tau, K=K, p0_tilde=p0, e_n=e_n, E_over_mc2=p0, E=E
    )


@dataclass
class SpectrumTable:
    params: DOParams
    levels: list
    unphysical_decrease: bool

    COLUMNS = ("n", "tau", "K", "p0_tilde", "e_n", "E_over_mc2")

    def columns(self):
        """One list per name in COLUMNS, in level order."""
        return [[getattr(lev, name) for lev in self.levels]
                for name in self.COLUMNS]


def spectrum_table(params: DOParams, n_max: int) -> SpectrumTable:
    """All levels with n <= n_max for both tau branches.

    Ordering: tau = +1 levels n = 0..n_max, then tau = -1 levels n =
    1..n_max.  In diagnostic mode (beta_tilde >= 1) the unphysical-decrease
    flag records that |E| is not strictly increasing in n.  Below 1, |E|
    rises strictly in exact arithmetic, so only a strict decrease is flagged:
    neighbours that round to the same double near 1/sqrt(beta_tilde) are
    saturation, not a decrease.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    levels = [make_level(params, QuantumNumber(n, 1)) for n in range(n_max + 1)]
    levels += [
        make_level(params, QuantumNumber(n, -1)) for n in range(1, n_max + 1)
    ]
    plus = [abs(l.p0_tilde) for l in levels if l.tau == 1]
    steps = zip(plus, plus[1:])
    if params.beta_tilde < 1:
        decrease = any(b < a for a, b in steps)
    else:
        decrease = not all(b > a for a, b in steps)
    return SpectrumTable(params, levels, unphysical_decrease=decrease)
