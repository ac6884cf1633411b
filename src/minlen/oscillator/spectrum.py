"""Exact bound-state spectrum of the (1+1)-dimensional deformed Dirac
oscillator (D = 1, beta' = 0).

Dimensionless conventions: beta_tilde = beta m^2 c^2, omega_tilde =
hbar omega / (m c^2), momenta in units of m c.  Each level quantity has
one closed form, from the fixed point e_n = (p0)^2 - 1 of the factorized
ladder problem: p0 in `p0_allowed`, e_n in `make_level` and E = m c^2 p0
in `energy`.  The tests hold them to the other closed forms, and the
finite-difference eigensolver in .wavefunction is the independent check.
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


def measure_offset(params: DOParams, p0_tilde: float) -> float:
    """c0 = 1 - beta_tilde p0^2, the measure factor f at p = 0."""
    return 1.0 - params.beta_tilde * p0_tilde**2


def e_formula(params: DOParams, n: int, p0_tilde: float) -> float:
    """Ladder eigenvalue e_n(p0) = K [1 - beta_tilde p0^2] at any p0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return level_K(params, n) * measure_offset(params, p0_tilde)


def p0_allowed(params: DOParams, qn: QuantumNumber) -> float:
    """Self-consistent p0 = tau sqrt((1+K)/(1+beta_tilde K)).

    Where beta_tilde K overflows, p0^2 takes the equal form
    (1 + (beta_tilde-1)/y^2)/beta_tilde with y = 1 + beta_tilde omega_tilde n
    (1 + beta_tilde K = y^2), which does not overflow.
    """
    bt = params.beta_tilde
    K = level_K(params, qn.n)
    if bt == 0:
        return qn.tau * math.sqrt(1.0 + K)
    if not math.isfinite(bt * K):
        y = 1.0 + bt * params.omega_tilde * qn.n
        return qn.tau * math.sqrt((1.0 + (bt - 1.0) / (y * y)) / bt)
    return qn.tau * math.sqrt((1.0 + K) / (1.0 + bt * K))


def energy(params: DOParams, qn: QuantumNumber) -> float:
    """Dimensional energy E_{n,tau} = m c^2 p0; requires the dimensional
    set."""
    if not params.has_dimensions:
        raise ValueError("energy() needs the dimensional parameter set")
    return params.mass * params.c**2 * p0_allowed(params, qn)


def make_level(params: DOParams, qn: QuantumNumber) -> SpectrumLevel:
    """The level (n, tau).  e_n = p0^2 - 1 = K (1 - bt)/(1 + bt K) is
    evaluated as (1 - bt) (wt n/y) (1 + 1/y), with no subtraction that
    cancels; wt (n/y) stays finite where wt n overflows, and tends to 1/bt
    where y does."""
    bt, wt, n = params.beta_tilde, params.omega_tilde, qn.n
    y = 1.0 + bt * wt * n
    ratio = wt * (n / y) if y < math.inf else 1.0 / bt
    e_n = (1.0 - bt) * ratio * (1.0 + 1.0 / y)
    p0 = p0_allowed(params, qn)
    E = energy(params, qn) if params.has_dimensions else None
    return SpectrumLevel(n=n, tau=qn.tau, K=level_K(params, n), p0_tilde=p0,
                         e_n=e_n, E_over_mc2=p0, E=E)


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
