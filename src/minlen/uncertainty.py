"""Deformed position-momentum uncertainty bounds and minimal lengths.

The bound for a spatial pair (X^i, P^i) is

    dX^i dP^i >= (hbar/2) |1 - beta {<(P0)^2> - sum_j [(dP^j)^2 + <P^j>^2]}
                           + betap [(dP^i)^2 + <P^i>^2]|,

algebraically equal to (hbar/2)|1 - beta <P.P> + betap <(P^i)^2>|.  With
isotropic spreads it has the same shape as the modified uncertainty product
of the one-parameter deformation, (hbar/2)(A/dP + B dP) with
A = 1 - beta[<(P0)^2> - sum_j <P^j>^2] + betap <P^i>^2 and B = D beta +
betap, whose minimum over dP is hbar sqrt(A B); that is the minimal
position uncertainty evaluated here and re-checked numerically in the
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DeformationParams
from .oscillator.spectrum import AcceptabilityError, DOParams
from .oscillator.wavefunction import WavefunctionGrid, exact_moments


@dataclass(frozen=True)
class MomentSet:
    """First and second momentum moments of a state.

    mean_P and spread_P list the spatial components <P^j> and dP^j
    (j = 1..D); meansq_P0 is <(P^0)^2>.
    """

    D: int
    mean_P: tuple
    spread_P: tuple
    meansq_P0: float

    def __post_init__(self):
        if len(self.mean_P) != self.D or len(self.spread_P) != self.D:
            raise ValueError("need one mean and spread per spatial dimension")
        # written so that NaN fails too
        if not all(s >= 0 for s in self.spread_P):
            raise ValueError("spreads must be nonnegative")
        if not self.meansq_P0 >= 0:
            raise ValueError("<(P^0)^2> must be nonnegative")

    def isotropic(self) -> bool:
        return all(s == self.spread_P[0] for s in self.spread_P)

    def meansq_spatial(self, i: int) -> float:
        """<(P^i)^2> = (dP^i)^2 + <P^i>^2 for spatial index i (1-based)."""
        j = self._spatial(i)
        return self.spread_P[j] ** 2 + self.mean_P[j] ** 2

    def minkowski_meansq(self):
        """<P_rho P^rho> = <(P^0)^2> - sum_j <(P^j)^2>."""
        return self.meansq_P0 - sum(
            self.meansq_spatial(i) for i in range(1, self.D + 1)
        )

    def _spatial(self, i: int) -> int:
        if not 1 <= i <= self.D:
            raise ValueError(f"spatial index {i} out of range 1..{self.D}")
        return i - 1


def gup_bound(deltaP: float, beta: float, hbar: float = 1.0) -> float:
    """Minimal-length bound dX >= (hbar/2)(1/dP + beta dP).

    Over dP the bound attains its global minimum hbar*sqrt(beta) at
    dP = 1/sqrt(beta).
    """
    if not deltaP > 0:
        raise ValueError("deltaP must be positive")
    return 0.5 * hbar * (1.0 / deltaP + beta * deltaP)


def ur_bound(
    m: MomentSet, params: DeformationParams, i: int, hbar: float = 1.0
) -> float:
    """Right-hand side of the deformed uncertainty relation for (X^i, P^i)."""
    val = (
        1.0
        - params.beta * m.minkowski_meansq()
        + params.beta_prime * m.meansq_spatial(i)
    )
    return 0.5 * hbar * abs(val)


def _brace(m: MomentSet, params: DeformationParams, i: int) -> float:
    return (
        1.0
        - params.beta
        * (m.meansq_P0 - sum(mp**2 for mp in m.mean_P))
        + params.beta_prime * m.mean_P[m._spatial(i)] ** 2
    )


def min_deltaX(
    m: MomentSet, params: DeformationParams, i: int, hbar: float = 1.0
) -> float:
    """Minimum of dX^i over isotropic momentum spreads.

    hbar sqrt((D beta + betap) * brace) with brace = 1 - beta[<(P0)^2> -
    sum_j <P^j>^2] + betap <P^i>^2, which is positive for acceptable states.
    """
    if not m.isotropic():
        raise ValueError("min_deltaX assumes isotropic spreads")
    brace = _brace(m, params, i)
    if not brace > 0:
        raise AcceptabilityError(
            f"brace quantity {brace} is not > 0: state violates acceptability"
        )
    return hbar * math.sqrt((m.D * params.beta + params.beta_prime) * brace)


def absolute_min_deltaX(
    params: DeformationParams, meansq_P0: float, D: int, hbar: float = 1.0
) -> float:
    """Smallest position uncertainty over all acceptable states.

    hbar sqrt((D beta + betap)(1 - beta <(P0)^2>)); reduces to the
    Euclidean-deformation value hbar sqrt(D beta + betap) at <(P0)^2> = 0.
    """
    factor = 1.0 - params.beta * meansq_P0
    if not factor > 0:
        raise AcceptabilityError(
            "beta <(P0)^2> >= 1 violates the acceptability condition"
        )
    return hbar * math.sqrt((D * params.beta + params.beta_prime) * factor)


@dataclass
class StateMoments:
    moments: MomentSet
    deltaX: float
    deltaP: float


def state_moments(grid: WavefunctionGrid, params: DOParams) -> StateMoments:
    """Exact moments of a Dirac-oscillator state (dimensionless units).

    The position acts as i f d/dp, which is i d/dq in the flat coordinate,
    so <X^2> = int |dpsi/dq|^2 dq.  <P> and <X> vanish by parity, and the
    energy component is sharp, <(P^0)^2> = (p0)^2.  <P^2> and <X^2> come
    exactly from the closed form (`exact_moments`); for lam = 1/(bt wt)
    <= 1/2 both diverge, and dP, dX are inf.  params must be the grid's
    own.
    """
    if params != grid.params:
        raise ValueError("grid and params: different oscillator parameters")
    norm = grid.norm_squared()
    if not abs(norm - 1.0) <= 1e-8:  # a NaN norm fails too
        raise ValueError(f"grid not normalized (norm^2 = {norm})")
    level = grid.level
    meansq_p, meansq_x = exact_moments(params, level)
    dP = math.sqrt(meansq_p)
    ms = MomentSet(
        D=1, mean_P=(0.0,), spread_P=(dP,), meansq_P0=level.p0_tilde**2
    )
    return StateMoments(ms, math.sqrt(meansq_x), dP)


def uncertainty_report(grid: WavefunctionGrid, params: DOParams) -> dict:
    """JSON-ready record: moments, bound, product and slack for one state."""
    sm = state_moments(grid, params)
    dparams = DeformationParams(beta=params.beta_tilde, beta_prime=0.0)
    bound = ur_bound(sm.moments, dparams, 1)
    product = sm.deltaX * sm.deltaP
    return {
        "level": {"n": grid.level.n, "tau": grid.level.tau},
        "moments": {
            "mean_P": list(sm.moments.mean_P),
            "spread_P": list(sm.moments.spread_P),
            "meansq_P0": sm.moments.meansq_P0,
            "mean_X": 0.0,  # by parity, as <P>
        },
        "bound": bound,
        "deltaX": sm.deltaX,
        "deltaP": sm.deltaP,
        "product": product,
        "slack": product - bound,
    }
