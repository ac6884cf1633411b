"""Shared kinematics: metric convention, deformation parameters, acceptability.

Everything here is unit-free: callers decide whether the raw reals are
dimensionless ratios or carry momentum units.  The metric signature is fixed
to (+, -, ..., -), so p_nu p^nu = (p^0)^2 - |pvec|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class Spacetime:
    """A (D+1)-dimensional Minkowski arena with signature (+, -, ..., -)."""

    D: int

    def __post_init__(self):
        if self.D < 1:
            raise ValueError("spatial dimension must be a positive integer")

    @property
    def metric(self) -> tuple[int, ...]:
        """Diagonal metric entries g^{mu mu} = g_{mu mu}, indices 0..D."""
        return (1,) + (-1,) * self.D

    def lower(self, v: Sequence) -> tuple:
        """Lower an index componentwise.  The metric is its own inverse, so
        this is an involution and also raises an index."""
        g = self.metric
        self._check_dim(v)
        return tuple(gi * vi for gi, vi in zip(g, v))

    def _check_dim(self, v: Sequence):
        if len(v) != self.D + 1:
            raise ValueError(
                f"expected {self.D + 1} components, got {len(v)}"
            )


def minkowski_square(p, st: Spacetime):
    """p_nu p^nu = (p^0)^2 - sum_i (p^i)^2.

    Exact when fed exact (int/Fraction) components.
    """
    comps = tuple(p)
    st._check_dim(comps)
    return sum(g * c * c for g, c in zip(st.metric, comps))


@dataclass(frozen=True)
class DeformationParams:
    """Deformation constants beta, beta', gamma of the covariant algebra.

    beta and beta_prime carry inverse momentum-squared units and must be
    nonnegative; gamma is an arbitrary real of the same units entering only
    the momentum-space measure.
    """

    beta: object
    beta_prime: object = 0
    gamma: object = 0

    def __post_init__(self):
        # written so that NaN fails too
        if not (self.beta >= 0 and self.beta_prime >= 0):
            raise ValueError("beta and beta_prime must be nonnegative")


def weight_alpha(params: DeformationParams, st: Spacetime):
    """Exponent alpha of the scalar-product weight [1-(b+b')p.p]^(-alpha):
    alpha = [2(beta+beta')]^-1 [2 beta + beta'(D+2) - 2 gamma].

    Exact for Fraction inputs.  Undefined when beta = beta' = 0.
    """
    b, bp, g = params.beta, params.beta_prime, params.gamma
    denom = 2 * (b + bp)
    if denom == 0:
        raise ValueError("weight exponent undefined for beta = beta' = 0")
    num = 2 * b + bp * (st.D + 2) - 2 * g
    if isinstance(denom, (int, Fraction)) and isinstance(num, (int, Fraction)):
        return Fraction(num, denom)
    return num / denom


def is_acceptable(params: DeformationParams, p0) -> bool:
    """Singularity-free condition (beta+beta') (p^0)^2 < 1 on states.

    When it holds, the measure weight stays finite for all spatial momenta,
    since spatial components only increase 1 - (beta+beta') p.p.
    """
    return (params.beta + params.beta_prime) * p0 * p0 < 1
