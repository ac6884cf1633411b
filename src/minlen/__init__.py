"""Lorentz-covariant two-parameter deformed algebra with a minimal length:
exact symbolic verification of the commutation relations, the solvable
(1+1)-dimensional Dirac oscillator built on the deformation, and the
associated uncertainty bounds.
"""

from .core import (
    DeformationParams,
    Spacetime,
    minkowski_square,
)
from .symbolic.identities import (
    IdentityCheck,
    SymbolicParams,
    TransformationSpec,
    VerificationReport,
    verify_algebra,
    verify_poincare,
    verify_reductions,
    verify_transformations,
)
from .oscillator.spectrum import (
    AcceptabilityError,
    DOParams,
    QuantumNumber,
    SpectrumLevel,
    SpectrumTable,
    UnphysicalDeformationError,
    energy,
    make_level,
    p0_allowed,
    spectrum_table,
)
from .oscillator.wavefunction import (
    GridSpec,
    WavefunctionGrid,
    eigensolve_factorized,
    ground_state,
    inner_product,
    wavefunction,
)
from .uncertainty import (
    MomentSet,
    StateMoments,
    absolute_min_deltaX,
    gup_bound,
    min_deltaX,
    state_moments,
    uncertainty_report,
    ur_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AcceptabilityError",
    "DOParams",
    "DeformationParams",
    "GridSpec",
    "IdentityCheck",
    "MomentSet",
    "QuantumNumber",
    "Spacetime",
    "SpectrumLevel",
    "SpectrumTable",
    "StateMoments",
    "SymbolicParams",
    "TransformationSpec",
    "UnphysicalDeformationError",
    "VerificationReport",
    "WavefunctionGrid",
    "absolute_min_deltaX",
    "eigensolve_factorized",
    "energy",
    "gup_bound",
    "ground_state",
    "inner_product",
    "make_level",
    "min_deltaX",
    "minkowski_square",
    "p0_allowed",
    "spectrum_table",
    "state_moments",
    "uncertainty_report",
    "ur_bound",
    "verify_algebra",
    "verify_poincare",
    "verify_reductions",
    "verify_transformations",
    "wavefunction",
]
