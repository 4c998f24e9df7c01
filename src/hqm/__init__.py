"""Quaternionic quantum mechanics on a real Hilbert space.

Quaternion-valued wave functions on the periodic interval [0, 2pi) paired
with a real inner product: quaternionic Fourier bases, real-linear operators
with real expectation values, spectral resolution, and Schrodinger dynamics
with continuity-equation verification.
"""

from .errors import (
    BasisValidationError,
    ConditioningError,
    ConfigError,
    GridMismatchError,
    InstabilityError,
    NotSelfAdjointError,
    RankDeficiencyError,
)
from .quaternion import (
    Quaternion,
    UnitQuaternion,
    re_product_identity,
)
from .hilbert import (
    Grid,
    QFunction,
    combine,
    expand_in_basis,
    gram_matrix,
    gram_schmidt,
    inner,
    norm,
    read_qfunction_csv,
    write_qfunction_csv,
)
from .fourier import (
    BasisFamily,
    FamilyKind,
    QFourierExpansion,
    analyze,
    basis_element,
    completeness_residual,
    gram,
    read_expansion_csv,
    reference_full_basis,
    synthesize,
    write_expansion_csv,
)
from .operators import (
    HamiltonianSpec,
    NormalConditionsReport,
    NormalPair,
    QOperator,
    adjoint,
    expectation,
    hamiltonian,
    momentum_pi,
    normal_conditions,
)
from .spectral import SpectralResolution, decompose, project, write_spectrum_csv
from .dynamics import (
    ContinuityReport,
    EvolutionProblem,
    EvolveResult,
    ProbabilityFields,
    StabilityWarning,
    Trajectory,
    angle_addition_deviation,
    compose_unitaries,
    dyson_propagator,
    evolve,
    probability_fields,
    short_time_propagator,
    step,
    superop,
)

__version__ = "0.1.0"
