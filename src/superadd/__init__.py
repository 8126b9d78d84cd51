"""Communication rates for a two-state quantum alphabet under collective decoding.

Computes the one-shot and asymptotic capacities of a binary alphabet of
nonorthogonal pure states, maximizes the two-shot collective-measurement rate
over a symmetric measurement family and over arbitrary measurements, builds
the photon-space approximation of the measurement for weak coherent signals,
and validates the analytic rates by Born-rule Monte Carlo.
"""

__version__ = "0.1.0"

from .capacities import (
    Ensemble,
    RateResult,
    binary_entropy,
    c1,
    c_infinity,
    measured_mutual_information,
)
from .coherent import (
    alpha_from_gamma,
    coherent_states,
    optimize_r2_truncated,
    optimize_r2_truncated_reused,
    photon_basis,
    two_shot_coherent_alphabet,
)
from .errors import BracketingError, CompletenessError
from .mcsim import JointCounts, SimConfig, bootstrap_standard_error, empirical_mi, simulate
from .statespace import (
    Angle,
    MeasurementBasis,
    StateVector,
    embed_alphabet,
    tensor,
    two_shot_alphabet,
)
from .sweeps import SweepTable
from .twoshot import (
    ansatz_basis,
    crossover_angle,
    optimize_general,
    optimize_r2,
)

__all__ = [
    "Angle",
    "BracketingError",
    "CompletenessError",
    "Ensemble",
    "JointCounts",
    "MeasurementBasis",
    "RateResult",
    "SimConfig",
    "StateVector",
    "SweepTable",
    "alpha_from_gamma",
    "ansatz_basis",
    "binary_entropy",
    "bootstrap_standard_error",
    "c1",
    "c_infinity",
    "coherent_states",
    "crossover_angle",
    "embed_alphabet",
    "empirical_mi",
    "measured_mutual_information",
    "optimize_general",
    "optimize_r2",
    "optimize_r2_truncated",
    "optimize_r2_truncated_reused",
    "photon_basis",
    "simulate",
    "tensor",
    "two_shot_alphabet",
    "two_shot_coherent_alphabet",
    "__version__",
]
