"""Capacities of depolarizing-branch quantum channels.

Closed-form Holevo capacities for depolarizing, periodic and
convex-combination channels, plus an independent ensemble optimizer used to
verify the closed forms and the additivity of the capacity at desk scale.
"""

from .capacity import (
    CapacityReport,
    capacity_convex_depolarizing,
    capacity_periodic_depolarizing,
    chi_star_depolarizing,
    s_min_depolarizing,
    verify_additivity,
    verify_theorem1,
    verify_theorem2,
)
from .channels import (
    ConvexCombinationChannel,
    DepolarizingParams,
    KrausChannel,
    PeriodicChannel,
    apply,
    apply_convex,
    apply_periodic,
    depolarizing,
    identity_channel,
    mix_channels,
    periodic_branch,
    tensor_channels,
)
from .entropy import relative_entropy, shannon_entropy, von_neumann_entropy
from .errors import CapabilityError, CPViolationError, DimensionMismatchError
from .holevo import (
    Ensemble,
    Povm,
    chi,
    chi_branch_min,
    chi_periodic_average,
    chi_via_relative_entropy,
    mutual_information,
    random_povm,
    uniform_orthonormal_ensemble,
)
from .optimize import (
    OptimizerConfig,
    OptResult,
    maximize_avg_chi,
    maximize_chi,
    maximize_min_chi,
)
from .states import (
    DensityMatrix,
    PureState,
    Spectrum,
    basis_state,
    eigenvalues,
    maximally_mixed,
    partial_trace,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # states
    "DensityMatrix",
    "PureState",
    "Spectrum",
    "basis_state",
    "maximally_mixed",
    "tensor",
    "partial_trace",
    "eigenvalues",
    # entropy
    "von_neumann_entropy",
    "relative_entropy",
    "shannon_entropy",
    # channels
    "KrausChannel",
    "DepolarizingParams",
    "PeriodicChannel",
    "ConvexCombinationChannel",
    "depolarizing",
    "identity_channel",
    "apply",
    "tensor_channels",
    "periodic_branch",
    "apply_periodic",
    "apply_convex",
    "mix_channels",
    # holevo
    "Ensemble",
    "Povm",
    "chi",
    "chi_via_relative_entropy",
    "mutual_information",
    "chi_periodic_average",
    "chi_branch_min",
    "random_povm",
    "uniform_orthonormal_ensemble",
    # optimize
    "OptimizerConfig",
    "OptResult",
    "maximize_chi",
    "maximize_avg_chi",
    "maximize_min_chi",
    # capacity
    "CapacityReport",
    "s_min_depolarizing",
    "chi_star_depolarizing",
    "capacity_periodic_depolarizing",
    "capacity_convex_depolarizing",
    "verify_additivity",
    "verify_theorem1",
    "verify_theorem2",
    # errors
    "DimensionMismatchError",
    "CPViolationError",
    "CapabilityError",
]
