"""Capacities of depolarizing-branch quantum channels.

Closed-form Holevo capacities for depolarizing, periodic and
convex-combination channels, plus an independent ensemble optimizer used to
verify the closed forms and the additivity of the capacity at desk scale.

`import chancap` loads no submodule and no numpy.  The first access of an
exported name imports only the submodule that defines it (and what that
submodule imports), then binds the name; a submodule attribute such as
`chancap.capacity` imports that submodule alone.  `chancap.capacity` (the
closed forms and the reports), `chancap.params` and `chancap.errors` need the
standard library alone, so the closed forms run without numpy, through
`chancap.chi_star_depolarizing` as through the CLI's `capacity` and `sweep`
commands; the other submodules and the `verify_*` drivers need numpy.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    # states
    **dict.fromkeys(
        ("DensityMatrix", "basis_state", "maximally_mixed", "tensor", "partial_trace",
         "eigenvalues"),
        "states",
    ),
    # entropy
    **dict.fromkeys(("von_neumann_entropy", "relative_entropy", "shannon_entropy"), "entropy"),
    # channels
    **dict.fromkeys(
        ("KrausChannel", "PeriodicChannel", "ConvexCombinationChannel", "depolarizing",
         "identity_channel", "apply", "tensor_channels", "periodic_branch", "periodic_uses",
         "convex_uses", "mix_channels"),
        "channels",
    ),
    # holevo
    **dict.fromkeys(
        ("Ensemble", "Povm", "chi", "chi_via_relative_entropy", "mutual_information",
         "chi_periodic_average", "chi_branch_min", "uniform_orthonormal_ensemble", "random_povm"),
        "holevo",
    ),
    # optimize
    **dict.fromkeys(
        ("OptimizerConfig", "OptResult", "maximize_chi", "maximize_avg_chi", "maximize_min_chi"),
        "optimize",
    ),
    # capacity
    **dict.fromkeys(
        ("CapacityReport", "s_min_depolarizing", "chi_star_depolarizing",
         "capacity_periodic_depolarizing", "capacity_convex_depolarizing",
         "verify_additivity", "verify_theorem1", "verify_theorem2"),
        "capacity",
    ),
    # errors
    **dict.fromkeys(("DimensionMismatchError", "CPViolationError", "CapabilityError"), "errors"),
}

__all__ = ["__version__", *_EXPORTS]

# the submodules that attribute access imports, every export's among them
_SUBMODULES = ("states", "entropy", "channels", "params", "holevo", "optimize", "capacity",
               "errors")


def __getattr__(name: str):
    """Resolve a submodule or an export not yet bound (PEP 562)."""
    if name in _SUBMODULES:
        # `from . import <submodule>` inside the package also lands here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
