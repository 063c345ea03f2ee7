"""Orbit-separating invariant transforms for finite Abelian group actions
on complex signal spaces, with exact Hermite-normal-form rational invariants
and an exact orbit-metric oracle that scores every coset of the group's
faithful quotient with one real matrix product."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    InternalCheckError,
    OrbitsepError,
)
from .exponents import ExponentTable, build_exponent_table
from .groups import (
    ENUMERATION_CAP,
    GroupSpec,
    act,
    cyclic_shift_spec,
    enumerate_group,
    make_group,
    shift_action_spec,
    to_fourier,
)
from .hermite import (
    CounterexampleResult,
    HermiteData,
    RationalInvariantResult,
    construct_counterexample,
    cyclic_fixture_block,
    cyclic_fixture_data,
    eval_rational_invariants,
    eval_scaled_invariants,
    hermite_multiplier,
    hermite_normal_form,
    integer_determinant,
    scaling_vector,
    signed_quadratic,
)
from .metric import (
    OrbitDistanceResult,
    child_seed,
    lipschitz_ratio_scan,
    orbit_distance,
)
from .transforms import (
    BetaWeights,
    InvariantVector,
    default_beta,
    default_reduction,
    eval_lowdim,
    eval_monomial_map,
    eval_norm_scaled,
    eval_phase_map,
    lipschitz_bound,
    make_reduction,
)

__all__ = [
    "__version__",
    "OrbitsepError",
    "ConfigError",
    "DimensionError",
    "DomainError",
    "InternalCheckError",
    "ENUMERATION_CAP",
    "GroupSpec",
    "make_group",
    "act",
    "enumerate_group",
    "shift_action_spec",
    "cyclic_shift_spec",
    "to_fourier",
    "ExponentTable",
    "build_exponent_table",
    "InvariantVector",
    "BetaWeights",
    "default_beta",
    "eval_monomial_map",
    "eval_phase_map",
    "eval_norm_scaled",
    "eval_lowdim",
    "make_reduction",
    "default_reduction",
    "lipschitz_bound",
    "HermiteData",
    "RationalInvariantResult",
    "CounterexampleResult",
    "hermite_normal_form",
    "integer_determinant",
    "scaling_vector",
    "hermite_multiplier",
    "cyclic_fixture_block",
    "cyclic_fixture_data",
    "eval_rational_invariants",
    "signed_quadratic",
    "eval_scaled_invariants",
    "construct_counterexample",
    "OrbitDistanceResult",
    "orbit_distance",
    "child_seed",
    "lipschitz_ratio_scan",
]
