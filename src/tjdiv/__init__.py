"""Total Jensen divergences and the machinery built on them."""

from .errors import (
    TjdivError, DomainError, ValidationError, CapabilityError, SearchError,
    InvariantError)
from .generators import (
    Domain, Generator, make_builtin, affine_precompose, affine_postcompose,
    hessian_at, BUILTIN_NAMES)
from .divergences import (
    ConformalFactors, DivergenceValue, conformal_factors, rho_b,
    jensen_raw, jensen_scaled, bregman, total_bregman, total_jensen,
    stolarsky_epsilon, jensen_shannon, total_jensen_shannon, kl_gaussian)
from .geometry import (
    ProjectionResult, project_beta, geometric_oracle_tj,
    pythagoras_residual, second_kind_tj)
from .centroids import (
    WeightedPointSet, CentroidConfig, CentroidResult,
    jensen_centroid_cccp, total_jensen_centroid, left_sided_centroid,
    total_loss)
from .robustness import (
    InfluenceResult, SweepReport, influence_analytic, influence_empirical,
    boundedness_sweep)
from .clustering import (
    SeedingConfig, ClusterModel, BoundConstants, ExperimentReport,
    seed, seed_indices, potential, brute_force_discrete_optimum,
    lloyd_cluster, estimate_bound_constants, seeding_bound_experiment)

__version__ = "0.1.0"

__all__ = [
    "TjdivError", "DomainError", "ValidationError", "CapabilityError",
    "SearchError", "InvariantError",
    "Domain", "Generator", "make_builtin", "affine_precompose",
    "affine_postcompose", "hessian_at", "BUILTIN_NAMES",
    "ConformalFactors", "DivergenceValue", "conformal_factors", "rho_b",
    "jensen_raw", "jensen_scaled", "bregman", "total_bregman",
    "total_jensen", "stolarsky_epsilon", "jensen_shannon",
    "total_jensen_shannon", "kl_gaussian",
    "ProjectionResult", "project_beta", "geometric_oracle_tj",
    "pythagoras_residual", "second_kind_tj",
    "WeightedPointSet", "CentroidConfig", "CentroidResult",
    "jensen_centroid_cccp", "total_jensen_centroid", "left_sided_centroid",
    "total_loss",
    "InfluenceResult", "SweepReport", "influence_analytic",
    "influence_empirical", "boundedness_sweep",
    "SeedingConfig", "ClusterModel", "BoundConstants", "ExperimentReport",
    "seed", "seed_indices", "potential", "brute_force_discrete_optimum",
    "lloyd_cluster", "estimate_bound_constants", "seeding_bound_experiment",
    "__version__",
]
