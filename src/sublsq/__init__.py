"""Subsampling estimators for large-scale least squares regression.

The package covers three families of subsample selection (probability-
weighted randomized schemes, determinant-proportional volume sampling,
and deterministic optimality-criterion selection), the asymptotic
variance theory that ranks the randomized schemes, and a bootstrap EMSE
benchmark harness with a CSV/JSON command-line front end.
"""

from .asymptotics import (
    AsymptoticVariance,
    RegularityDiagnostics,
    avar_matrix,
    regularity_diagnostics,
    sigma2_estimate,
    trace_amse,
)
from .bench import (
    BenchmarkReport,
    BenchRecord,
    SyntheticSpec,
    default_r_grid,
    t5_line_spec,
    generate_synthetic,
    run_emse,
)
from .core import (
    Dataset,
    EstimateResult,
    leverage_scores,
    ols_fit,
    weighted_ls_fit,
)
from .errors import (
    CapacityError,
    DegenerateDistributionError,
    NumericalError,
    RankError,
    SamplingError,
    SingularSubsetError,
    SubLsqError,
    ValidationError,
)
from .optdesign import (
    SubsetSelection,
    criterion_value,
    exchange_improve,
    greedy_select,
    iboss_select,
)
from .probs import ProbabilityVector, compute_probabilities
from .sampler import SubsampleDraw, draw, subsample_estimate
from .volume import (
    SubsetDistribution,
    leveraged_volume_distribution,
    standard_volume_distribution,
    volume_sample,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticVariance",
    "BenchRecord",
    "BenchmarkReport",
    "CapacityError",
    "Dataset",
    "DegenerateDistributionError",
    "EstimateResult",
    "NumericalError",
    "ProbabilityVector",
    "RankError",
    "RegularityDiagnostics",
    "SamplingError",
    "SingularSubsetError",
    "SubLsqError",
    "SubsampleDraw",
    "SubsetDistribution",
    "SubsetSelection",
    "SyntheticSpec",
    "ValidationError",
    "avar_matrix",
    "compute_probabilities",
    "criterion_value",
    "default_r_grid",
    "draw",
    "exchange_improve",
    "t5_line_spec",
    "generate_synthetic",
    "greedy_select",
    "iboss_select",
    "leverage_scores",
    "leveraged_volume_distribution",
    "ols_fit",
    "regularity_diagnostics",
    "run_emse",
    "sigma2_estimate",
    "standard_volume_distribution",
    "subsample_estimate",
    "trace_amse",
    "volume_sample",
    "weighted_ls_fit",
]
