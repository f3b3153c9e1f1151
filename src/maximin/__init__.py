"""Worst-group (maximin) effects estimation for inhomogeneous regression data.

The package estimates a single coefficient vector that maximizes the
explained variance of the worst group of observations, for data whose
regression coefficients drift over time or mix across sources.  It ships
population oracles for known coefficient supports, penalized empirical
estimators, group-sampling schemes with coverage guarantees, synthetic
scenario generators, and cross-validation for the number of groups.
"""

from .exceptions import (
    AllGroupsNonpositive,
    DegenerateBound,
    DegenerateVariance,
    DimensionMismatch,
    EmptyGroup,
    Infeasible,
    IndexOutOfRange,
    InvalidSize,
    InvalidWeights,
    IoError,
    LengthMismatch,
    MaximinError,
    MissingColumn,
    NonConverged,
    NonFiniteData,
    ParseError,
    RaggedRows,
    SolverError,
    TooFewObservations,
    ValidationError,
    WeightsInvalid,
)
from .model import (
    Dataset,
    GroupSpec,
    MaximinFit,
    PenaltyConfig,
    SupportSet,
    validate,
)
from .variance import (
    SeriesReport,
    cumulative_cross_product,
    emp_explained_variance,
    pop_explained_variance,
    pop_residual_variance,
)
from .oracle import (
    HullSolution,
    conservative_check,
    hull_projection,
    maximin_effect,
    pooled_effect,
    pred_maximin_effect,
)
from .estimator import (
    fit_maximal_penalty,
    fit_reweighted,
    fit_with_config,
    lambda_max,
    rescale,
)
from .grouping import (
    consecutive_blocks,
    groups_from_labels,
    groups_needed_contamination,
    groups_needed_jump,
    pareto_holds,
    rng_from_seed,
    sample_groups,
)
from .simulate import (
    SimOutput,
    gen_contaminated,
    gen_figure2,
    gen_finite_mixture,
    gen_jump_process,
)
from .select import CvResult, cv_group_count, select_penalty

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
