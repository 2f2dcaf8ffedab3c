"""Scalable Bayesian model selection for regression and survival models.

Scores models by approximate integrated likelihoods built from a quadratic
expansion of the log likelihood at a fixed point, so that each candidate
costs a single structured linear solve instead of an optimization run.
Supports block Zellner and product-moment priors, hierarchical model-space
constraints, and exhaustive enumeration and Gibbs search over models.  Slow
reference implementations that validate the fast path live in
``alaselect.references``, which importing the package does not load.
"""

__version__ = "0.1.0"

from .data_model import (
    ConstraintSet,
    DesignMatrix,
    Gram,
    SuffStatsCache,
    build_cache,
)
from .errors import (
    DegenerateResponse,
    InvalidModel,
    NoConvergence,
    NotConcave,
    NotConcaveAtExpansion,
    NotInvertible,
    RefuseEnumeration,
    SelectionError,
    ToleranceNotMet,
)
from .families import (
    FamilySpec,
    SurvivalData,
    gaussian,
    gaussian_unknown,
    logistic,
    poisson,
)
from .marginal_engines import (
    AftScorer,
    MarginalScore,
    ModelScorer,
    build_aft_context,
)
from .priors import ModelPriorSpec, ParamPriorSpec
from .search import (
    ImportanceReport,
    PosteriorSummary,
    enumerate_posterior,
    gibbs_models,
    importance_reweight,
    screen_then_refine,
)

__all__ = [
    "__version__",
    "AftScorer",
    "ConstraintSet",
    "DegenerateResponse",
    "DesignMatrix",
    "FamilySpec",
    "Gram",
    "ImportanceReport",
    "InvalidModel",
    "MarginalScore",
    "ModelPriorSpec",
    "ModelScorer",
    "NoConvergence",
    "NotConcave",
    "NotConcaveAtExpansion",
    "NotInvertible",
    "ParamPriorSpec",
    "PosteriorSummary",
    "RefuseEnumeration",
    "SelectionError",
    "SuffStatsCache",
    "SurvivalData",
    "ToleranceNotMet",
    "build_aft_context",
    "build_cache",
    "enumerate_posterior",
    "gaussian",
    "gaussian_unknown",
    "gibbs_models",
    "importance_reweight",
    "logistic",
    "poisson",
    "screen_then_refine",
]
