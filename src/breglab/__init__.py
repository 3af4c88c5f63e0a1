"""Unbiased estimation under Bregman losses.

Generators with Legendre duality, divergence decompositions in both
orientations, dual-space (type-I) unbiasedness checks next to classical
(type-II) ones, permutation-based Rao-Blackwell symmetrization, an exact
enumeration oracle on finite supports, and a seeded Monte Carlo risk lab.
"""

__version__ = "0.1.0"

from .discrete_oracle import (
    MAX_OUTCOMES,
    RESIDUAL_TOL,
    DiscreteModel,
    exact_expectation,
    exact_rao_blackwell,
    verify_decompositions,
    verify_decompositions_grid,
    verify_rb_inequality,
)
from .divergence import (
    DecompositionReport,
    bregman_div,
    bregman_mean,
    decompose_left,
    decompose_right,
    dual_divergence,
    dual_transport,
)
from .errors import (
    BreglabError,
    BudgetError,
    ConfigError,
    DomainError,
    NumericError,
    RangeError,
    UnsupportedError,
)
from .estimators import (
    Estimator,
    build_type1_umvue,
    const_estimator,
    first_k_estimator,
    resolve_estimator,
    symmetrize,
)
from .generators import (
    DomainSpec,
    Generator,
    load_matrix,
    mahalanobis,
    negative_entropy,
    negative_log,
    resolve_generator,
    squared_euclidean,
)
from .models import (
    CHUNK_ROWS,
    ExponentialModel,
    LogNormalModel,
    Model,
    NormalModel,
    resolve_model,
)
from .risk_lab import (
    MIN_REPLICATES,
    ComparisonReport,
    LehmannGridReport,
    RiskReport,
    UnbiasednessReport,
    check_type1_unbiased,
    check_type2_unbiased,
    compare_estimators,
    estimate_risk,
    lehmann_grid_check,
)
