"""Unbiased estimation under Bregman losses.

Generators with Legendre duality, divergence decompositions in both
orientations, dual-space (type-I) unbiasedness checks next to classical
(type-II) ones, permutation-based Rao-Blackwell symmetrization, an exact
enumeration oracle on finite supports, and a seeded Monte Carlo risk lab.

The namespace is lazy: ``import breglab`` loads neither numpy nor any
submodule.  A public name is imported from its defining module on first
access (PEP 562) and cached here, so ``breglab.bregman_div`` loads only
``divergence`` and what it imports.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "discrete_oracle": (
            "MAX_OUTCOMES", "RESIDUAL_TOL", "DiscreteModel", "exact_rao_blackwell",
            "verify_decompositions", "verify_decompositions_grid", "verify_rb_inequality",
        ),
        "divergence": (
            "DecompositionReport", "bregman_div", "bregman_mean", "decompose_left",
            "decompose_right", "dual_divergence", "dual_transport",
        ),
        "errors": (
            "BreglabError", "BudgetError", "ConfigError", "DomainError", "NumericError",
            "RangeError", "UnsupportedError",
        ),
        "estimators": (
            "Estimator", "build_type1_umvue", "const_estimator", "first_k_estimator",
            "resolve_estimator", "symmetrize",
        ),
        "generators": (
            "DomainSpec", "Generator", "load_matrix", "mahalanobis", "negative_entropy",
            "negative_log", "resolve_generator", "squared_euclidean",
        ),
        "models": (
            "CHUNK_ROWS", "ExponentialModel", "LogNormalModel", "Model", "NormalModel",
            "resolve_model",
        ),
        "risk_lab": (
            "MIN_REPLICATES", "ComparisonReport", "LehmannGridReport", "RiskReport",
            "UnbiasednessReport", "check_type1_unbiased", "check_type2_unbiased",
            "compare_estimators", "estimate_risk", "lehmann_grid_check",
        ),
    }.items()
    for name in names
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
