"""Imports: every imported name is read, and the lazy `breglab` namespace.

An ast scan: a name bound by import or from-import in src/ or tests/ must
appear as a Name node somewhere in the same module.  Package __init__.py files
re-export what they import, and `from __future__ import annotations` binds
nothing, so both are exempt, as are the names listed in KEPT.

`breglab` resolves its public names on first access; the tests below pin that
it exports the same objects the eager namespace did.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import breglab

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)

# (module path relative to the repository root, name): why it stays unread
KEPT = {
    ("src/breglab/risk_lab.py", "bregman_div"): "bench/spans.py wraps risk_lab.bregman_div",
    ("src/breglab/discrete_oracle.py", "bregman_div"):
        "bench/spans.py wraps discrete_oracle.bregman_div",
}


def unread_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT).as_posix()
    return [name for name in bound if name not in read and (rel, name) not in KEPT]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_read(path):
    assert unread_imports(path) == []


def test_kept_names_are_still_imported():
    for rel, name in KEPT:
        tree = ast.parse((ROOT / rel).read_text())
        bound = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                 for a in n.names}
        assert name in bound, f"{rel} no longer imports {name}; drop it from KEPT"


# The names `breglab` exported when it imported every submodule eagerly, by
# defining module.
EXPORTED = {
    "discrete_oracle": (
        "MAX_OUTCOMES", "RESIDUAL_TOL", "DiscreteModel", "exact_expectation",
        "exact_rao_blackwell", "verify_decompositions", "verify_decompositions_grid",
        "verify_rb_inequality",
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
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


def test_all_lists_the_eagerly_exported_names():
    assert len(NAMES) == 52
    assert sorted(breglab.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_its_defining_modules_object(module, name):
    value = getattr(breglab, name)
    assert value is getattr(importlib.import_module(f"breglab.{module}"), name)
    assert vars(breglab)[name] is value  # cached after the first access


def test_dir_lists_every_public_name():
    listed = dir(breglab)
    assert set(breglab.__all__) <= set(listed)
    assert {"__all__", "__version__"} <= set(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        breglab.no_such_name
    assert not hasattr(breglab, "no_such_name")


def test_from_import_of_a_submodule_in_a_fresh_interpreter():
    # bench/workloads.py and bench/spans.py import submodules this way
    src = os.path.dirname(os.path.dirname(os.path.abspath(breglab.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from breglab import discrete_oracle, models\n"
        "assert discrete_oracle is sys.modules['breglab.discrete_oracle']\n"
        "assert models is sys.modules['breglab.models']\n"
        "import breglab\n"
        "assert 'risk_lab' not in vars(breglab)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
