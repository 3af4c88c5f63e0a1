"""Every imported name in src/ and tests/ is read by the module that imports it.

An ast scan: a name bound by import or from-import must appear as a Name node
somewhere in the same module.  Package __init__.py files re-export what they
import, and `from __future__ import annotations` binds nothing, so both are
exempt, as are the names listed in KEPT.
"""

import ast
import pathlib

import pytest

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
