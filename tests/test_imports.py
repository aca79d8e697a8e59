"""Every top-level import in the package modules is used.

No linter ships with the test dependencies, so this is a small stdlib-only
check: a name bound by a module-level ``import`` must be read somewhere in
that module.  ``__init__.py`` is exempt, since its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "muculants"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("from a import b as c, d\nd()\n") == ["line 1: c"]
    assert unused_imports("import numpy as np\nx = np.zeros(1)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
