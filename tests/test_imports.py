"""Every module-level import of a package module is used by that module.

No linter is a dependency of the project, so this parses each module with
`ast`: a name bound by a top-level import must be read somewhere else in the
module. `__init__.py` is skipped, since its imports are the package's
re-exports.
"""
import ast
from pathlib import Path

import pytest

import spincluster

MODULES = sorted(
    p for p in Path(spincluster.__file__).parent.glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_an_unused_import():
    src = "import os\nfrom numpy import array, zeros\nzeros(3)\n"
    assert unused_imports(src) == ["array (line 2)", "os (line 1)"]
