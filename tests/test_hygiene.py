"""Source hygiene: no module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a package's __init__ imports are its public names, not dead code
MODULES = sorted(
    path for base in (ROOT / "src" / "poncelet", ROOT / "tests")
    for path in base.rglob("*.py") if path.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by an import statement of `source` that no other node
    of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_flags_only_unread_names():
    source = ("import os, sys\n"
              "import numpy.linalg\n"
              "from math import pi, tau as turn\n"
              "print(sys.argv, numpy.linalg, pi)\n")
    assert unused_imports(source) == [(1, "os"), (3, "turn")]


def test_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"rotation.py", "cli.py", "_ref.py", "test_hygiene.py"} <= names


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
