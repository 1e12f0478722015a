"""No module of the package or the test suite imports a name it never uses.

The check reads each file with ``ast``: a name an import binds counts as
used when the file names it anywhere else.  ``from __future__`` imports,
the package ``__init__`` (whose imports are its public re-exports) and
imports marked ``# noqa: F401`` on their own line are exempt.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "redring"
FILES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) for each imported name that source never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_and_exempt_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import a.b\n"
        "from m import (\n"
        "    used,\n"
        "    kept,  # noqa: F401 - read by name elsewhere\n"
        "    gone as alias,\n"
        ")\n"
        "def f(x):\n"
        "    return os.sep, a.b.c, used(x)\n"
    )
    assert unused_imports(source) == [(2, "sys"), (7, "alias")]
