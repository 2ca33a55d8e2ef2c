"""No module of the package imports a name it never uses.

`__init__.py` is exempt: its imports are the package's public surface.
`from __future__ import ...` binds no name. A name counts as used when it
appears anywhere in the module's syntax tree as a bare name or as the base
of an attribute access, annotations included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "holonomy"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_name():
    source = "from math import gcd, lcm\nimport os.path\nimport sys as system\nprint(lcm(2, 3), system)\n"
    assert unused_imports(source) == ["line 1: gcd", "line 2: os"]


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"classify", "commutant", "linalg", "polys"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
