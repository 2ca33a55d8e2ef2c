"""No module of the package imports a name it never uses, and no private
module-level definition is left without a reference.

`__init__.py` is exempt from the import check: its imports are the
package's public surface. `from __future__ import ...` binds no name. A
name counts as used when it appears anywhere in the module's syntax tree as
a bare name or as the base of an attribute access, annotations included.

A private definition is a module-level function, class or assigned
constant whose name starts with one underscore. It counts as referenced
when its name appears outside its own definition, anywhere in the package,
as a bare name, an attribute or an imported name.
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


def orphaned_private_definitions(sources: dict[str, str]) -> list[str]:
    """`module:line: name` for each private definition in sources (module
    name -> source) that nothing outside its own definition refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = {id(n) for n in ast.walk(node)}
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    definitions.append((module, node.lineno, name, own))
    references: dict[str, list[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            references.setdefault(name, []).append(id(node))
    return [
        f"{module}:{line}: {name}"
        for module, line, name, own in definitions
        if all(ref in own for ref in references.get(name, []))
    ]


def test_the_check_sees_an_unused_name():
    source = "from math import gcd, lcm\nimport os.path\nimport sys as system\nprint(lcm(2, 3), system)\n"
    assert unused_imports(source) == ["line 1: gcd", "line 2: os"]


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"classify", "commutant", "linalg", "polys"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_orphan_check_sees_an_unreferenced_definition():
    sources = {
        "a": "_CAP = 3\n_A, _B = 1, 2\ndef _used():\n    return _CAP + _A\ndef _recursive(n):\n"
        "    return _recursive(n - 1)\nclass _Kept:\n    pass\n",
        "b": "from .a import _used\nimport a\nprint(_used(), a._Kept)\n",
    }
    assert orphaned_private_definitions(sources) == ["a:2: _B", "a:5: _recursive"]


def test_no_orphaned_private_definition():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_private_definitions(sources) == []
