"""No module of the package imports a name it never uses, no private
module-level definition is left without a reference, no exported name is
left without a user, and no public unexported definition is reached only
from the tests.

`__init__.py` is exempt from the import check: its imports are the
package's public surface. `from __future__ import ...` binds no name. A
name counts as used when it appears anywhere in the module's syntax tree as
a bare name or as the base of an attribute access, annotations included.

A private definition is a module-level function, class or assigned
constant whose name starts with one underscore. It counts as referenced
when its name appears outside its own definition, anywhere in the package,
as a bare name, an attribute or an imported name.

An exported name is one in `holonomy.__all__`. It counts as used when a
package module other than `__init__.py` refers to it outside its own
definition (by the rule above), when `bench/` refers to it by an attribute
access or by a `(module, name)` entry of a `TARGETS` tuple (as in
`bench/tracer.py`), or when it is on ACCEPTANCE_ONLY, which names the
acceptance criterion that needs it. bench is read as source with `ast`,
never imported.

A public unexported definition is a module-level one whose name has no
leading underscore and is not in `holonomy.__all__`. It counts as used by
the same rule as an exported name, without an allowlist: a package module
other than `__init__.py` or the bench must refer to it. A helper that only
tests need lives in `tests/helpers.py`.

The runtime is stdlib-only: every import of a package module, `__init__.py`
included and function-level imports too, is package-relative, `__future__`
or a module of `sys.stdlib_module_names`.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "holonomy"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH = ROOT / "bench"

# Exported names that no library path, CLI command or benchmark file reaches,
# kept because an acceptance criterion in tests/test_acceptance.py calls them.
ACCEPTANCE_ONLY = {
    "flag_from_nilpotent_element": "criterion 3 builds the nilpotent flag of each single element",
    "embed_linear_as_affine": "criterion 4 reads the suspension in affine form",
    "radiant_fixed_point": "criterion 4 checks that the suspension fixes the origin",
    "orbit_dimension_at": "criterion 7 computes orbit dimensions",
}


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


def nonstandard_imports(source: str) -> list[str]:
    """`line N: module` for each import of source that is not package-relative,
    `__future__` or in the standard library, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            if top != "__future__" and top not in sys.stdlib_module_names:
                found.append((node.lineno, module))
    return [f"line {line}: {module}" for line, module in sorted(found)]


def unreferenced_definitions(sources: dict[str, str], wanted) -> list[str]:
    """`module:line: name` for each module-level definition in sources (module
    name -> source) whose name satisfies wanted and that nothing outside its
    own definition refers to."""
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
                if wanted(name):
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


def orphaned_private_definitions(sources: dict[str, str]) -> list[str]:
    return unreferenced_definitions(sources, lambda name: name.startswith("_") and not name.startswith("__"))


def exported_names(init_source: str) -> set[str]:
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def bench_references(sources: dict[str, str]) -> set[str]:
    """Names the bench sources reach: attribute accesses and the first
    component of each TARGETS qualname."""
    names = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
                names.update(qualname.split(".")[0] for _, qualname in ast.literal_eval(node.value))
    return names


def orphaned_exports(sources: dict[str, str], bench: dict[str, str], allowed) -> list[str]:
    """`module:line: name` for each name in the `__init__` source's `__all__`
    that no other module of sources, no bench source and no allowed entry
    uses."""
    exported = exported_names(sources["__init__"])
    modules = {module: source for module, source in sources.items() if module != "__init__"}
    reached = bench_references(bench) | set(allowed)
    return unreferenced_definitions(modules, lambda name: name in exported and name not in reached)


def unexported_orphans(sources: dict[str, str], bench: dict[str, str]) -> list[str]:
    """`module:line: name` for each public module-level definition of sources
    outside the `__init__` source's `__all__` that no other module of sources
    and no bench source uses."""
    exported = exported_names(sources["__init__"])
    modules = {module: source for module, source in sources.items() if module != "__init__"}
    reached = bench_references(bench)
    return unreferenced_definitions(
        modules, lambda name: not name.startswith("_") and name not in exported and name not in reached
    )


def test_the_check_sees_an_unused_name():
    source = "from math import gcd, lcm\nimport os.path\nimport sys as system\nprint(lcm(2, 3), system)\n"
    assert unused_imports(source) == ["line 1: gcd", "line 2: os"]


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"classify", "commutant", "linalg", "polys"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_stdlib_check_sees_a_planted_import():
    source = (
        "from __future__ import annotations\nimport json, numpy.linalg\nfrom . import linalg\n"
        "from .polys import Polynomial\nfrom fractions import Fraction\nimport os.path as osp\n"
        "def f():\n    import sympy\n    from scipy import sparse\n"
    )
    assert nonstandard_imports(source) == ["line 2: numpy.linalg", "line 8: sympy", "line 9: scipy"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_runtime_imports_only_the_standard_library(path):
    assert nonstandard_imports(path.read_text(encoding="utf-8")) == []


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


def test_the_export_check_sees_a_planted_orphan():
    sources = {
        "__init__": '__all__ = ["used", "orphan", "traced", "attribute", "allowed", "recursive"]\n',
        "a": "def used():\n    return 1\ndef orphan():\n    return used()\ndef traced():\n    pass\n"
        "class attribute:\n    pass\ndef allowed():\n    pass\ndef recursive(n):\n    return recursive(n)\n",
        "b": "from .a import orphan as _o\n",
    }
    bench = {
        "run": "lib['a'].attribute\n",
        "tracer": 'TARGETS = (("a", "traced.method"),)\n',
    }
    assert orphaned_exports(sources, bench, {"allowed": "criterion 0"}) == ["a:11: recursive"]
    del sources["b"]
    assert orphaned_exports(sources, bench, {"allowed": "criterion 0"}) == ["a:3: orphan", "a:11: recursive"]


def _tree_sources():
    package = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    bench = {p.stem: p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))}
    return package, bench


def test_no_orphaned_export():
    package, bench = _tree_sources()
    assert orphaned_exports(package, bench, ACCEPTANCE_ONLY) == []


def test_every_allowlisted_export_is_needed():
    package, bench = _tree_sources()
    orphans = orphaned_exports(package, bench, {})
    assert sorted(line.rsplit(" ", 1)[1] for line in orphans) == sorted(ACCEPTANCE_ONLY)


def test_the_unexported_check_sees_a_planted_orphan():
    sources = {
        "__init__": '__all__ = ["exported"]\n',
        "a": "def exported():\n    pass\ndef helper():\n    return 1\ndef orphan():\n    pass\n"
        "def _private():\n    pass\ndef traced():\n    pass\nLIMIT = 3\nUNUSED = 4\n",
        "b": "from .a import helper\nprint(helper(), LIMIT)\n",
    }
    bench = {"tracer": 'TARGETS = (("a", "traced"),)\n'}
    assert unexported_orphans(sources, bench) == ["a:5: orphan", "a:12: UNUSED"]
    del bench["tracer"]
    assert unexported_orphans(sources, bench) == ["a:5: orphan", "a:9: traced", "a:12: UNUSED"]


def test_no_public_definition_is_reached_only_from_tests():
    package, bench = _tree_sources()
    assert unexported_orphans(package, bench) == []
