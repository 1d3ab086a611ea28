"""No dead private helpers: an ``ast`` scan of every module of the package.

Every private function, class and method (one leading underscore, not a
dunder) defined in the package must be referenced somewhere in the
package outside its own body: as a name, an attribute or an imported
name.  A helper whose last caller went away fails here.

Every public module-level function and class that ``__init__.py`` does
not re-export must be referenced the same way.  A public name with no
caller and no place in the package's interface fails here.

Every name a module imports from the package (``from .x import name``)
must also be used in that module; ``__init__.py``, which re-exports, is
exempt.  An import left behind by a refactor fails here.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hookw"
MODULES = sorted(PACKAGE.glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _references(node):
    """Counter of the names node refers to: names, attributes, imports."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rsplit(".", 1)[-1]] += 1
    return found


def _unreferenced(sources, select):
    """(module, line, name) of each definition select(tree) yields that
    nothing else refers to.

    ``sources`` maps module names to source text.  A reference inside the
    definition itself, as in a recursive call, does not count.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = Counter()
    for tree in trees.values():
        total += _references(tree)
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in select(tree)
        if total[node.name] == _references(node)[node.name]
    )


def dead_helpers(sources):
    """(module, line, name) of each private definition nothing else refers to."""
    return _unreferenced(sources, lambda tree: (
        node for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS) and _is_private(node.name)
    ))


def reexported(init_text):
    """The names ``__init__.py`` imports from the package's modules."""
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init_text))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }


def unused_public(sources, exported):
    """(module, line, name) of each public module-level definition that is
    not in ``exported`` and that nothing else refers to."""
    return _unreferenced(sources, lambda tree: (
        node for node in tree.body
        if isinstance(node, DEFINITIONS)
        and not node.name.startswith("_") and node.name not in exported
    ))


def unused_relative_imports(sources):
    """(module, line, name) of each name imported by ``from .x import`` and unused.

    A use is a name or attribute reference anywhere in the importing
    module, other than the import itself.
    """
    unused = []
    for module, text in sources.items():
        tree = ast.parse(text)
        used = _references(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    # _references counts an alias under its imported name.
                    own = 0 if alias.asname else 1
                    name = alias.asname or alias.name
                    if used[name] == own:
                        unused.append((module, node.lineno, name))
    return sorted(unused)


def test_scans_the_whole_package():
    assert {p.name for p in MODULES} >= {"exact.py", "curves.py", "catalog.py", "cli.py"}


def test_every_private_helper_is_referenced():
    assert dead_helpers({p.name: p.read_text() for p in MODULES}) == []


def test_every_unexported_public_definition_is_referenced():
    exported = reexported((PACKAGE / "__init__.py").read_text())
    assert unused_public({p.name: p.read_text() for p in MODULES}, exported) == []


def test_public_scan_catches_planted_definitions():
    planted = {
        "__init__.py": "from .a import exported\n",
        "a.py": (
            "def exported():\n    return 1\n"
            "def called():\n    return 2\n"
            "class Orphan:\n    def method(self):\n        return called()\n"
            "def recursive(k):\n    return recursive(k - 1)\n"
            "def _private():\n    return 3\n"
        ),
    }
    exported = reexported(planted["__init__.py"])
    assert exported == {"exported"}
    assert unused_public(planted, exported) == [
        ("a.py", 5, "Orphan"),
        ("a.py", 8, "recursive"),
    ]


def test_every_relative_import_is_used():
    sources = {p.name: p.read_text() for p in MODULES if p.name != "__init__.py"}
    assert unused_relative_imports(sources) == []


def test_import_scan_catches_planted_imports():
    planted = {
        "a.py": (
            "from .exact import _used, _dropped\n"
            "from .curves import values as _alias, _gone as _renamed\n"
            "from os import path\n"
            "def f():\n    return _used() + _alias()\n"
        ),
    }
    assert unused_relative_imports(planted) == [
        ("a.py", 1, "_dropped"),
        ("a.py", 2, "_renamed"),
    ]


def test_scan_catches_planted_helpers():
    used = "def _used():\n    return 1\n"
    planted = {
        "a.py": used + "def _orphan():\n    return _used()\n",
        "b.py": (
            "from a import _used\n"
            "class _Box:\n"
            "    def _kept(self):\n        return _used()\n"
            "    def _unread(self):\n        return self._kept()\n"
            "def _recursive(k):\n    return _recursive(k - 1) if k else _Box()\n"
        ),
    }
    assert dead_helpers(planted) == [
        ("a.py", 3, "_orphan"),
        ("b.py", 5, "_unread"),
        ("b.py", 7, "_recursive"),
    ]


@pytest.mark.parametrize("name", ["__init__", "__eq__", "public"])
def test_scan_ignores_dunders_and_public_names(name):
    assert dead_helpers({"m.py": f"def {name}():\n    pass\n"}) == []
