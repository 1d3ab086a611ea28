"""No dead private helpers: an ``ast`` scan of every module of the package.

Every private function, class and method (one leading underscore, not a
dunder) defined in the package must be referenced somewhere in the
package outside its own body: as a name, an attribute or an imported
name.  A helper whose last caller went away fails here.

Every public module-level function and class that ``__init__.py`` does
not re-export must be referenced the same way.  A public name with no
caller and no place in the package's interface fails here.

Every name a module imports, from the package or not, must also be used
in that module; ``from __future__`` and ``__init__.py``, which
re-exports, are exempt.  An import left behind by a refactor fails here.

No block of code may be copied: a window of five consecutive lines, each
stripped and with its whitespace collapsed, none blank or opening with
``#`` or a triple quote and 80 characters or more in all, occurs once in the
package.  A second copy of a loop or a formula fails here.

No function loops over ``reversed(...)`` but the two Horner kernels,
``exact._int_list_at`` over the integers and ``exact._mod_horner`` mod a
prime.  A second evaluation loop over a coefficient list fails here.

In ``curves.py`` only ``_orbit`` and ``compose_cleared`` refer to
``exact._dcompose``: every curve, numeric or symbolic, is built by the
one list pipeline.  A second build route on polynomial dicts fails here.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hookw"
MODULES = sorted(PACKAGE.glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
HORNER_KERNELS = {("exact.py", "_int_list_at"), ("exact.py", "_mod_horner")}


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


def unused_imports(sources):
    """(module, line, name) of each name a module imports and does not use.

    Relative and absolute imports alike, ``from __future__`` aside.  A use
    is a name or attribute reference anywhere in the importing module,
    other than the import itself; ``import a.b`` binds ``a``.
    """
    unused = []
    for module, text in sources.items():
        tree = ast.parse(text)
        used = _references(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [(alias, alias.asname or alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                bound = [
                    (alias, alias.asname or alias.name.split(".")[0])
                    for alias in node.names
                ]
            else:
                continue
            for alias, name in bound:
                # _references counts an alias under its last dotted part.
                own = alias.name.rsplit(".", 1)[-1] == name
                if used[name] == own:
                    unused.append((module, node.lineno, name))
    return sorted(unused)


def copied_blocks(sources, size=5, least=80):
    """The sorted (module, first line) places of each window of ``size``
    lines that occurs more than once, for the windows that count: no line
    blank or opening with ``#`` or a triple quote, and ``least`` characters or
    more in all, after each line is stripped and its whitespace collapsed.
    """
    places = defaultdict(list)
    for module, text in sources.items():
        lines = [" ".join(line.split()) for line in text.splitlines()]
        for i in range(len(lines) - size + 1):
            window = tuple(lines[i : i + size])
            if sum(map(len, window)) >= least and all(
                line and not line.startswith(("#", '"""')) for line in window
            ):
                places[window].append((module, i + 1))
    return sorted(found for found in places.values() if len(found) > 1)


def reversed_loops(sources):
    """The sorted (module, function) pairs of each function that holds a
    loop or comprehension over ``reversed(...)``; a nested function counts
    for itself and for every function around it."""
    found = set()
    for module, text in sources.items():
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
                and isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Name)
                and node.iter.func.id == "reversed"
                for node in ast.walk(fn)
            ):
                found.add((module, fn.name))
    return sorted(found)


def referrers(text, name):
    """The sorted names of the top-level statements of text that refer to
    name, as a name or an attribute; a statement that defines nothing
    counts as ``<module>``, and imports do not count."""
    return sorted({
        getattr(stmt, "name", "<module>")
        for stmt in ast.parse(text).body
        if not isinstance(stmt, (ast.Import, ast.ImportFrom))
        and _references(stmt)[name]
    })


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
    assert unused_imports(sources) == []


def test_import_scan_catches_planted_imports():
    planted = {
        "a.py": (
            "from .exact import _used, _dropped\n"
            "from .curves import values as _alias, _gone as _renamed\n"
            "from os import path\n"
            "from __future__ import annotations\n"
            "from functools import cache, reduce\n"
            "import json, sys as _sys, xml.dom, email.message\n"
            "def f():\n    return _used() + _alias() + reduce(xml.dom.Node, [])\n"
        ),
    }
    assert unused_imports(planted) == [
        ("a.py", 1, "_dropped"),
        ("a.py", 2, "_renamed"),
        ("a.py", 3, "path"),
        ("a.py", 5, "cache"),
        ("a.py", 6, "_sys"),
        ("a.py", 6, "email"),
        ("a.py", 6, "json"),
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


def test_no_block_is_copied():
    assert copied_blocks({p.name: p.read_text() for p in MODULES}) == []


def test_block_scan_catches_planted_copies():
    step = (
        "    divisor = mul(g, power(h, delta))\n"
        "    R = [divexact(c, divisor) if c else c for c in R]\n"
        "    A, B = B, R\n"
        "    g = A[-1]\n"
        "    if delta:\n"
    )
    short = "x = 1\ny = 2\nz = 3\nu = 4\nv = 5\n"
    commented = "# one comment line, some forty characters\n" * 5
    planted = {
        "a.py": "def f():\n" + step + "    pass\n" + short + commented,
        # The same step, indented deeper and with other spacing, is a copy;
        # the short and the commented blocks do not count.
        "b.py": "def g():\n    while True:\n" + step.replace("    ", "        ").replace(
            "A, B = B, R", "A,  B  =  B, R") + "    return\n" + short + commented,
    }
    assert copied_blocks(planted) == [[("a.py", 2), ("b.py", 3)]]


def test_only_the_horner_kernels_loop_over_reversed():
    found = reversed_loops({p.name: p.read_text() for p in MODULES})
    assert set(found) - HORNER_KERNELS == set()


def test_reversed_scan_catches_planted_loops():
    planted = {
        "a.py": (
            "def horner(cs, x):\n"
            "    acc = 0\n"
            "    for c in reversed(cs):\n        acc = acc * x + c\n"
            "    return acc\n"
            "def outer(cs):\n"
            "    def inner(x):\n        return [c * x for c in reversed(cs)]\n"
            "    return inner\n"
            "def forward(cs):\n"
            "    for c in cs:\n        pass\n"
            "    return reversed(cs)\n"
        ),
    }
    assert reversed_loops(planted) == [("a.py", "horner"), ("a.py", "inner"), ("a.py", "outer")]


def test_only_the_orbit_and_compose_cleared_compose_dicts():
    found = referrers((PACKAGE / "curves.py").read_text(), "_dcompose")
    assert found == ["_orbit", "compose_cleared"]


def test_referrer_scan_catches_planted_uses():
    planted = (
        "from .exact import _dcompose\n"
        "def route(a):\n    return _dcompose(a, a, [])\n"
        "class Box:\n    def build(self):\n        return [_dcompose]\n"
        "def other(a):\n    return a._dcompose\n"
        "ALIAS = _dcompose\n"
    )
    assert referrers(planted, "_dcompose") == ["<module>", "Box", "other", "route"]
