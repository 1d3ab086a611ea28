"""No floats anywhere: an ``ast`` scan of every module of the package.

A module fails on a float or complex literal, on any use of the names
``float`` or ``complex``, and on a ``math`` import of anything but the
integer functions.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hookw"
INTEGER_MATH = {"gcd", "isqrt", "lcm", "comb", "factorial", "prod"}


def float_uses(source):
    """(line, what) for each float construct in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "literal %r" % (node.value,)))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append((node.lineno, "name %s" % node.id))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import math") for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                (node.lineno, "math.%s" % a.name) for a in node.names if a.name not in INTEGER_MATH
            ]
    return found


MODULES = sorted(PACKAGE.glob("*.py"))


def test_scans_the_whole_package():
    assert {p.name for p in MODULES} >= {"exact.py", "curves.py", "catalog.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_floats(path):
    assert float_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 2j",
        "y = float(x)",
        "ok = isinstance(x, complex)",
        "import math",
        "import os, math as m",
        "from math import sqrt",
        "from math import gcd, log",
    ],
)
def test_scan_catches(source):
    assert len(float_uses(source)) == 1


def test_scan_allows_integer_math():
    assert float_uses("from math import gcd, isqrt, lcm, comb, factorial, prod\nx = 1 // 2") == []
