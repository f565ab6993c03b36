"""Source hygiene: no module imports a name it never uses.

A stdlib-only stand-in for a linter's unused-import rule.  Only imports at
module level are checked.  A name counts as used when the module reads it
anywhere (annotations included) or lists it in ``__all__``; ``from
__future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/bingcheck/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source):
    """Names bound by top-level imports of `source` that it never uses."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import xml.dom\n"
        "from math import gcd, isqrt\n"
        "from fractions import Fraction\n"
        "__all__ = ['Fraction']\n"
        "def f(x: system.Any):\n"
        "    return gcd(x, 2) + xml.dom.Node\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "isqrt")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, "%s: unused imports %s" % (
        path.relative_to(ROOT), ", ".join("%s (line %d)" % (n, l) for l, n in unused)
    )
