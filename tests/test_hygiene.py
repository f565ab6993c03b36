"""Source hygiene: no module imports a name it never uses, the package
computes without floating point, it defines no API that only tests call
or that only they run, and it raises every error it defines.

A stdlib-only stand-in for a linter's unused-import rule.  Only imports at
module level are checked.  A name counts as used when the module reads it
anywhere (annotations included) or lists it in ``__all__``; ``from
__future__`` imports are exempt.

The float check reads every module of the package (not the tests, whose
oracles may use floats): no float literal, no use of the name ``float``,
and nothing from ``math`` but the integer functions ``gcd`` and ``isqrt``.

The digit-class check reads every string constant of the package
(docstrings and f-string parts included) and fails on any that contains
``\\d``: Python's ``\\d`` matches every Unicode decimal digit, so a number
pattern written with it takes Arabic-Indic or full-width digits; the
package writes ``[0-9]``.

The API check reads every function, class and method the package defines
(dunders are exempt) and fails on any that the package, the demos and the
benchmark never read by name; a name read only by the tests is test-only
API.  A function or class counts as read as a Name or an Attribute, a
method only as an Attribute, so a local variable that shares its name does
not hide it.  Every name exempted from that rule must still be defined in
the package, so a stale exemption cannot hide a later definition.

The run check runs the package outside the tests under ``sys.setprofile``:
every CLI subcommand over the catalog and one usage error, ``bing --file``
and ``batch`` on the golden matrix files, the demos, and the benchmark's
ops (``perfbench/worker.run_op``) over every workload at one seed.  It
fails on any function, method or property of the package (dunders are
exempt) whose code never runs there.  It sees what the API check cannot:
a method read only by a dunder, or one whose name another class's reader
shares.  A function's code object starts at its first decorator, so a
call is matched to a definition by that line or the ``def`` line, and by
name.  Every exemption from that rule must name a definition of the
package that the drive does not run.

The parameter check reads every defaulted parameter of every function,
method and constructor the package defines and fails on any that no call
in the package, the demos or the benchmark passes, by keyword or by
position: a default nothing overrides is a constant behind a parameter.
Calls are resolved by name alone (a method by its attribute name, a
constructor by its class name); a call with ``*args`` or ``**kwargs``
counts as passing every parameter it could reach.

The export check reads the ``__all__`` of every module of the package that
defines one and fails on any listed name that the module's top level
neither defines (a function, a class or an assignment) nor imports: a
name left in ``__all__`` after its definition is gone breaks ``import *``
and misleads a reader of the module's API.

The exception check reads the classes of ``errors.py`` and fails on any
that no module of the package raises (``raise X`` or ``raise X(...)``,
by name or as an attribute) unless another class there derives from it:
an error nothing raises is an exit code nothing can reach and a branch no
caller needs.

The tracer check resolves every layer target of ``perfbench/tracer.py``
against the package, so a renamed or deleted traced function fails here
rather than in a traced benchmark run.

The cache check finds every module-level ``lru_cache`` of the package by
its ``cache_info``, as ``perfbench/worker.py`` does, and fails on any that
no tracer layer with ``cache=True`` wraps: a cache whose hit rate no traced
run reads cannot show whether it earns its memory.  Every name exempted
from that rule must still be a cache of the package.

The import-footprint check imports the package in a fresh ``python -S``
and fails if that loaded ``dataclasses``, ``inspect`` or ``ast``: each
verdict and CLI call is a fresh process, and those three modules cost
about 5.6 ms of its start-up for nothing the package needs.
"""

import ast
import importlib
import importlib.util
import io
import json
import os
import runpy
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/bingcheck/*.py"))
MODULES = PACKAGE + sorted(ROOT.glob("tests/*.py"))
READERS = PACKAGE + sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
INTEGER_MATH = {"gcd", "isqrt"}
# definitions nothing in READERS reads by name, kept on purpose
API_EXEMPT = {
    "error",  # cli's ArgumentParser.error override: argparse calls it
    "_make",  # RootInterval's namedtuple override: namedtuple's _replace calls it
}
# package functions the run check's drive never runs, kept on purpose
RUN_EXEMPT = {
    "intpoly.RootInterval._make": "namedtuple's _replace calls it; the package replaces none",
    "laurent.parse_poly": "the README's polynomial syntax, which IntPoly(str) reads",
    "laurent.LaurentPoly.zero": "__mul__ and exact_div call it on a zero operand, never driven",
    "fields._cos_roots": "only signature_at reaches it, at q outside 1, 2, 3, 4, 6; demo 02 "
                         "samples q = 6, 3, 2",
}
# (function, parameter) defaults no call in READERS passes, kept on purpose
DEFAULT_EXEMPT = {
    ("main", "argv"),  # cli's entry point: the console script passes nothing, tests pass argv
}
# package lru_caches no tracer layer reads a hit rate from, kept on purpose
CACHE_EXEMPT = {
    "bingcheck.fields._cos_roots":
        "the per-q root table behind cos_enclosure, whose hit rate the tracer reads",
}


def exported(tree):
    """The names a module's ``__all__`` lists, [] if it defines none."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


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
    used.update(exported(tree))
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


def float_uses(source):
    """(line, what) for each float literal, read of the name ``float`` and
    ``math`` function other than gcd and isqrt in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal %r" % node.value))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append((node.lineno, "math.%s" % node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, "math.%s" % alias.name)
                         for alias in node.names if alias.name not in INTEGER_MATH)
    return sorted(found)


def test_checker_finds_float_uses():
    source = (
        "import math\n"
        "from math import gcd, log2, isqrt as r\n"
        "x = 2 ** 20\n"
        "y = 1e-3 + float(x)\n"
        "z = math.ceil(math.log2(x)) + math.isqrt(x) + math.gcd(x, 6)\n"
        "s = '1.5'\n"
    )
    assert float_uses(source) == [
        (2, "math.log2"),
        (4, "float"),
        (4, "float literal 0.001"),
        (5, "math.ceil"),
        (5, "math.log2"),
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_floating_point(path):
    found = float_uses(path.read_text(encoding="utf-8"))
    assert not found, "%s: floating point at %s" % (
        path.relative_to(ROOT), ", ".join("%s (line %d)" % (w, l) for l, w in found)
    )


def digit_classes(source):
    """Lines of the str constants in `source` that contain ``\\d``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "\\d" in node.value)


def test_checker_finds_digit_classes():
    source = (
        '"""Docstring naming \\\\d."""\n'
        "import re\n"
        "A = re.compile(r'[0-9]+(/[0-9]+)?')\n"
        "B = re.compile(r'-?\\d+')\n"
        "C = re.compile(b'\\\\d')\n"
        "D = f'{A}\\\\d'\n"
        "E = 'd + 1'\n"
    )
    assert digit_classes(source) == [1, 4, 6]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unicode_digit_class(path):
    found = digit_classes(path.read_text(encoding="utf-8"))
    assert not found, "%s: \\d, which matches any Unicode digit, at lines %s; write [0-9]" % (
        path.relative_to(ROOT), ", ".join(map(str, found))
    )


def stale_exports(source):
    """The names `source`'s ``__all__`` lists that its top level neither
    defines nor imports."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return sorted(set(exported(tree)) - bound)


def test_checker_finds_stale_exports():
    source = (
        "from . import errors\n"
        "from .laurent import T as t, parse_poly\n"
        "import xml.dom\n"
        "X, (Y, Z) = 1, (2, 3)\n"
        "W: int = 4\n"
        "def f(): removed_local = 1\n"
        "class C:\n"
        "    def method(self): pass\n"
        "if X:\n"
        "    hidden = 5\n"
        "__all__ = ['errors', 't', 'T', 'parse_poly', 'xml', 'X', 'Y', 'Z', 'W',\n"
        "           'f', 'C', 'method', 'removed_local', 'hidden', 'gone']\n"
    )
    assert stale_exports(source) == ["T", "gone", "hidden", "method", "removed_local"]
    assert stale_exports("def f(): pass\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_exported_names_exist(path):
    stale = stale_exports(path.read_text(encoding="utf-8"))
    assert not stale, "%s: __all__ lists names it neither defines nor imports: %s" % (
        path.relative_to(ROOT), ", ".join(stale))


def definitions(source):
    """(line, name, is_method) for each function, class and method defined
    in `source`, dunders left out; a method is a function defined directly
    in a class body."""
    tree = ast.parse(source)
    methods = {
        id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return sorted(
        (node.lineno, node.name, id(node) in methods) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def names_read(source):
    """(names, attributes): every name `source` reads as a Name, and every
    name it reads as an Attribute."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return names, attributes


def unread(defs, names, attributes):
    """(line, name) of the definitions never read: a method counts as read
    only through an attribute access, so a local variable of the same name
    does not hide it; a function or class counts through either."""
    return [(line, name) for line, name, method in defs
            if name not in attributes and (method or name not in names)]


def test_checker_finds_test_only_api():
    source = (
        "class Field:\n"
        "    def __init__(self): pass\n"
        "    def mul(self, a, b): return self._reduce(a)\n"
        "    def _reduce(self, a): return a\n"
        "    def scalar(self, c): pass\n"
        "def helper(): pass\n"
        "class Unused: pass\n"
        "Field().mul(1, 2)\n"
        "helper = None\n"
        "class Matrix:\n"
        "    def row(self, i): pass\n"
        "    def col(self, j): pass\n"
        "for row in Matrix().col(0): print(row)\n"
    )
    assert unread(definitions(source), *names_read(source)) == [
        (5, "scalar"), (6, "helper"), (7, "Unused"), (11, "row"),
    ]


def test_no_test_only_api():
    names, attributes = set(), set()
    for path in READERS:
        n, a = names_read(path.read_text(encoding="utf-8"))
        names |= n
        attributes |= a
    missing = [
        "%s:%d %s" % (path.relative_to(ROOT), line, name)
        for path in PACKAGE
        for line, name in unread(definitions(path.read_text(encoding="utf-8")),
                                 names, attributes)
        if name not in API_EXEMPT
    ]
    assert not missing, "defined but never read outside the tests: " + ", ".join(missing)


def stale_exemptions(exempt, sources):
    """The names in `exempt` that no source in `sources` defines."""
    defined = {name for source in sources for _, name, _ in definitions(source)}
    return sorted(exempt - defined)


def test_checker_finds_stale_exemptions():
    sources = ["class Parser:\n    def error(self, msg): pass\n", "def helper(): pass\n"]
    assert stale_exemptions({"error", "helper", "removed"}, sources) == ["removed"]


def test_no_stale_api_exemption():
    # an exemption whose definition is gone would exempt any later
    # definition of that name from the test-only API rule
    stale = stale_exemptions(API_EXEMPT, [p.read_text(encoding="utf-8") for p in PACKAGE])
    assert not stale, "API_EXEMPT names nothing the package defines: " + ", ".join(stale)


def function_definitions(source):
    """(lines, name, qualified name) for each function, method and property
    defined in `source`, dunders left out: lines holds the ``def`` line and
    a decorated function's first decorator line, where its code object
    starts; the qualified name joins the enclosing classes and functions
    with dots."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    lines = {child.lineno} | {d.lineno for d in child.decorator_list[:1]}
                    found.append((lines, child.name, prefix + child.name))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def functions_run(drive):
    """(file, first line, name) of each code object under a directory named
    ``bingcheck`` that is called while drive() runs."""
    ran = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and "bingcheck" in code.co_filename:
            ran.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        drive()
    finally:
        sys.setprofile(previous)
    return {(str(Path(f).resolve()), line, name) for f, line, name in ran}


def never_run(path, source, ran):
    """The qualified names of the definitions in `source`, read from
    `path`, that no code object in `ran` matches by line and name."""
    path = str(Path(path).resolve())
    return [qualified for lines, name, qualified in function_definitions(source)
            if not any((path, line, name) in ran for line in lines)]


def test_checker_finds_functions_never_run(tmp_path):
    source = (
        "import functools\n"
        "class Poly:\n"
        "    def __init__(self): pass\n"
        "    @property\n"
        "    def degree(self): return 1\n"
        "    @functools.lru_cache\n"
        "    def roots(self): return []\n"
        "    @classmethod\n"
        "    def zero(cls): return cls()\n"
        "    def unused(self):\n"
        "        def inner(): pass\n"
        "        return inner\n"
        "def helper():\n"
        "    def inner(): pass\n"
        "    return [inner() for _ in range(2)]\n"
    )
    path = tmp_path / "bingcheck" / "toy.py"
    path.parent.mkdir()
    path.write_text(source, encoding="utf-8")
    module = runpy.run_path(str(path))

    def drive():
        p = module["Poly"]()
        return p.degree, module["helper"]()

    assert never_run(path, source, functions_run(drive)) == [
        "Poly.roots", "Poly.zero", "Poly.unused", "Poly.unused.inner"]


def drive_outside_the_tests():
    """Every CLI subcommand over the catalog and one usage error, ``bing
    --file`` and ``batch`` on the golden matrix files, the demos and the
    benchmark's ops over every workload at seed 1, all in this process,
    their output discarded; the package's lru_caches are emptied first, so
    that a cached function runs however warm the tests left it."""
    import bingcheck
    from bingcheck.catalog import builtin_catalog
    from bingcheck.cli import main

    for cache in package_caches().values():
        cache.cache_clear()
    argvs = [["catalog", "list"]]
    for name in (e.name for e in builtin_catalog()):
        argvs += [[cmd, name] for cmd in ("invariants", "alexander", "sigfn", "arf",
                                          "foxmilnor", "bing")]
        argvs += [["cable", "-n", "2", name], ["cover", "-p", "2", name],
                  ["foxorder", "-p", "2", name], ["jpq", "-p", "1", "-q", "2", name],
                  ["catalog", "show", name]]
    files = sorted(str(p) for p in (ROOT / "tests" / "golden" / "bing").glob("*.matrix"))
    argvs += [["bing", "--file", f] for f in files] + [["batch"] + files]
    worker = load_perfbench("worker")
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes = [main(argv) for argv in argvs]
        usage = main(["no-such-command"])
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
        for workload in workloads:
            ops = worker.load_ops(workload["name"])
            for op, text in zip(ops, worker.build_inputs(ops, 1)):
                worker.run_op(bingcheck, op, text)
    assert codes == [0] * len(argvs) and usage == 1


@lru_cache(maxsize=None)
def package_functions_never_run():
    """The package's definitions that drive_outside_the_tests never runs,
    as module.qualified names."""
    ran = functions_run(drive_outside_the_tests)
    return [
        "%s.%s" % (path.stem, qualified) for path in PACKAGE
        for qualified in never_run(path, path.read_text(encoding="utf-8"), ran)
    ]


def test_every_function_runs_outside_the_tests():
    missing = [name for name in package_functions_never_run() if name not in RUN_EXEMPT]
    assert not missing, "never run outside the tests: " + ", ".join(missing)


def test_no_stale_run_exemption():
    # an exemption for a function that is gone, or that now runs, would
    # hide a later definition of that name that never runs
    stale = sorted(set(RUN_EXEMPT) - set(package_functions_never_run()))
    assert not stale, "RUN_EXEMPT names no package function the drive leaves unrun: " \
        + ", ".join(stale)


def defaulted_parameters(source):
    """(line, call name, parameter, position) for each parameter with a
    default of each function in `source`.  The call name of a method is its
    own and of __init__ its class's; position is the parameter's index
    among the call's positional arguments (self left out of a method's),
    None for a keyword-only one."""
    tree = ast.parse(source)
    owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = owner[id(node)] if node.name == "__init__" and id(node) in owner else node.name
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(node) in owner and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list) else 0
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            found.append((arg.lineno, name, arg.arg, i - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((arg.lineno, name, arg.arg, None))
    return sorted(found)


def calls_made(source):
    """call name -> list of (positional count, keyword names) of the calls
    in `source`; a call with *args counts as passing every position
    (count None), one with **kwargs every keyword (keyword names None)."""
    calls = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = None if any(k.arg is None for k in node.keywords) \
            else {k.arg for k in node.keywords}
        calls.setdefault(name, []).append(
            (None if starred else len(node.args), keywords))
    return calls


def never_passed(params, calls):
    """(line, name, parameter) of the defaulted parameters no call passes."""
    return [(line, name, param) for line, name, param, position in params
            if not any(count is None or keywords is None or param in keywords
                       or (position is not None and count > position)
                       for count, keywords in calls.get(name, ()))]


def test_checker_finds_unpassed_defaults():
    source = (
        "def battery(p, name='x', functions=None): pass\n"
        "def verdict(s, check_range=3, *, strict=False): pass\n"
        "class Base:\n"
        "    def __init__(self, s, function=None): pass\n"
        "    def factors(self, k=1): pass\n"
        "    @staticmethod\n"
        "    def make(k=1): pass\n"
        "battery(1, name='y')\n"
        "verdict(s, 2)\n"
        "Base(s).factors(2)\n"
        "Base.make(*ks)\n"
        "battery(**options)\n"
    )
    calls = calls_made(source)
    assert never_passed(defaulted_parameters(source), calls) == [
        (2, "verdict", "strict"), (4, "Base", "function"),
    ]
    calls.pop("battery")
    assert never_passed(defaulted_parameters(source), calls) == [
        (1, "battery", "functions"), (1, "battery", "name"),
        (2, "verdict", "strict"), (4, "Base", "function"),
    ]


def test_no_unpassed_defaults():
    calls = {}
    for path in READERS:
        for name, made in calls_made(path.read_text(encoding="utf-8")).items():
            calls.setdefault(name, []).extend(made)
    missing = [
        "%s:%d %s(%s)" % (path.relative_to(ROOT), line, name, param)
        for path in PACKAGE
        for line, name, param in never_passed(
            defaulted_parameters(path.read_text(encoding="utf-8")), calls)
        if (name, param) not in DEFAULT_EXEMPT
    ]
    assert not missing, "defaults no call overrides: " + ", ".join(missing)


def test_no_stale_default_exemption():
    params = {(name, param) for path in PACKAGE
              for _, name, param, _ in defaulted_parameters(path.read_text(encoding="utf-8"))}
    stale = sorted(DEFAULT_EXEMPT - params)
    assert not stale, "DEFAULT_EXEMPT names no defaulted parameter: %s" % stale


def raised_names(source):
    """The names of the exceptions `source` raises: X of ``raise X`` and
    ``raise X(...)``, X also read as an attribute (``raise errors.X``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                names.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return names


def unraised_exceptions(errors_source, sources):
    """(line, name) of the classes `errors_source` defines at top level
    that no class there derives from and no source in `sources` raises."""
    classes = [n for n in ast.parse(errors_source).body if isinstance(n, ast.ClassDef)]
    bases = {b.id for c in classes for b in c.bases if isinstance(b, ast.Name)}
    raised = set().union(*(raised_names(source) for source in sources))
    return [(c.lineno, c.name) for c in classes if c.name not in bases | raised]


def test_checker_finds_unraised_exceptions():
    errors = (
        "class BaseError(Exception): pass\n"
        "class ParseError(BaseError): pass\n"
        "class CaughtError(BaseError): pass\n"
        "class AttributeRaised(BaseError): pass\n"
        "class Gone(BaseError): pass\n"
    )
    sources = [
        "def f(x):\n    raise ParseError('bad %s' % x) from None\n",
        "try:\n    g()\nexcept CaughtError:\n    raise\n",
        "from . import errors\nraise errors.AttributeRaised\n",
        "Gone('built, never raised')\n",
    ]
    assert unraised_exceptions(errors, sources) == [(3, "CaughtError"), (5, "Gone")]


def test_every_error_is_raised():
    errors = ROOT / "src" / "bingcheck" / "errors.py"
    unraised = unraised_exceptions(errors.read_text(encoding="utf-8"),
                                   [p.read_text(encoding="utf-8") for p in PACKAGE])
    assert not unraised, "errors.py classes the package never raises: " + ", ".join(
        "%s (line %d)" % (name, line) for line, name in unraised)


def load_perfbench(name):
    """perfbench/<name>.py as a module (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = load_perfbench("tracer")
    broken = []
    for layer in tracer.LAYERS:
        importlib.import_module(layer.target.split(":")[0])
        try:
            fn = tracer._resolve(layer.target)
        except (AttributeError, KeyError):
            broken.append("%s: %s does not resolve" % (layer.name, layer.target))
            continue
        if layer.cache and not hasattr(fn, "cache_info"):
            broken.append("%s: %s has no cache_info" % (layer.name, layer.target))
    assert not broken, "; ".join(broken)


def package_caches():
    """name -> cache for every module-level lru_cache of the package, found
    by its cache_info; a cache imported into other modules is named once,
    after the module that defines it."""
    for path in PACKAGE:
        importlib.import_module("bingcheck" if path.stem == "__init__" else "bingcheck." + path.stem)
    return {"%s.%s" % (value.__module__, value.__qualname__): value
            for modname, mod in list(sys.modules.items())
            if modname == "bingcheck" or modname.startswith("bingcheck.")
            for value in vars(mod).values() if callable(getattr(value, "cache_info", None))}


def untraced_caches(caches, layers, resolve):
    """The names in `caches` whose cache no layer with cache=True wraps."""
    traced = {id(resolve(layer.target)) for layer in layers if layer.cache}
    return sorted(name for name, cache in caches.items() if id(cache) not in traced)


def test_checker_finds_untraced_caches():
    @lru_cache(maxsize=None)
    def traced(x):
        return x

    @lru_cache(maxsize=None)
    def idle(x):
        return x

    targets = {"m:traced": traced, "m:idle": idle}
    layers = [SimpleNamespace(target="m:traced", cache=True),
              SimpleNamespace(target="m:idle", cache=False)]
    caches = {"m.traced": traced, "m.idle": idle}
    assert untraced_caches(caches, layers, targets.__getitem__) == ["m.idle"]


def test_every_cache_is_traced():
    tracer = load_perfbench("tracer")
    missing = [name for name in untraced_caches(package_caches(), tracer.LAYERS, tracer._resolve)
               if name not in CACHE_EXEMPT]
    assert not missing, "lru_caches no tracer layer reads a hit rate from: " + ", ".join(missing)


def test_no_stale_cache_exemption():
    # an exemption whose cache is gone would exempt any later cache of that name
    stale = sorted(set(CACHE_EXEMPT) - set(package_caches()))
    assert not stale, "CACHE_EXEMPT names no lru_cache of the package: " + ", ".join(stale)


def test_import_loads_no_introspection_modules():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, bingcheck; print(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "bingcheck.witt" in loaded
    heavy = sorted({"dataclasses", "inspect", "ast"} & set(loaded))
    assert not heavy, "import bingcheck loads " + ", ".join(heavy)
