"""Static checks on the package source, built on the standard library's
``ast`` alone."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lbochner"
MODULES = sorted(SRC.rglob("*.py"))
# the trees a definition in the package may be named from
SEARCHED = sorted(path for tree in ("src", "tests", "perfbench")
                  for path in (ROOT / tree).rglob("*.py"))


def _annotation_names(node: ast.AST):
    """Names inside a string annotation such as ``-> "ModuleVector"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return
        yield from (n.id for n in ast.walk(tree) if isinstance(n, ast.Name))


def unused_imports(source: str) -> list:
    """The names bound by the module-level imports of ``source`` that the
    module never reads (``__all__`` entries count as reads)."""
    tree = ast.parse(source)
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = stmt.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    used.update(_annotation_names(arg.annotation))
            if node.returns is not None:
                used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant)
                        and isinstance(c.value, str))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = '''
from __future__ import annotations
import enum
from typing import List, Tuple
from .lmodule import NormKind, ModuleVector as MV
from . import certified

def f(x: "MV") -> List[int]:
    return certified.exact(x)
'''
    assert unused_imports(source) == [
        "NormKind (line 5)", "Tuple (line 4)", "enum (line 3)"]


# a string constant names a definition when it is an identifier or a dotted
# path, such as perfbench's "duality.pairing"
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _name_index(texts: list) -> tuple:
    """The sets of what the ``texts`` name: every name, attribute, import
    alias and dotted string; and what can name a method: the attributes,
    the dotted strings and the bare names of a class body."""
    names, attributes = set(), set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.ClassDef):
                # a class body names its methods bare: ``__or__ = union``
                attributes.update(
                    n.id for stmt in node.body
                    if not isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                    for n in ast.walk(stmt) if isinstance(n, ast.Name))
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and _DOTTED.fullmatch(node.value)):
                parts = node.value.split(".")
                names.update(parts)
                attributes.update(parts)
    return names, attributes


def unnamed_definitions(defining: dict, searched: list) -> list:
    """The module-level functions and classes of the ``defining`` sources
    (name -> text) that no ``searched`` text names, and the methods of
    those classes that it names nowhere a method can be named, so that a
    local variable of the same name does not count (``_name_index``); a
    definition is not a naming, and dunder names are exempt."""
    names, attributes = _name_index(searched)
    defs = []
    for source_name, source in defining.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.append((source_name, stmt.name, stmt.name, names))
            if isinstance(stmt, ast.ClassDef):
                defs.extend(
                    (source_name, f"{stmt.name}.{item.name}", item.name,
                     attributes)
                    for item in stmt.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)))
    return sorted(f"{source_name}: {qualified}"
                  for source_name, qualified, name, index in defs
                  if not (name.startswith("__") and name.endswith("__"))
                  and name not in index)


def _package_sources() -> dict:
    return {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
            for path in MODULES}


def test_every_definition_is_named_elsewhere():
    searched = [path.read_text(encoding="utf-8") for path in SEARCHED]
    assert unnamed_definitions(_package_sources(), searched) == []


# definitions that only tests name, each kept for the open item it waits on
TEST_ONLY = [
    # the independent operator-norm certificate (ROADMAP item 1)
    "lmodule.py: alignment_vector",
]


def test_no_definition_is_named_by_tests_alone():
    # a construction that only tests need belongs in tests/support.py; the
    # comparison is exact, so an allowance no longer needed fails too
    searched = [path.read_text(encoding="utf-8") for path in SEARCHED
                if ROOT / "tests" not in path.parents]
    assert unnamed_definitions(_package_sources(), searched) == TEST_ONLY


def test_unnamed_definition_is_found():
    lib = '''
class Used:
    def kept(self):
        return 1

    def dropped(self):
        return 2

    def __eq__(self, other):
        return True

def lonely(x):
    return x

def tested(x):
    return x

def called():
    return Used().kept()

def __getattr__(name):
    raise AttributeError(name)

class MeasureSpace:
    def mass(self, i):
        return i

def total(masses):
    return sum(mass for mass in masses)

def traced(x):
    return x
'''
    user = ("from lib import MeasureSpace, called, total\n"
            "called()\ntotal([MeasureSpace()])\n"
            "HOOKS = {'lib.traced': None}\n")
    test = "from lib import tested\nassert tested(1) == 1\n"
    # the local variable ``mass`` does not name the method; the dotted
    # string names ``traced``
    assert unnamed_definitions({"lib.py": lib}, [lib, user, test]) \
        == ["lib.py: MeasureSpace.mass", "lib.py: Used.dropped",
            "lib.py: lonely"]
    assert unnamed_definitions({"lib.py": lib}, [lib, user]) \
        == ["lib.py: MeasureSpace.mass", "lib.py: Used.dropped",
            "lib.py: lonely", "lib.py: tested"]


COMPARISONS = {"leq_with_slack", "eq_within"}


def comparison_sites(source_name: str, source: str) -> list:
    """Where ``source`` calls a toleranced bracket comparison of
    ``certified`` (``leq_with_slack``, ``eq_within``) and where it spreads
    a report's witness into a dict (``{**x.witness}``), each as
    "file: enclosing.function: what"."""
    found = []

    def visit(node: ast.AST, scope: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = (*scope, node.name)
        where = f"{source_name}: {'.'.join(scope) or '<module>'}"
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name in COMPARISONS:
                found.append(f"{where}: {name}")
        elif isinstance(node, ast.Dict):
            found.extend(f"{where}: **witness"
                         for key, value in zip(node.keys, node.values)
                         if key is None and isinstance(value, ast.Attribute)
                         and value.attr == "witness")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


# the comparisons and witness spreads outside the one seam,
# ``reports.CheckReport.at_most``/``within``/``absorb``, each with its reason
OUTSIDE_THE_SEAM = [
    # the pairwise stage searches every failing (a, b, j) for its least
    # failing k and fails once with the least (k, a, b, j): a search for a
    # witness, not one comparison per verdict
    "bochner.py: run_completeness_harness.beyond: leq_with_slack",
]


def test_comparisons_and_witness_spreads_go_through_the_seam():
    found = [site for name, source in _package_sources().items()
             if name not in ("certified.py", "reports.py")
             for site in comparison_sites(name, source)]
    assert found == OUTSIDE_THE_SEAM


def test_comparison_site_is_found():
    source = '''
from . import certified
from .certified import eq_within

def check(report, a, b, sub):
    def inner():
        return certified.leq_with_slack(a, b, 0)[0]
    eq_within(a, b, 0)
    report.at_most(a, b, 0, lambda _: {"n": 1, **sub.details})
    report.fail({"stage": "s", **sub.witness})

SPREAD = {**check.witness}
'''
    assert comparison_sites("lib.py", source) == [
        "lib.py: check.inner: leq_with_slack",
        "lib.py: check: eq_within",
        "lib.py: check: **witness",
        "lib.py: <module>: **witness"]


def gcd_users(source: str) -> list:
    """The enclosing function of every use of ``gcd`` in ``source``, called
    or passed, as ``gcd`` or ``math.gcd``, in order."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.Name) and node.id == "gcd"
                or isinstance(node, ast.Attribute) and node.attr == "gcd"):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_certified_takes_gcds_in_reduced_and_add_only():
    # ``reduced`` shifts a long power of two off a denominator before its
    # gcd, which is then linear in the length of the chain's ends; a gcd
    # elsewhere on those ends would be quadratic again.  ``_add`` takes
    # gcds of denominators and of a sum with a gcd of denominators.
    source = (SRC / "certified.py").read_text(encoding="utf-8")
    assert sorted(set(gcd_users(source))) == ["_add", "reduced"]


def test_gcd_user_is_found():
    source = '''
import math
from math import gcd

def outer(a, b):
    def inner():
        return math.gcd(a, b)
    return functools.reduce(gcd, (a, b))

G = gcd(4, 6)
'''
    assert gcd_users(source) == ["inner", "outer", "<module>"]
