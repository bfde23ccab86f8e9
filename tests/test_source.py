"""Static checks on the package source, built on the standard library's
``ast`` alone."""

import ast
import re
from collections import Counter
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


def unnamed_definitions(defining: dict, searched: list) -> list:
    """The module-level functions and classes of the ``defining`` sources
    (name -> text) whose name occurs in no ``searched`` text beyond their
    own definitions; dunder names are exempt."""
    words = Counter()
    for text in searched:
        words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    defs = [(source_name, stmt.name)
            for source_name, source in defining.items()
            for stmt in ast.parse(source).body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (stmt.name.startswith("__")
                     and stmt.name.endswith("__"))]
    # each definition names itself once
    defined = Counter(name for _, name in defs)
    return sorted(f"{source_name}: {name}" for source_name, name in defs
                  if words[name] <= defined[name])


def test_every_definition_is_named_elsewhere():
    defining = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
                for path in MODULES}
    searched = [path.read_text(encoding="utf-8") for path in SEARCHED]
    assert unnamed_definitions(defining, searched) == []


def test_unnamed_definition_is_found():
    lib = '''
class Used:
    pass

def lonely(x):
    return x

def called():
    return Used()

def __getattr__(name):
    raise AttributeError(name)
'''
    user = "from lib import called\ncalled()\n"
    assert unnamed_definitions({"lib.py": lib}, [lib, user]) \
        == ["lib.py: lonely"]
