"""Every function, method and class defined in `src/cubica` is named again
somewhere in `src/`, `tests/` or `perfbench/`, and every parameter of a
function there is read in its body.

A definition counts as used when its name occurs in that code as a name, an
attribute or a string constant (for lookups by name); the definition itself
does not count, nor does an import, which names a definition without using
it, nor a package `__init__.py`, whose `__all__` strings only re-export.
Dunder methods are called by Python and are exempt.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cubica"
SEARCHED = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_named_again():
    refs = Counter()
    for base in SEARCHED:
        for path in base.rglob("*.py"):
            if path.name == "__init__.py":
                continue
            refs.update(_references(ast.parse(path.read_text(), str(path))))
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, line in _definitions(tree):
            if not refs[name]:
                unused.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not unused, "defined but never named again:\n" + "\n".join(unused)


def _unread_parameters(tree):
    """(function, parameter, line) for each parameter that the function's
    body never reads.  A method's first parameter (self or cls), dunder
    methods (their signature is Python's) and the CLI's ``cmd_*`` handlers
    (they share the ``args.fn(args)`` dispatch signature) are exempt.  The
    target of an augmented assignment (``x += ...``) is read: the statement
    reads it before it stores."""
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = node.name
        if (name.startswith("__") and name.endswith("__")) or name.startswith("cmd_"):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        if id(node) in methods and not static:
            params = params[1:]
        body = [n for stmt in node.body for n in ast.walk(stmt)]
        read = {n.id for n in body
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.target.id for n in body
                 if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        for p in params:
            if p.arg not in read:
                yield name, p.arg, node.lineno


def test_an_augmented_assignment_reads_its_target():
    tree = ast.parse("def f(x):\n    x += [1]\n\ndef g(y):\n    return 1\n")
    assert list(_unread_parameters(tree)) == [("g", "y", 4)]


def test_every_parameter_is_read():
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, param, line in _unread_parameters(tree):
            unread.append(f"{path.relative_to(ROOT)}:{line} {name}({param})")
    assert not unread, "parameters never read:\n" + "\n".join(unread)
