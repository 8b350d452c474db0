import ast
import importlib
from pathlib import Path

import cmtrace

PKG = Path(cmtrace.__file__).resolve().parent


def _sources():
    for path in sorted(PKG.rglob("*.py")):
        yield path.relative_to(PKG), ast.parse(path.read_text(encoding="utf-8"))


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so every check in the package
    # raises explicitly instead
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def _numpy_uses(node: ast.AST, lazy: bool, in_function: bool = False, has_np: bool = False):
    """The module-level numpy imports under node, and its reads of np in a
    function that neither binds it by `import numpy as np` nor sits inside
    one that does. Annotations are read where they are evaluated, unless
    lazy (the module has `from __future__ import annotations`)."""
    if isinstance(node, _FUNCTIONS):
        # decorators, defaults and eager annotations run in the enclosing
        # scope, the body in the function's
        args = node.args
        outer = [*getattr(node, "decorator_list", []), *args.defaults, *args.kw_defaults]
        if not lazy:
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            outer += [a.annotation for a in every if a is not None]
            outer.append(getattr(node, "returns", None))
        for child in outer:
            if child is not None:
                yield from _numpy_uses(child, lazy, in_function, has_np)
        body = node.body if isinstance(node.body, list) else [node.body]
        binds = any(
            _imports_numpy(n) and any((a.asname or a.name) == "np" for a in n.names)
            for stmt in body for n in _own_nodes(stmt)
        )
        for stmt in body:
            yield from _numpy_uses(stmt, lazy, True, has_np or binds)
        return
    if _imports_numpy(node) and not in_function:
        yield node, "module-level numpy import"
    if isinstance(node, ast.Name) and node.id == "np" and isinstance(node.ctx, ast.Load):
        if not has_np:
            yield node, "np read where no enclosing function imports it"
    for field, value in ast.iter_fields(node):
        if lazy and field == "annotation":
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _numpy_uses(child, lazy, in_function, has_np)


def _own_nodes(node: ast.AST):
    # node and what it holds, short of nested function bodies
    yield node
    if not isinstance(node, _FUNCTIONS):
        for child in ast.iter_child_nodes(node):
            yield from _own_nodes(child)


def _lazy_annotations(tree: ast.Module) -> bool:
    return any(
        isinstance(n, ast.ImportFrom) and n.module == "__future__"
        and any(a.name == "annotations" for a in n.names)
        for n in tree.body
    )


def test_numpy_is_imported_by_the_functions_that_use_it():
    # `import cmtrace` and the scalar routes run without numpy; each array
    # function imports it on its first call, so a module-level import, or a
    # function reading a np it never imports, breaks that or raises NameError
    found = [
        f"{name}:{node.lineno}: {why}"
        for name, tree in _sources()
        for node, why in _numpy_uses(tree, _lazy_annotations(tree))
    ]
    assert found == []


def test_every_public_name_resolves():
    # a stale __all__ entry would otherwise fail only `from ... import *`
    mods = [cmtrace] + [
        importlib.import_module(f"cmtrace.{path.stem}")
        for path in sorted(PKG.glob("*.py"))
        if path.stem != "__init__"
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in mods
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []
