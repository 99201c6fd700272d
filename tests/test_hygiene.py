"""Leftovers after a deletion: unused imports and unreferenced private functions.

Checks every module of the package with ``ast`` alone. An import is used when
its module reads the name (as a name or an attribute) or lists it in
``__all__``; a private function is referenced when any module reads or
imports its name.
"""

import ast
import pathlib

import adkra

SRC = pathlib.Path(adkra.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return used


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        used = _used_names(tree)
        unused += [f"{name}:{lineno} {bound}" for lineno, bound in _imported_names(tree) if bound not in used]
    assert unused == []


def test_every_private_module_function_is_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced |= _used_names(tree)
        referenced |= {bound for _lineno, bound in _imported_names(tree)}
    unreferenced = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert unreferenced == []
