"""Leftovers after a deletion: unused imports, unreferenced private functions,
public names nothing outside the tests names, and dataclass fields nothing
reads.

Checks every module of the package with ``ast`` alone, so it matches names,
not calls: a method passes when any attribute of the same name is read.
``test_reachability.py`` runs the command line and finds the lines no command
executes; these checks find what line tracing cannot see, such as a class
nothing uses or a field nothing reads. An import is used when its module
reads the name (as a name or an attribute) or lists it in ``__all__``; a
private function is referenced when any module reads or imports its name. A
public name must be reached from the package itself (``__init__.py`` aside)
or from the benchmark in ``perfbench/``. A dataclass field must be read as an
attribute in the package or the benchmark.
"""

import ast
import pathlib

import adkra

SRC = pathlib.Path(adkra.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


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


def _public_references() -> tuple[set[str], set[str]]:
    """Names read or imported, and attributes or string constants, outside ``__init__.py`` and tests.

    A string counts because ``perfbench/spans.py`` hooks methods by name.
    """
    trees = [tree for name, tree in MODULES.items() if name != "__init__.py"]
    trees += [ast.parse(path.read_text(), filename=str(path)) for path in sorted(BENCH.glob("*.py"))]
    names: set[str] = set()
    attributes: set[str] = set()
    for tree in trees:
        names |= {bound for _lineno, bound in _imported_names(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    return names, attributes


def _public(body: list[ast.stmt], kinds: tuple[type, ...]) -> list[ast.stmt]:
    return [node for node in body if isinstance(node, kinds) and not node.name.startswith("_")]


def test_every_public_name_has_a_caller_outside_tests():
    """A method counts as reached only through an attribute or a hook's
    string: a bare name that equals it is a local variable."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    names, attributes = _public_references()
    unreferenced = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue
        for node in _public(tree.body, functions + (ast.ClassDef,)):
            if node.name not in names | attributes:
                unreferenced.append(f"{name}:{node.lineno} {node.name}")
            if isinstance(node, ast.ClassDef):
                unreferenced += [
                    f"{name}:{method.lineno} {node.name}.{method.name}"
                    for method in _public(node.body, functions)
                    if method.name not in attributes
                ]
    assert unreferenced == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def test_every_dataclass_field_is_read():
    """A field counts as read when its name is loaded as an attribute
    anywhere in the package or the benchmark (by name, not by type)."""
    trees = list(MODULES.values())
    trees += [ast.parse(path.read_text(), filename=str(path)) for path in sorted(BENCH.glob("*.py"))]
    loaded = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{name}:{stmt.lineno} {node.name}.{stmt.target.id}"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in loaded
    ]
    assert unread == []



def test_every_defaulted_dataclass_field_is_set_somewhere():
    """A field with a default that nothing overrides is a constant.

    Code anywhere in the package, the tests or the benchmark overrides a
    field when it passes it to its class (by keyword or by position) or to
    ``dataclasses.replace``, calls its class with a ``**`` expansion, or
    stores it as an attribute (as ``StepReport`` is filled in). A default
    built by ``default_factory`` is also overridden when a method is called
    on the field, which fills it in place (as ``StepReport.confirmed``).
    """
    fields = {
        node.name: [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        for tree in MODULES.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
    }
    set_fields: set[tuple[str | None, str]] = set()  # (class, field); class None matches any class
    filled: set[str] = set()  # fields a method is called on
    paths = sorted(SRC.glob("*.py")) + sorted(pathlib.Path(__file__).parent.glob("*.py"))
    for path in paths + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                set_fields.add((None, node.attr))
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Attribute):
                filled.add(node.func.value.attr)
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if callee == "replace":
                set_fields |= {(None, kw.arg) for kw in node.keywords if kw.arg}
            elif callee in fields:
                names = [stmt.target.id for stmt in fields[callee]]
                if any(kw.arg is None for kw in node.keywords):
                    set_fields |= {(callee, name) for name in names}
                set_fields |= {(callee, kw.arg) for kw in node.keywords}
                set_fields |= {(callee, name) for name in names[: len(node.args)]}
    never_set = []
    for cls, stmts in fields.items():
        for stmt in stmts:
            name = stmt.target.id
            if stmt.value is None or {(cls, name), (None, name)} & set_fields:
                continue
            if name in filled and "default_factory" in ast.unparse(stmt.value):
                continue
            never_set.append(f"{cls}.{name}")
    assert never_set == []
