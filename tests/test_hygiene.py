"""Static checks over the package source, built on ``ast`` only.

Every ``__all__`` entry must name something the module binds, every
module-level private name must be used somewhere besides its own
definition, and every module-level import must be read by its module or
listed in its ``__all__``, so a helper or an import that a refactor leaves
behind is caught.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mixedpoly"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _bindings(tree: ast.Module) -> dict[str, ast.stmt]:
    """Names bound by the module's top-level statements, with the statement."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[stmt.name] = stmt
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                out[(alias.asname or alias.name).split(".")[0]] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        out[node.id] = stmt
    return out


def _dunder_all(tree: ast.Module) -> list[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return [ast.literal_eval(elt) for elt in stmt.value.elts]
    return []


def _uses(node: ast.AST) -> list[str]:
    """Every name a node reads: bare names, attributes and imported names."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.extend(alias.name for alias in sub.names)
    return out


@pytest.mark.parametrize("module", sorted(MODULES))
def test_dunder_all_entries_resolve(module):
    tree = MODULES[module]
    bound = _bindings(tree)
    missing = [name for name in _dunder_all(tree) if name not in bound]
    assert not missing, (module, missing)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_private_names_are_used(module):
    unused = []
    for name, stmt in _bindings(MODULES[module]).items():
        if not name.startswith("_") or name.startswith("__") or isinstance(
            stmt, (ast.Import, ast.ImportFrom)
        ):
            continue
        uses = [
            use
            for other, tree in MODULES.items()
            for top in tree.body
            if not (other == module and top is stmt)
            for use in _uses(top)
        ]
        if name not in uses:
            unused.append(name)
    assert not unused, (module, unused)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_imports_are_read(module):
    tree = MODULES[module]
    exported = set(_dunder_all(tree))
    read = {
        use
        for top in tree.body
        if not isinstance(top, (ast.Import, ast.ImportFrom))
        for use in _uses(top)
    }
    unread = [
        name
        for name, stmt in _bindings(tree).items()
        if isinstance(stmt, (ast.Import, ast.ImportFrom))
        and getattr(stmt, "module", None) != "__future__"
        and name not in exported
        and name not in read
    ]
    assert not unread, (module, unread)
