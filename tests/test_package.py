"""Static checks of the package source: no dead definitions, no private
imports across modules.  They parse src/coulomb_lab/*.py and import
nothing from it."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coulomb_lab"

# Definitions that no subcommand calls, and why each stays.
ALLOWED_UNREFERENCED = {
    "divform.rotation_matrix": "test oracle: the rotated Gamma formula",
    "divform.rotation_matrices": "test oracle, behind rotation_matrix",
    "surfaces.ClosedFormTable.phi_at": "test oracle: closed-form Phi",
    "sphere.complement_region": "wrapped by name in perfbench/spans.py",
    "sphere.region_from_predicate": "wrapped by name in perfbench/spans.py",
}


def _modules():
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and
    of each method; dunder methods are called implicitly."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    """Count of each name and attribute used in `tree`."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_definition_is_referenced():
    modules = _modules()
    used = sum((_references(tree) for name, tree in modules.items()
                if name != "__init__"), Counter())
    unreferenced = [
        f"{module}.{qualname}"
        for module, tree in modules.items()
        for qualname, node in _definitions(tree)
        # uses inside the definition itself (recursion) do not count
        if used[node.name] == _references(node)[node.name]
        and f"{module}.{qualname}" not in ALLOWED_UNREFERENCED
    ]
    assert unreferenced == []


def test_allow_list_is_current():
    modules = _modules()
    defined = {f"{module}.{qualname}"
               for module, tree in modules.items()
               for qualname, _ in _definitions(tree)}
    assert set(ALLOWED_UNREFERENCED) <= defined


def test_no_private_imports_across_modules():
    private = [
        f"{module}: {alias.name}"
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("coulomb_lab"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
