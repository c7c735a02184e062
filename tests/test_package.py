"""Static checks of the package source: no dead definitions, no private
imports across modules, no parameter or dataclass field defaults
(settings come from the CLI), no dataclass field that nothing reads and
no line over 79 characters.  They parse src/coulomb_lab/*.py and import
nothing from it."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coulomb_lab"

# Definitions that no subcommand calls, and why each stays.
ALLOWED_UNREFERENCED = {
    "sphere.full_sphere": "wrapped by name in perfbench/spans.py",
    "sphere.complement_region": "wrapped by name in perfbench/spans.py",
    "sphere.region_from_predicate": "wrapped by name in perfbench/spans.py",
    "preimage.PreimageCensus.card":
        "the hits of a batch, read by a perfbench/spans.py counter hook",
}

# Parameter defaults, and why each stays; every other setting is a
# module constant or comes from the CLI's `_DEFAULTS`.
ALLOWED_DEFAULTS = {
    "cli.main(argv)": "entry point: None reads sys.argv",
}

# Dataclass fields that nothing in the package reads, and why each stays.
ALLOWED_UNREAD = {
    "preimage.HolographyReport.f_term":
        "test oracle: the full-sphere identity term by term",
    "preimage.HolographyReport.omega_term":
        "test oracle: the full-sphere identity term by term",
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


def _defaults(module, scope, node):
    """`module.qualname(arg)` of each defaulted parameter below `node`."""
    for child in ast.iter_child_nodes(node):
        name = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
            name = f"{scope}.{getattr(child, 'name', '<lambda>')}".lstrip(".")
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            a = child.args
            pos = a.posonlyargs + a.args
            defaulted = pos[len(pos) - len(a.defaults):] + [
                k for k, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None]
            yield from (f"{module}.{name}({arg.arg})" for arg in defaulted)
        yield from _defaults(module, name, child)


def test_no_parameter_defaults():
    found = [d for module, tree in _modules().items()
             for d in _defaults(module, "", tree)]
    assert set(ALLOWED_DEFAULTS) <= set(found)
    assert [d for d in found if d not in ALLOWED_DEFAULTS] == []


def _is_dataclass(cls):
    return any(ast.unparse(d).split("(")[0] == "dataclass"
               for d in cls.decorator_list)


def _fields(modules):
    """`module.Class.field` and the AnnAssign node of each dataclass
    field."""
    return {f"{module}.{cls.name}.{item.target.id}": item
            for module, tree in modules.items()
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            for item in cls.body if isinstance(item, ast.AnnAssign)}


def _has_default(item):
    """Whether a field's value gives it a default: any value but a
    `field(...)` call without default or default_factory."""
    value = item.value
    if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
        return any(k.arg in ("default", "default_factory")
                   for k in value.keywords)
    return value is not None


def test_no_dataclass_field_defaults():
    # every constructor passes every field
    fields = _fields(_modules())
    assert [f for f, item in fields.items() if _has_default(item)] == []


def test_every_dataclass_field_is_read():
    """A field counts as read when an attribute of its name is loaded
    anywhere in the package, so a field that shares its name with a
    read attribute of another class passes unnoticed."""
    modules = _modules()
    read = {node.attr for tree in modules.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    fields = _fields(modules)
    assert set(ALLOWED_UNREAD) <= set(fields)
    assert [f for f in fields if f.rsplit(".", 1)[1] not in read
            and f not in ALLOWED_UNREAD] == []


def test_no_line_over_79_characters():
    long = [f"{path.name}:{number}"
            for path in sorted(PACKAGE.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 79]
    assert long == []
