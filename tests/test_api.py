"""Every public name has a caller in the package or the benchmark.

A public name is one exported from `gridchroma/__init__.py`, any
module-level function or class of `src/gridchroma`, or any method or
property of such a class, whose name does not start with an underscore.
It must be used (read as a name or an attribute) in some module of
`src/gridchroma` other than `__init__.py`, or in `benchmark/*.py`.  A
definition, an import or a docstring does not count: a name whose only
users are the tests belongs with the tests.  The one exception is listed
in `TRACER_ONLY`, and the check fails as soon as it is no longer needed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridchroma"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Public names with no caller that stay in the package because the
# benchmark's tracer wraps them by name (`benchmark/spans.py` `TARGETS`)
# and its restore test reads every target.  `twoended.connected_subsets`
# lost its last caller when `find_separators` became one lazy walk; it
# moves to `tests/oracles.py` when the benchmark drops its `sep.enum` span.
TRACER_ONLY = {"connected_subsets"}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def module_bodies():
    return [node for path in MODULES for node in ast.parse(path.read_text()).body]


def defined_names() -> set[str]:
    """The public module-level functions and classes of the package."""
    return {
        node.name
        for node in module_bodies()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def member_names() -> set[str]:
    """The public methods and properties of the package's classes, as
    `Class.member`."""
    return {
        f"{cls.name}.{node.name}"
        for cls in module_bodies()
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def used_names(path: Path) -> set[str]:
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def traced_names() -> set[str]:
    """The attributes in the benchmark tracer's `TARGETS` table."""
    tree = ast.parse((ROOT / "benchmark" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS":
            return {target.elts[1].value for target in node.value.elts}
    return set()


def package_uses() -> set[str]:
    sources = MODULES + sorted((ROOT / "benchmark").glob("*.py"))
    return set().union(*map(used_names, sources))


def test_public_names_have_a_caller():
    uses = package_uses()
    stale = {
        name
        for name in TRACER_ONLY
        if name in uses or name not in defined_names() or name not in traced_names()
    }
    assert not stale, f"drop from TRACER_ONLY: {sorted(stale)}"
    unused = (exported_names() | defined_names()) - uses - TRACER_ONLY
    assert not unused, f"public but used only by tests: {sorted(unused)}"


def test_public_members_have_a_caller():
    uses = package_uses()
    unused = {name for name in member_names() if name.split(".")[1] not in uses}
    assert not unused, f"public members used only by tests: {sorted(unused)}"
