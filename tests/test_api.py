"""Every public name has a caller in the package or the benchmark.

A public name is one exported from `gridchroma/__init__.py` or any
module-level function or class of `src/gridchroma` whose name does not
start with an underscore.  It must be used (read as a name or an
attribute) in some module of `src/gridchroma` other than `__init__.py`,
or in `benchmark/*.py`.  A definition, an import or a docstring does not
count: a name whose only users are the tests belongs with the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridchroma"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# kept for the ROADMAP items that will call them: the layered invariance
# check (item 2) and the transfer certificate for every modulus (item 3)
AWAITING_A_CALLER = {
    "layer_templates",  # item 2: base_forbidden read off the cross template
    "projection_coloring",  # item 3: the plain self-loop of T_k
    "orientation_sequence",  # item 3: the parity route for odd M
}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def defined_names() -> set[str]:
    """The public module-level functions and classes of the package."""
    return {
        node.name
        for path in MODULES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def used_names(path: Path) -> set[str]:
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def package_uses() -> set[str]:
    sources = MODULES + sorted((ROOT / "benchmark").glob("*.py"))
    return set().union(*map(used_names, sources))


def test_public_names_have_a_caller():
    unused = (exported_names() | defined_names()) - package_uses() - AWAITING_A_CALLER
    assert not unused, f"public but used only by tests: {sorted(unused)}"


def test_the_exceptions_are_still_needed():
    assert AWAITING_A_CALLER <= defined_names()
    assert not AWAITING_A_CALLER & package_uses(), "a kept name found its caller"
