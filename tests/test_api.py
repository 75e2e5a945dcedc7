"""Every public name has a caller in the package or the benchmark.

A name exported from `gridchroma/__init__.py` must be used (read as a name
or an attribute) in some other module of `src/gridchroma` or in
`benchmark/*.py`.  A definition, an import or a docstring does not count:
a name whose only users are the tests belongs with the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridchroma"

# kept for the transfer certificate that will call it (ROADMAP item 2)
AWAITING_A_CALLER = {"orientation_sequence"}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def used_names(path: Path) -> set[str]:
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_exported_names_have_a_caller():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "benchmark").glob("*.py"))
    used = set().union(*map(used_names, sources))
    unused = exported_names() - used - AWAITING_A_CALLER
    assert not unused, f"exported but used only by tests: {sorted(unused)}"


def test_the_exception_is_still_exported():
    assert AWAITING_A_CALLER <= exported_names()
