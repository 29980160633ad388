"""Static checks on the package's source, read with ``ast``."""

import ast
import sys
from pathlib import Path

import khfront

PACKAGE = Path(khfront.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
#: the oracle side, and the tree side that it must not import from
ORACLE_SIDE = {"oracle", "snf", "laurent"}
TREE_SIDE = {"tait", "trees", "bounds"}


def tree_of(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imports(path: Path) -> list[tuple[str, str]]:
    """Each module that the file imports, as (top-level name, package
    module or ""): ("khfront", "front") for ``from .front import x`` or
    ``import khfront.front``, ("re", "") for ``import re``."""
    found = []
    for node in ast.walk(tree_of(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            # from . import x names modules of the package; from .x import
            # y names module x
            parts = [node.module] if node.module else [a.name for a in node.names]
            names = [f"khfront.{part}" for part in parts]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            found.append((top, rest.partition(".")[0]))
    return found


def test_the_package_holds_no_assert():
    # python -O strips asserts, so every check must raise on its own
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(tree_of(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_imports_are_the_standard_library_or_the_package():
    foreign = [
        f"{path.name}: {top}"
        for path in SOURCES
        for top, _ in imports(path)
        if top != "khfront" and top not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_the_oracle_side_imports_nothing_of_the_tree_side():
    # the oracle checks the census only while the two share no code
    crossed = [
        f"{path.stem} imports {module}"
        for path in SOURCES
        if path.stem in ORACLE_SIDE
        for top, module in imports(path)
        if top == "khfront" and module in TREE_SIDE
    ]
    assert crossed == []


def test_the_checks_see_every_module_and_its_imports():
    # a walk that found no module or no import would pass vacuously
    assert {path.stem for path in SOURCES} >= ORACLE_SIDE | TREE_SIDE
    assert ("khfront", "snf") in imports(PACKAGE / "oracle.py")
    assert ("khfront", "front") in imports(PACKAGE / "trees.py")
