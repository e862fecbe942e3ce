"""The package stands on its own: no module under ``src/permitsim`` imports
from the test suite or the benchmark, whose oracles and checks are meant
to stay independent of the code they check."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "permitsim"
OUTSIDE = {"tests", "conftest", "perfbench"}


def imported_modules(path: Path) -> set[str]:
    """The top-level names of every module the file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_the_package_imports_neither_tests_nor_perfbench(path):
    assert imported_modules(path) & OUTSIDE == set()
