"""The package signals broken invariants with exceptions, never `assert`,
so the exit-code contract holds under `python -O` as well."""

import ast
from pathlib import Path

import domw

PACKAGE = Path(domw.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        )
    assert found == []
