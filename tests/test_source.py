"""Rules on the package source itself."""

import ast
from pathlib import Path

import primeul


def test_no_assert_in_package():
    # Invariants are enforced by explicit exceptions: ``python -O`` strips
    # every assert statement.
    offenders = []
    for path in sorted(Path(primeul.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []
