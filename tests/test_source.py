"""Rules on the package source itself."""

import ast
from pathlib import Path

import primeul
from test_cli import python


def test_no_assert_in_package():
    # Invariants are enforced by explicit exceptions: ``python -O`` strips
    # every assert statement.
    offenders = []
    for path in sorted(Path(primeul.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_import_leaves_out_dataclasses():
    # ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
    # ``tokenize``: about 12 ms of every process's start.  Module names,
    # not times, so the check is exact.
    done = python("-c", "import sys; bare = set(sys.modules)\n"
                        "import primeul, primeul.coxstats, primeul.cli\n"
                        "print(*sorted(set(sys.modules) - bare))")
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "primeul.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis"}), sorted(added)
