"""Golden CLI transcript: the fast README commands, the recursive route on
the lattice families, the halfspace and descents routes on A 5, B 4 and D 4,
the Eulerian polynomial of B 4, ``inspect`` on D 5 and F4, the four fast
``verify`` suites and one refusal of each kind (exit 3 from a route, exit 3
from the size check, exit 2 from a bad range), run through ``cli.main`` and
compared byte for byte with ``data/cli_transcript.txt`` (``runtime_ms``
masked).

Re-record after an intended output change with
``PYTHONPATH=src python tests/test_cli_transcript.py > tests/data/cli_transcript.txt``.
"""

import contextlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

from primeul.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_transcript.txt"

FOURCYCLE = "4\n1 -1 0 0\n0 1 -1 0\n0 0 1 -1\n1 0 0 -1\n"

COMMANDS = (
    ("poly", "--family", "B 3", "--which", "peul"),
    ("poly", "--family", "I2 5", "--which", "peul"),
    ("poly", "--file", "fourcycle.arr", "--which", "char"),
    ("poly", "--family", "B 3", "--method", "descents", "--json"),
    ("verify", "paths", "--max-rank", "4"),
    ("table", "B", "0..5"),
    ("table", "D", "2..7"),
    ("inspect", "--family", "B 3"),
    ("inspect", "--family", "A 4", "--v=-1,-1,-1,3"),
) + tuple(("poly", "--family", family, "--method", "recursive", "--json")
          for family in ("A 6", "B 5", "D 5", "Dnk 5 3", "Gn 8")) + tuple(
    ("poly", "--family", family, "--method", method, "--json")
    for method in ("halfspace", "descents") for family in ("A 5", "B 4", "D 4")) + (
    ("poly", "--which", "eulerian", "--family", "B 4"),
    ("inspect", "--family", "D 5"),
    ("inspect", "--family", "F4"),
    ("verify", "recursions", "--nmax", "4"),
    ("verify", "statistics", "--nmax", "4"),
    ("verify", "egf", "--order", "4"),
    ("verify", "roots", "--dn-max", "6"),
    ("poly", "--family", "A 3", "--which", "char", "--method", "descents"),
    ("poly", "--family", "B 1200"),
    ("table", "B", "0..9"),
)


def transcript() -> str:
    """Run every command in a temporary directory holding ``fourcycle.arr``."""
    out = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "fourcycle.arr").write_text(FOURCYCLE)
        os.chdir(tmp)
        try:
            for argv in COMMANDS:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(list(argv))
                out.append(f"$ primeul {shlex.join(argv)}\n")
                out.append(f"exit {code}\n")
                out.append(re.sub(r'"runtime_ms": \d+', '"runtime_ms": "*"',
                                  stdout.getvalue()))
                out.append("".join(f"stderr: {line}\n"
                                   for line in stderr.getvalue().splitlines()))
        finally:
            os.chdir(cwd)
    return "".join(out)


def test_cli_transcript_is_golden():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(transcript())
