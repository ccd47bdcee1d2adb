"""Text inputs fuzzed through ``cli.main``: every ``--v`` string and every
``--file`` text ends in exit 0, 2 or 3 with a message, never a traceback.

Derandomized and kept to files of at most five short lines, so the default
profile stays at about two seconds.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeul.cli import main

TOKENS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/2", "-2/3", "1/0", "0/0", "1e10000000", "2E3", "1.5",
                     ".5", "1_0", "", " ", "x", "--", "nan", "inf"]),
    st.text(alphabet="0123456789-+/.eE_ x", max_size=6),
)

VECTORS = st.one_of(
    st.lists(TOKENS, max_size=4).map(",".join),
    st.text(max_size=12),
)

FILES = st.one_of(
    st.lists(st.lists(TOKENS, max_size=4).map(" ".join), max_size=5).map("\n".join),
    st.text(max_size=24),
)

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)


def run(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


def assert_clean(code, err):
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code:
        assert err.startswith(("error: ", "usage: ")), err


@FUZZ
@given(VECTORS)
@example("1/0")
@example("1e10000000")
@example("")
def test_vector_text(text):
    assert_clean(*run("poly", "--family", "B 2", "--method", "halfspace",
                      f"--v={text}"))
    assert_clean(*run("inspect", "--family", "B 2", f"--v={text}"))


@FUZZ
@given(FILES)
@example("2\n1/0 1")
@example("2\n1e10000000 1")
@example("\n")
@example("-1")
@example("20000\n")
@example(" 4_1747")
def test_file_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.arr"
        path.write_text(text)
        assert_clean(*run("poly", "--file", str(path), "--which", "char"))
        assert_clean(*run("inspect", "--file", str(path)))
