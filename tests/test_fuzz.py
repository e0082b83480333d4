"""Mutated inputs through ``cli.main``: every run ends in a result, a cap
error or one ``error:`` line, never in a traceback or a hang."""

import contextlib
import io
import re
import signal
import sys

from hypothesis import example, given, settings, strategies as st

from lefhom.cli import main
from tests.conftest import DATA_DIR

HUGE_INT = "9" * 5000  # past int()'s default limit of 4300 digits
LONG_INT = "9" * 3000  # parses, but a product of two is past that limit
HUGE_PRIME = "2305843009213693951"  # 2**61 - 1: trial division would not end
LIMIT_S = 3.0

CORPUS = [(path.read_text(encoding="utf-8"), "lef") for path in sorted(DATA_DIR.glob("*.lef"))]
CORPUS += [
    ("[0,1]x[0,1]\n", "cubical"),
    ("[0,1]x[0]\n[1,2]x[0]\n[1]x[0,1]\n", "cubical"),
    ("ring Z\ncell a 0\ncell b 0\ncell e 1\ncell f 1\ncell s 2\n"
     "kappa e a -1\nkappa e b 1\nkappa f a -1\nkappa f b 1\nkappa s e 1\nkappa s f -1\n", "lef"),
    ("a b c\nc d\n", "simplicial"),
    ("a b\nb c\nc a  # a circle\n", "simplicial"),
]
INSERTS = [HUGE_INT, LONG_INT, "99999999999999999999", "1001", "-1", "-7", "é", "ß_1",
           "٣", "²", HUGE_PRIME, "Zp", "[0,1]", "[0]"]
RINGS = [None, "Z", "Q", "F2", "F3", "F4", "F" + HUGE_PRIME, "F" + HUGE_INT, "F²"]
COMMANDS = ["validate", "homology", "singular", "check", "export-dot"]
# tokens and the separators after them: a cube's factors are tokens too
_SPLIT = re.compile(r"(\s+|x)")


def _mutate(text: str, edits) -> str:
    """Delete, duplicate, replace or insert tokens; at most four edits, so a
    cube gains at most four factors and an input stays small."""
    parts = _SPLIT.split(text)  # token, separator, token, ...
    for kind, where, token in edits:
        i = 2 * (where % ((len(parts) + 1) // 2))
        sep = parts[i + 1] if i + 1 < len(parts) else " "
        if kind == "delete":
            parts[i:i + 2] = []
        elif kind == "duplicate":
            parts[i:i + 1] = [parts[i], sep, parts[i]]
        elif kind == "replace":
            parts[i] = token
        else:
            parts[i:i] = [token, sep]
        if not parts:
            parts = [""]
    return "".join(parts)


_EDITS = st.lists(st.tuples(st.sampled_from(["delete", "duplicate", "replace", "insert"]),
                            st.integers(0, 1000), st.sampled_from(INSERTS)), max_size=4)


@st.composite
def _cases(draw):
    text, fmt = draw(st.sampled_from(CORPUS))
    command = draw(st.sampled_from(COMMANDS))
    ring = None if command == "export-dot" else draw(st.sampled_from(RINGS))
    return command, fmt, ring, _mutate(text, draw(_EDITS))


class _Hang(BaseException):
    """Raised by the alarm; no handler in the CLI catches it."""


def _alarm(signum, frame):
    raise _Hang


def _run(command, fmt, ring, text):
    argv = [command, "-", "--format", fmt] + ([] if ring is None else ["--ring", ring])
    out, err = io.StringIO(), io.StringIO()
    stdin, previous = sys.stdin, signal.signal(signal.SIGALRM, _alarm)
    sys.stdin = io.StringIO(text)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except _Hang:
        raise AssertionError(f"no result within {LIMIT_S} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_cases())
@example(("homology", "lef", "F" + HUGE_PRIME, (DATA_DIR / "star4.lef").read_text()))
@example(("homology", "lef", None, f"ring Zp {HUGE_PRIME}\ncell a 0\n"))
@example(("homology", "lef", "F" + HUGE_INT, (DATA_DIR / "star4.lef").read_text()))
@example(("validate", "cubical", None, f"[{HUGE_INT},0]\n"))
@example(("validate", "cubical", None, "x".join(["[0,1]"] * 12) + "\n"))
@example(("validate", "lef", None, f"ring Z\ncell a 0\ncell b 0\ncell e 1\ncell f 2\n"
                                    f"kappa e a {LONG_INT}\nkappa e b 1\nkappa f e {LONG_INT}\n"))
def test_mutated_input_ends_in_a_result_or_one_error_line(case):
    code, out, err = _run(*case)
    assert code in (0, 1, 2)
    errors = [line for line in (out + err).splitlines() if line.startswith("error:")]
    assert len(errors) <= 1
    if code == 2:
        assert len(errors) == 1 and err.splitlines()[-1] == errors[0]
