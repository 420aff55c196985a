"""The README library tour runs as written.

Each line of the first ```python block is executed in turn.  A line whose
trailing comment is exactly ``# True`` or ``# False`` is an expression and
must evaluate to that value, so a stale name or attribute in the tour
fails here.
"""

import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
EXPECTED = {"# True": True, "# False": False}


def _tour_lines():
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)].splitlines()


def _split_comment(line):
    """The code of a one-line statement and its trailing comment, if any."""
    for tok in tokenize.generate_tokens(io.StringIO(line).readline):
        if tok.type == tokenize.COMMENT:
            return line[: tok.start[1]], tok.string.strip()
    return line, None


def test_readme_tour_claims_hold():
    namespace = {}
    claims = 0
    for number, line in enumerate(_tour_lines(), start=1):
        code, comment = _split_comment(line)
        if comment in EXPECTED:
            value = eval(code, namespace)
            assert value is EXPECTED[comment], f"tour line {number}: {line.strip()}"
            claims += 1
        else:
            exec(code, namespace)
    assert claims > 0, "the tour makes no checked claim"
