"""The README's "Library overview" example runs and prints what it shows."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_overview_example_prints_its_three_lines():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library overview\n\n```python\n(.*?)```", text, re.S)
    assert block is not None
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(block.group(1), str(README), "exec"), {})
    assert out.getvalue().splitlines() == [
        "[0, 1/2] 6 + 0*lam 3 [0, 1, 3] 2",
        "[1/2, 2] 5 + 2*lam 0 [0, 1, 3] 2",
        "(Fraction(7, 1), 0)",
    ]
