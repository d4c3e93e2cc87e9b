"""The README's library example runs as written and prints what its
comments say."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:3] == ["(Fraction(1, 3), Fraction(1, 2))", "8", "Verdict.NOT_MEMBER"]
    assert len(lines) == 4
