"""README's Library snippet runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_snippet():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_prints_its_comments():
    snippet = _library_snippet()
    want = [line.split("#", 1)[1].strip() for line in snippet.splitlines()
            if line.startswith("print(")]
    assert want and all(want)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
