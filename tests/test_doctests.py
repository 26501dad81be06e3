import contextlib
import doctest
import io
import re
from pathlib import Path

import fgkit.abelian
import fgkit.words

README = Path(__file__).resolve().parents[1] / "README.md"


def test_words_doctests():
    result = doctest.testmod(fgkit.words)
    assert result.failed == 0
    assert result.attempted > 0


def test_abelian_doctests():
    result = doctest.testmod(fgkit.abelian)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_library_quick_start():
    # every print of the block has its output as a comment beside it
    block = re.search(
        r"## Quick start \(library\)\n\n```python\n(.*?)```", README.read_text(), re.S
    ).group(1)
    expected = [
        line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")
    ]
    assert len(expected) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected
