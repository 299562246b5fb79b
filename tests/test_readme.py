"""README's "Library" code block runs as written."""

import contextlib
import io
import pathlib
import re

from localagg.recon import PERFECT_DB

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), str(README), "exec"), {"__name__": "__readme__"})
    l1, ls = out.getvalue().splitlines()
    # the l1 error and its "perfect" flag, then the least-squares error
    l1_db, perfect = l1.split()
    assert perfect == str(float(l1_db) < PERFECT_DB)
    assert float(ls) < PERFECT_DB
