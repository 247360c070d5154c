"""The README's library snippet runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _snippet(heading):
    text = README.read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, f"expected one python block under {heading!r}"
    return blocks[0]


def test_library_in_one_minute_runs(capsys):
    exec(compile(_snippet("Library in one minute"), str(README), "exec"), {})
    spin, calls = capsys.readouterr().out.split()
    assert spin in ("1", "2")
    assert int(calls) >= 25  # one call at least per vertex of the 5x5 box
