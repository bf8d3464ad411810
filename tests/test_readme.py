"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    err = float(capsys.readouterr().out)
    assert 0.0 <= err < 1.0
