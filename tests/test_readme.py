"""The README's Python quick start runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_quick_start(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    # the 400-step rollout ends at the steady mean power it prints beside
    assert scope["y"][-1] == pytest.approx(scope["family"].ubar_at(0.5), rel=0.02)
    assert capsys.readouterr().out.strip()
