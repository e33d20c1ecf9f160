"""The README's Python quick start and CLI pipeline run as written."""

import re
import shlex
from pathlib import Path

import pytest

from ddispatch.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_quick_start(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    # the 400-step rollout ends at the steady mean power it prints beside
    assert scope["y"][-1] == pytest.approx(scope["family"].ubar_at(0.5), rel=0.02)
    assert capsys.readouterr().out.strip()


def test_cli_pipeline(tmp_path, monkeypatch):
    text = README.read_text()
    pipeline = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S)
                    if "ddispatch model" in b)
    scenario = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
    (tmp_path / "scenario.json").write_text(re.sub(r"//[^\n]*", "", scenario))
    monkeypatch.chdir(tmp_path)
    lines = [line for line in pipeline.replace("\\\n", " ").splitlines()
             if line.startswith("ddispatch ")]
    assert len(lines) == 6
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
