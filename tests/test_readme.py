"""The README's documented Python API runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_api_block_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the block opens its files by repo-relative path
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["session"].alive_roots == (2,)
    assert capsys.readouterr().out.splitlines()[-1] == "(2,)"
