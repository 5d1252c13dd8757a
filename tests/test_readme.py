"""README's library quick start and CLI examples run against the current API."""

import re
import shlex
from pathlib import Path

from choosiow.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str) -> str:
    """The body of the fenced block that opens the README section `heading`."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"^{re.escape(heading)}\n\n```\n(.*?)^```", text, re.M | re.S).group(1)


def test_quick_start_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    # Every CLI line runs on README's market file; estimate-gains reads the solve report.
    (tmp_path / "market.txt").write_text(readme_block("### Market file format"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = readme_block("## CLI").splitlines()
    assert len(lines) == 7
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "choosiow"
        assert main(argv) == EXIT_OK, line
    assert (tmp_path / "report.json").exists()
    capsys.readouterr()
