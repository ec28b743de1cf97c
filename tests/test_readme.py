"""The README's quick tour and CLI block run and print what their comments
say."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from lcsq.cli import main
from test_cli import EX_SYS, K33_G, K34_G

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    """The first python code block after "Quick tour:" in the README."""
    text = README.read_text()
    after = text[text.index("Quick tour:"):]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def cli_block() -> list[tuple[list[str], str, int]]:
    """(argv, first stdout line, exit code) of each command in the sh code
    block after "## CLI", read from its trailing comment, continuations
    joined."""
    text = README.read_text()
    after = text[text.index("## CLI"):]
    block = after.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    out = []
    for line in block.splitlines():
        if line.startswith("lcsq "):
            command, comment = line.split(" # ", 1)
            first, code = re.fullmatch(r"(.*?)(?: \(exit (\d+)\))?", comment.strip()).groups()
            out.append((shlex.split(command)[1:], first, int(code or 0)))
    return out


def test_quick_tour_prints_what_its_comments_say(capsys):
    # each print line's comment starts with the printed text, up to ": "
    code = quick_tour()
    expected = [line.split("# ", 1)[1].split(": ", 1)[0]
                for line in code.splitlines() if line.startswith("print(")]
    assert expected
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_cli_block_prints_what_its_comments_say(tmp_path, monkeypatch, capsys):
    (tmp_path / "ex.sys").write_text(EX_SYS)
    (tmp_path / "k33.g").write_text(K33_G)
    (tmp_path / "k34.g").write_text(K34_G)
    monkeypatch.chdir(tmp_path)
    commands = cli_block()
    assert len(commands) == 13
    for argv, first, code in commands:
        assert (main(argv), capsys.readouterr().out.splitlines()[0]) == (code, first), argv
