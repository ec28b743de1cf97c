"""The README's quick tour runs and prints what its comments say."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    """The first python code block after "Quick tour:" in the README."""
    text = README.read_text()
    after = text[text.index("Quick tour:"):]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_prints_what_its_comments_say(capsys):
    # each print line's comment starts with the printed text, up to ": "
    code = quick_tour()
    expected = [line.split("# ", 1)[1].split(": ", 1)[0]
                for line in code.splitlines() if line.startswith("print(")]
    assert expected
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
