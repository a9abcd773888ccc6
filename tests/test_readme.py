"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_prints_what_its_comments_say(capsys):
    code = library_block()
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    # Each print line's comment ends with the text that line prints.
    comments = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) > 0
    for out, comment in zip(printed, comments):
        assert comment.endswith(out), (out, comment)
