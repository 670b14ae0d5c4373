"""The README's calculator examples replay through one session with the values shown."""

from __future__ import annotations

import re
from pathlib import Path

from numerosity import labtree
from numerosity.cli import Session, run_line

README = Path(__file__).resolve().parent.parent / "README.md"


def command_examples() -> list[tuple[str, str]]:
    """(command, description) per line of the "Commands:" block.

    A command is separated from its description by at least two spaces.
    """
    text = README.read_text(encoding="utf-8")
    block = text.split("Commands:\n\n```\n", 1)[1].split("```", 1)[0]
    return [tuple(re.split(r"\s{2,}", line.strip(), maxsplit=1)) for line in block.splitlines()]


def test_readme_commands(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "instance.txt").write_text(labtree.format_instance(labtree.standard_instance()))
    examples = command_examples()
    assert len(examples) > 10
    session = Session()
    for command, description in examples:
        record, err = run_line(command, session)
        assert err is None, (command, record["value"])
        if "-> " in description:
            assert record["value"] == description.rsplit("-> ", 1)[1], command
