"""The command examples of README's "Command line" section, run as written.

Each `$ latdefect ...` line is run through click's test runner in a
directory holding e7.json, i3.json and a1.json, written from the package's
own lattices, and its output is compared with the lines that follow it in
README, line by line. An expected line ending in `...` or holding `[[...]]`
matches as a prefix: the text before the first `...`.
"""

import shlex
from pathlib import Path

from click.testing import CliRunner

from latdefect import a1_lattice, e7_lattice, gram_to_json, identity_lattice
from latdefect.cli import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[tuple[str, list[str]]]:
    """(command, expected output lines) of every `$ latdefect` line in the
    Command line section; the output runs to the next blank line, `$` line
    or code fence."""
    text = README.read_text()
    section = text[text.index("\n## Command line\n"):]
    section = section[: section.index("\n## ", 1)]
    examples = []
    expected = None
    for line in section.splitlines():
        if line.startswith("$ latdefect "):
            expected = []
            examples.append((line[2:], expected))
        elif expected is not None and line and not line.startswith(("$", "```")):
            expected.append(line)
        else:
            expected = None
    return examples


def matches(line: str, pattern: str) -> bool:
    if "..." in pattern:
        return line.startswith(pattern[: pattern.index("...")])
    return line == pattern


def test_readme_command_examples_print_what_readme_shows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, lat in (("e7", e7_lattice()), ("i3", identity_lattice(3)), ("a1", a1_lattice())):
        (tmp_path / f"{name}.json").write_text(gram_to_json(lat.gram))
    examples = readme_commands()
    assert len(examples) == 9
    runner = CliRunner()
    for command, expected in examples:
        args = shlex.split(command, comments=True)[1:]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, (command, result.output)
        lines = result.output.splitlines()
        assert len(lines) == len(expected), (command, lines)
        for line, pattern in zip(lines, expected):
            assert matches(line, pattern), (command, line, pattern)
