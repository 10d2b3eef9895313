"""README's examples, run: each command prints what README shows, and the library example its comments."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from parkseq.cli import run

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading):
    """The lines of the first fenced block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].splitlines()[1:]  # past the fence's language tag


def _command_examples():
    """Each ``$ parkseq ...`` line: its argv, its exit code and the lines shown under it.

    The exit code is the line's ``# exit N`` comment, else 0.  The shown
    lines run to the next blank line, comment or command, and stop at ``...``.
    """
    examples, shown = [], None
    for line in _block("Command line"):
        if line.startswith("$ parkseq "):
            command, _, comment = line[len("$ parkseq "):].partition("#")
            code = re.fullmatch(r"\s*exit (\d+)\s*", comment) if comment else None
            shown = []
            examples.append((command.split(), int(code[1]) if code else 0, shown))
        elif not line.strip() or line.startswith(("#", "...")):
            shown = None
        elif shown is not None:
            shown.append(line)
    return examples


EXAMPLES = _command_examples()


def test_readme_shows_the_four_command_examples():
    assert [argv[0] for argv, _, _ in EXAMPLES] == ["simulate", "check", "enumerate", "count"]


@pytest.mark.parametrize("argv, code, shown", EXAMPLES, ids=[argv[0] for argv, _, _ in EXAMPLES])
def test_command_example_prints_what_readme_shows(capsys, argv, code, shown):
    assert run(argv) == code
    assert capsys.readouterr().out.splitlines()[: len(shown)] == shown


def test_library_example_prints_its_comments():
    lines = _block("Library example")
    shown = [line.partition("#")[2].strip() for line in lines if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(lines), {})
    assert shown
    assert out.getvalue().splitlines() == shown
