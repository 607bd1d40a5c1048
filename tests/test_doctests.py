import doctest
import shlex
from pathlib import Path

import rankcalc.diagrams
import rankcalc.grassmann
import rankcalc.partitions
import rankcalc.perms
import rankcalc.rankset
import rankcalc.symfunc
from rankcalc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = [
    rankcalc.partitions,
    rankcalc.symfunc,
    rankcalc.perms,
    rankcalc.rankset,
    rankcalc.grassmann,
    rankcalc.diagrams,
]

# README command lines whose trailing comment is the exact output
OUTPUT_COMMENTS = {
    "stanley 31524",
    'affine-stanley "5,2,7,4;n=4"',
    "schubert degree 2,2 --gr 4,8",
}


def test_module_doctests():
    for module in MODULES:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__


def test_readme_quick_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0


def _command_lines():
    """(command, comment) for each line of the README "Command line" block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```\n", 2)[1]
    for line in block.splitlines():
        command, _, comment = line.partition(" # ")
        assert command.startswith("rankcalc "), line
        yield command.strip().removeprefix("rankcalc "), comment.strip()


def test_readme_command_line_block(capsys):
    checked = set()
    for command, comment in _command_lines():
        code = main(shlex.split(command))
        out = capsys.readouterr().out
        assert code == 0, command
        if command in OUTPUT_COMMENTS:
            assert out == comment + "\n", command
            checked.add(command)
    assert checked == OUTPUT_COMMENTS
