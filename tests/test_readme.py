import doctest
import shlex
from pathlib import Path

from partcat.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# Comments in the command-line block that say what a line does, not what it prints.
_PROSE = {"colored closure of the base partitions", "spatial closure on two levels"}


def test_quick_tour_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_command_lines_print_their_comments(capsys):
    # Each `partcat ...` line of the command-line block, run through the CLI,
    # prints what its `# ` comment says.
    checked = 0
    for line in README.read_text().splitlines():
        if not line.startswith("partcat "):
            continue
        command, _, comment = line.partition(" # ")
        if comment.strip() in _PROSE:
            continue
        argv = shlex.split(command)[1:]
        assert main(argv) == 0, line
        assert capsys.readouterr().out == comment.strip() + "\n", line
        checked += 1
    assert checked == 9
