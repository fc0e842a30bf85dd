"""The one-command parser route of cli.main against the full parser.

main parses a call that starts with a command name with that command's
parser alone; every other call, and every usage error found after parsing,
goes through build_parser.  Each argv list below is run both ways in this
interpreter, and exit code, stdout and stderr must agree.  argparse's own
text differs between Python versions, so none of it is pinned here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cellspec import cli

ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["no-such-command"],
    ["--json", "cells", "H3"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["cells", "--help"],
    ["cells"],
    ["enumerate-b"],
    ["oracle-under4", "--rows", "2"],
    ["cells", "A2", "--max-length", "x"],
    ["cells", "A2", "--max-length", "-1"],
    ["cells", "H3", "extra", "more"],
    ["special", "--type", "H3", "--json", "extra"],
    ["apex", "--ma", "[[1]]"],
    ["apex", "--mat", "[[1]]"],
    ["cells", "B3", "--max", "2", "--json"],
    ["oracle-under4", "--rows", "2", "--cols", "2", "--max-e", "1"],
    ["special", "--type"],
    ["cells", "--", "H3"],
    ["fibpoly"],
    ["fibpoly", "--i", "1", "--upto", "2"],
    ["fibpoly", "--upto", "-1"],
    ["oracle-under4", "--rows", "8", "--cols", "7"],
    ["oracle-under4", "--rows", "5", "--cols", "5", "--no-prefilter"],
    ["enumerate-b", "--n", "2"],
    ["enumerate-b", "--n", "5", "--json"],
    ["cells", "Q9"],
    ["matspec", "--matrix", "[[1, 1], [1, 0]]"],
]


def outcome(capsys, call, argv):
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_parser_route(argv):
    return cli._run(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_same_outcome_as_the_full_parser(capsys, argv):
    assert outcome(capsys, cli.main, argv) == outcome(capsys, full_parser_route, argv)


def test_command_calls_do_not_build_the_full_parser(capsys, monkeypatch):
    def refused():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", refused)
    assert cli.main(["cells", "A2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["size"] == 4


def test_command_parser_is_built_once():
    assert cli._command_parser("cells") is cli._command_parser("cells")


def test_module_entry_point_reads_sys_argv(capsys):
    source = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(source)}
    argv = ["special", "--type", "H3", "--json"]
    run = subprocess.run(
        [sys.executable, "-m", "cellspec.cli", *argv],
        env=env, capture_output=True, text=True,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == outcome(capsys, cli.main, argv)[1]
