"""The command line's help text and argument errors, byte for byte.

``golden/cli_parser.json`` holds what ``cli.main`` printed and returned for
each argv below at two terminal widths, recorded when the parser added every
subcommand's arguments up front. The parser may be built in any way that
prints the same text.
"""

import argparse
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from llm_energy import cli

GOLDEN = Path(__file__).parent / "golden" / "cli_parser.json"

_SUBCOMMANDS = ("estimate", "sweep", "pareto", "validate", "fixtures")
_ARGVS = [
    ["--help"],
    *([name, "--help"] for name in _SUBCOMMANDS),
    [],                                                # no subcommand
    ["bogus"],                                         # unknown subcommand
    ["estimate", "--spec", "fixture:dense_fused.json"],  # missing required flags
    ["sweep", "--spec", "s", "--dims", "d", "--hw", "h", "--comm-cal", "c"],
    ["estimate", "--phase", "middle"],                 # bad --phase choice
    ["estimate", "--batch", "x"],                      # non-integer --batch
    ["fixtures"],                                      # missing positional
    ["--version"],
]
_WIDTHS = (80, 200)


def _key(columns, argv):
    return f"{columns} {json.dumps(argv)}"


def capture(argv, columns, monkeypatch, capsys):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` at ``columns``."""
    monkeypatch.setenv("COLUMNS", str(columns))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    return {"exit": exit_info.value.code, "stdout": out, "stderr": err}


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text())
    if tuple(recorded["python"]) != sys.version_info[:2]:
        pytest.skip(f"text recorded with argparse of Python {recorded['python']}")
    return recorded["cases"]


@pytest.mark.parametrize("columns", _WIDTHS)
@pytest.mark.parametrize("argv", _ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_help_and_errors_match_recorded_text(argv, columns, golden, monkeypatch,
                                             capsys):
    assert capture(argv, columns, monkeypatch, capsys) == golden[_key(columns, argv)]


def test_estimate_adds_no_argument_to_other_subcommands(tmp_path, capsys):
    # Every parser adds its own -h/--help when it is built; only the
    # subcommand's own arguments are counted.
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(parser, *args, **kwargs):
        if kwargs.get("action") != "help":
            added.append(parser.prog)
        return add_argument(parser, *args, **kwargs)

    argv = ["estimate", "--spec", "fixture:dense_fused.json",
            "--dims", "fixture:llama3_8b.json", "--hw", "fixture:a100_sxm_80g.json",
            "--comm-cal", "fixture:comm_synthetic.csv", "--out", str(tmp_path)]
    with mock.patch.object(argparse.ArgumentParser, "add_argument", counting):
        assert cli.main(argv) == cli.EXIT_OK
    assert "llm-energy estimate" in added
    assert not {f"llm-energy {name}" for name in _SUBCOMMANDS[1:]} & set(added)
