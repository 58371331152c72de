"""The command line's help text and argument errors, byte for byte.

``golden/cli_parser.json`` holds what ``cli.main`` printed and returned for
each argv below at two terminal widths, recorded when the parser added every
subcommand's arguments up front. The parser may be built in any way that
prints the same text.
"""

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # Added later, recorded from the parser of the commit before the
    # subcommand's parser first parsed alone:
    ["estimate", "--spec", "s", "--dims", "d", "--hw", "h", "--comm-cal", "c",
     "--bogus"],                                       # leftover argument
    ["estimate", "--bat", "4"],                        # abbreviated option
    ["estimate", "--bat", "x"],                        # abbreviated, bad value
    ["estimate", "--t", "2"],                          # ambiguous abbreviation
    ["estimate", "--=x"],                              # ambiguous to the top level
    ["estimate", "--version"],                         # missing required flags
    ["estimate", "--spec", "s", "--dims", "d", "--hw", "h", "--comm-cal", "c",
     "--version"],                                     # a top-level option, leftover
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


@pytest.fixture
def empty_parsers(monkeypatch):
    """The CLI's memo of subcommand parsers, empty for this test alone."""
    parsers = {}
    monkeypatch.setattr(cli, "_parsers", parsers)
    return parsers


def _estimate_argv(out):
    return ["estimate", "--spec", "fixture:dense_fused.json",
            "--dims", "fixture:llama3_8b.json", "--hw", "fixture:a100_sxm_80g.json",
            "--comm-cal", "fixture:comm_synthetic.csv", "--out", str(out)]


def test_help_and_errors_after_a_warm_estimate(tmp_path, golden, monkeypatch, capsys):
    # A kept parser prints what a new one prints.
    for columns in _WIDTHS:
        monkeypatch.setenv("COLUMNS", str(columns))
        assert cli.main(_estimate_argv(tmp_path)) == cli.EXIT_OK
        for argv in _ARGVS:
            assert capture(argv, columns, monkeypatch, capsys) == golden[_key(columns, argv)]


def test_a_subcommand_parser_is_built_once_per_subcommand(monkeypatch, empty_parsers):
    # Kept by subcommand, whatever the terminal's width.
    parsed, kept = [], []
    for columns in (80, 80, 81, 200, 40):
        monkeypatch.setenv("COLUMNS", str(columns))
        parsed.append(vars(cli._parse_subcommand(["fixtures", "list"])))
        kept.append(empty_parsers["fixtures"])
    assert all(namespace == parsed[0] for namespace in parsed)
    assert all(parser is kept[0] for parser in kept)
    assert cli._parse_subcommand(["validate"]) is not None
    assert list(empty_parsers) == ["fixtures", "validate"]


@pytest.mark.parametrize("built, printed", [(80, 200), (200, 80)])
def test_help_and_errors_wrap_at_the_width_when_printed(built, printed, golden,
                                                        monkeypatch, capsys,
                                                        empty_parsers):
    # Parsers built at one terminal width print help and errors at the
    # width the terminal has when they print.
    for name in _SUBCOMMANDS:
        capture([name, "--help"], built, monkeypatch, capsys)
    assert set(empty_parsers) == set(_SUBCOMMANDS)
    for argv in _ARGVS:
        assert (capture(argv, printed, monkeypatch, capsys)
                == golden[_key(printed, argv)])


def test_a_warm_estimate_never_asks_the_terminal_width(tmp_path, monkeypatch):
    argv = _estimate_argv(tmp_path)
    assert cli.main(argv) == cli.EXIT_OK
    asked = []
    get_terminal_size = shutil.get_terminal_size

    def counting(*args, **kwargs):
        asked.append(args)
        return get_terminal_size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    assert cli.main(argv) == cli.EXIT_OK
    assert asked == []


def test_estimate_adds_no_argument_to_other_subcommands(tmp_path, capsys, empty_parsers):
    # Every parser adds its own -h/--help when it is built; only the
    # subcommand's own arguments are counted.
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(parser, *args, **kwargs):
        if kwargs.get("action") != "help":
            added.append(parser.prog)
        return add_argument(parser, *args, **kwargs)

    argv = _estimate_argv(tmp_path)
    with mock.patch.object(argparse.ArgumentParser, "add_argument", counting):
        assert cli.main(argv) == cli.EXIT_OK
    assert "llm-energy estimate" in added
    assert not {f"llm-energy {name}" for name in _SUBCOMMANDS[1:]} & set(added)
    assert "llm-energy" not in added  # nor the top-level parser's --version


def _outcome(parse, argv):
    """(namespace or exit code, stdout, stderr) of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_WORDS = ["--spec", "s", "--sp", "--dims", "d", "--hw", "h", "--comm-cal", "--comm",
          "c", "--tp", "2", "--t", "--bat", "--batch=3", "x", "-1", "--phase",
          "decode", "middle", "--format", "json,csv", "--grid", "g", "--points",
          "--", "--bogus", "--=x", "--version", "--ver", "-h", "--help", "list",
          "estimate", "sweep"]


@settings(max_examples=300, deadline=None)
@given(argv=st.tuples(st.sampled_from(_SUBCOMMANDS),
                      st.lists(st.sampled_from(_WORDS), max_size=12)).map(
           lambda parts: [parts[0], *parts[1]]))
def test_a_subcommand_parses_alone_as_the_full_parser_parses_it(argv):
    # Valid argvs, abbreviations, leftovers, top-level options, "--" and
    # bad values, with help text at the terminal's width: the same
    # namespace, or the same exit code and text.
    def alone_first(argv):
        return cli._parse_subcommand(argv) or cli.build_parser().parse_args(argv)

    assert (_outcome(alone_first, argv)
            == _outcome(lambda argv: cli.build_parser().parse_args(argv), argv))
