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


def _sweep_argv(out):
    grid = out / "grid.json"
    grid.write_text(json.dumps({"tp": [1, 2]}))
    return ["sweep", *_estimate_argv(out)[1:], "--grid", str(grid)]


@pytest.fixture
def parses(monkeypatch):
    """The prog of each parser whose ``parse_known_args`` is called, which
    still parses."""
    progs = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(parser, *args, **kwargs):
        progs.append(parser.prog)
        return parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    return progs


def test_a_warm_canonical_argv_never_reaches_argparse(tmp_path, parses):
    # Option and value pairs, each option in full: the namespace is read
    # off the kept parser's actions.
    for argv in (_estimate_argv(tmp_path), _sweep_argv(tmp_path)):
        assert cli.main(argv) == cli.EXIT_OK
        parses.clear()
        assert cli.main(argv) == cli.EXIT_OK
        assert parses == []


@pytest.mark.parametrize("columns", _WIDTHS)
def test_every_other_form_reaches_argparse(tmp_path, columns, golden, monkeypatch,
                                           capsys, parses):
    # Help, a bad choice or integer, an abbreviation, "--=x", a leftover
    # and a missing required option, after a warm estimate: argparse parses
    # each and prints its recorded text.
    assert cli.main(_estimate_argv(tmp_path)) == cli.EXIT_OK
    for argv in _ARGVS:
        parses.clear()
        assert capture(argv, columns, monkeypatch, capsys) == golden[_key(columns, argv)]
        assert parses, argv


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
          "estimate", "sweep",
          # Values at the edges of a canonical read: converted by int or
          # float or not at all, in the choices or not. (Not "nan": a NaN
          # namespace equals no namespace.)
          "", " 7", "5_0", "0x10", "1e3", "\u0663", "inf", "2:4", "csv",
          "max-overlap",
          "--tile", "--latency-budget", "--overlap", "--heuristic", "--jobs",
          "--decode-stride"]
# Each option of _WORDS spelled in full, and each value.
_OPTIONS = ["--spec", "--dims", "--hw", "--comm-cal", "--tp", "--phase", "--format",
            "--grid", "--points", "--tile", "--latency-budget", "--overlap",
            "--heuristic", "--jobs", "--decode-stride"]
_VALUES = [word for word in _WORDS if not word.startswith("-")]
# What each subcommand requires, as option and value words.
_REQUIRED = {"estimate": ["--spec", "s", "--dims", "d", "--hw", "h", "--comm-cal", "c"],
             "pareto": ["--points", "p"], "validate": [], "fixtures": ["list"]}
_REQUIRED["sweep"] = [*_REQUIRED["estimate"], "--grid", "g"]


@st.composite
def _argvs(draw):
    """A subcommand, its required options in three draws of four, option
    and value pairs and, in half the draws, other words among them: many
    argvs are canonical or one word away from it."""
    name = draw(st.sampled_from(_SUBCOMMANDS))
    words = _REQUIRED[name] if draw(st.integers(0, 3)) else []
    pieces = draw(st.lists(st.tuples(st.sampled_from(_OPTIONS),
                                     st.sampled_from(_VALUES)), max_size=3))
    if draw(st.booleans()):
        pieces += draw(st.lists(st.sampled_from(_WORDS).map(lambda word: (word,)),
                                min_size=1, max_size=12))
    pieces = draw(st.permutations(pieces))
    return [name, *words, *(word for piece in pieces for word in piece)]


@settings(max_examples=300, deadline=None)
@given(argv=_argvs())
def test_a_subcommand_parses_alone_as_the_full_parser_parses_it(argv):
    # Canonical argvs, abbreviations, leftovers, top-level options, "--"
    # and bad values, with help text at the terminal's width: the same
    # namespace, or the same exit code and text.
    def alone_first(argv):
        return cli._parse_subcommand(argv) or cli.build_parser().parse_args(argv)

    assert (_outcome(alone_first, argv)
            == _outcome(lambda argv: cli.build_parser().parse_args(argv), argv))
