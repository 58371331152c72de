"""CLI contract tests: commands, exit codes, file outputs, determinism."""

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import tempfile
from collections import Counter
from operator import itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llm_energy import cli, engine
from llm_energy.cli import EXIT_OK, EXIT_VALIDATION, main
from llm_energy.compute import GemmCalibrationTable
from llm_energy.explorer import ConfigPoint, format_overlap, pareto_front
from llm_energy.fixtures import fixture_path
from llm_energy.metrics import CATEGORIES, PhaseReport, ReportRow
from llm_energy.moe import RoutingTrace
from llm_energy.spec_lang import InputFile


def _base_args(out, spec="dense_fused.json", dims="llama3_8b.json"):
    return ["--spec", f"fixture:{spec}", "--dims", f"fixture:{dims}",
            "--hw", "fixture:a100_sxm_80g.json",
            "--comm-cal", "fixture:comm_synthetic.csv", "--out", str(out)]


def test_estimate_writes_reports(tmp_path):
    code = main(["estimate", *_base_args(tmp_path), "--tp", "2",
                 "--batch", "2", "--isl", "512", "--phase", "prefill"])
    assert code == EXIT_OK
    text = (tmp_path / "report_prefill.json").read_text()
    report = json.loads(text)
    # The rows are block-encoded; the file is still json.dumps' indent=2.
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert report["feasible"]
    labels = {r["label"] for r in report["rows"]}
    assert {"QKV Projection", "Output Projection", "Down Projection"} <= labels
    comm_rows = [r for r in report["rows"] if r["category"] == "communication"]
    assert len(comm_rows) == 2  # AllReduce after Output and Down Projections
    assert "tool_version" in report["meta"]
    assert set(report["meta"]["input_digests"]) >= {"spec", "dims", "hw", "comm_cal"}
    csv_text = (tmp_path / "report_prefill.csv").read_text()
    assert csv_text.startswith("label,category,latency_s,energy_j")


def test_estimate_phase_both(tmp_path):
    code = main(["estimate", *_base_args(tmp_path), "--tp", "2",
                 "--batch", "1", "--isl", "256", "--osl", "16",
                 "--phase", "both"])
    assert code == EXIT_OK
    assert (tmp_path / "report_prefill.json").exists()
    assert (tmp_path / "report_decode.json").exists()


@pytest.mark.parametrize("tp, ep", [(2, 4), (2, 1), (1, 1), (1, 4)])
def test_moe_overlap_takes_the_gemm_ops_only(tmp_path, capsys, tp, ep):
    # The MoE weighted reduction (bsAm,bsA->bsm) sums its sharded A but has
    # no N symbol, so it lowers as a memory op and no setting overlaps it:
    # at tp 2 only Output Projection is overlapped, at any ep; at tp 1 it
    # has no collective, and the setting fails as on a dense spec.
    code = main(["estimate", *_base_args(tmp_path, "moe_fused.json",
                                         "qwen3_30b_a3b.json"),
                 "--batch", "4", "--isl", "512", "--overlap", "2:8",
                 "--tp", str(tp), "--ep", str(ep)])
    err = capsys.readouterr().err
    if tp == 1:
        assert code == EXIT_VALIDATION
        assert ("op 'Output Projection': overlap annotated but no collective "
                "detected") in err
        return
    assert code == EXIT_OK, err
    report = json.loads((tmp_path / "report_prefill.json").read_text())
    assert report["feasible"]
    assert {r["label"] for r in report["rows"]
            if r["category"] == "exposed-comm"} == {"Output Projection"}


def test_estimate_infeasible_is_success(tmp_path):
    code = main(["estimate", *_base_args(tmp_path, dims="llama3_70b.json"),
                 "--tp", "2", "--batch", "64", "--isl", "131072"])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report_prefill.json").read_text())
    assert report["feasible"] is False
    assert report["infeasible_reason"]


def test_missing_file_is_validation_error(tmp_path):
    args = _base_args(tmp_path)
    args[args.index("fixture:comm_synthetic.csv")] = str(tmp_path / "nope.csv")
    code = main(["estimate", *args])
    assert code == EXIT_VALIDATION
    assert not (tmp_path / "report_prefill.json").exists()


def test_estimate_rejects_tile_below_one(tmp_path, capsys):
    # A dense spec never quantizes tokens, yet the tile is still checked.
    code = main(["estimate", *_base_args(tmp_path), "--tile", "0"])
    assert code == EXIT_VALIDATION
    assert "tile must be >= 1, got 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_moe_sweep_rejects_tile_below_one(tmp_path, capsys):
    # Rejected before any point is priced, not reported as every point's
    # infeasible reason, and not blamed on the grid.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"batch": [1, 2], "isl": [128], "ep": [1, 2]}))
    out = tmp_path / "out"
    code = main(["sweep", *_base_args(out, spec="moe_fused.json",
                                      dims="qwen3_30b_a3b.json"),
                 "--grid", str(grid), "--tile", "-1"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error: tile must be >= 1, got -1" in err
    assert str(grid) not in err
    assert not out.exists()


def _moe_trace_command(tmp_path, command, experts):
    """An ``estimate --phase both`` or a decode ``sweep`` argv of the MoE
    spec (128 experts) with a trace of 64 top-8 rows drawn from ``experts``."""
    trace = tmp_path / "trace.csv"
    trace.write_text("".join(f"{t}," + ",".join(str(experts[(t + j) % len(experts)])
                                                 for j in range(8)) + "\n"
                             for t in range(64)))
    args = [command, *_base_args(tmp_path / "out", spec="moe_fused.json",
                                 dims="qwen3_30b_a3b.json"),
            "--trace", str(trace)]
    if command == "estimate":
        return trace, [*args, "--ep", "2", "--isl", "128", "--osl", "8",
                       "--phase", "both"]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"batch": [1, 4], "isl": [128], "osl": [8],
                                "ep": [1, 2, 4]}))
    return trace, [*args, "--grid", str(grid), "--phase", "decode"]


@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_trace_expert_out_of_range_is_validation_error(tmp_path, capsys, command):
    # Whatever the ep degree, so rejected before any point is priced, in a
    # sweep as in an estimate, naming the trace file.
    trace, argv = _moe_trace_command(tmp_path, command, [*range(9), 300])
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert (f"validation error: {trace}: expert index 300 out of range for "
            "128 experts") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_trace_rows_are_never_built(tmp_path, command):
    # Routing statistics read the per-expert counts: neither a command nor
    # the trace's top_k builds its rows.
    loaded = []
    load = RoutingTrace.load.__func__

    def spy(cls, path):
        loaded.append(load(cls, path))
        return loaded[-1]

    _, argv = _moe_trace_command(tmp_path, command, [*range(0, 128, 3)])
    with mock.patch.object(RoutingTrace, "load", classmethod(spy)):
        assert main(argv) == EXIT_OK
    [trace] = loaded
    assert trace.top_k == 8
    assert "choices" not in vars(trace)
    assert sum(trace.expert_counts.values()) == 64 * 8


def _opened(argv) -> Counter:
    """How many times ``main(argv)``, which must succeed, opens each file,
    through ``open`` or ``os.open``."""
    opened = Counter()

    def counting(real_open):
        def count(file, *args, **kwargs):
            opened[os.fspath(file) if isinstance(file, (str, os.PathLike)) else file] += 1
            return real_open(file, *args, **kwargs)
        return count

    with mock.patch("builtins.open", counting(io.open)), \
            mock.patch("io.open", counting(io.open)), \
            mock.patch("os.open", counting(os.open)):
        assert main(argv) == EXIT_OK
    return opened


def _input_paths(argv) -> dict:
    """The input file that each input flag of ``argv`` names, by digest name."""
    paths = {}
    for flag, value in zip(argv, argv[1:]):
        name = flag[2:].replace("-", "_")
        if name in ("spec", "dims", "hw", "comm_cal", "gemm_cal", "trace"):
            paths[name] = (fixture_path(value[len("fixture:"):])
                           if value.startswith("fixture:") else Path(value))
    return paths


@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_each_input_file_is_opened_once(tmp_path, command):
    # Its loader decodes the bytes its digest is taken from: the GEMM table
    # and the routing trace too, in an estimate of both phases and a sweep.
    trace, argv = _moe_trace_command(tmp_path, command, [*range(0, 128, 3)])
    argv += ["--gemm-cal", "fixture:gemm_synthetic.csv"]
    paths = _input_paths(argv)
    assert set(paths) == {"spec", "dims", "hw", "comm_cal", "gemm_cal", "trace"}
    opened = _opened(argv)
    for path in paths.values():
        assert opened[str(path)] == 1, path
    out = tmp_path / "out"
    written = json.loads((out / ("report_prefill.json" if command == "estimate"
                                 else "points.json")).read_text())
    digests = (written["meta"] if command == "estimate" else written)["input_digests"]
    assert digests == {name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                       for name, path in paths.items()}


def test_a_changed_input_is_read_afresh(tmp_path):
    # A changed file is parsed again: the second call reports the file as
    # it is then.
    dims = tmp_path / "dims.json"
    args = _base_args(tmp_path / "out")
    args[args.index("fixture:llama3_8b.json")] = str(dims)
    reports = []
    for name in ("llama3_8b.json", "llama3_70b.json"):
        data = fixture_path(name).read_bytes()
        dims.write_bytes(data)
        assert main(["estimate", *args, "--tp", "2", "--isl", "256"]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report_prefill.json").read_text())
        assert (report["meta"]["input_digests"]["dims"]
                == hashlib.sha256(data).hexdigest()[:16])
        reports.append(report)
    assert [report["meta"]["layers"] for report in reports] == [32, 80]
    assert reports[0]["rows"] != reports[1]["rows"]


@pytest.fixture
def empty_memo(monkeypatch):
    """The CLI's memo of parsed inputs, empty for this test alone, as are
    its memos of compiled plans and of subcommand parsers."""
    memo = {}
    monkeypatch.setattr(cli, "_parsed", memo)
    monkeypatch.setattr(cli, "_plans", {})
    monkeypatch.setattr(cli, "_parsers", {})
    return memo


def _empty_memos() -> None:
    for memo in (cli._parsed, cli._plans, cli._parsers):
        memo.clear()


def _counting(monkeypatch, owner, name) -> Counter:
    """Count the calls of ``owner.name``, which still runs."""
    calls = Counter()
    function = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def _outputs(out: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_a_repeated_estimate_parses_its_inputs_once(tmp_path, capsys, monkeypatch,
                                                    empty_memo):
    # Each file is still read and hashed, but bytes seen before reuse their
    # parse: the second call writes the same bytes without loading the
    # comm table again.
    loads = _counting(monkeypatch, cli, "load_comm_calibration")
    argv = ["estimate", *_base_args(tmp_path / "out"), "--gemm-cal",
            "fixture:gemm_synthetic.csv", "--phase", "both", "--tp", "2",
            "--isl", "256", "--osl", "6"]
    seen = []
    for _ in range(2):
        assert main(argv) == EXIT_OK
        seen.append((_outputs(tmp_path / "out"), capsys.readouterr()))
    assert seen[0] == seen[1]
    assert loads == {"load_comm_calibration": 1}
    assert {kind for kind, _, _ in empty_memo} == {"spec", "dims", "hw", "comm_cal",
                                                   "gemm_cal"}


def _scaled_comm_table(path: Path, factor: float) -> None:
    """The fixture comm table with every latency times ``factor``."""
    lines = fixture_path("comm_synthetic.csv").read_text().splitlines(keepends=True)
    with open(path, "w") as fh:
        for line in lines:
            cells = line.split(",")
            if len(cells) == 6 and not line.startswith(("#", "kind")):
                cells[4] = repr(float(cells[4]) * factor)
            fh.write(",".join(cells))


def test_an_edited_comm_table_moves_the_report(tmp_path, empty_memo):
    table = tmp_path / "comm.csv"
    args = _base_args(tmp_path / "out")
    args[args.index("fixture:comm_synthetic.csv")] = str(table)
    reports = []
    for factor in (1.0, 2.0):
        _scaled_comm_table(table, factor)
        assert main(["estimate", *args, "--tp", "2", "--isl", "256"]) == EXIT_OK
        reports.append(json.loads((tmp_path / "out" / "report_prefill.json").read_text()))
        assert (reports[-1]["meta"]["input_digests"]["comm_cal"]
                == hashlib.sha256(table.read_bytes()).hexdigest()[:16])
    comm = [{row["label"]: row["latency_s"] for row in report["rows"]
             if row["category"] == "communication"} for report in reports]
    assert comm[0] and comm[0].keys() == comm[1].keys()
    assert all(comm[1][label] > comm[0][label] for label in comm[0])
    assert reports[1]["total_latency_s"] > reports[0]["total_latency_s"]


def test_a_malformed_input_is_never_kept(tmp_path, capsys, monkeypatch, empty_memo):
    # Good, malformed, good again: 0, 2, 0, and the 2 carries a cold run's
    # message; only the good bytes are kept, so the last call reuses them.
    dims = tmp_path / "dims.json"
    args = _base_args(tmp_path / "out")
    args[args.index("fixture:llama3_8b.json")] = str(dims)
    argv = ["estimate", *args, "--tp", "2", "--isl", "256"]
    good = fixture_path("llama3_8b.json").read_bytes()
    bad = b'{"layers": "many"}\n'
    dims.write_bytes(bad)
    assert main(argv) == EXIT_VALIDATION
    cold = capsys.readouterr()
    assert "dims key 'layers' must be an integer" in cold.err
    empty_memo.clear()
    loads = _counting(monkeypatch, cli, "load_bindings")
    codes, errors = [], []
    for data in (good, bad, good):
        dims.write_bytes(data)
        codes.append(main(argv))
        errors.append(capsys.readouterr().err)
        assert [kind for kind, _, _ in empty_memo].count("dims") == 1
    assert codes == [EXIT_OK, EXIT_VALIDATION, EXIT_OK]
    assert errors[1] == cold.err and errors[0] == errors[2]
    assert loads == {"load_bindings": 2}


def test_a_routing_trace_is_parsed_once_per_path_and_bytes(tmp_path, capsys, monkeypatch,
                                                          empty_memo):
    # A kept trace is reused while its bytes stay; an edited trace moves the
    # report; a malformed one is never kept (good, malformed, good: 0, 2, 0,
    # the 2 with a cold run's message); and a kept trace whose expert index
    # is out of range still fails every call.
    trace, argv = _moe_trace_command(tmp_path, "estimate", [*range(0, 128, 3)])
    good = trace.read_bytes()
    loads = _counting(monkeypatch, RoutingTrace, "load")
    seen = []
    for _ in range(3):
        assert main(argv) == EXIT_OK
        seen.append((_outputs(tmp_path / "out"), capsys.readouterr()))
    assert loads == {"load": 1}
    assert seen[0] == seen[1] == seen[2]
    assert [kind for kind, _, _ in empty_memo] == ["hw", "spec", "dims", "comm_cal",
                                                   "trace"]

    _moe_trace_command(tmp_path, "estimate", [*range(0, 128, 7)])
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert loads == {"load": 2}
    reports = [json.loads(outputs["report_prefill.json"])
               for outputs in (seen[0][0], _outputs(tmp_path / "out"))]
    assert (reports[1]["meta"]["input_digests"]["trace"]
            == hashlib.sha256(trace.read_bytes()).hexdigest()[:16])
    assert reports[0]["rows"] != reports[1]["rows"]

    bad = b"0,1,2\n1,x,3\n"
    trace.write_bytes(bad)
    _empty_memos()
    assert main(argv) == EXIT_VALIDATION
    cold = capsys.readouterr()
    assert f"{trace}:2" in cold.err
    codes, errors = [], []
    for data in (good, bad, good):
        trace.write_bytes(data)
        codes.append(main(argv))
        errors.append(capsys.readouterr().err)
    assert codes == [EXIT_OK, EXIT_VALIDATION, EXIT_OK]
    assert errors[1] == cold.err and errors[0] == errors[2] == seen[0][1].err
    assert [kind for kind, _, _ in empty_memo].count("trace") == 1

    _moe_trace_command(tmp_path, "estimate", [*range(9), 300])
    before = loads["load"]
    for _ in range(3):
        assert main(argv) == EXIT_VALIDATION
        assert (f"validation error: {trace}: expert index 300 out of range for "
                "128 experts") in capsys.readouterr().err
    assert loads["load"] == before + 1
    assert [kind for kind, _, _ in empty_memo].count("trace") == 2


def test_a_kept_trace_holds_counts_and_its_path(tmp_path, empty_memo):
    # Neither the file's bytes nor its text: its rows are read again from
    # the path when asked for. It also keeps the routing statistics priced
    # with it, by (E, ep, tile).
    trace, argv = _moe_trace_command(tmp_path, "estimate", [*range(0, 128, 3)])
    assert main(argv) == EXIT_OK
    [kept] = [value for (kind, _, _), value in empty_memo.items() if kind == "trace"]
    assert set(vars(kept)) == {"top_k", "expert_counts", "path", "stats"}
    assert list(kept.stats) == [(128, 2, 16)]
    assert not any(isinstance(value, (bytes, str, InputFile))
                   for value in vars(kept).values())
    assert kept.path == trace and isinstance(kept.path, Path)
    rows = tuple(tuple(map(int, line.split(",")[1:]))
                 for line in trace.read_text().splitlines())
    assert kept.choices == rows
    assert kept.expert_counts == Counter(itertools.chain.from_iterable(rows))


def _routing_keys(monkeypatch) -> list:
    """The (E, ep, tile) of each call of engine.stats_from_trace, which the
    estimator calls through that name."""
    keys = []
    stats_from_trace = engine.stats_from_trace

    def recording(trace, *key):
        keys.append(key)
        return stats_from_trace(trace, *key)
    monkeypatch.setattr(engine, "stats_from_trace", recording)
    return keys


def test_routing_statistics_are_taken_once_per_trace_and_key(tmp_path, capsys,
                                                             monkeypatch, empty_memo):
    # --phase both prices both phases with one computation; a call repeated,
    # or at a tile or ep seen before, takes none; a sweep takes one per ep
    # it has not seen. Every call writes what it writes after the memos are
    # emptied, and the kept trace never reads its rows.
    _, argv = _moe_trace_command(tmp_path, "estimate", [*range(0, 128, 3)])
    _, sweep_argv = _moe_trace_command(tmp_path, "sweep", [*range(0, 128, 3)])
    keys = _routing_keys(monkeypatch)
    runs = [[*argv], [*argv], [*argv, "--tile", "4"], [*argv, "--ep", "4"], sweep_argv,
            [*argv, "--tile", "4"], sweep_argv, [*argv, "--ep", "1"]]
    seen = []
    for run in runs:
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        assert main(run) == EXIT_OK
        seen.append((_outputs(tmp_path / "out"), capsys.readouterr()))
    assert keys == [(128, 2, 16), (128, 2, 4), (128, 4, 16), (128, 1, 16)]
    [kept] = [value for (kind, _, _), value in empty_memo.items() if kind == "trace"]
    assert sorted(kept.stats) == sorted(keys)
    assert "choices" not in vars(kept)
    for run, warm in zip(runs, seen):
        _empty_memos()
        shutil.rmtree(tmp_path / "out")
        assert main(run) == EXIT_OK
        assert (_outputs(tmp_path / "out"), capsys.readouterr()) == warm

    # An edited trace is parsed again, and its statistics taken again.
    del keys[:]
    _moe_trace_command(tmp_path, "estimate", [*range(0, 128, 7)])
    assert main(argv) == EXIT_OK
    assert main(argv) == EXIT_OK
    assert keys == [(128, 2, 16)]
    assert _outputs(tmp_path / "out") != seen[0][0]


def test_a_routing_statistics_failure_is_raised_on_every_call(tmp_path, capsys,
                                                             monkeypatch, empty_memo):
    # An expert op sharded by tp leaves ep unchecked by validation, so
    # E % ep fails in the routing statistics: on every call, with one
    # message, and nothing is kept; a good ep then prices.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"format_version": 1, "layers": 1, "ops": [
        {"eq": "bsm,mF->bsF", "parallel": "F", "label": "Up"},
        {"eq": "ETm,EmF->ETF", "parallel": "F", "label": "Experts"}]}))
    _, argv = _moe_trace_command(tmp_path, "estimate", [*range(0, 128, 3)])
    argv[argv.index("fixture:moe_fused.json")] = str(spec)
    keys = _routing_keys(monkeypatch)
    for _ in range(3):
        assert main([*argv, "--ep", "3"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: total_experts 128 not divisible by ep degree 3\n")
    assert keys == [(128, 3, 16)] * 3
    [kept] = [value for (kind, _, _), value in empty_memo.items() if kind == "trace"]
    assert kept.stats == {}
    assert main(argv) == EXIT_OK
    assert keys[3:] == [(128, 2, 16)] and list(kept.stats) == [(128, 2, 16)]


def test_the_memo_keeps_at_most_its_bound(tmp_path, empty_memo):
    # One new dims file per call; past the bound the oldest entry goes.
    args = _base_args(tmp_path / "out")
    at = args.index("fixture:llama3_8b.json")
    data = fixture_path("llama3_8b.json").read_bytes()
    paths = []
    for i in range(cli._KEPT_INPUTS + 4):
        paths.append(tmp_path / f"dims{i}.json")
        paths[-1].write_bytes(data)
        args[at] = str(paths[-1])
        assert main(["estimate", *args, "--tp", "2", "--isl", "256"]) == EXIT_OK
        assert len(empty_memo) <= cli._KEPT_INPUTS
    kept = [path for kind, path, _ in empty_memo if kind == "dims"]
    assert len(empty_memo) == cli._KEPT_INPUTS
    assert kept == paths[-len(kept):]
    # One plan memo per (spec, dims) pair, the newest kept.
    assert len(cli._plans) == cli._KEPT_PLANS
    assert [dims[1] for _, dims in cli._plans] == paths[-cli._KEPT_PLANS:]


def test_a_kept_plan_memo_is_emptied_past_its_bound(tmp_path, monkeypatch, empty_memo):
    # Each call hands the Estimator the memo of its spec and dims, emptied
    # first if it holds more than _PLAN_ENTRIES entries.
    monkeypatch.setattr(cli, "_PLAN_ENTRIES", 4)
    argv = ["estimate", *_base_args(tmp_path / "out"), "--isl", "256"]
    sizes = []
    for tp in (1, 2, 1):
        assert main([*argv, "--tp", str(tp)]) == EXIT_OK
        [memo] = cli._plans.values()
        sizes.append(len(memo))
    # Per degrees: validated, memory model and the one plan.
    assert sizes == [3, 6, 3]


def test_the_memoized_inputs_stay_as_parsed(tmp_path, empty_memo):
    # After estimates of both phases, an overlapped prefill on the table
    # backend and a sweep, every kept input still equals a fresh parse of
    # its file's bytes: no command changes the inputs that calls share.
    _, argv = _moe_trace_command(tmp_path, "estimate", [*range(0, 128, 3)])
    table = ["--gemm-cal", "fixture:gemm_synthetic.csv"]
    assert main([*argv, *table]) == EXIT_OK
    assert main(["estimate", *_base_args(tmp_path / "out"), *table, "--tp", "2",
                 "--isl", "256", "--overlap", "2:4"]) == EXIT_OK
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"batch": [1, 4], "isl": [256], "tp": [1, 2],
                                "overlap": ["none", "2:4"]}))
    assert main(["sweep", *_base_args(tmp_path / "out"), *table, "--grid", str(grid),
                 "--heuristic", "max-overlap"]) == EXIT_OK
    loaders = {"spec": cli.load_model_spec, "dims": cli.load_bindings,
               "hw": cli.load_hardware_profile, "comm_cal": cli.load_comm_calibration,
               "gemm_cal": GemmCalibrationTable.load, "trace": RoutingTrace.load}
    assert len(empty_memo) == 8  # two specs and two dims files
    for (kind, path, sha), kept in empty_memo.items():
        assert hashlib.sha256(path.read_bytes()).digest() == sha
        fresh = loaders[kind](path)
        if kind == "gemm_cal":
            kept, fresh = vars(kept), vars(fresh)
        elif kind == "trace":
            kept, fresh = [(trace.top_k, trace.expert_counts, trace.path)
                           for trace in (kept, fresh)]
        assert kept == fresh, (kind, path)


def _slower_hw(path: Path) -> None:
    """The fixture hardware profile with half its memory bandwidth."""
    hw = json.loads(fixture_path("a100_sxm_80g.json").read_text())
    hw.update(name="a100-half-bandwidth", mem_bw=hw["mem_bw"] / 2)
    path.write_text(json.dumps(hw))


def test_kept_state_never_leaks_between_calls(tmp_path, capsys, empty_memo):
    # Calls that share inputs, compiled plans and parsers, interleaved in
    # one process, each give what the same call gives after every memo is
    # emptied: a call's hardware, tile, trace, backend, degrees and overlap
    # are its own, and an invalid degree fails every time alike.
    out = tmp_path / "out"
    hw = tmp_path / "hw.json"
    _slower_hw(hw)
    dense = ["estimate", *_base_args(out), "--isl", "256"]
    _, moe = _moe_trace_command(tmp_path, "estimate", [*range(0, 128, 3)])
    at = moe.index("--trace")
    untraced = moe[:at] + moe[at + 2:]
    argvs = [
        [*dense, "--tp", "2"],
        [*(str(hw) if arg == "fixture:a100_sxm_80g.json" else arg for arg in dense),
         "--tp", "2"],
        [*dense, "--tp", "2", "--gemm-cal", "fixture:gemm_synthetic.csv"],
        [*dense, "--tp", "2", "--overlap", "2:4"],
        [*dense, "--tp", "1"],
        [*dense, "--tp", "3"],
        [*dense, "--tp", "2", "--overlap", "2:4", "--phase", "decode", "--osl", "4"],
        [*("fixture:llama3_70b.json" if arg == "fixture:llama3_8b.json" else arg
           for arg in dense), "--tp", "2"],
        [*moe, "--tile", "1"],
        [*moe, "--tile", "16"],
        [*untraced, "--tile", "16"],
        [*moe, "--tile", "16", "--ep", "4"],
        [*moe, "--tile", "16", "--tp", "2"],
    ]

    def run(argv):
        shutil.rmtree(out, ignore_errors=True)
        code = main(argv)
        return code, capsys.readouterr(), _outputs(out) if out.exists() else {}

    warm = [run(argv) for _ in range(2) for argv in argvs]
    cold = []
    for argv in argvs:
        _empty_memos()
        cold.append(run(argv))
    assert warm[:len(argvs)] == warm[len(argvs):] == cold
    codes = [code for code, _, _ in cold]
    assert codes == [EXIT_OK] * 5 + [EXIT_VALIDATION] * 2 + [EXIT_OK] * 6
    assert "overlap is prefill-only" in cold[6][1].err
    totals = [json.loads(files["report_prefill.json"])["total_latency_s"]
              if files else None for _, _, files in cold]
    for a, b in ((0, 1), (0, 2), (0, 3), (0, 4), (0, 7), (8, 9), (9, 10), (9, 11),
                 (9, 12)):
        assert totals[a] != totals[b], (argvs[a], argvs[b])


def test_a_repeated_sweep_compiles_nothing(tmp_path, capsys, monkeypatch, empty_memo):
    # The compiled plans of a spec and dims are kept: a repeated sweep, and
    # an estimate at degrees a sweep compiled, compile no layer, in either
    # phase: one plan per degrees set serves both and every overlap setting.
    compiles = _counting(monkeypatch, engine, "compile_layer")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"batch": [1, 4], "isl": [256, 512], "tp": [1, 2],
                                "overlap": ["none", "2:4"]}))
    argv = ["sweep", *_base_args(tmp_path / "out"), "--grid", str(grid),
            "--heuristic", "max-overlap"]
    seen = []
    for _ in range(2):
        assert main(argv) == EXIT_OK
        seen.append((_outputs(tmp_path / "out"), capsys.readouterr()))
    assert seen[0] == seen[1]
    assert compiles == {"compile_layer": 2}  # one per degrees group
    assert main(["estimate", *_base_args(tmp_path / "est"), "--tp", "2",
                 "--isl", "256", "--overlap", "2:4"]) == EXIT_OK
    assert compiles == {"compile_layer": 2}
    assert main(["estimate", *_base_args(tmp_path / "both"), "--tp", "2",
                 "--isl", "256", "--phase", "both"]) == EXIT_OK
    assert compiles == {"compile_layer": 2}
    [memo] = cli._plans.values()
    plans = [key[1] for key in memo if key[0] == "plan"]
    assert len(plans) == 2
    assert sorted(plans) == sorted(key[1] for key in memo if key[0] == "memory")


def _fixture_reference_argv(tmp_path, command, reference):
    if command == "sweep":
        return ["sweep", *_base_args(tmp_path / "out"), "--grid", reference]
    if command == "validate":
        return ["validate", "--spec", reference, "--dims", "fixture:llama3_8b.json"]
    return _estimate_with_spec(tmp_path / "out", reference)


@pytest.mark.parametrize("name", ["", ".", "../fixtures", "__init__.py",
                                  "gen_calibration.py"])
@pytest.mark.parametrize("command", ["estimate", "validate", "sweep"])
def test_fixture_reference_names_a_listed_fixture(tmp_path, capsys, command, name):
    # The fixtures directory itself and the package's own files are no
    # fixtures: each is a validation error naming the reference.
    argv = _fixture_reference_argv(tmp_path, command, f"fixture:{name}")
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert f"no fixture named {name!r}" in out + err
    assert "estimation error" not in err
    assert not (tmp_path / "out").exists()


_STRIDE_MESSAGE = "--decode-stride must be 1: every decode position is summed exactly"


@pytest.mark.parametrize("stride", [0, -3, 2, 64])
@pytest.mark.parametrize("phase", ["prefill", "decode", "both"])
def test_estimate_rejects_decode_stride_other_than_one(tmp_path, capsys, phase,
                                                        stride):
    # Every position is summed exactly, so no other stride has a meaning:
    # rejected up front, for a prefill estimate too, as the tile is.
    code = main(["estimate", *_base_args(tmp_path), "--phase", phase,
                 "--osl", "8", "--decode-stride", str(stride)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"validation error: {_STRIDE_MESSAGE}, got {stride}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("stride", [0, -3, 2, 64])
@pytest.mark.parametrize("phase", ["prefill", "decode"])
def test_sweep_rejects_decode_stride_other_than_one(tmp_path, capsys, phase,
                                                     stride):
    # Not reported as every point's infeasible reason.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"batch": [1, 2], "isl": [128], "osl": [8],
                                "tp": [1, 2]}))
    out = tmp_path / "out"
    code = main(["sweep", *_base_args(out), "--phase", phase, "--grid",
                 str(grid), "--decode-stride", str(stride)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"validation error: {_STRIDE_MESSAGE}, got {stride}\n"
    assert not out.exists()


def test_estimate_writes_no_report_unless_every_phase_is_priced(tmp_path):
    # Prefill prices in both cases; decode fails, with overlap (prefill-only)
    # and with cp 2 (s = 1 does not shard over cp).
    for spec, flags in (("dense_fused.json", ["--tp", "2", "--overlap", "2:4"]),
                        ("dense_fused_cp.json", ["--cp", "2"])):
        out = tmp_path / spec
        code = main(["estimate", *_base_args(out, spec=spec), *flags,
                     "--isl", "512", "--osl", "4", "--phase", "both"])
        assert code == EXIT_VALIDATION
        assert not out.exists() or not any(out.iterdir())


def test_cp_decode_estimate_is_a_validation_error(tmp_path, capsys):
    # The cp fixture shards s over cp, and decode has s = 1.
    code = main(["estimate", *_base_args(tmp_path, spec="dense_fused_cp.json"),
                 "--phase", "decode", "--cp", "2"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "validation error: symbol 's' size 1 not divisible by degree 2\n")
    assert not list(tmp_path.iterdir())


def test_decode_gemm_with_n_one_at_one_position_exits_2(tmp_path, capsys):
    # N = z / 2 is 1 at z = 2 (position 1), where the GEMM lowers as a
    # memory op; z = 3 (position 2) does not shard over tp 2, and that
    # earliest failing position's error is the estimate's.
    spec = tmp_path / "scores.json"
    spec.write_text(json.dumps({"ops": [{"eq": "bKh,bKzh->bKz", "parallel": "z",
                                         "label": "Scores"}]}))
    out = tmp_path / "out"
    code = main([*_estimate_with_spec(out, str(spec)), "--phase", "decode",
                 "--tp", "2", "--isl", "1", "--osl", "5"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "validation error: symbol 'z' size 3 not divisible by degree 2\n")
    assert not out.exists()


def test_validate_clean_and_dirty(tmp_path, capsys):
    assert main(["validate", "--spec", "fixture:moe_fused.json",
                 "--dims", "fixture:qwen3_30b_a3b.json"]) == EXIT_OK
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ops": [{"eq": "bsm,mf->bsf", "parallel": "f",
                                        "overlap_stage": 2, "overlap_sm": 4,
                                        "overlap": "s"}]}))
    assert main(["validate", "--spec", str(bad)]) == EXIT_VALIDATION
    dup = tmp_path / "dup.csv"
    dup.write_text("kind,world,sm_count,bytes,latency_s,energy_j\n"
                   "AllReduce,2,16,1024,1e-5,1e-2\n"
                   "AllReduce,2,16,1024,1e-5,1e-2\n")
    assert main(["validate", "--comm-cal", str(dup)]) == EXIT_VALIDATION
    # A header and provenance but no row is no calibration at all, as in
    # estimate and sweep (the malformed-input list below).
    empty = tmp_path / "empty.csv"
    empty.write_bytes(_COMM_WITHOUT_ROWS)
    capsys.readouterr()
    assert main(["validate", "--comm-cal", str(empty)]) == EXIT_VALIDATION
    assert capsys.readouterr().out == (
        f"VIOLATION: comm calibration: {empty}: comm calibration has no rows\n")


def test_validate_names_an_integer_too_large_for_a_float(tmp_path, capsys):
    argv = _hw_with_huge_p_idle(tmp_path)
    hw = argv[argv.index("--hw") + 1]
    assert main(["validate", "--hw", hw]) == EXIT_VALIDATION
    assert capsys.readouterr().out == (
        f"VIOLATION: hardware profile: {hw}: hardware field 'p_idle' must be a "
        "finite number, got an integer of 1329 bits, too large for a float\n")


def test_validate_checks_trace_experts_against_the_dims(tmp_path, capsys):
    # As estimate and sweep do, for a spec with an MoE op and E bound.
    trace, _ = _moe_trace_command(tmp_path, "estimate", [*range(9), 300])
    moe = ["--spec", "fixture:moe_fused.json", "--dims", "fixture:qwen3_30b_a3b.json"]
    assert main(["validate", *moe, "--trace", str(trace)]) == EXIT_VALIDATION
    assert capsys.readouterr().out == (
        f"VIOLATION: routing trace: {trace}: expert index 300 out of range "
        "for 128 experts\n")
    for argv in (["--trace", str(trace)],
                 ["--spec", "fixture:dense_fused.json",
                  "--dims", "fixture:llama3_8b.json", "--trace", str(trace)]):
        assert main(["validate", *argv]) == EXIT_OK
    trace, _ = _moe_trace_command(tmp_path, "estimate", [*range(0, 128, 3)])
    assert main(["validate", *moe, "--trace", str(trace)]) == EXIT_OK


def test_validate_divisibility(tmp_path):
    assert main(["validate", "--spec", "fixture:dense_fused.json",
                 "--dims", "fixture:llama3_8b.json", "--tp", "3"]) \
        == EXIT_VALIDATION


def test_fixtures_list(capsys):
    assert main(["fixtures", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dense_fused.json" in out
    assert "comm_synthetic.csv" in out


def test_sweep_outputs(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"batch": [1, 4], "isl": [512],
                                "tp": [2, 4], "overlap": ["none", "2:4"]}))
    out = tmp_path / "out"
    code = main(["sweep", *_base_args(out), "--grid", str(grid),
                 "--heuristic", "max-overlap"])
    assert code == EXIT_OK
    points = json.loads((out / "points.json").read_text())["points"]
    assert len(points) == 8
    frontier = json.loads((out / "frontier.json").read_text())
    assert frontier["frontier"]
    assert "heuristic" in frontier
    assert (out / "points.csv").read_text().count("\n") == 9  # header + 8 rows
    plot = (out / "plot_data.csv").read_text()
    assert plot.startswith("series,x_latency_s,y_energy_j,label")


def test_sweep_latency_budget(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"batch": [1, 16], "isl": [2048], "tp": [2, 8]}))
    out = tmp_path / "out"
    assert main(["sweep", *_base_args(out), "--grid", str(grid),
                 "--latency-budget", "1e-9"]) == EXIT_OK
    frontier = json.loads((out / "frontier.json").read_text())["frontier"]
    assert frontier == []  # nothing is that fast


def test_pareto_over_existing_points(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"batch": [1, 8], "isl": [512], "tp": [2, 8]}))
    out = tmp_path / "out"
    assert main(["sweep", *_base_args(out), "--grid", str(grid)]) == EXIT_OK
    out2 = tmp_path / "out2"
    assert main(["pareto", "--points", str(out / "points.json"),
                 "--out", str(out2)]) == EXIT_OK
    a = json.loads((out / "frontier.json").read_text())["frontier"]
    b = json.loads((out2 / "frontier.json").read_text())["frontier"]
    assert a == b


def test_overlap_flag(tmp_path):
    code = main(["estimate", *_base_args(tmp_path), "--tp", "2",
                 "--batch", "1", "--isl", "512", "--overlap", "4:16"])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report_prefill.json").read_text())
    assert report["category_energy_j"]["exposed-comm"] > 0

    assert main(["estimate", *_base_args(tmp_path), "--overlap", "banana"]) \
        == EXIT_VALIDATION


def test_overlap_setting_no_op_takes_is_validation_error(tmp_path, capsys):
    # The cp fixture shards no op over tp, so no op ends in an AllReduce that
    # an overlap setting could hide.
    code = main(["estimate", *_base_args(tmp_path, spec="dense_fused_cp.json"),
                 "--phase", "prefill", "--cp", "2", "--batch", "1",
                 "--isl", "512", "--overlap", "2:4"])
    assert code == EXIT_VALIDATION
    assert "overlap setting 2:4 applies to no op" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_repeat_runs_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["estimate", *_base_args(out), "--tp", "4",
                     "--batch", "2", "--isl", "1024"]) == EXIT_OK
    assert ((a / "report_prefill.json").read_bytes()
            == (b / "report_prefill.json").read_bytes())


def _estimate_with_edited(tmp_path, name, edit):
    """estimate argv with the fixture ``name`` swapped for an edited copy."""
    raw = json.loads(fixture_path(name).read_text())
    edit(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    args = _base_args(tmp_path)
    args[args.index(f"fixture:{name}")] = str(path)
    return ["estimate", *args]


def _malformed_dims(tmp_path):
    return _estimate_with_edited(tmp_path, "llama3_8b.json",
                                 lambda raw: raw.update(m="abc"))


def _dims_with_fractional_size(tmp_path):
    # Priced as m = 4096 before integer inputs were checked by type.
    return _estimate_with_edited(tmp_path, "llama3_8b.json",
                                 lambda raw: raw.update(m=4096.7))


def _dims_with_huge_size(tmp_path):
    # 401 digits: no float holds it, and the sizes are priced as floats.
    return _estimate_with_edited(tmp_path, "llama3_8b.json",
                                 lambda raw: raw.update(m=10**400))


def _estimate_with_huge_batch(tmp_path):
    return ["estimate", *_base_args(tmp_path), "--batch", str(10**400)]


def _dims_with_bool_dtype_bytes(tmp_path):
    return _estimate_with_edited(tmp_path, "llama3_8b.json",
                                 lambda raw: raw.update(dtype_bytes=True))


def _dims_with_float_layers(tmp_path):
    return _estimate_with_edited(tmp_path, "llama3_8b.json",
                                 lambda raw: raw.update(layers=32.0))


def _hw_with_float_total_sm(tmp_path):
    return _estimate_with_edited(tmp_path, "a100_sxm_80g.json",
                                 lambda raw: raw.update(total_sm=108.0))


def _hw_with_negative_launch_overhead(tmp_path):
    # Priced a total latency of -223.9 s and energy of -63767 J.
    return _estimate_with_edited(tmp_path, "a100_sxm_80g.json",
                                 lambda raw: raw.update(kernel_launch_overhead=-1.0))


def _hw_with_memory_op_utilization_above_one(tmp_path):
    # Priced memory ops above p_max.
    return _estimate_with_edited(tmp_path, "a100_sxm_80g.json",
                                 lambda raw: raw.update(memory_op_utilization=5.0))


def _hw_with_negative_memory_op_utilization(tmp_path):
    # Priced memory ops at negative energy.
    return _estimate_with_edited(tmp_path, "a100_sxm_80g.json",
                                 lambda raw: raw.update(memory_op_utilization=-2.0))


def _hw_without_total_sm(tmp_path):
    return _estimate_with_edited(tmp_path, "a100_sxm_80g.json",
                                 lambda raw: raw.pop("total_sm"))


def _short_gemm_row(tmp_path):
    table = tmp_path / "gemm.csv"
    table.write_text("G,M,contraction,N,dtype_bytes,latency_s,power_w\n"
                     "1,16,8192\n")
    return ["estimate", *_base_args(tmp_path), "--gemm-cal", str(table)]


def _feasible_point_without_latency(tmp_path):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [
        {"phase": "prefill", "batch": 1, "isl": 512, "osl": 1, "tp": 1,
         "ep": 1, "cp": 1, "overlap": None, "feasible": True}]}))
    return ["pareto", "--points", str(points), "--out", str(tmp_path / "p")]


def _point_without_feasible(tmp_path):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [
        {"phase": "prefill", "batch": 1, "isl": 512, "osl": 1, "tp": 1,
         "ep": 1, "cp": 1, "overlap": None, "latency_s": 1.0,
         "energy_j": 1.0}]}))
    return ["pareto", "--points", str(points), "--out", str(tmp_path / "p")]


def _pareto_over_point(tmp_path, **edit):
    points = tmp_path / "points.json"
    row = {"phase": "prefill", "batch": 1, "isl": 512, "osl": 1, "tp": 1,
           "ep": 1, "cp": 1, "overlap": None, "feasible": True,
           "infeasible_reason": "", "latency_s": 1.0, "energy_j": 1.0}
    points.write_text(json.dumps({"points": [row, {**row, **edit}]}))
    return ["pareto", "--points", str(points), "--out", str(tmp_path / "p")]


def _point_with_text_feasible(tmp_path):
    return _pareto_over_point(tmp_path, feasible="false")


def _point_with_list_batch(tmp_path):
    return _pareto_over_point(tmp_path, batch=[1])


def _point_with_float_isl(tmp_path):
    return _pareto_over_point(tmp_path, isl=512.0)


def _point_with_zero_tp(tmp_path):
    return _pareto_over_point(tmp_path, tp=0)


def _point_with_bool_cp(tmp_path):
    return _pareto_over_point(tmp_path, cp=True)


def _point_with_number_reason(tmp_path):
    return _pareto_over_point(tmp_path, feasible=False, infeasible_reason=3)


def _decode_point_with_overlap(tmp_path):
    return _pareto_over_point(tmp_path, phase="decode", overlap="2:4")


def _hw_with_huge_p_idle(tmp_path):
    # 401 digits: math.isfinite cannot take it as a float.
    return _estimate_with_edited(tmp_path, "a100_sxm_80g.json",
                                 lambda raw: raw.update(p_idle=10**400))


def _feasible_point_with_huge_latency(tmp_path):
    return _pareto_over_point(tmp_path, latency_s=10**400)


def _hw_with_text_total_sm(tmp_path):
    return _estimate_with_edited(tmp_path, "a100_sxm_80g.json",
                                 lambda raw: raw.update(total_sm="abc"))


def _comm_row_with_text_world(tmp_path):
    table = tmp_path / "comm.csv"
    table.write_text("kind,world,sm_count,bytes,latency_s,energy_j\n"
                     "AllReduce,two,1,1024,1e-5,1e-3\n")
    args = _base_args(tmp_path)
    args[args.index("fixture:comm_synthetic.csv")] = str(table)
    return ["estimate", *args]


def _gemm_row_with_text_m(tmp_path):
    table = tmp_path / "gemm.csv"
    table.write_text("G,M,contraction,N,dtype_bytes,latency_s,power_w\n"
                     "1,x,8192,8192,2,1e-3,300\n")
    return ["estimate", *_base_args(tmp_path), "--gemm-cal", str(table)]


def _sweep_over(tmp_path, grid_text):
    grid = tmp_path / "grid.json"
    grid.write_text(grid_text)
    return ["sweep", *_base_args(tmp_path / "out"), "--grid", str(grid)]


def _grid_overlap_without_colon(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"overlap": ["bad"]}))


def _grid_overlap_short_pair(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"overlap": [[2]]}))


def _grid_text_batch(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"batch": ["abc"]}))


def _grid_fractional_values(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"batch": [1.5], "isl": [128.5],
                                             "tp": [2.0]}))


def _grid_bool_batch(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"batch": [True]}))


def _grid_huge_batch(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"batch": [10**400]}))


def _grid_scalar_axis(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"batch": 4}))


def _grid_list(tmp_path):
    return _sweep_over(tmp_path, json.dumps([1, 2]))


def _non_json_grid(tmp_path):
    return _sweep_over(tmp_path, "batch: [1, 2]\n")


def _with_non_json(tmp_path, name):
    path = tmp_path / name
    path.write_text("{not json")
    args = _base_args(tmp_path)
    args[args.index(f"fixture:{name}")] = str(path)
    return ["estimate", *args]


def _non_json_dims(tmp_path):
    return _with_non_json(tmp_path, "llama3_8b.json")


def _non_json_hw(tmp_path):
    return _with_non_json(tmp_path, "a100_sxm_80g.json")


def _non_json_points(tmp_path):
    points = tmp_path / "points.json"
    points.write_text("phase,batch\nprefill,1\n")
    return ["pareto", "--points", str(points), "--out", str(tmp_path / "p")]


def _estimate_with(tmp_path, flag, data, *extra):
    """estimate argv with ``flag`` naming a file that holds ``data`` (bytes)."""
    path = tmp_path / "input"
    path.write_bytes(data)
    args = ["estimate", *_base_args(tmp_path), *extra]
    if flag in args:
        args[args.index(flag) + 1] = str(path)
    else:
        args += [flag, str(path)]
    return args


_NOT_UTF8 = b"\xff\xfe\x00binary\n"


def _binary_spec(tmp_path):
    return _estimate_with(tmp_path, "--spec", _NOT_UTF8)


def _binary_comm_cal(tmp_path):
    return _estimate_with(tmp_path, "--comm-cal", _NOT_UTF8)


def _binary_gemm_cal(tmp_path):
    return _estimate_with(tmp_path, "--gemm-cal", _NOT_UTF8)


def _binary_trace(tmp_path):
    return _estimate_with(tmp_path, "--trace", _NOT_UTF8)


def _spec_with_text_layers(tmp_path):
    return _estimate_with_edited(tmp_path, "dense_fused.json",
                                 lambda raw: raw.update(layers="abc"))


def _spec_with_number_op(tmp_path):
    return _estimate_with_edited(tmp_path, "dense_fused.json",
                                 lambda raw: raw["ops"].append(5))


def _spec_with_text_overlap_stage(tmp_path):
    return _estimate_with_edited(
        tmp_path, "dense_fused.json",
        lambda raw: raw["ops"][2].update(overlap_stage="2", overlap_sm=4,
                                         overlap="s"))


def _estimate_with_spec(tmp_path, spec):
    args = _base_args(tmp_path)
    args[args.index("fixture:dense_fused.json")] = spec
    return ["estimate", *args]


def _missing_fixture(tmp_path):
    return _estimate_with_spec(tmp_path, "fixture:nope.json")


def _directory_spec(tmp_path):
    return _estimate_with_spec(tmp_path, str(tmp_path))


def _overlap_flag_without_stages(tmp_path):
    return ["estimate", *_base_args(tmp_path), "--tp", "2", "--isl", "512",
            "--overlap", "0:4"]


def _grid_overlap_without_stages(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"tp": [2], "overlap": ["0:4"]}))


def _grid_overlap_pair_without_stages(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"tp": [2], "overlap": [[0, 4]]}))


def _grid_overlap_float_stages(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"tp": [2], "overlap": [[2.5, 4]]}))


def _grid_overlap_bool_stages(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"tp": [2], "overlap": [[True, 4]]}))


def _grid_overlap_without_sm(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"tp": [2], "overlap": ["2:0"]}))


def _point_overlap_without_stages(tmp_path):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [
        {"phase": "prefill", "batch": 1, "isl": 512, "osl": 1, "tp": 2,
         "ep": 1, "cp": 1, "overlap": "0:4", "feasible": True,
         "latency_s": 1.0, "energy_j": 1.0}]}))
    return ["pareto", "--points", str(points), "--out", str(tmp_path / "p")]


def _sweep_with(tmp_path, *flags):
    return [*_sweep_over(tmp_path, json.dumps({"tp": [2]})), *flags]


def _sweep_format_xml(tmp_path):
    return _sweep_with(tmp_path, "--format", "xml")


def _estimate_format_json_xml(tmp_path):
    return ["estimate", *_base_args(tmp_path), "--format", "json,xml"]


def _sweep_jobs_zero(tmp_path):
    return _sweep_with(tmp_path, "--jobs", "0")


def _sweep_jobs_negative(tmp_path):
    return _sweep_with(tmp_path, "--jobs", "-3")


def _estimate_decode_stride_two(tmp_path):
    return ["estimate", *_base_args(tmp_path), "--phase", "decode",
            "--decode-stride", "2"]


def _sweep_latency_budget_nan(tmp_path):
    return _sweep_with(tmp_path, "--latency-budget", "nan")


def _sweep_latency_budget_negative(tmp_path):
    return _sweep_with(tmp_path, "--latency-budget=-1e-3")


def _pareto_latency_budget_inf(tmp_path):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": []}))
    return ["pareto", "--points", str(points), "--latency-budget", "inf",
            "--out", str(tmp_path / "p")]


# What a case's message must name when it is not a file under tmp_path.
_NAMED = {
    _missing_fixture: "'nope.json'",
    _overlap_flag_without_stages: "'0:4'",
    _grid_overlap_without_stages: "'0:4'",
    _grid_overlap_pair_without_stages: "[0, 4]",
    _grid_overlap_float_stages: "[2.5, 4]",
    _grid_overlap_bool_stages: "[True, 4]",
    _grid_overlap_without_sm: "'2:0'",
    _point_overlap_without_stages: "'0:4'",
    _sweep_format_xml: "'xml'",
    _estimate_format_json_xml: "'xml'",
    _sweep_jobs_zero: "got 0",
    _sweep_jobs_negative: "got -3",
    _estimate_decode_stride_two: "--decode-stride must be 1",
    _sweep_latency_budget_nan: "got nan",
    _sweep_latency_budget_negative: "got -0.001",
    _pareto_latency_budget_inf: "got inf",
    _estimate_with_huge_batch: "--batch must be an integer that fits a float, "
                               "got one of 1329 bits",
}


_COMM_ROW = "AllReduce,2,108,1024.0,1.0097712592592594e-05,"


def _comm_with_row(tmp_path, row):
    text = fixture_path("comm_synthetic.csv").read_text().replace(_COMM_ROW, row)
    return _estimate_with(tmp_path, "--comm-cal", text.encode(), "--tp", "2")


def _comm_row_with_zero_bytes(tmp_path):
    return _comm_with_row(tmp_path, "AllReduce,2,108,0,1.0097712592592594e-05,")


def _comm_row_with_negative_bytes(tmp_path):
    return _comm_with_row(tmp_path, "AllReduce,2,108,-5,1.0097712592592594e-05,")


_COMM_WITHOUT_ROWS = b"# no rows\nkind,world,sm_count,bytes,latency_s,energy_j\n"


def _comm_without_rows(tmp_path):
    return _estimate_with(tmp_path, "--comm-cal", _COMM_WITHOUT_ROWS)


def _sweep_comm_without_rows(tmp_path):
    table = tmp_path / "comm.csv"
    table.write_bytes(_COMM_WITHOUT_ROWS)
    return [*_sweep_over(tmp_path, json.dumps({"tp": [1, 2]})), "--comm-cal", str(table)]


def _comm_row_with_nan_latency(tmp_path):
    return _comm_with_row(tmp_path, "AllReduce,2,108,1024.0,nan,")


def _comm_curve_with_equal_logs(tmp_path):
    # The unrestricted AllReduce curve at world 2 holds only two sizes
    # whose logs are equal; every larger message extrapolates over them.
    rows = [row for row in fixture_path("comm_synthetic.csv").read_text().splitlines()
            if not row.startswith("AllReduce,2,108,")]
    rows += ["AllReduce,2,108,1000.0,1e-05,0.01",
             "AllReduce,2,108,1000.0000000000001,2e-05,0.02"]
    return _estimate_with(tmp_path, "--comm-cal", "\n".join(rows).encode(),
                          "--tp", "2", "--isl", "1000")


_GEMM_HEADER = b"G,M,contraction,N,dtype_bytes,latency_s,power_w\n"


def _gemm_row_with_zero_m(tmp_path):
    return _estimate_with(tmp_path, "--gemm-cal",
                          _GEMM_HEADER + b"1,0,8192,8192,2,1e-3,300\n")


def _gemm_row_with_zero_dtype_bytes(tmp_path):
    return _estimate_with(tmp_path, "--gemm-cal",
                          _GEMM_HEADER + b"1,16,8192,8192,0,1e-3,300\n")


# An integer of 1329 bits: an int, too large for a float.
_HUGE = 10**400
_HUGE_MESSAGE = "must be an integer that fits a float, got one of 1329 bits"


def _gemm_row_with_huge_dtype_bytes(tmp_path):
    return _estimate_with(tmp_path, "--gemm-cal",
                          _GEMM_HEADER + b"1,16,8192,8192,%d,1e-3,300\n" % _HUGE)


def _comm_with_rows(tmp_path, world, sm_count):
    # Two rows, so that their curve alone would pass its checks.
    rows = "".join(f"AllReduce,{world},{sm_count},{size},1e-05,0.001\n"
                   for size in (1024.0, 2048.0))
    text = fixture_path("comm_synthetic.csv").read_text() + rows
    return _estimate_with(tmp_path, "--comm-cal", text.encode(), "--tp", "2")


def _comm_rows_with_huge_world(tmp_path):
    return _comm_with_rows(tmp_path, _HUGE, 108)


def _comm_rows_with_huge_sm_count(tmp_path):
    return _comm_with_rows(tmp_path, 2, _HUGE)


def _moe_args(out):
    return _base_args(out, spec="moe_fused.json", dims="qwen3_30b_a3b.json")


def _estimate_moe_with_huge_tile(tmp_path):
    return ["estimate", *_moe_args(tmp_path), "--ep", "2", "--tile", str(_HUGE)]


def _sweep_moe_with_huge_tile(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"ep": [2]}))
    return ["sweep", *_moe_args(tmp_path / "out"), "--grid", str(grid),
            "--tile", str(_HUGE)]


def _estimate_with_huge_decode_stride(tmp_path):
    return ["estimate", *_base_args(tmp_path), "--phase", "decode",
            "--decode-stride", str(_HUGE)]


def _sweep_with_huge_jobs(tmp_path):
    return _sweep_with(tmp_path, "--jobs", str(_HUGE))


def _grid_overlap_with_huge_stages(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"tp": [2], "overlap": [f"{_HUGE}:4"]}))


def _overlap_flag_with_huge_sm(tmp_path):
    return ["estimate", *_base_args(tmp_path), "--tp", "2", "--overlap", f"2:{_HUGE}"]


_NAMED.update({
    _gemm_row_with_huge_dtype_bytes: f"input:2: dtype_bytes {_HUGE_MESSAGE}",
    _comm_rows_with_huge_world: f"input:1011: world {_HUGE_MESSAGE}",
    _comm_rows_with_huge_sm_count: f"input:1011: sm_count {_HUGE_MESSAGE}",
    _estimate_moe_with_huge_tile: f"--tile {_HUGE_MESSAGE}",
    _sweep_moe_with_huge_tile: f"--tile {_HUGE_MESSAGE}",
    _estimate_with_huge_decode_stride: f"--decode-stride {_HUGE_MESSAGE}",
    _sweep_with_huge_jobs: f"--jobs {_HUGE_MESSAGE}",
    _grid_overlap_with_huge_stages: f"grid.json: overlap stages {_HUGE_MESSAGE}",
    _overlap_flag_with_huge_sm: f"error: overlap sm {_HUGE_MESSAGE}",
})


@pytest.mark.parametrize("make_argv", [
    _malformed_dims, _hw_without_total_sm, _short_gemm_row,
    _feasible_point_without_latency, _point_without_feasible,
    _point_with_text_feasible, _point_with_list_batch, _point_with_float_isl,
    _point_with_zero_tp, _point_with_bool_cp, _point_with_number_reason,
    _hw_with_text_total_sm, _comm_row_with_text_world, _gemm_row_with_text_m,
    _grid_overlap_without_colon, _grid_overlap_short_pair, _grid_text_batch,
    _grid_scalar_axis, _grid_list, _non_json_grid, _non_json_dims,
    _non_json_hw, _non_json_points, _binary_spec, _binary_comm_cal,
    _binary_gemm_cal, _binary_trace, _spec_with_text_layers,
    _spec_with_number_op, _spec_with_text_overlap_stage,
    _comm_row_with_zero_bytes, _comm_row_with_negative_bytes,
    _comm_row_with_nan_latency, _comm_curve_with_equal_logs, _comm_without_rows,
    _sweep_comm_without_rows, _gemm_row_with_zero_m,
    _gemm_row_with_zero_dtype_bytes, _missing_fixture, _directory_spec,
    _dims_with_fractional_size, _dims_with_bool_dtype_bytes, _dims_with_float_layers,
    _hw_with_float_total_sm, _hw_with_negative_launch_overhead,
    _hw_with_memory_op_utilization_above_one,
    _hw_with_negative_memory_op_utilization, _grid_fractional_values, _grid_bool_batch,
    _overlap_flag_without_stages, _grid_overlap_without_stages,
    _grid_overlap_pair_without_stages, _grid_overlap_float_stages,
    _grid_overlap_bool_stages, _grid_overlap_without_sm,
    _point_overlap_without_stages, _sweep_format_xml, _estimate_format_json_xml,
    _sweep_jobs_zero, _sweep_jobs_negative, _estimate_decode_stride_two,
    _sweep_latency_budget_nan,
    _sweep_latency_budget_negative, _pareto_latency_budget_inf,
    _hw_with_huge_p_idle, _feasible_point_with_huge_latency, _dims_with_huge_size,
    _estimate_with_huge_batch, _grid_huge_batch, _gemm_row_with_huge_dtype_bytes,
    _comm_rows_with_huge_world, _comm_rows_with_huge_sm_count,
    _estimate_moe_with_huge_tile, _sweep_moe_with_huge_tile,
    _estimate_with_huge_decode_stride, _sweep_with_huge_jobs,
    _grid_overlap_with_huge_stages, _overlap_flag_with_huge_sm])
def test_malformed_input_is_validation_error(tmp_path, make_argv, capsys):
    assert main(make_argv(tmp_path)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error" in err
    # names the malformed file, or the value
    assert _NAMED.get(make_argv, str(tmp_path)) in err
    # an integer too large for a float is named by its size, not its digits
    assert str(_HUGE) not in err


@pytest.mark.parametrize("command", ["validate", "sweep"])
@pytest.mark.parametrize("make_argv, flag, line, column", [
    (_gemm_row_with_huge_dtype_bytes, "--gemm-cal", 2, "dtype_bytes"),
    (_comm_rows_with_huge_world, "--comm-cal", 1011, "world"),
    (_comm_rows_with_huge_sm_count, "--comm-cal", 1011, "sm_count"),
], ids=["gemm-dtype_bytes", "comm-world", "comm-sm_count"])
def test_a_calibration_integer_too_large_for_a_float_is_named(
        tmp_path, capsys, command, make_argv, flag, line, column):
    # As estimate does (above), the first such cell is named by its path
    # and line, and the integer by its size.
    argv = make_argv(tmp_path)
    path = argv[argv.index(flag) + 1]
    kind = "gemm" if flag == "--gemm-cal" else "comm"
    message = f"{path}:{line}: {column} {_HUGE_MESSAGE}"
    if command == "validate":
        argv = ["validate", flag, path]
        want = (f"VIOLATION: {kind} calibration: {message}\n", "")
    else:
        argv = [*_sweep_over(tmp_path, json.dumps({"tp": [1, 2]})), flag, path]
        want = ("", f"validation error: {message}\n")
    assert main(argv) == EXIT_VALIDATION
    assert tuple(capsys.readouterr()) == want


@pytest.mark.parametrize("make_argv, message", [
    (_point_with_text_feasible, "feasible must be true or false, got 'false'"),
    (_point_with_list_batch, "batch must be an integer, got [1]"),
    (_point_with_zero_tp, "tp must be >= 1, got 0"),
    (_point_with_number_reason, "infeasible_reason must be a string, got 3"),
    (_decode_point_with_overlap, "overlap is prefill-only, got '2:4' in decode"),
])
def test_a_mistyped_point_is_named(tmp_path, make_argv, message, capsys):
    assert main(make_argv(tmp_path)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == (f"validation error: {tmp_path / 'points.json'}: "
                            f"point #1 {message}\n")
    assert not (tmp_path / "p").exists()


# -- JSON writes -----------------------------------------------------------------

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf]),
    st.text(), st.sampled_from(['"', "\\", '},\n      {', "\x00\x1f\x7f", "é ∑ 😀"]))
# Payload values beside a row list: scalars, and lists, tuples and dicts
# of them, some dicts keyed by ints (which the JSON encoder writes).
_PAYLOADS = st.dictionaries(st.text(), st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple) | st.just([])
    | st.dictionaries(st.text(), inner, max_size=3)
    | st.dictionaries(st.integers(-3, 3), inner, max_size=3), max_leaves=6), max_size=3)


_CELLS = st.one_of(st.text(), st.sampled_from(
    ["a,b", 'say "no"', "cr\r", "\nlf", "\r\n", ',"\n', "\x00\x1f\x7f", "é ∑ 😀"]))
_REPORT_COSTS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_CELLS, st.sampled_from(CATEGORIES), _REPORT_COSTS,
                               _REPORT_COSTS), max_size=8),
       phase=st.sampled_from(["prefill", "decode"]), feasible=st.booleans(),
       sizes=st.tuples(*[st.integers(1, 2**40)] * 4), reason=_CELLS,
       formats=st.sampled_from([("json", "csv"), ("json",), ("csv",)]),
       meta=st.dictionaries(st.text(), st.recursive(
           _SCALARS, lambda inner: st.lists(inner, max_size=3)
           | st.dictionaries(st.text(), inner, max_size=3)
           | st.dictionaries(st.integers(-3, 3), inner, max_size=3), max_leaves=8),
           max_size=4))
def test_reports_write_the_bytes_of_json_dumps_and_csv_writer(
        rows, phase, feasible, sizes, reason, formats, meta):
    # Reports of both phases, feasible or not, with NaN, infinities, -0.0
    # and 5e-324 as costs, and labels and reasons holding commas, quotes,
    # carriage returns, newlines, non-ASCII and control characters; meta
    # with nested dicts (some keyed by ints), lists and scalars. An
    # infeasible report's rows are in neither file.
    batch, isl, osl, gpus = sizes
    report = PhaseReport(phase, batch, isl, osl, gpus,
                         rows=[ReportRow(*row) for row in rows], feasible=feasible,
                         infeasible_reason="" if feasible else reason,
                         meta={"degrees": {"cp": 1, "ep": 1, "tp": 2}})
    written = dict(meta, input_digests={"dims": "0123456789abcdef"})
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        cli._write_report(out, report, dict(report.meta, **written), formats)
        assert sorted(path.name for path in out.iterdir()) == sorted(
            f"report_{phase}.{kind}" for kind in formats)
        want = dataclasses.replace(report, meta=dict(report.meta, **written))
        if "json" in formats:
            assert ((out / f"report_{phase}.json").read_text()
                    == json.dumps(want.to_dict(), indent=2, sort_keys=True) + "\n")
        if "csv" in formats:
            table = io.StringIO(newline="")
            writer = csv.writer(table)
            writer.writerow(["label", "category", "latency_s", "energy_j"])
            for label, category, latency, energy in rows if feasible else ():
                writer.writerow([label, category, repr(latency), repr(energy)])
            with open(out / f"report_{phase}.csv", newline="") as fh:
                assert fh.read() == table.getvalue()
    assert report.meta == {"degrees": {"cp": 1, "ep": 1, "tp": 2}}


# -- CSV writes ------------------------------------------------------------------

def _row_at_a_time_points_csv(path, rows):
    """points.csv as written one row at a time from the rows' dicts."""
    fields = ["phase", "batch", "isl", "osl", "tp", "ep", "cp", "overlap",
              "feasible", "latency_s", "energy_j", "infeasible_reason"]
    head = itemgetter(*fields[:9])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            latency, energy = row["latency_s"], row["energy_j"]
            writer.writerow((*head(row),
                             None if latency is None else repr(latency),
                             None if energy is None else repr(energy),
                             row["infeasible_reason"]))


def _row_at_a_time_plot_data(path, points):
    """plot_data.csv as written one row at a time from the points."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "x_latency_s", "y_energy_j", "label"])
        for p in points:
            if not p.feasible:
                continue
            series = f"tp{p.tp}-ov{format_overlap(p.overlap) or 'none'}"
            writer.writerow([series, repr(p.latency), repr(p.energy),
                             f"b{p.batch}-isl{p.isl}"])


_COST = st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from([-0.0, 0.0, 5e-324, 1e300]))
_POINTS = st.lists(st.builds(
    ConfigPoint, phase=st.sampled_from(["prefill", "decode"]),
    batch=st.integers(1, 2**40), isl=st.integers(1, 2**20), osl=st.integers(1, 64),
    tp=st.integers(1, 8), ep=st.integers(1, 8), cp=st.integers(1, 8),
    overlap=st.one_of(st.none(), st.tuples(st.integers(1, 8), st.integers(1, 200))),
    feasible=st.booleans(), latency=_COST, energy=_COST,
    infeasible_reason=st.one_of(st.text(), st.sampled_from(
        ["", "a, b", 'say "no"', "line\nbreak", "cr\r\nlf", ",\"\n", "%s", "100%",
         "%%d", None]))),
    max_size=12)


_POINT_FILES = {"json": "points.json", "csv": "points.csv", "plot": "plot_data.csv"}


def _indented_json(payload, key, points) -> str:
    """``payload`` with the rows' dicts of ``points`` under ``key``, as
    ``json.dumps(indent=2, sort_keys=True)`` writes it, and a line break."""
    return json.dumps(dict(payload, **{key: [p.to_dict() for p in points]}),
                      indent=2, sort_keys=True) + "\n"


def _row_at_a_time_point_files(out_dir, payload, points, key="points"):
    """The three point files as written before the one-pass writer:
    ``<key>.json`` by ``json.dumps`` of the rows' dicts, the CSVs one row
    at a time."""
    out_dir.mkdir()
    (out_dir / f"{key}.json").write_text(_indented_json(payload, key, points))
    _row_at_a_time_points_csv(out_dir / "points.csv", [p.to_dict() for p in points])
    _row_at_a_time_plot_data(out_dir / "plot_data.csv", points)


@pytest.mark.parametrize("formats", [
    formats for n in (1, 2, 3)
    for formats in itertools.combinations(("json", "csv", "plot"), n)], ids=",".join)
@settings(max_examples=150, deadline=None)
@given(points=_POINTS, block=st.sampled_from([1, 3, 64]),
       key=st.sampled_from(["points", "frontier"]), meta=_PAYLOADS)
def test_point_files_write_the_bytes_of_row_at_a_time_writers(formats, points,
                                                             block, key, meta):
    # None latency and energy, feasible or not; no overlap; reasons with
    # commas, quotes, carriage returns, newlines, format directives ("%s",
    # "%%d", a lone "%") and non-ASCII text, and a None reason; nan,
    # inf and -0.0; lists of up to twelve points in blocks of 1, 3 or 64,
    # under "points" or "frontier". Beside them, keys sorted before and
    # after the row key, with nested lists, tuples and dicts (empty ones
    # too, some keyed by ints), quotes, backslashes, control characters, a
    # row-boundary lookalike, nan, inf and -0.0.
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new"), Path(tmp, "old")
        with mock.patch.object(cli, "_ROWS_PER_BLOCK", block):
            cli._write_points(new, meta, points, formats, key=key)
        _row_at_a_time_point_files(old, meta, points, key)
        names = sorted(dict(_POINT_FILES, json=f"{key}.json")[name] for name in formats)
        assert sorted(path.name for path in new.iterdir()) == names
        for name in names:
            assert (new / name).read_bytes() == (old / name).read_bytes()


@pytest.mark.parametrize("flags", [[], ["--gemm-cal", "fixture:gemm_synthetic.csv"]],
                         ids=["roofline", "gemm-table"])
def test_sweep_writes_the_point_files_of_the_points_dicts(tmp_path, flags):
    # 70B weights do not fit one GPU, nor a 131072-token batch of 64 its
    # memory: infeasible points among feasible ones, with each overlap.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"batch": [1, 64], "isl": [512, 131072],
                                "tp": [1, 2, 4], "overlap": ["none", "2:4", "4:32"]}))
    swept = []
    sweep = cli.sweep

    def spy(*args, **kwargs):
        swept.append(sweep(*args, **kwargs))
        return swept[-1]

    out = tmp_path / "out"
    with mock.patch.object(cli, "sweep", spy):
        assert main(["sweep", *_base_args(out, dims="llama3_70b.json"),
                     "--grid", str(grid), "--heuristic", "max-overlap",
                     *flags]) == EXIT_OK
    [points] = swept
    assert len(points) == 36
    assert {p.feasible for p in points} == {True, False}
    assert {p.overlap for p in points} == {None, (2, 4), (4, 32)}
    payload = json.loads((out / "points.json").read_text())
    del payload["points"]
    _row_at_a_time_point_files(tmp_path / "want", payload, points)
    for name in _POINT_FILES.values():
        assert (out / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
    # frontier.json: its rows beside the insights and the heuristic's
    # result; then the frontier of the points file under a latency budget
    # that drops some of it.
    frontier = pareto_front(points).frontier
    payload = json.loads((out / "frontier.json").read_text())
    del payload["frontier"]
    assert sorted(payload) == ["format_version", "heuristic", "insights"]
    assert (out / "frontier.json").read_text() == _indented_json(
        payload, "frontier", frontier)
    budget = min(p.latency for p in frontier)
    kept = [p for p in frontier if p.latency <= budget]
    assert 0 < len(kept) < len(frontier)
    assert main(["pareto", "--points", str(out / "points.json"),
                 "--latency-budget", repr(budget),
                 "--out", str(tmp_path / "p")]) == EXIT_OK
    assert (tmp_path / "p" / "frontier.json").read_text() == _indented_json(
        {"format_version": 1}, "frontier", kept)


# -- Rewriting outputs -------------------------------------------------------------

@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_rewriting_an_existing_out_writes_the_bytes_of_a_fresh_run(tmp_path, command):
    # The files of a larger run are there first: each is replaced whole.
    def argv(out, larger):
        if command == "estimate":
            return ["estimate", *_base_args(out), "--phase", "both", "--osl", "8",
                    "--isl", "4096" if larger else "256"]
        grid = tmp_path / ("larger.json" if larger else "grid.json")
        grid.write_text(json.dumps({"batch": [1, 2, 4] if larger else [1],
                                    "tp": [1, 2], "overlap": ["none", "2:4"]}))
        return ["sweep", *_base_args(out), "--grid", str(grid),
                "--heuristic", "max-overlap"]

    fresh, again = tmp_path / "fresh", tmp_path / "again"
    assert main(argv(again, larger=True)) == EXIT_OK
    larger = _outputs(again)
    for path in again.iterdir():
        path.chmod(0o600)
    files = {path.name: path.stat() for path in again.iterdir()}
    assert main(argv(fresh, larger=False)) == EXIT_OK
    assert main(argv(again, larger=False)) == EXIT_OK
    written = _outputs(again)
    assert written == _outputs(fresh)
    assert all(written[name] != data for name, data in larger.items())
    # Truncated in place, as open(path, "w") does: the same file and mode.
    for path in again.iterdir():
        status = path.stat()
        assert (status.st_ino, status.st_mode) == (files[path.name].st_ino,
                                                   files[path.name].st_mode)


def test_a_linked_report_is_written_through(tmp_path):
    # A symlinked report writes its target, a hard-linked one both names.
    out, other = tmp_path / "out", tmp_path / "other"
    out.mkdir()
    other.mkdir()
    argv = ["estimate", *_base_args(out), "--isl", "256"]
    assert main(["estimate", *_base_args(tmp_path / "fresh"), "--isl", "256"]) == EXIT_OK
    want = _outputs(tmp_path / "fresh")
    target = other / "target.json"
    target.write_text("x" * 10000)
    (out / "report_prefill.json").symlink_to(target)
    linked = other / "linked.csv"
    linked.write_text("y" * 10000)
    os.link(linked, out / "report_prefill.csv")
    assert main(argv) == EXIT_OK
    assert (out / "report_prefill.json").is_symlink()
    assert target.read_bytes() == want["report_prefill.json"]
    assert (out / "report_prefill.csv").stat().st_nlink == 2
    assert linked.read_bytes() == want["report_prefill.csv"]
