"""Command-line entry point: estimate, sweep, pareto, validate, fixtures."""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import os
import shutil
import sys
from contextlib import ExitStack
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, Optional

from . import __version__
from .comm import CommBackend, load_comm_calibration
from .compute import (
    GemmCalibrationTable,
    RooflineBackend,
    TableComputeBackend,
    load_hardware_profile,
)
from .engine import Estimator, check_trace_experts
from .errors import BackendError, SpecError, ValidationError
from .fixtures import fixture_path, list_fixtures
from .interpreter import DECODE, PREFILL, PhaseContext
from .metrics import CATEGORIES, PhaseReport
from .moe import DEFAULT_TILE, RoutingTrace
from .spec_lang import (
    InputFile,
    as_int,
    format_overlap,
    load_bindings,
    load_json,
    load_model_spec,
    parse_overlap,
    validate_bindings,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3


# The explorer is imported on the first sweep or pareto call, not with the
# CLI: an estimate or a validate never runs it. These stand-ins keep each
# name here, where the benchmark's tracer wraps it, and look the explorer's
# function up on each call, so a patched one is the one called.
def sweep(*args, **kwargs):
    from . import explorer
    return explorer.sweep(*args, **kwargs)


def pareto_front(*args, **kwargs):
    from . import explorer
    return explorer.pareto_front(*args, **kwargs)


def heuristic_compare(*args, **kwargs):
    from . import explorer
    return explorer.heuristic_compare(*args, **kwargs)


def insight_queries(*args, **kwargs):
    from . import explorer
    return explorer.insight_queries(*args, **kwargs)


def _resolve(path_str: str) -> Path:
    """Accept a plain path or a ``fixture:NAME`` reference to a file."""
    if path_str.startswith("fixture:"):
        try:
            return fixture_path(path_str.split(":", 1)[1])
        except FileNotFoundError as exc:
            raise ValidationError(str(exc)) from None
    path = Path(path_str)
    if not path.is_file():
        raise ValidationError(
            f"{'not a file' if path.exists() else 'file not found'}: {path}")
    return path


# What a call derives from unchanged inputs, kept between calls in one
# process. Each memo drops its oldest entry past its bound.
# - _parsed: each parsed input file, by (kind, path, sha256 of the bytes
#   read); a file read again with the same bytes is not parsed again. A
#   failed parse is never kept, and nothing changes a parsed input once
#   loaded. 32 holds 16 routing traces with the files they are priced with.
# - _plans: per (spec, dims) pair of _parsed keys, the Estimator memo of
#   validated degrees, memory models and compiled layer plans, which depend
#   on nothing else; past _PLAN_ENTRIES entries a pair's memo starts empty.
# - _parsers: each subcommand's parser, by subcommand name, with its
#   canonical table (:func:`_canonical_table`).
_KEPT_INPUTS = 32
_parsed: dict[tuple, object] = {}
_KEPT_PLANS = 8
_PLAN_ENTRIES = 1024
_plans: dict[tuple, dict] = {}
_parsers: dict[str, tuple[argparse.ArgumentParser, tuple]] = {}


def _kept(memo: dict, key, bound: int, make):
    """``memo[key]``, made by ``make()`` and kept if missing: past ``bound``
    entries the oldest is dropped. Nothing is kept if ``make`` raises."""
    value = memo.get(key)
    if value is None:
        value = memo[key] = make()
        if len(memo) > bound:
            del memo[next(iter(memo))]
    return value


def _load_inputs(args) -> dict:
    """The inputs named by ``args``. Each file is read and hashed once per
    call, in the loaders' order, and its loader decodes the bytes that its
    digest is taken from. A file is parsed only when its (kind, path,
    bytes) are not in :data:`_parsed`. A loader is looked up when it runs,
    so a wrapped or patched one sees each parse. ``plans`` is the kept
    Estimator memo of the spec and dims (:data:`_plans`)."""
    files = {name: InputFile(_resolve(value)) for name, value in (
        ("spec", args.spec), ("dims", args.dims), ("hw", args.hw),
        ("comm_cal", args.comm_cal), ("gemm_cal", args.gemm_cal),
        ("trace", args.trace)) if value}
    digests, keys = {}, {}

    def parsed(name, loader):
        file = files[name]
        sha = hashlib.sha256(file.data)
        digests[name] = sha.hexdigest()[:16]
        key = keys[name] = (name, file.path, sha.digest())
        return _kept(_parsed, key, _KEPT_INPUTS, lambda: loader(file))

    hw = parsed("hw", load_hardware_profile)
    inputs = {
        "spec": parsed("spec", load_model_spec),
        "dims": parsed("dims", load_bindings),
        "hw": hw,
        "comm": CommBackend(parsed("comm_cal", load_comm_calibration)),
        "compute": (TableComputeBackend(parsed("gemm_cal", GemmCalibrationTable.load), hw)
                    if "gemm_cal" in files else RooflineBackend(hw)),
        "trace": parsed("trace", RoutingTrace.load) if "trace" in files else None,
        "digests": digests,
    }
    plans = _kept(_plans, (keys["spec"], keys["dims"]), _KEPT_PLANS, dict)
    if len(plans) > _PLAN_ENTRIES:
        plans.clear()
    inputs["plans"] = plans
    return inputs


# The encoding that ``open(path, "w")`` picks: the locale's, or UTF-8 in
# UTF-8 mode.
_ENCODING = io.TextIOWrapper(io.BytesIO()).encoding


class _Output:
    """One file that the CLI writes, as ``open(path, "w")`` writes it on a
    POSIX system (a line break as it is), less its buffer: each
    :meth:`write` encodes its text and hands it to ``os.write`` at once,
    looping on short writes. Every file the CLI writes goes through here.
    An existing file is truncated in place, as ``open`` does."""

    __slots__ = ("_fd",)

    def __init__(self, path: str):
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)

    def write(self, text: str) -> None:
        data = memoryview(text.encode(_ENCODING))
        while data:
            data = data[os.write(self._fd, data):]

    def __enter__(self) -> "_Output":
        return self

    def __exit__(self, *exc_info) -> None:
        os.close(self._fd)


def _write_file(path: str, text: str) -> None:
    with _Output(path) as out:
        out.write(text)


def _output_dir(out_dir) -> str:
    """The output directory ``out_dir`` as :class:`Path` spells it, made
    with its parents if it is not a directory."""
    if not os.path.isdir(out_dir):
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    return os.fspath(Path(out_dir))


def _output_path(out_dir: str, name: str) -> str:
    """``str(Path(out_dir) / name)`` for a directory that
    :func:`_output_dir` spelled."""
    return name if out_dir == "." else os.path.join(out_dir, name)


# Rows per block of the point writer: one write per row costs more, and
# one for a whole list holds all of its text at once (a 1024-row block
# raised a sweep's peak memory by 2 MB).
_ROWS_PER_BLOCK = 64
# A payload value that :func:`_json_chunks` yields as it is, in place of
# its text, for the caller to write the value's text there.
_SPLICE = object()
# A float's repr (or None's) as the JSON encoder writes the value.
_JSON_NUMBER = {"None": "null", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, newline: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` with each of its
    line breaks written as ``newline``: a line break and the indentation
    of the line that ``value`` starts on. A str, float, int, bool or None,
    a list or tuple, or a dict with str keys, is written by its type; only
    anything else (a dict with int keys, say) goes through the encoder,
    whose ``indent`` runs in pure Python."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float:
        text = repr(value)
        return _JSON_NUMBER.get(text, text)
    if kind is int:
        return repr(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return "[%s%s%s]" % (inner, ("," + inner).join([
            _json_text(item, inner) for item in value]), newline)
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        inner = newline + "  "
        return "{%s%s%s}" % (inner, ("," + inner).join([
            f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
            for key, item in sorted(value.items())]), newline)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _json_chunks(payload: dict) -> Iterator[str]:
    """``json.dumps(payload, indent=2, sort_keys=True)`` of a non-empty dict
    with string keys, in chunks, byte for byte: each value by
    :func:`_json_text`, except that a value that is ``_SPLICE`` is yielded
    itself."""
    opening = "{"
    for key, value in sorted(payload.items()):
        yield f"{opening}\n  {encode_basestring_ascii(key)}: "
        opening = ","
        yield value if value is _SPLICE else _json_text(value, "\n  ")
    yield "\n}"


# The characters for which :func:`csv.writer` quotes a cell.
_CSV_QUOTED = frozenset(',"\r\n')


def _csv_cell(text: str) -> str:
    """``text`` as :func:`csv.writer` writes it as a cell: quoted, with its
    quotes doubled, where it holds a comma, a quote or a line break."""
    if _CSV_QUOTED.isdisjoint(text):
        return text
    return '"%s"' % text.replace('"', '""')


# A report as ``indent=2`` writes :meth:`PhaseReport.to_dict`, keys sorted,
# and a line break: a feasible one, whose per-phase keys are filled in
# (etft_j_per_request and ttft_s, or epot_j_per_token and tpot_s), one of
# its rows, its sums by category, and an infeasible one.
_REPORT = ("{\n"
           '  "batch": %d,\n'
           '  "category_energy_j": %s,\n'
           '  "category_latency_s": %s,\n'
           '  "%s": %s,\n'
           '  "feasible": true,\n'
           '  "format_version": 1,\n'
           '  "gpu_count": %d,\n'
           '  "isl": %d,\n'
           '  "meta": %s,\n'
           '  "osl": %d,\n'
           '  "phase": %s,\n'
           '  "rows": %s,\n'
           '  "total_energy_j": %s,\n'
           '  "total_latency_s": %s,\n'
           '  "%s": %s\n'
           "}\n")
_REPORT_ROW = ("{\n"
               '      "category": %s,\n'
               '      "energy_j": %s,\n'
               '      "label": %s,\n'
               '      "latency_s": %s\n'
               "    }")
_SORTED_CATEGORIES = sorted(CATEGORIES)
_BY_CATEGORY = "{\n%s\n  }" % ",\n".join(
    f"    {encode_basestring_ascii(category)}: %s" for category in _SORTED_CATEGORIES)
_INFEASIBLE_REPORT = ("{\n"
                      '  "batch": %d,\n'
                      '  "feasible": false,\n'
                      '  "format_version": 1,\n'
                      '  "gpu_count": %d,\n'
                      '  "infeasible_reason": %s,\n'
                      '  "isl": %d,\n'
                      '  "meta": %s,\n'
                      '  "osl": %d,\n'
                      '  "phase": %s\n'
                      "}\n")
_REPORT_CSV_HEADER = "label,category,latency_s,energy_j\r\n"


def _float_text(value: float) -> str:
    text = repr(value)
    return _JSON_NUMBER.get(text, text)


def _write_report(out_dir: str, report: PhaseReport, meta: dict,
                  formats) -> None:
    """``report_<phase>.json`` (format ``json``):
    ``json.dumps(report.to_dict(), indent=2, sort_keys=True)``, with
    ``meta`` as its meta, and a line break; ``report_<phase>.csv`` (format
    ``csv``): its rows as :func:`csv.writer` writes them, none for an
    infeasible report. Both texts come from one pass over the rows, a
    latency or energy written as its repr, taken once for both; its totals
    and sums by category are added up as :meth:`PhaseReport.to_dict` adds
    them. Each file is written with one write into ``out_dir``, which
    :func:`_output_dir` made."""
    phase = encode_basestring_ascii(report.phase)
    if not report.feasible:
        document = _INFEASIBLE_REPORT % (
            report.batch, report.gpu_count,
            encode_basestring_ascii(report.infeasible_reason), report.isl,
            _json_text(meta, "\n  "), report.osl, phase)
        table = _REPORT_CSV_HEADER
    else:
        energy_by = dict.fromkeys(CATEGORIES, 0.0)
        latency_by = dict.fromkeys(CATEGORIES, 0.0)
        latencies, energies, json_rows = [], [], []
        lines = [_REPORT_CSV_HEADER]
        for row in report.rows:
            label, category, latency, energy = (row.label, row.category,
                                                row.latency, row.energy)
            latencies.append(latency)
            energies.append(energy)
            energy_by[category] += energy
            latency_by[category] += latency
            latency_text, energy_text = repr(latency), repr(energy)
            json_rows.append(_REPORT_ROW % (
                encode_basestring_ascii(category),
                _JSON_NUMBER.get(energy_text, energy_text),
                encode_basestring_ascii(label),
                _JSON_NUMBER.get(latency_text, latency_text)))
            lines.append(f"{_csv_cell(label)},{_csv_cell(category)},"
                         f"{latency_text},{energy_text}\r\n")
        # The builtin sums over the rows, in row order, as to_dict's.
        total_latency, total_energy = sum(latencies), sum(energies)
        if report.phase == PREFILL:
            per_request = ("etft_j_per_request", total_energy / report.batch)
            per_phase = ("ttft_s", total_latency)
        else:
            per_request = ("epot_j_per_token",
                           total_energy / (report.batch * report.osl))
            per_phase = ("tpot_s", total_latency / report.osl)
        document = _REPORT % (
            report.batch,
            _BY_CATEGORY % tuple(_float_text(energy_by[category])
                                 for category in _SORTED_CATEGORIES),
            _BY_CATEGORY % tuple(_float_text(latency_by[category])
                                 for category in _SORTED_CATEGORIES),
            per_request[0], _float_text(per_request[1]), report.gpu_count,
            report.isl, _json_text(meta, "\n  "), report.osl, phase,
            "[\n    %s\n  ]" % ",\n    ".join(json_rows) if json_rows else "[]",
            _float_text(total_energy), _float_text(total_latency),
            per_phase[0], _float_text(per_phase[1]))
        table = "".join(lines)
    if "json" in formats:
        _write_file(_output_path(out_dir, f"report_{report.phase}.json"), document)
    if "csv" in formats:
        _write_file(_output_path(out_dir, f"report_{report.phase}.csv"), table)


def _check_formats(args, known: tuple) -> None:
    unknown = [name for name in args.format if name not in known]
    if unknown:
        raise ValidationError(f"--format: unknown name(s) "
                              f"{', '.join(map(repr, unknown))}; "
                              f"choose from {', '.join(known)}")


def _check_latency_budget(args) -> None:
    budget = args.latency_budget
    if budget is not None and not (math.isfinite(budget) and budget >= 0):
        raise ValidationError(
            f"--latency-budget must be a finite number >= 0, got {budget!r}")


def _check_ints(args, *names) -> None:
    """Each named integer option of ``args`` held to :func:`as_int`'s rule:
    one too large for a float is named by its size."""
    for name in names:
        as_int(getattr(args, name), "--" + name.replace("_", "-"))


def _check_decode_stride(args) -> None:
    if args.decode_stride != 1:
        raise ValidationError(
            f"--decode-stride must be 1: every decode position is summed "
            f"exactly, got {args.decode_stride}")


def cmd_estimate(args) -> int:
    _check_formats(args, ("json", "csv"))
    _check_ints(args, "tile", "decode_stride", "batch", "isl", "osl")
    _check_decode_stride(args)
    inputs = _load_inputs(args)
    overlap = parse_overlap(args.overlap)
    est = Estimator(inputs["spec"], inputs["dims"], inputs["hw"], inputs["compute"],
                    inputs["comm"], tile=args.tile, routing_trace=inputs["trace"],
                    memo=inputs["plans"])
    degrees = {"tp": args.tp, "ep": args.ep, "cp": args.cp}
    phases = [PREFILL, DECODE] if args.phase == "both" else [args.phase]
    # Every phase is priced before any report is written.
    reports = [est.estimate(PhaseContext(phase, args.batch, args.isl, args.osl),
                            degrees, overlap) for phase in phases]
    out_dir = _output_dir(args.out)
    for phase, report in zip(phases, reports):
        _write_report(out_dir, report,
                      dict(report.meta, tool_version=__version__,
                           input_digests=inputs["digests"]), args.format)
        status = "ok" if report.feasible else f"infeasible: {report.infeasible_reason}"
        print(f"{phase}: {status}", file=sys.stderr)
    return EXIT_OK


_POINTS_CSV_HEADER = ("phase,batch,isl,osl,tp,ep,cp,overlap,feasible,latency_s,"
                      "energy_j,infeasible_reason\r\n")
# A ``points.csv`` row as :func:`csv.writer` writes it, given its strings
# as cells (:func:`_csv_cell`) and a None latency or energy as "".
_POINT_LINE = "%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\r\n"
# A ``points.json`` row as ``indent=2`` writes :meth:`ConfigPoint.to_dict`
# in a list under a top-level key: the keys in sorted order.
_POINT_ROW = ("{\n"
              '      "batch": %s,\n'
              '      "cp": %s,\n'
              '      "energy_j": %s,\n'
              '      "ep": %s,\n'
              '      "feasible": %s,\n'
              '      "infeasible_reason": %s,\n'
              '      "isl": %s,\n'
              '      "latency_s": %s,\n'
              '      "osl": %s,\n'
              '      "overlap": %s,\n'
              '      "phase": %s,\n'
              '      "tp": %s\n'
              "    }")
# A ``plot_data.csv`` row of a feasible point: series, x, y and label.
_PLOT_LINE = "tp%s-ov%s,%s,%s,b%s-isl%s\r\n"


# A per-point slot of a row template (:func:`_pieces`).
_SLOT = object()


def _pieces(template: str, cells) -> tuple:
    """The text of ``template`` between its per-point cells: ``cells``
    fills its ``%s`` slots in order, ``_SLOT`` marking a per-point one."""
    parts = template.split("%s")
    pieces, text = [], parts[0]
    for cell, part in zip(cells, parts[1:]):
        if cell is _SLOT:
            pieces.append(text)
            text = part
        else:
            text += cell + part
    pieces.append(text)
    return tuple(pieces)


def _point_templates(phase, osl, tp, ep, cp, overlap, feasible) -> tuple:
    """The ``points.json`` row, ``points.csv`` line and (if ``feasible``)
    ``plot_data.csv`` line of the points of one (phase, osl, tp, ep, cp,
    overlap, feasible), each as the text between its per-point cells
    (:func:`_pieces`). Those are, in the row: batch, energy, reason, isl,
    latency; in the line: batch, isl, latency, energy, reason; in the plot
    line: latency, energy, batch, isl."""
    def json_cell(text: Optional[str]) -> str:
        return "null" if text is None else encode_basestring_ascii(text)

    def csv_cell(text: Optional[str]) -> str:
        return "" if text is None else _csv_cell(text)

    overlap = format_overlap(overlap)
    osl, tp, ep, cp = map(str, (osl, tp, ep, cp))
    slot = _SLOT
    return (_pieces(_POINT_ROW, (slot, cp, slot, ep, "true" if feasible else "false",
                                 slot, slot, slot, osl, json_cell(overlap),
                                 json_cell(phase), tp)),
            _pieces(_POINT_LINE, (csv_cell(phase), slot, slot, osl, tp, ep, cp,
                                  csv_cell(overlap), str(feasible), slot, slot, slot)),
            _pieces(_PLOT_LINE, (tp, overlap or "none", slot, slot, slot, slot))
            if feasible else None)


def _write_points(out_dir, payload: dict, points, formats,
                  key: str = "points") -> None:
    """``<key>.json`` (format ``json``): ``payload`` with the rows of
    :meth:`ConfigPoint.to_dict` under ``key``; ``points.csv`` (format
    ``csv``): each point's row; and ``plot_data.csv`` (format ``plot``):
    x=latency, y=energy, series=config group (tp/overlap), one row per
    feasible point. One pass over the points, a block at a time, each
    block written to every selected file before the next is formatted; a
    file that ``formats`` leaves out has none of its lines formatted.

    The cells that a point shares with its group (phase, osl, tp, ep, cp,
    overlap, feasible) are formatted once per group, into templates
    (:func:`_point_templates`); per point, only its batch, isl, latency,
    energy and reason are filled in: a latency or energy as its repr,
    taken once for all the files, and each distinct reason encoded and
    quoted once. The CSV lines are written as :mod:`csv` writes them. No
    field of ``plot_data.csv`` needs quoting (integers, float reprs,
    overlap settings). ``out_dir`` is made if missing."""
    out_dir = _output_dir(out_dir)
    groups: dict = {}
    reasons: dict = {None: ("null", "")}  # each reason's JSON and CSV text
    with ExitStack() as files:
        document = table = plot = None
        if "json" in formats:
            document = files.enter_context(
                _Output(_output_path(out_dir, f"{key}.json")))
            chunks = _json_chunks(dict(payload, **{key: _SPLICE}))
            document.write("".join(iter(chunks.__next__, _SPLICE)))
        if "csv" in formats:
            table = files.enter_context(
                _Output(_output_path(out_dir, "points.csv")))
            table.write(_POINTS_CSV_HEADER)
        if "plot" in formats:
            plot = files.enter_context(
                _Output(_output_path(out_dir, "plot_data.csv")))
            plot.write("series,x_latency_s,y_energy_j,label\r\n")
        before = "[\n    "
        number = _JSON_NUMBER.get
        for start in range(0, len(points), _ROWS_PER_BLOCK):
            json_rows, table_lines, plot_lines = [], [], []
            for (phase, batch, isl, osl, tp, ep, cp, overlap, feasible, latency,
                 energy, reason) in points[start:start + _ROWS_PER_BLOCK]:
                group = (phase, osl, tp, ep, cp, overlap, feasible)
                templates = groups.get(group)
                if templates is None:
                    templates = groups[group] = _point_templates(*group)
                row, line, plot_line = templates
                texts = reasons.get(reason)
                if texts is None:
                    texts = reasons[reason] = (encode_basestring_ascii(reason),
                                               _csv_cell(reason))
                latency_text, energy_text = repr(latency), repr(energy)
                if document is not None:
                    r0, r1, r2, r3, r4, r5 = row
                    json_rows.append(
                        f"{r0}{batch}{r1}{number(energy_text, energy_text)}"
                        f"{r2}{texts[0]}{r3}{isl}{r4}"
                        f"{number(latency_text, latency_text)}{r5}")
                if table is not None:
                    l0, l1, l2, l3, l4, l5 = line
                    table_lines.append(
                        f"{l0}{batch}{l1}{isl}"
                        f"{l2}{'' if latency is None else latency_text}"
                        f"{l3}{'' if energy is None else energy_text}{l4}{texts[1]}{l5}")
                if plot is not None and feasible:
                    p0, p1, p2, p3, p4 = plot_line
                    plot_lines.append(f"{p0}{latency_text}{p1}{energy_text}{p2}{batch}"
                                      f"{p3}{isl}{p4}")
            if document is not None:
                document.write(before + ",\n    ".join(json_rows))
                before = ",\n    "
            if table is not None:
                table.write("".join(table_lines))
            if plot is not None:
                plot.write("".join(plot_lines))
        if document is not None:
            document.write("".join(("[]" if not points else "\n  ]", *chunks, "\n")))


def cmd_sweep(args) -> int:
    _check_formats(args, ("json", "csv", "plot"))
    _check_latency_budget(args)
    _check_ints(args, "tile", "decode_stride", "jobs")
    _check_decode_stride(args)
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    inputs = _load_inputs(args)
    grid_path = _resolve(args.grid)
    points = sweep(inputs["spec"], inputs["dims"], load_json(grid_path),
                   inputs["hw"], inputs["compute"], inputs["comm"],
                   phase=args.phase, grid_path=grid_path, tile=args.tile,
                   routing_trace=inputs["trace"], memo=inputs["plans"])
    result = pareto_front(points)
    frontier = result.frontier
    if args.latency_budget is not None:
        frontier = [p for p in frontier if p.latency <= args.latency_budget]

    payload = {
        "format_version": 1,
        "tool_version": __version__,
        "input_digests": inputs["digests"],
        "knobs": {"tile": args.tile, "decode_stride": 1,
                  "phase": args.phase, "latency_budget": args.latency_budget},
    }
    frontier_payload = {"format_version": 1, "insights": insight_queries(points)}
    if args.heuristic == "max-overlap":
        try:
            cmp_result = heuristic_compare(points, result.frontier,
                                           full_frontier=result.frontier)
            frontier_payload["heuristic"] = {
                "setting": list(cmp_result["heuristic_setting"]),
                "heuristic_recovery": cmp_result["heuristic_recovery"],
                "full_recovery": cmp_result["full_recovery"],
            }
        except ValidationError as exc:
            frontier_payload["heuristic"] = {"error": str(exc)}
    _write_points(args.out, payload, points, args.format)
    if "json" in args.format:
        _write_points(args.out, frontier_payload, frontier, ("json",), key="frontier")
    n_feas = sum(p.feasible for p in points)
    print(f"{len(points)} points ({n_feas} feasible), "
          f"{len(frontier)} on frontier", file=sys.stderr)
    return EXIT_OK


def cmd_pareto(args) -> int:
    _check_latency_budget(args)
    from .explorer import load_points
    points = load_points(_resolve(args.points))
    frontier = pareto_front(points).frontier
    if args.latency_budget is not None:
        frontier = [p for p in frontier if p.latency <= args.latency_budget]
    _write_points(args.out, {"format_version": 1}, frontier, ("json",),
                  key="frontier")
    print(f"{len(frontier)} frontier points", file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    problems = []

    def attempt(name, path_str, loader):
        if path_str is None:
            return None
        try:
            return loader(_resolve(path_str))
        except (SpecError, ValidationError) as exc:
            problems.append(f"{name}: {exc}")

    spec = attempt("spec", args.spec, load_model_spec)
    dims = attempt("dims", args.dims, load_bindings)
    attempt("hardware profile", args.hw, load_hardware_profile)
    attempt("comm calibration", args.comm_cal, load_comm_calibration)
    attempt("gemm calibration", args.gemm_cal, GemmCalibrationTable.load)
    trace = attempt("routing trace", args.trace, RoutingTrace.load)
    if spec is not None and dims is not None:
        try:
            validate_bindings(spec, dims,
                              {"tp": args.tp, "ep": args.ep, "cp": args.cp})
        except ValidationError as exc:
            problems.append(f"spec+dims: {exc}")
        try:
            check_trace_experts(spec, dims, trace)
        except ValidationError as exc:
            problems.append(f"routing trace: {exc}")
    if problems:
        for p in problems:
            print(f"VIOLATION: {p}")
        return EXIT_VALIDATION
    print("all inputs valid")
    return EXIT_OK


def cmd_fixtures(args) -> int:
    if args.fixtures_cmd == "list":
        for name, desc in list_fixtures().items():
            print(f"{name:24s} {desc}")
        return EXIT_OK
    raise ValidationError(f"unknown fixtures subcommand {args.fixtures_cmd!r}")


def _add_input_flags(p, need_spec=True):
    p.add_argument("--spec", required=need_spec,
                   help="model spec JSON (or fixture:NAME)")
    p.add_argument("--dims", required=need_spec, help="dimension bindings JSON")
    p.add_argument("--hw", required=need_spec, help="hardware profile JSON")
    p.add_argument("--comm-cal", required=need_spec,
                   help="communication calibration CSV")
    p.add_argument("--gemm-cal", help="optional GEMM calibration CSV backend")
    p.add_argument("--trace", help="optional MoE routing trace CSV")
    p.add_argument("--tile", type=int, default=DEFAULT_TILE,
                   help="grouped-GEMM tile size (1 disables quantization)")
    p.add_argument("--decode-stride", type=int, default=1,
                   help="only 1 is accepted: every decode position is "
                        "summed exactly")


def _estimate_arguments(est) -> None:
    _add_input_flags(est)
    est.add_argument("--phase", choices=[PREFILL, DECODE, "both"],
                     default=PREFILL)
    est.add_argument("--batch", type=int, default=1)
    est.add_argument("--isl", type=int, default=1024)
    est.add_argument("--osl", type=int, default=1)
    est.add_argument("--tp", type=int, default=1)
    est.add_argument("--ep", type=int, default=1)
    est.add_argument("--cp", type=int, default=1)
    est.add_argument("--overlap", help="stages:sm, applied to eligible ops")
    est.add_argument("--out", default="out")
    est.add_argument("--format", default="json,csv",
                     type=lambda s: s.split(","))
    est.set_defaults(func=cmd_estimate)


def _sweep_arguments(sw) -> None:
    _add_input_flags(sw)
    sw.add_argument("--grid", required=True, help="grid axes JSON file")
    sw.add_argument("--phase", choices=[PREFILL, DECODE], default=PREFILL)
    sw.add_argument("--jobs", type=int, default=1,
                    help="accepted for old scripts: any N >= 1 runs the "
                         "same serial loop")
    sw.add_argument("--heuristic", choices=["max-overlap"], default=None)
    sw.add_argument("--latency-budget", type=float, default=None)
    sw.add_argument("--out", default="out")
    sw.add_argument("--format", default="json,csv,plot",
                    type=lambda s: s.split(","))
    sw.set_defaults(func=cmd_sweep)


def _pareto_arguments(pf) -> None:
    pf.add_argument("--points", required=True)
    pf.add_argument("--latency-budget", type=float, default=None)
    pf.add_argument("--out", default="out")
    pf.set_defaults(func=cmd_pareto)


def _validate_arguments(va) -> None:
    va.add_argument("--spec")
    va.add_argument("--dims")
    va.add_argument("--hw")
    va.add_argument("--comm-cal")
    va.add_argument("--gemm-cal")
    va.add_argument("--trace")
    va.add_argument("--tp", type=int, default=1)
    va.add_argument("--ep", type=int, default=1)
    va.add_argument("--cp", type=int, default=1)
    va.set_defaults(func=cmd_validate)


def _fixtures_arguments(fx) -> None:
    fx.add_argument("fixtures_cmd", choices=["list"])
    fx.set_defaults(func=cmd_fixtures)


_SUBCOMMANDS = (
    ("estimate", "single-configuration report", _estimate_arguments),
    ("sweep", "grid sweep + Pareto frontier", _sweep_arguments),
    ("pareto", "frontier over an existing points file", _pareto_arguments),
    ("validate", "check input files for violations", _validate_arguments),
    ("fixtures", "shipped fixture files", _fixtures_arguments),
)


_ADD_ARGUMENTS = {name: add_arguments for name, _, add_arguments in _SUBCOMMANDS}


def _help_formatter(columns: int):
    """Help wrapped at a terminal ``columns`` wide, as argparse wraps it at
    the terminal's width, read once per parse rather than by every
    ``add_argument``, which builds a formatter to check its metavar."""
    return functools.partial(argparse.HelpFormatter, width=columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The ``llm-energy`` parser, with every subcommand's parser."""
    formatter = _help_formatter(shutil.get_terminal_size().columns)
    parser = argparse.ArgumentParser(
        prog="llm-energy",
        description="Analytical energy/latency estimation for distributed "
                    "LLM inference",
        formatter_class=formatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments in _SUBCOMMANDS:
        add_arguments(sub.add_parser(name, help=help_text, formatter_class=formatter))
    return parser


# What a type conversion raises for a value that argparse reports as bad.
_BAD_VALUE = (TypeError, ValueError, argparse.ArgumentTypeError)


def _canonical_table(parser: argparse.ArgumentParser) -> tuple:
    """What :func:`_read_canonical` needs of ``parser``, read off its own
    actions, as :meth:`~argparse.ArgumentParser.parse_known_args` uses
    them: each option string of an action that stores one value, with that
    action's dest, type conversion and choices; the required dests; the
    values a namespace starts with (each dest's default, then the parser's
    ``set_defaults``), less any ``SUPPRESS`` one; and the dests whose string
    default is converted when they are not given. The private argparse
    names that this needs are read here only."""
    options, required, defaults, converted = {}, set(), {}, []
    for action in parser._actions:
        convert = parser._registry_get("type", action.type, action.type)
        if type(action) is argparse._StoreAction and action.nargs is None:
            for option in action.option_strings:
                options[option] = (action.dest, convert, action.choices)
        if action.required:
            required.add(action.dest)
        if (action.dest is not argparse.SUPPRESS and action.dest not in defaults
              and action.default is not argparse.SUPPRESS):
            defaults[action.dest] = action.default
            if isinstance(action.default, str):
                converted.append((action.dest, convert))
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    return options, frozenset(required), defaults, tuple(converted)


def _read_canonical(table: tuple, words: list) -> Optional[dict]:
    """The namespace's values that ``parse_known_args`` gives ``words`` if
    they are canonical: ``option value`` pairs, each option an exact key of
    ``table`` (:func:`_canonical_table`) and no value starting with ``-``,
    each value converted by its action's type and in its choices, and
    every required dest given. A repeated option keeps its last value. A
    string default is converted on every read, as argparse converts it
    (``--format``'s default is a new list each time). None for any other
    ``words``."""
    options, required, defaults, converted = table
    if len(words) % 2:
        return None
    given = {}
    for option, value in zip(words[::2], words[1::2]):
        entry = options.get(option)
        if entry is None or value.startswith("-"):
            return None
        dest, convert, choices = entry
        try:
            value = convert(value)
        except _BAD_VALUE:
            return None
        if choices is not None and value not in choices:
            return None
        given[dest] = value
    if not required.issubset(given):
        return None
    values = dict(defaults)
    for dest, convert in converted:
        if dest not in given:
            try:
                values[dest] = convert(values[dest])
            except _BAD_VALUE:
                return None
    values.update(given)
    return values


def _parse_subcommand(argv: list) -> Optional[argparse.Namespace]:
    """``argv`` parsed by the parser of the subcommand that its first word
    names, as the ``llm-energy`` parser would give it; or None where that
    parser must parse it, which it then does as it always has, messages
    and all: no subcommand first (``--help``, ``--version``, a missing or
    unknown one), arguments the subcommand leaves over, or, before any
    ``--``, an option the top level finds ambiguous among its own
    (``--=x``: both ``--help`` and ``--version`` start with ``--``).

    A canonical argv (:func:`_read_canonical`) is read off the
    subcommand parser's actions, with no parse; none of its words is a
    prefix of a top-level option. Argparse parses every other form as
    before: help, abbreviations, ``--opt=value``, ``--``, a value starting
    with ``-``, a positional or leftover word, a bad value and a missing
    required option, so it alone prints help and errors.

    The subcommand's parser is built once per process (:data:`_parsers`),
    at the terminal's width then; its help and errors are wrapped at the
    terminal's width when they are printed, which is what a parse that
    prints nothing never asks for."""
    add_arguments = _ADD_ARGUMENTS.get(argv[0]) if argv else None
    if add_arguments is None:
        return None

    def build():
        parser = argparse.ArgumentParser(
            prog=f"llm-energy {argv[0]}",
            formatter_class=_help_formatter(shutil.get_terminal_size().columns))
        add_arguments(parser)
        parser.formatter_class = argparse.HelpFormatter
        return parser, _canonical_table(parser)

    parser, table = _kept(_parsers, argv[0], len(_SUBCOMMANDS), build)
    values = _read_canonical(table, argv[1:])
    if values is not None:
        args = argparse.Namespace()
        vars(args).update(values)
    else:
        for arg in argv:
            if arg == "--":
                break
            if arg.startswith("--="):
                return None
        args, leftover = parser.parse_known_args(argv[1:])
        if leftover:
            return None
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_subcommand(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, ValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (BackendError, OSError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
