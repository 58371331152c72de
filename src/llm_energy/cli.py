"""Command-line entry point: estimate, sweep, pareto, validate, fixtures."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import shutil
import sys
from contextlib import ExitStack
from itertools import takewhile
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
from .moe import DEFAULT_TILE, RoutingTrace
from .spec_lang import (
    InputFile,
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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


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


def _load_inputs(args) -> dict:
    """The inputs named by ``args``, each file read once: its loader
    decodes the bytes that its digest is taken from."""
    files = {name: InputFile(_resolve(value)) for name, value in (
        ("spec", args.spec), ("dims", args.dims), ("hw", args.hw),
        ("comm_cal", args.comm_cal), ("gemm_cal", args.gemm_cal),
        ("trace", args.trace)) if value}
    hw = load_hardware_profile(files["hw"])
    return {
        "spec": load_model_spec(files["spec"]),
        "dims": load_bindings(files["dims"]),
        "hw": hw,
        "comm": CommBackend(load_comm_calibration(files["comm_cal"])),
        "compute": (TableComputeBackend(GemmCalibrationTable.load(files["gemm_cal"]), hw)
                    if "gemm_cal" in files else RooflineBackend(hw)),
        "trace": RoutingTrace.load(files["trace"]) if "trace" in files else None,
        "digests": {name: _digest(file.data) for name, file in files.items()},
    }


# Encodes a list of flat rows with each key on its own line, at the
# indentation of rows in a list under a top-level key. The C encoder runs
# only when no indent is set.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
# Rows per C-encoder call and per block of the point writer: one call or
# write per row costs more, and one for a whole list holds all of its text
# at once (a 1024-row block raised a sweep's peak memory by 2 MB).
_ROWS_PER_BLOCK = 64
# Between two rows, as the encoder writes it and as ``indent=2`` does.
# Strings are encoded with their newlines escaped and rows hold scalars,
# so the encoder's text has this only between rows.
_ENCODED_ROW_BREAK = "},\n      {"
_INDENTED_ROW_BREAK = "\n    },\n    {\n      "
# A payload value that :func:`_json_chunks` yields as it is, in place of
# its text, for the caller to write the value's text there.
_SPLICE = object()
# A float's repr (or None's) as the JSON encoder writes the value.
_JSON_NUMBER = {"None": "null", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, newline: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` with each of its
    line breaks written as ``newline``: a line break and the indentation
    of the line that ``value`` starts on. A str, float, int, bool or None,
    or a dict with str keys, is written by its type; only anything else
    (a list, say) goes through the encoder, whose ``indent`` runs in pure
    Python."""
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
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        inner = newline + "  "
        return "{%s%s%s}" % (inner, ("," + inner).join([
            f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
            for key, item in sorted(value.items())]), newline)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _json_chunks(payload: dict, rows: tuple = ()) -> Iterator[str]:
    """``json.dumps(payload, indent=2, sort_keys=True)`` of a dict with
    string keys, in chunks, byte for byte. The lists under the top-level
    keys ``rows`` hold non-empty dicts of scalars (no list or dict), and
    are encoded by the C encoder, one chunk per block of rows; every other
    value by :func:`_json_text`. A value that is ``_SPLICE`` is yielded
    itself."""
    if not payload:
        yield "{}"
        return
    opening = "{"
    for key, value in sorted(payload.items()):
        yield f"{opening}\n  {encode_basestring_ascii(key)}: "
        opening = ","
        if value is _SPLICE:
            yield value
        elif key not in rows:
            yield _json_text(value, "\n  ")
        elif not value:
            yield "[]"
        else:
            before = "[\n    {\n      "
            for start in range(0, len(value), _ROWS_PER_BLOCK):
                # Strip the block's "[{" and "}]" and put each row's braces
                # on lines of their own.
                encoded = _ROW_ENCODER.encode(value[start:start + _ROWS_PER_BLOCK])
                yield before + encoded[2:-2].replace(_ENCODED_ROW_BREAK,
                                                     _INDENTED_ROW_BREAK)
                before = _INDENTED_ROW_BREAK
            yield "\n    }\n  ]"
    yield "\n}"


def dumps_json(payload: dict, rows: tuple = ()) -> str:
    """:func:`_json_chunks` joined: ``json.dumps(payload, indent=2,
    sort_keys=True)``."""
    return "".join(_json_chunks(payload, rows))


def _write_json(path: Path, payload: dict, rows: tuple = ()) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.writelines(_json_chunks(payload, rows))
        fh.write("\n")


# The characters for which :func:`csv.writer` quotes a cell.
_CSV_QUOTED = frozenset(',"\r\n')


def _csv_cell(text: str) -> str:
    """``text`` as :func:`csv.writer` writes it as a cell: quoted, with its
    quotes doubled, where it holds a comma, a quote or a line break."""
    if _CSV_QUOTED.isdisjoint(text):
        return text
    return '"%s"' % text.replace('"', '""')


def _write_report_csv(path: Path, report_dict: dict) -> None:
    """The report's rows as :func:`csv.writer` writes them, a latency or
    energy as its repr."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["label,category,latency_s,energy_j\r\n"]
    lines += [f"{_csv_cell(row['label'])},{_csv_cell(row['category'])},"
              f"{_csv_cell(repr(row['latency_s']))},"
              f"{_csv_cell(repr(row['energy_j']))}\r\n"
              for row in report_dict.get("rows", [])]
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)


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


def _check_decode_stride(args) -> None:
    if args.decode_stride != 1:
        raise ValidationError(
            f"--decode-stride must be 1: every decode position is summed "
            f"exactly, got {args.decode_stride}")


def cmd_estimate(args) -> int:
    _check_formats(args, ("json", "csv"))
    _check_decode_stride(args)
    inputs = _load_inputs(args)
    overlap = parse_overlap(args.overlap)
    est = Estimator(inputs["spec"], inputs["dims"], inputs["hw"], inputs["compute"],
                    inputs["comm"], tile=args.tile, routing_trace=inputs["trace"])
    degrees = {"tp": args.tp, "ep": args.ep, "cp": args.cp}
    phases = [PREFILL, DECODE] if args.phase == "both" else [args.phase]
    # Every phase is priced before any report is written.
    reports = [est.estimate(PhaseContext(phase, args.batch, args.isl, args.osl),
                            degrees, overlap) for phase in phases]
    out_dir = Path(args.out)
    for phase, report in zip(phases, reports):
        payload = report.to_dict()
        payload["meta"].update({"tool_version": __version__,
                                "input_digests": inputs["digests"]})
        if "json" in args.format:
            _write_json(out_dir / f"report_{phase}.json", payload, rows=("rows",))
        if "csv" in args.format:
            _write_report_csv(out_dir / f"report_{phase}.csv", payload)
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
              '      "batch": %d,\n'
              '      "cp": %d,\n'
              '      "energy_j": %s,\n'
              '      "ep": %d,\n'
              '      "feasible": %s,\n'
              '      "infeasible_reason": %s,\n'
              '      "isl": %d,\n'
              '      "latency_s": %s,\n'
              '      "osl": %d,\n'
              '      "overlap": %s,\n'
              '      "phase": %s,\n'
              '      "tp": %d\n'
              "    }")


class _Memo(dict):
    """A dict that fills a missing key with ``function(key)``."""

    def __init__(self, function, *args):
        super().__init__(*args)
        self._function = function

    def __missing__(self, key):
        self[key] = value = self._function(key)
        return value


def _write_points(out_dir: Path, payload: dict, points, formats) -> None:
    """``points.json`` (format ``json``): ``payload`` with the rows of
    :meth:`ConfigPoint.to_dict` under ``points``; ``points.csv`` (format
    ``csv``): each point's row; and ``plot_data.csv`` (format ``plot``):
    x=latency, y=energy, series=config group (tp/overlap), one row per
    feasible point. One pass over the points, a block at a time, each
    block written to every file before the next is formatted; a latency
    or energy is written as its repr, taken once for all three files.

    The CSV lines are written as :mod:`csv` writes them, each string
    quoted by :func:`_csv_cell` once. No field of ``plot_data.csv`` needs
    quoting (integers, float reprs, overlap settings)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    encoded = _Memo(encode_basestring_ascii, {None: "null"})
    cells = _Memo(_csv_cell, {None: ""})
    overlaps = _Memo(format_overlap)
    with ExitStack() as files:
        document = table = plot = None
        if "json" in formats:
            document = files.enter_context(open(out_dir / "points.json", "w"))
            chunks = _json_chunks(dict(payload, points=_SPLICE))
            document.writelines(iter(chunks.__next__, _SPLICE))
        if "csv" in formats:
            table = files.enter_context(open(out_dir / "points.csv", "w", newline=""))
            table.write(_POINTS_CSV_HEADER)
        if "plot" in formats:
            plot = files.enter_context(
                open(out_dir / "plot_data.csv", "w", newline=""))
            plot.write("series,x_latency_s,y_energy_j,label\r\n")
        before = "[\n    "
        for start in range(0, len(points), _ROWS_PER_BLOCK):
            json_rows, table_lines, plot_lines = [], [], []
            for (phase, batch, isl, osl, tp, ep, cp, overlap, feasible, latency,
                 energy, reason) in points[start:start + _ROWS_PER_BLOCK]:
                latency_text, energy_text = repr(latency), repr(energy)
                overlap = overlaps[overlap]
                json_rows.append(_POINT_ROW % (
                    batch, cp, _JSON_NUMBER.get(energy_text, energy_text), ep,
                    "true" if feasible else "false", encoded[reason], isl,
                    _JSON_NUMBER.get(latency_text, latency_text), osl,
                    encoded[overlap], encoded[phase], tp))
                table_lines.append(_POINT_LINE % (
                    cells[phase], batch, isl, osl, tp, ep, cp, cells[overlap],
                    feasible, "" if latency is None else latency_text,
                    "" if energy is None else energy_text, cells[reason]))
                if feasible:
                    plot_lines.append(f"tp{tp}-ov{overlap or 'none'},{latency_text},"
                                      f"{energy_text},b{batch}-isl{isl}\r\n")
            if document is not None:
                document.write(before + ",\n    ".join(json_rows))
                before = ",\n    "
            if table is not None:
                table.writelines(table_lines)
            if plot is not None:
                plot.writelines(plot_lines)
        if document is not None:
            document.write("[]" if not points else "\n  ]")
            document.writelines(chunks)
            document.write("\n")


def cmd_sweep(args) -> int:
    _check_formats(args, ("json", "csv", "plot"))
    _check_latency_budget(args)
    _check_decode_stride(args)
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    inputs = _load_inputs(args)
    grid_path = _resolve(args.grid)
    points = sweep(inputs["spec"], inputs["dims"], load_json(grid_path),
                   inputs["hw"], inputs["compute"], inputs["comm"],
                   phase=args.phase, grid_path=grid_path, tile=args.tile,
                   routing_trace=inputs["trace"])
    out_dir = Path(args.out)
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
    frontier_payload = {
        "format_version": 1,
        "frontier": [p.to_dict() for p in frontier],
        "insights": insight_queries(points),
    }
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
    _write_points(out_dir, payload, points, args.format)
    if "json" in args.format:
        _write_json(out_dir / "frontier.json", frontier_payload, rows=("frontier",))
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
    _write_json(Path(args.out) / "frontier.json",
                {"format_version": 1,
                 "frontier": [p.to_dict() for p in frontier]},
                rows=("frontier",))
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


def _help_formatter():
    """Help wrapped at the terminal width, read once per parse rather than
    by every ``add_argument``, which builds a formatter to check its
    metavar."""
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The ``llm-energy`` parser, with every subcommand's parser."""
    formatter = _help_formatter()
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


def _parse_subcommand(argv: list) -> Optional[argparse.Namespace]:
    """``argv`` parsed by the parser of the subcommand that its first word
    names, as the ``llm-energy`` parser would give it; or None where that
    parser must parse it, which it then does as it always has, messages
    and all: no subcommand first (``--help``, ``--version``, a missing or
    unknown one), arguments the subcommand leaves over, or, before any
    ``--``, an option the top level finds ambiguous among its own
    (``--=x``: both ``--help`` and ``--version`` start with ``--``)."""
    add_arguments = _ADD_ARGUMENTS.get(argv[0]) if argv else None
    if add_arguments is None or any(
            arg.startswith("--=") for arg in takewhile("--".__ne__, argv)):
        return None
    parser = argparse.ArgumentParser(prog=f"llm-energy {argv[0]}",
                                     formatter_class=_help_formatter())
    add_arguments(parser)
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
