"""Command-line entry point: estimate, sweep, pareto, validate, fixtures."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Iterator

from . import __version__
from .comm import CommBackend, load_comm_calibration
from .compute import (
    GemmCalibrationTable,
    RooflineBackend,
    TableComputeBackend,
    load_hardware_profile,
)
from .engine import DEFAULT_DECODE_STRIDE, Estimator
from .errors import BackendError, SpecError, ValidationError
from .explorer import (
    heuristic_compare,
    insight_queries,
    load_points,
    parse_overlap,
    pareto_front,
    sweep,
)
from .fixtures import fixture_path, list_fixtures
from .interpreter import DECODE, PREFILL, PhaseContext
from .moe import DEFAULT_TILE, RoutingTrace
from .spec_lang import load_bindings, load_json, load_model_spec, validate_bindings

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


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
    paths = {name: _resolve(value) for name, value in (
        ("spec", args.spec), ("dims", args.dims), ("hw", args.hw),
        ("comm_cal", args.comm_cal), ("gemm_cal", args.gemm_cal),
        ("trace", args.trace)) if value}
    hw = load_hardware_profile(paths["hw"])
    return {
        "spec": load_model_spec(paths["spec"]),
        "dims": load_bindings(paths["dims"]),
        "hw": hw,
        "comm": CommBackend(load_comm_calibration(paths["comm_cal"])),
        "compute": (TableComputeBackend(GemmCalibrationTable.load(paths["gemm_cal"]), hw)
                    if "gemm_cal" in paths else RooflineBackend(hw)),
        "trace": RoutingTrace.load(paths["trace"]) if "trace" in paths else None,
        "digests": {name: _digest(path) for name, path in paths.items()},
    }


# Encodes a list of flat rows with each key on its own line, at the
# indentation of rows in a list under a top-level key. The C encoder runs
# only when no indent is set.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
# Rows per C-encoder call and per CSV write: one call per row costs more,
# and one call for a whole list holds all of its text at once (a 1024-row
# block raised a sweep's peak memory by 2 MB).
_ROWS_PER_BLOCK = 64
# Between two rows, as the encoder writes it and as ``indent=2`` does.
# Strings are encoded with their newlines escaped and rows hold scalars,
# so the encoder's text has this only between rows.
_ENCODED_ROW_BREAK = "},\n      {"
_INDENTED_ROW_BREAK = "\n    },\n    {\n      "


def _json_chunks(payload: dict, rows: tuple = ()) -> Iterator[str]:
    """``json.dumps(payload, indent=2, sort_keys=True)`` of a dict with
    string keys, in chunks, byte for byte. The lists under the top-level
    keys ``rows`` hold non-empty dicts of scalars (no list or dict), and
    are encoded by the C encoder, one chunk per block of rows."""
    if not payload:
        yield "{}"
        return
    opening = "{"
    for key, value in sorted(payload.items()):
        yield f"{opening}\n  {json.dumps(key)}: "
        opening = ","
        if key not in rows:
            yield json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
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


def _write_report_csv(path: Path, report_dict: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "category", "latency_s", "energy_j"])
        for row in report_dict.get("rows", []):
            writer.writerow([row["label"], row["category"],
                             repr(row["latency_s"]), repr(row["energy_j"])])


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


def cmd_estimate(args) -> int:
    _check_formats(args, ("json", "csv"))
    inputs = _load_inputs(args)
    overlap = parse_overlap(args.overlap)
    est = Estimator(inputs["spec"], inputs["dims"], inputs["hw"], inputs["compute"],
                    inputs["comm"], tile=args.tile,
                    decode_stride=args.decode_stride, routing_trace=inputs["trace"])
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
            _write_json(out_dir / f"report_{phase}.json", payload)
        if "csv" in args.format:
            _write_report_csv(out_dir / f"report_{phase}.csv", payload)
        status = "ok" if report.feasible else f"infeasible: {report.infeasible_reason}"
        print(f"{phase}: {status}", file=sys.stderr)
    return EXIT_OK


_POINTS_CSV_HEADER = ["phase", "batch", "isl", "osl", "tp", "ep", "cp", "overlap",
                      "feasible", "latency_s", "energy_j", "infeasible_reason"]


def _write_sweep_csvs(out_dir: Path, points, rows: list[dict],
                      formats) -> None:
    """``points.csv`` (format ``csv``): each point's row (see
    :meth:`ConfigPoint.to_dict`), and ``plot_data.csv`` (format ``plot``):
    x=latency, y=energy, series=config group (tp/overlap), one row per
    feasible point. Latencies and energies are written as their repr,
    taken once for both files, a block of points at a time.

    No field of ``plot_data.csv`` needs quoting (integers, float reprs,
    overlap settings), so its lines are written as :mod:`csv` writes
    them, without a second writer and its 128 KiB record buffer."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with ExitStack() as files:
        table = plot = None
        if "csv" in formats:
            table = csv.writer(files.enter_context(
                open(out_dir / "points.csv", "w", newline="")))
            table.writerow(_POINTS_CSV_HEADER)
        if "plot" in formats:
            plot = files.enter_context(
                open(out_dir / "plot_data.csv", "w", newline=""))
            plot.write("series,x_latency_s,y_energy_j,label\r\n")
        for start in range(0, len(points), _ROWS_PER_BLOCK):
            stop = start + _ROWS_PER_BLOCK
            table_rows, plot_lines = [], []
            for p, row in zip(points[start:stop], rows[start:stop]):
                latency, energy = repr(p.latency), repr(p.energy)
                overlap = row["overlap"]
                table_rows.append((*p[:7], overlap, p.feasible,
                                   None if p.latency is None else latency,
                                   None if p.energy is None else energy,
                                   p.infeasible_reason))
                if p.feasible:
                    plot_lines.append(f"tp{p.tp}-ov{overlap or 'none'},{latency},"
                                      f"{energy},b{p.batch}-isl{p.isl}\r\n")
            if table is not None:
                table.writerows(table_rows)
            if plot is not None:
                plot.writelines(plot_lines)


def cmd_sweep(args) -> int:
    _check_formats(args, ("json", "csv", "plot"))
    _check_latency_budget(args)
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    inputs = _load_inputs(args)
    grid_path = _resolve(args.grid)
    points = sweep(inputs["spec"], inputs["dims"], load_json(grid_path),
                   inputs["hw"], inputs["compute"], inputs["comm"],
                   phase=args.phase, jobs=args.jobs, grid_path=grid_path,
                   tile=args.tile,
                   decode_stride=args.decode_stride,
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
        "knobs": {"tile": args.tile, "decode_stride": args.decode_stride,
                  "phase": args.phase, "latency_budget": args.latency_budget},
        "points": [p.to_dict() for p in points],
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
    if "json" in args.format:
        _write_json(out_dir / "points.json", payload, rows=("points",))
        _write_json(out_dir / "frontier.json", frontier_payload, rows=("frontier",))
    if "csv" in args.format or "plot" in args.format:
        _write_sweep_csvs(out_dir, points, payload["points"], args.format)
    n_feas = sum(p.feasible for p in points)
    print(f"{len(points)} points ({n_feas} feasible), "
          f"{len(frontier)} on frontier", file=sys.stderr)
    return EXIT_OK


def cmd_pareto(args) -> int:
    _check_latency_budget(args)
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
    attempt("routing trace", args.trace, RoutingTrace.load)
    if spec is not None and dims is not None:
        try:
            validate_bindings(spec, dims,
                              {"tp": args.tp, "ep": args.ep, "cp": args.cp})
        except ValidationError as exc:
            problems.append(f"spec+dims: {exc}")
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
    p.add_argument("--decode-stride", type=int, default=DEFAULT_DECODE_STRIDE,
                   help="sample every N-th decode position, weighted by N, "
                        "a sum that reads low (default 1: every position, "
                        "the exact sum, which costs no more)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llm-energy",
        description="Analytical energy/latency estimation for distributed "
                    "LLM inference")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="single-configuration report")
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

    sw = sub.add_parser("sweep", help="grid sweep + Pareto frontier")
    _add_input_flags(sw)
    sw.add_argument("--grid", required=True, help="grid axes JSON file")
    sw.add_argument("--phase", choices=[PREFILL, DECODE], default=PREFILL)
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--heuristic", choices=["max-overlap"], default=None)
    sw.add_argument("--latency-budget", type=float, default=None)
    sw.add_argument("--out", default="out")
    sw.add_argument("--format", default="json,csv,plot",
                    type=lambda s: s.split(","))
    sw.set_defaults(func=cmd_sweep)

    pf = sub.add_parser("pareto", help="frontier over an existing points file")
    pf.add_argument("--points", required=True)
    pf.add_argument("--latency-budget", type=float, default=None)
    pf.add_argument("--out", default="out")
    pf.set_defaults(func=cmd_pareto)

    va = sub.add_parser("validate", help="check input files for violations")
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

    fx = sub.add_parser("fixtures", help="shipped fixture files")
    fx.add_argument("fixtures_cmd", choices=["list"])
    fx.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
