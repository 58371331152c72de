"""Command-line entry point: estimate, sweep, pareto, validate, fixtures."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .comm import CommBackend, load_comm_calibration
from .compute import (
    GemmCalibrationTable,
    RooflineBackend,
    TableComputeBackend,
    load_hardware_profile,
)
from .engine import DEFAULT_DECODE_STRIDE, Estimator, apply_overlap_setting
from .errors import BackendError, SpecError, ValidationError
from .explorer import heuristic_compare, insight_queries, pareto_front, sweep
from .fixtures import fixture_path, list_fixtures
from .interpreter import DECODE, PREFILL, PhaseContext
from .moe import DEFAULT_TILE, RoutingTrace
from .spec_lang import load_bindings, load_json, load_model_spec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _resolve(path_str: str) -> Path:
    """Accept a plain path or a ``fixture:NAME`` reference."""
    if path_str.startswith("fixture:"):
        return fixture_path(path_str.split(":", 1)[1])
    path = Path(path_str)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    return path


def _parse_overlap(text: str) -> tuple[int, int]:
    try:
        stages, sm = text.split(":")
        return int(stages), int(sm)
    except ValueError:
        raise ValidationError(
            f"--overlap must be 'stages:sm', got {text!r}") from None


def _load_inputs(args) -> dict:
    paths = {
        "spec": _resolve(args.spec),
        "dims": _resolve(args.dims),
        "hw": _resolve(args.hw),
        "comm_cal": _resolve(args.comm_cal),
    }
    inputs = {
        "spec": load_model_spec(paths["spec"]),
        "dims": load_bindings(paths["dims"]),
        "hw": load_hardware_profile(paths["hw"]),
        "comm": CommBackend(load_comm_calibration(paths["comm_cal"])),
        "trace": None,
    }
    if getattr(args, "gemm_cal", None):
        paths["gemm_cal"] = _resolve(args.gemm_cal)
        inputs["compute"] = TableComputeBackend(
            GemmCalibrationTable.load(paths["gemm_cal"]), inputs["hw"])
    else:
        inputs["compute"] = RooflineBackend(inputs["hw"])
    if getattr(args, "trace", None):
        paths["trace"] = _resolve(args.trace)
        inputs["trace"] = RoutingTrace.load(paths["trace"])
    inputs["digests"] = {name: _digest(p) for name, p in paths.items()}
    return inputs


def _make_estimator(args, inputs, spec=None) -> Estimator:
    return Estimator(
        spec if spec is not None else inputs["spec"],
        inputs["dims"], inputs["hw"], inputs["compute"], inputs["comm"],
        tile=args.tile, decode_stride=args.decode_stride,
        routing_trace=inputs["trace"])


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_report_csv(path: Path, report_dict: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "category", "latency_s", "energy_j"])
        for row in report_dict.get("rows", []):
            writer.writerow([row["label"], row["category"],
                             repr(row["latency_s"]), repr(row["energy_j"])])


def cmd_estimate(args) -> int:
    inputs = _load_inputs(args)
    spec = inputs["spec"]
    if args.overlap:
        stages, sm = _parse_overlap(args.overlap)
        spec = apply_overlap_setting(spec, stages, sm)
    est = _make_estimator(args, inputs, spec)
    degrees = {"tp": args.tp, "ep": args.ep, "cp": args.cp}
    phases = [PREFILL, DECODE] if args.phase == "both" else [args.phase]
    out_dir = Path(args.out)
    for phase in phases:
        ctx = PhaseContext(phase, args.batch, args.isl, args.osl)
        report = est.estimate(ctx, degrees)
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


def _point_rows(points) -> list[dict]:
    return [p.to_dict() for p in points]


def _write_points_csv(path: Path, points) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ["phase", "batch", "isl", "osl", "tp", "ep", "cp", "overlap",
              "feasible", "latency_s", "energy_j", "infeasible_reason"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for p in points:
            row = p.to_dict()
            for key in ("latency_s", "energy_j"):
                if row[key] is not None:
                    row[key] = repr(row[key])
            writer.writerow(row)


def _write_plot_data(path: Path, points) -> None:
    """x=latency, y=energy, series=config group (tp/overlap), one row per point."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "x_latency_s", "y_energy_j", "label"])
        for p in points:
            if not p.feasible:
                continue
            ov = "none" if p.overlap is None else f"{p.overlap[0]}:{p.overlap[1]}"
            series = f"tp{p.tp}-ov{ov}"
            writer.writerow([series, repr(p.latency), repr(p.energy),
                             f"b{p.batch}-isl{p.isl}"])


def cmd_sweep(args) -> int:
    inputs = _load_inputs(args)
    grid = load_json(_resolve(args.grid))
    points = sweep(inputs["spec"], inputs["dims"], grid, inputs["hw"],
                   inputs["compute"], inputs["comm"], phase=args.phase,
                   jobs=args.jobs, tile=args.tile,
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
        "points": _point_rows(points),
    }
    frontier_payload = {
        "format_version": 1,
        "frontier": _point_rows(frontier),
        "insights": insight_queries(points),
    }
    if args.heuristic == "max-overlap":
        try:
            cmp_result = heuristic_compare(points, result.frontier)
            frontier_payload["heuristic"] = {
                "setting": list(cmp_result["heuristic_setting"]),
                "heuristic_recovery": cmp_result["heuristic_recovery"],
                "full_recovery": cmp_result["full_recovery"],
            }
        except ValidationError as exc:
            frontier_payload["heuristic"] = {"error": str(exc)}
    if "json" in args.format:
        _write_json(out_dir / "points.json", payload)
        _write_json(out_dir / "frontier.json", frontier_payload)
    if "csv" in args.format:
        _write_points_csv(out_dir / "points.csv", points)
    if "plot" in args.format:
        _write_plot_data(out_dir / "plot_data.csv", points)
    n_feas = sum(p.feasible for p in points)
    print(f"{len(points)} points ({n_feas} feasible), "
          f"{len(frontier)} on frontier", file=sys.stderr)
    return EXIT_OK


_POINT_FIELDS = ("phase", "batch", "isl", "osl", "tp", "ep", "cp", "feasible")


def cmd_pareto(args) -> int:
    from .explorer import ConfigPoint
    path = _resolve(args.points)
    payload = load_json(path)
    if not isinstance(payload, dict) or not isinstance(payload.get("points"), list):
        raise ValidationError(f"{path}: needs a 'points' list")
    points = []
    for i, row in enumerate(payload["points"]):
        missing = [key for key in _POINT_FIELDS
                   if not isinstance(row, dict) or key not in row]
        if missing:
            raise ValidationError(f"{path}: point #{i} lacks {', '.join(missing)}")
        if row["feasible"] and not all(
                isinstance(row.get(key), (int, float))
                for key in ("latency_s", "energy_j")):
            raise ValidationError(
                f"{path}: feasible point #{i} needs numeric latency_s and energy_j")
        ov = row.get("overlap")
        points.append(ConfigPoint(
            phase=row["phase"], batch=row["batch"], isl=row["isl"],
            osl=row["osl"], tp=row["tp"], ep=row["ep"], cp=row["cp"],
            overlap=None if ov in (None, "none") else _parse_overlap(ov),
            feasible=row["feasible"], latency=row.get("latency_s"),
            energy=row.get("energy_j"),
            infeasible_reason=row.get("infeasible_reason", "")))
    frontier = pareto_front(points).frontier
    if args.latency_budget is not None:
        frontier = [p for p in frontier if p.latency <= args.latency_budget]
    _write_json(Path(args.out) / "frontier.json",
                {"format_version": 1, "frontier": _point_rows(frontier)})
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
            problems.append(f"{name} ({path_str}): {exc}")
            return None

    spec = attempt("spec", args.spec, load_model_spec)
    dims = attempt("dims", args.dims, load_bindings)
    attempt("hardware profile", args.hw, load_hardware_profile)
    attempt("comm calibration", args.comm_cal, load_comm_calibration)
    if getattr(args, "gemm_cal", None):
        attempt("gemm calibration", args.gemm_cal, GemmCalibrationTable.load)
    if getattr(args, "trace", None):
        attempt("routing trace", args.trace, RoutingTrace.load)
    if spec is not None and dims is not None:
        from .spec_lang import validate_bindings
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
                   help="decode step sampling stride (1 = every step)")


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
