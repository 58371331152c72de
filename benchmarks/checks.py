"""Output checks: summaries of what a CLI call wrote, invariants, references.

A summary keeps what a call's outputs say about the model: feasibility,
latency and energy per configuration, the frontier's identities and the
per-report totals. For seeds shipped with reference summaries, a summary
must match its reference within ``RTOL``; for any seed it must satisfy the
invariants below, and a repeated operation must match its first result.
"""

from __future__ import annotations

import csv
import json
from itertools import product
from pathlib import Path

RTOL = 1e-9


def matches(got, want, rtol: float = RTOL) -> bool:
    """Structural equality, floats compared by relative tolerance."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(want, bool):
            return False
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return abs(got - want) <= rtol * max(abs(got), abs(want))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches(got[k], want[k], rtol) for k in want))
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(matches(g, w, rtol) for g, w in zip(got, want)))
    return got == want


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _identity(p: dict) -> list:
    return [p["phase"], p["batch"], p["isl"], p["osl"], p["tp"], p["ep"],
            p["cp"], p["overlap"]]


def non_dominated(points: list) -> list:
    """Identities of feasible points no other point dominates, input order.

    ``q`` dominates ``p`` when it is no worse on latency and energy and
    better on one of them.
    """
    feas = [p for p in points if p["feasible"]]
    by_latency = sorted(feas, key=lambda p: p["latency_s"])
    keep, best_faster, i = set(), float("inf"), 0
    while i < len(by_latency):
        j = i
        lat = by_latency[i]["latency_s"]
        while j < len(by_latency) and by_latency[j]["latency_s"] == lat:
            j += 1
        tie_min = min(p["energy_j"] for p in by_latency[i:j])
        for p in by_latency[i:j]:
            if p["energy_j"] == tie_min and p["energy_j"] < best_faster:
                keep.add(id(p))
        best_faster = min(best_faster, tie_min)
        i = j
    return [_identity(p) for p in feas if id(p) in keep]


def _grid_identities(grid: dict) -> list:
    """Point identities in the sweep's promised order: the sorted product."""
    overlaps = sorted(grid["overlap"],
                      key=lambda o: (0, ()) if o == "none"
                      else (1, tuple(map(int, o.split(":")))))
    return [["prefill", b, isl, 1, tp, 1, 1, None if ov == "none" else ov]
            for b, isl, tp, ov in product(sorted(grid["batch"]), sorted(grid["isl"]),
                                          sorted(grid["tp"]), overlaps)]


def check_sweep(op, out: Path, p_idle: float) -> tuple[dict, list]:
    """Summary of a sweep call's outputs and the invariants it breaks."""
    points = _load(out / "points.json")["points"]
    front = _load(out / "frontier.json")
    summary = {
        "points": [[p["latency_s"], p["energy_j"]] if p["feasible"] else None
                   for p in points],
        "frontier": [_identity(p) for p in front["frontier"]],
        "heuristic": front.get("heuristic"),
        "insights": front["insights"],
    }
    problems = []
    if [_identity(p) for p in points] != _grid_identities(op.grid):
        problems.append("points are not the sorted grid product")
    for p in points:
        if p["feasible"] and not (
                p["latency_s"] > 0 and p["energy_j"] >= p_idle * p["latency_s"]
                * p["tp"] * (1 - RTOL)):
            problems.append(f"point {_identity(p)}: energy below idle floor")
            break
    if summary["frontier"] != non_dominated(points):
        problems.append("frontier is not the non-dominated set")
    if _csv_rows(out / "points.csv") != len(points):
        problems.append("points.csv row count differs from points.json")
    if _csv_rows(out / "plot_data.csv") != sum(p["feasible"] for p in points):
        problems.append("plot_data.csv row count differs from feasible points")
    return summary, problems


def check_estimate(op, out: Path, p_idle: float) -> tuple[dict, list]:
    """Summary of an estimate call's reports and the invariants they break."""
    summary, problems = {}, []
    for phase in op.phases:
        rep = _load(out / f"report_{phase}.json")
        if not rep["feasible"]:
            # Configurations are generated to fit memory with a wide margin.
            summary[phase] = {"feasible": False}
            problems.append(f"{phase}: unexpectedly infeasible")
            continue
        summary[phase] = {
            "feasible": True,
            "latency": rep["total_latency_s"],
            "energy": rep["total_energy_j"],
            "category_latency": rep["category_latency_s"],
            "category_energy": rep["category_energy_j"],
        }
        rows = rep["rows"]
        totals = (
            (sum(r["latency_s"] for r in rows), rep["total_latency_s"]),
            (sum(r["energy_j"] for r in rows), rep["total_energy_j"]),
            (sum(rep["category_latency_s"].values()), rep["total_latency_s"]),
            (sum(rep["category_energy_j"].values()), rep["total_energy_j"]),
        )
        if not all(_close(a, b) for a, b in totals):
            problems.append(f"{phase}: totals differ from the sum of categories")
        floor = (p_idle * rep["category_latency_s"]["compute"]
                 * rep["gpu_count"])
        if rep["category_energy_j"]["compute"] < floor * (1 - RTOL):
            problems.append(f"{phase}: compute energy below p_idle x latency x GPUs")
        if _csv_rows(out / f"report_{phase}.csv") != len(rows):
            problems.append(f"{phase}: report CSV row count differs")
    return summary, problems


def output_files(op) -> list:
    if op.kind == "sweep":
        return ["points.json", "frontier.json", "points.csv", "plot_data.csv"]
    return [f"report_{phase}.{ext}" for phase in op.phases for ext in ("json", "csv")]


def check(op, out: Path, p_idle: float) -> tuple[dict, list]:
    if op.kind == "sweep":
        return check_sweep(op, out, p_idle)
    return check_estimate(op, out, p_idle)
