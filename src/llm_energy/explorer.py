"""Design-space exploration: grid sweeps, Pareto frontiers, heuristic comparison."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Optional, Sequence

from .comm import CommBackend
from .compute import HardwareProfile
from .engine import Estimator
from .errors import ValidationError
from .interpreter import DECODE, PREFILL, PhaseContext
from .metrics import epot, etft
from .spec_lang import (DimensionBindings, ModelSpec, OverlapSetting, as_int,
                        as_number, format_overlap, in_file, load_json, parse_overlap)


class ConfigPoint(NamedTuple):
    """One evaluated configuration of the sweep grid. A tuple, so a sweep
    builds its points as cheaply as the interpreter builds its records:
    ``==`` is tuple equality, and ``_replace`` makes a changed copy."""

    phase: str
    batch: int
    isl: int
    osl: int
    tp: int
    ep: int
    cp: int
    overlap: OverlapSetting
    feasible: bool
    latency: Optional[float] = None
    energy: Optional[float] = None
    infeasible_reason: str = ""

    @property
    def identity(self) -> tuple:
        return (self.phase, self.batch, self.isl, self.osl, self.tp,
                self.ep, self.cp, self.overlap)

    def to_dict(self) -> dict:
        # Keys in sorted order, where a sorting JSON encoder puts them.
        (phase, batch, isl, osl, tp, ep, cp, overlap, feasible, latency, energy,
         reason) = self
        return {
            "batch": batch, "cp": cp, "energy_j": energy, "ep": ep,
            "feasible": feasible, "infeasible_reason": reason, "isl": isl,
            "latency_s": latency, "osl": osl,
            "overlap": format_overlap(overlap), "phase": phase, "tp": tp,
        }


_POINT_FIELDS = ("phase", "batch", "isl", "osl", "tp", "ep", "cp", "feasible")


def load_points(path) -> list[ConfigPoint]:
    """The points of a sweep's ``points.json``: rows of
    :meth:`ConfigPoint.to_dict` under a ``points`` key."""
    payload = load_json(path)
    points = []
    with in_file(path):
        if not isinstance(payload, dict) or not isinstance(payload.get("points"), list):
            raise ValidationError("needs a 'points' list")
        for i, row in enumerate(payload["points"]):
            missing = [key for key in _POINT_FIELDS
                       if not isinstance(row, dict) or key not in row]
            if missing:
                raise ValidationError(f"point #{i} lacks {', '.join(missing)}")
            if row["phase"] not in (PREFILL, DECODE):
                raise ValidationError(f"point #{i} phase must be {PREFILL!r} or "
                                      f"{DECODE!r}, got {row['phase']!r}")
            if row["feasible"]:
                for key in ("latency_s", "energy_j"):
                    as_number(row.get(key), f"feasible point #{i} {key}")
            points.append(ConfigPoint(
                phase=row["phase"], batch=row["batch"], isl=row["isl"],
                osl=row["osl"], tp=row["tp"], ep=row["ep"], cp=row["cp"],
                overlap=parse_overlap(row.get("overlap")),
                feasible=row["feasible"], latency=row.get("latency_s"),
                energy=row.get("energy_j"),
                infeasible_reason=row.get("infeasible_reason", "")))
    return points


_GRID_AXES = ("batch", "isl", "osl", "tp", "ep", "cp", "overlap")


def normalize_grid(grid: dict) -> dict[str, list]:
    """Fill missing axes with singleton defaults and validate values."""
    if not isinstance(grid, dict):
        raise ValidationError(
            "sweep grid must be a JSON object mapping axis names to value lists")
    unknown = set(grid) - set(_GRID_AXES) - {"format_version"}
    if unknown:
        raise ValidationError(f"unknown grid axis/axes {sorted(unknown)}")
    out: dict[str, list] = {}
    for axis in _GRID_AXES:
        raw = grid.get(axis, [None] if axis == "overlap" else [1])
        if not isinstance(raw, (list, tuple, range)):
            raise ValidationError(f"grid axis {axis!r} must be a list, got {raw!r}")
        if not raw:
            raise ValidationError(f"grid axis {axis!r} is empty")
        if axis == "overlap":
            values = list(dict.fromkeys(map(parse_overlap, raw)))
        else:
            values = list(dict.fromkeys(
                as_int(v, f"grid axis {axis!r} value") for v in raw))
            if min(values) < 1:
                raise ValidationError(f"grid axis {axis!r} has non-positive values")
        out[axis] = values
    return out


def sweep(spec: ModelSpec, dims: DimensionBindings, grid: dict,
          hw: HardwareProfile, compute_backend, comm_backend: CommBackend,
          phase: str = PREFILL, grid_path=None,
          **estimator_kwargs) -> list[ConfigPoint]:
    """Evaluate the Cartesian grid. Infeasible points are flagged, not dropped.

    The points are evaluated in groups of one set of parallel degrees, one
    group after another. A prefill group is priced as columns over its
    distinct (batch, isl) points (prefill ignores osl) under every overlap
    setting at once (:meth:`Estimator.estimate_prefill_settings`); a
    decode point by :meth:`Estimator.estimate`. Output order is the sorted
    grid product. ``grid_path``, if given, is named in the grid's own
    errors.
    """
    if grid_path is None:
        axes = normalize_grid(grid)
    else:
        with in_file(grid_path):
            axes = normalize_grid(grid)
    # The product of sorted axes is the sorted product; no overlap sorts
    # first.
    combos = list(product(*(sorted(axes[axis], key=lambda v: (v is not None, v))
                            for axis in _GRID_AXES)))
    # Per (tp, ep, cp): the grid indices of each overlap setting's points,
    # which are the same (batch, isl, osl) in the same order for every
    # setting.
    groups: dict[tuple, dict] = {}
    for k, combo in enumerate(combos):
        groups.setdefault(combo[3:6], {}).setdefault(combo[6], []).append(k)

    # One estimator for the whole grid: it validates, builds the memory
    # model and compiles the layer once per set of parallel degrees, for
    # every batch, sequence length and overlap setting.
    estimator = Estimator(spec, dims, hw, compute_backend, comm_backend,
                          **estimator_kwargs)

    def decode_point(batch, isl, osl, degrees, ov):
        try:
            report = estimator.estimate(PhaseContext(phase, batch, isl, osl),
                                        degrees, ov)
        except ValidationError as exc:
            return None, None, str(exc)
        if not report.feasible:
            return None, None, report.infeasible_reason
        return report.total_latency, report.total_energy, ""

    points: list = [None] * len(combos)
    make = ConfigPoint._make
    for (tp, ep, cp), by_setting in groups.items():
        degrees = {"tp": tp, "ep": ep, "cp": cp}
        if phase == PREFILL:
            # Prefill ignores osl: each distinct (batch, isl) is priced
            # once, and its result goes to every osl of the grid.
            slot: dict = {}  # each distinct (batch, isl): its index
            slots = [slot.setdefault(combos[k][:2], len(slot))
                     for k in next(iter(by_setting.values()))]
            priced = estimator.estimate_prefill_settings(
                list(slot), degrees, list(by_setting))
            results = [(k, per_point[j])
                       for indices, per_point in zip(by_setting.values(), priced)
                       for k, j in zip(indices, slots)]
        else:
            results = [(k, decode_point(*combos[k][:3], degrees, ov))
                       for ov, indices in by_setting.items() for k in indices]
        for k, (latency, energy, reason) in results:
            points[k] = make((phase, *combos[k], latency is not None, latency,
                              energy, reason))
    return points


@dataclass
class ParetoResult:
    frontier: list[ConfigPoint]
    dominated: list[ConfigPoint]
    recovery_rate: Optional[float] = None


def pareto_front(points: Sequence[ConfigPoint]) -> ParetoResult:
    """Exact non-dominated set over (latency asc, energy asc); ties all kept.

    Sweep-line over points sorted by latency: a point survives iff its
    energy is strictly below every strictly-faster point's energy and
    minimal within its own latency tie group.
    """
    # (latency, energy, index) of each feasible point: sorted, points of
    # equal cost keep their input order.
    ordered = sorted((p.latency, p.energy, k)
                     for k, p in enumerate(points) if p.feasible)
    phases = {points[k].phase for _, _, k in ordered}
    if len(phases) > 1:
        raise ValidationError(f"mixed phases in Pareto input: {sorted(phases)}")
    on_front, off_front = [], []
    best_faster = float("inf")  # min energy among strictly lower latencies
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][0] == ordered[i][0]:
            j += 1
        group_min = ordered[i][1]
        for _, energy, k in ordered[i:j]:
            if energy == group_min and energy < best_faster:
                on_front.append(k)
            else:
                off_front.append(k)
        best_faster = min(best_faster, group_min)
        i = j
    # Input order, for determinism of downstream reports.
    frontier = [points[k] for k in sorted(on_front)]
    dominated = [points[k] for k in sorted(off_front)]
    return ParetoResult(frontier, dominated)


def max_overlap_setting(points: Sequence[ConfigPoint]) -> OverlapSetting:
    """The sweep's most aggressive overlap: largest sm_comm, then most stages."""
    settings = {p.overlap for p in points if p.overlap is not None}
    if not settings:
        raise ValidationError("sweep contains no overlapped configurations")
    return max(settings, key=lambda s: (s[1], s[0]))


def recovery_rate(candidate_frontier: Sequence[ConfigPoint],
                  reference_frontier: Sequence[ConfigPoint]) -> float:
    """Fraction of reference-frontier configurations found by the candidate."""
    if not reference_frontier:
        raise ValidationError("reference frontier is empty")
    ref = {p.identity for p in reference_frontier}
    hit = {p.identity for p in candidate_frontier} & ref
    return len(hit) / len(ref)


def heuristic_compare(points: Sequence[ConfigPoint],
                      reference_frontier: Sequence[ConfigPoint],
                      full_frontier: Optional[Sequence[ConfigPoint]] = None) -> dict:
    """Max-overlap heuristic vs full prediction, scored against a reference.

    The heuristic fixes the most aggressive overlap setting and sweeps only
    the remaining axes; its frontier is then compared to the reference by
    configuration identity. ``full_frontier`` is ``pareto_front(points)``'s
    frontier, taken here when the caller does not already have it.
    """
    setting = max_overlap_setting(points)
    subset = [p for p in points if p.overlap == setting]
    heuristic_frontier = pareto_front(subset).frontier
    if full_frontier is None:
        full_frontier = pareto_front(points).frontier
    return {
        "heuristic_setting": setting,
        "heuristic_frontier": heuristic_frontier,
        "full_frontier": full_frontier,
        "heuristic_recovery": recovery_rate(heuristic_frontier, reference_frontier),
        "full_recovery": recovery_rate(full_frontier, reference_frontier),
    }


def insight_queries(points: Sequence[ConfigPoint]) -> dict:
    """Named comparisons over a sweep (missing configs yield notes, not errors)."""
    out: dict = {"notes": []}
    feas = [p for p in points if p.feasible]
    phase = feas[0].phase if feas else None

    if phase == PREFILL:
        by_isl: dict[int, list] = {}  # the feasible points of each isl, in order
        for p in feas:
            by_isl.setdefault(p.isl, []).append(p)
        isls = sorted(by_isl)
        rows = []
        for isl in isls:
            a = next((p for p in by_isl[isl] if p.batch == 4 and p.tp == 2
                      and p.overlap is None), None)
            b = next((p for p in by_isl[isl] if p.batch == 16 and p.tp == 8
                      and p.overlap is None), None)
            if a and b:
                # Per-request energy comparison at matched ISL.
                e_a, e_b = a.energy / a.batch, b.energy / b.batch
                rows.append({"isl": isl,
                             "etft_b4_tp2": e_a, "etft_b16_tp8": e_b,
                             "energy_delta_frac": (e_b - e_a) / e_b})
        if rows:
            out["b4tp2_vs_b16tp8"] = rows
        else:
            out["notes"].append("B4/TP2 vs B16/TP8 comparison needs both configs")
        winners = []
        for isl in isls:
            best = min(by_isl[isl], key=lambda p: p.energy / p.batch)
            winners.append({"isl": isl, "winner": best.to_dict()})
        out["per_isl_winners"] = winners

    if phase == DECODE:
        tps = sorted({p.tp for p in feas})
        ratio_rows = []
        for tp in tps:
            b1 = next((p for p in feas if p.batch == 1 and p.tp == tp), None)
            b16 = next((p for p in feas if p.batch == 16 and p.tp == tp), None)
            if b1 and b16:
                epot1 = b1.energy / (b1.batch * b1.osl)
                epot16 = b16.energy / (b16.batch * b16.osl)
                ratio_rows.append({"tp": tp, "epot_b1": epot1,
                                   "epot_b16": epot16,
                                   "epot_ratio_b16_over_b1": epot16 / epot1})
        if ratio_rows:
            out["epot_batch_ratio"] = ratio_rows
        else:
            out["notes"].append("EPOT ratio needs batch 1 and 16 at a common TP")
    return out
