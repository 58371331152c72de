"""Design-space exploration: grid sweeps, Pareto frontiers, heuristic comparison."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence

from .comm import CommBackend
from .compute import HardwareProfile
from .engine import Estimator, apply_overlap_setting
from .errors import ValidationError
from .interpreter import DECODE, PREFILL, PhaseContext
from .metrics import epot, etft
from .spec_lang import DimensionBindings, ModelSpec

OverlapSetting = Optional[tuple[int, int]]  # (stages, sm_comm) or None


@dataclass(frozen=True)
class ConfigPoint:
    """One evaluated configuration of the sweep grid."""

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
        return {
            "phase": self.phase, "batch": self.batch, "isl": self.isl,
            "osl": self.osl, "tp": self.tp, "ep": self.ep, "cp": self.cp,
            "overlap": (None if self.overlap is None
                        else f"{self.overlap[0]}:{self.overlap[1]}"),
            "feasible": self.feasible,
            "latency_s": self.latency,
            "energy_j": self.energy,
            "infeasible_reason": self.infeasible_reason,
        }


_GRID_AXES = ("batch", "isl", "osl", "tp", "ep", "cp", "overlap")


def _overlap_setting(value) -> OverlapSetting:
    """A grid overlap value: None or "none", "stages:sm", or [stages, sm]."""
    if value is None or value == "none":
        return None
    try:
        stages, sm = value.split(":") if isinstance(value, str) else value
        return int(stages), int(sm)
    except (TypeError, ValueError):
        raise ValidationError(f"grid overlap value {value!r} must be 'none', "
                              "'stages:sm' or [stages, sm]") from None


def _grid_int(axis: str, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"grid axis {axis!r} value {value!r} is not an integer") from None


def normalize_grid(grid: dict) -> dict[str, list]:
    """Fill missing axes with singleton defaults and validate values."""
    if not isinstance(grid, dict):
        raise ValidationError(
            "sweep grid must be a JSON object mapping axis names to value lists")
    unknown = set(grid) - set(_GRID_AXES) - {"format_version"}
    if unknown:
        raise ValidationError(f"unknown grid axis/axes {sorted(unknown)}")
    out: dict[str, list] = {}
    defaults = {"batch": [1], "isl": [1], "osl": [1], "tp": [1], "ep": [1],
                "cp": [1], "overlap": [None]}
    for axis in _GRID_AXES:
        raw = grid.get(axis, defaults[axis])
        if not isinstance(raw, (list, tuple, range)):
            raise ValidationError(f"grid axis {axis!r} must be a list, got {raw!r}")
        try:
            values = list(dict.fromkeys(
                tuple(v) if isinstance(v, list) else v for v in raw))
        except TypeError:
            raise ValidationError(
                f"grid axis {axis!r} holds a value that is not a number, "
                "string or list of them") from None
        if not values:
            raise ValidationError(f"grid axis {axis!r} is empty")
        if axis == "overlap":
            values = [_overlap_setting(v) for v in values]
        else:
            values = [_grid_int(axis, v) for v in values]
            if min(values) < 1:
                raise ValidationError(f"grid axis {axis!r} has non-positive values")
        out[axis] = values
    return out


def sweep(spec: ModelSpec, dims: DimensionBindings, grid: dict,
          hw: HardwareProfile, compute_backend, comm_backend: CommBackend,
          phase: str = PREFILL, jobs: int = 1,
          **estimator_kwargs) -> list[ConfigPoint]:
    """Evaluate the Cartesian grid. Infeasible points are flagged, not dropped.

    Output order is the sorted grid product, independent of ``jobs``.
    """
    axes = normalize_grid(grid)
    combos = sorted(
        product(axes["batch"], axes["isl"], axes["osl"], axes["tp"],
                axes["ep"], axes["cp"], axes["overlap"]),
        key=lambda c: tuple((x is not None, x) if i == 6 else x
                            for i, x in enumerate(c)))

    # One estimator per overlap setting: each compiles its layer once per
    # parallel configuration and reuses it for every batch and sequence
    # length.
    estimators = {
        ov: Estimator(spec if ov is None else apply_overlap_setting(spec, *ov),
                      dims, hw, compute_backend, comm_backend, **estimator_kwargs)
        for ov in axes["overlap"] if ov is None or phase != DECODE}

    def evaluate(combo) -> ConfigPoint:
        batch, isl, osl, tp, ep, cp, ov = combo
        if ov is not None and phase == DECODE:
            return ConfigPoint(phase, batch, isl, osl, tp, ep, cp, ov,
                               feasible=False,
                               infeasible_reason="overlap is prefill-only")
        ctx = PhaseContext(phase, batch, isl, osl)
        try:
            report = estimators[ov].estimate(ctx, {"tp": tp, "ep": ep, "cp": cp})
        except ValidationError as exc:
            return ConfigPoint(phase, batch, isl, osl, tp, ep, cp, ov,
                               feasible=False, infeasible_reason=str(exc))
        if not report.feasible:
            return ConfigPoint(phase, batch, isl, osl, tp, ep, cp, ov,
                               feasible=False,
                               infeasible_reason=report.infeasible_reason)
        return ConfigPoint(phase, batch, isl, osl, tp, ep, cp, ov,
                           feasible=True, latency=report.total_latency,
                           energy=report.total_energy)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(evaluate, combos))
    return [evaluate(c) for c in combos]


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
    usable = [p for p in points if p.feasible]
    phases = {p.phase for p in usable}
    if len(phases) > 1:
        raise ValidationError(f"mixed phases in Pareto input: {sorted(phases)}")
    frontier, dominated = [], []
    best_faster = float("inf")  # min energy among strictly lower latencies
    i = 0
    ordered = sorted(usable, key=lambda p: (p.latency, p.energy))
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j].latency == ordered[i].latency:
            j += 1
        group = ordered[i:j]
        group_min = group[0].energy
        for p in group:
            if p.energy == group_min and p.energy < best_faster:
                frontier.append(p)
            else:
                dominated.append(p)
        best_faster = min(best_faster, group_min)
        i = j
    # Restore input order for determinism of downstream reports.
    order = {id(p): k for k, p in enumerate(points)}
    frontier.sort(key=lambda p: order[id(p)])
    dominated.sort(key=lambda p: order[id(p)])
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
                      reference_frontier: Sequence[ConfigPoint]) -> dict:
    """Max-overlap heuristic vs full prediction, scored against a reference.

    The heuristic fixes the most aggressive overlap setting and sweeps only
    the remaining axes; its frontier is then compared to the reference by
    configuration identity.
    """
    setting = max_overlap_setting(points)
    subset = [p for p in points if p.overlap == setting]
    heuristic_frontier = pareto_front(subset).frontier
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
        rows = []
        isls = sorted({p.isl for p in feas})
        for isl in isls:
            a = next((p for p in feas if p.batch == 4 and p.tp == 2
                      and p.isl == isl and p.overlap is None), None)
            b = next((p for p in feas if p.batch == 16 and p.tp == 8
                      and p.isl == isl and p.overlap is None), None)
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
            cands = [p for p in feas if p.isl == isl]
            if cands:
                best = min(cands, key=lambda p: p.energy / p.batch)
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
