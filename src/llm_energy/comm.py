"""Communication cost model: interpolation over measured calibration curves.

Latency and energy are profiled (or synthesized) per (kind, world, sm_count)
across message sizes and queried by piecewise-linear interpolation in
log-log space. Below the smallest calibrated size the overhead floor is
clamped; above the largest, the last segment's log-log slope is extended.
SM-restricted queries interpolate log-values between the two nearest
calibrated SM allocations.
"""

from __future__ import annotations

import math
import warnings
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .compute import CostEstimate, one_cost
from .errors import BackendError, ValidationError
from .interpreter import (ALLGATHER, ALLREDUCE, ALLTOALL, REDUCESCATTER,
                          CommColumns, CommDescriptor)
from .spec_lang import in_file, int_cell, read_csv

VALID_KINDS = (ALLREDUCE, REDUCESCATTER, ALLGATHER, ALLTOALL)


@dataclass
class CommCurve:
    """Sorted (bytes, latency_s, energy_j) samples for one (kind, world, sm)."""

    sizes: list[float]
    latencies: list[float]
    energies: list[float]

    def validate(self, key) -> None:
        if len(self.sizes) < 2:
            raise ValidationError(f"comm calibration {key}: need >= 2 points")
        if not all(0 < v < math.inf for values in
                   (self.sizes, self.latencies, self.energies) for v in values):
            raise ValidationError(
                f"comm calibration {key}: sizes, latencies and energies must "
                "be positive and finite")
        logs = [math.log(v) for v in self.sizes]
        for i in range(1, len(logs)):
            prev, cur = self.sizes[i - 1], self.sizes[i]
            if cur <= prev:
                raise ValidationError(
                    f"comm calibration {key}: sizes must be strictly increasing "
                    f"(saw {prev} then {cur})")
            # Interpolation divides by the difference of the two logs.
            if logs[i] == logs[i - 1]:
                raise ValidationError(
                    f"comm calibration {key}: sizes {prev} and {cur} have the "
                    "same log, so no segment lies between them")

    @cached_property
    def _logs(self) -> tuple[list[float], list[float], list[float]]:
        """``math.log`` of the sizes, latencies and energies, taken once:
        the samples must not change after the first lookup."""
        return tuple([math.log(v) for v in values]
                     for values in (self.sizes, self.latencies, self.energies))

    def columns(self, sizes) -> tuple[array, array]:
        """(latencies, energies) at each of ``sizes``, each size located
        once for both. Below the smallest sample the overhead floor is
        taken (small messages cost as much as the smallest calibrated
        transfer), a sample's own values at a sample, and otherwise the
        log-log line through the two samples around the size (the last two
        above the largest)."""
        samples, latencies, energies = self.sizes, self.latencies, self.energies
        log_sizes, log_latencies, log_energies = self._logs
        smallest, largest, last = samples[0], samples[-1], len(samples) - 1
        log, exp = math.log, math.exp
        out_latencies, out_energies = array("d"), array("d")
        add_latency, add_energy = out_latencies.append, out_energies.append
        for size in sizes:
            if size <= smallest:
                add_latency(latencies[0])
                add_energy(energies[0])
                continue
            if size >= largest:
                lo, hi = last - 1, last
            else:
                hi = bisect_left(samples, size)
                if samples[hi] == size:
                    add_latency(latencies[hi])
                    add_energy(energies[hi])
                    continue
                lo = hi - 1
            x0 = log_sizes[lo]
            frac = (log(size) - x0) / (log_sizes[hi] - x0)
            y0 = log_latencies[lo]
            add_latency(exp(y0 + frac * (log_latencies[hi] - y0)))
            y0 = log_energies[lo]
            add_energy(exp(y0 + frac * (log_energies[hi] - y0)))
        return out_latencies, out_energies


@dataclass
class CommCalibrationTable:
    """Calibration curves keyed by (kind, world, sm_count)."""

    curves: dict[tuple[str, int, int], CommCurve] = field(default_factory=dict)
    provenance: str = ""

    def validate(self) -> None:
        for key, curve in self.curves.items():
            kind, world, sm = key
            if kind not in VALID_KINDS or world < 2 or sm < 1:
                raise ValidationError(f"comm calibration {key}: needs a known "
                                      "kind, world >= 2 and sm_count >= 1")
            curve.validate(key)

    def sm_counts(self, kind: str, world: int) -> list[int]:
        return sorted(sm for k, w, sm in self.curves if k == kind and w == world)

    def has_key(self, kind: str, world: int) -> bool:
        return bool(self.sm_counts(kind, world))


_HEADER = ("kind", "world", "sm_count", "bytes", "latency_s", "energy_j")
# Priced comm columns a backend keeps: the equal byte columns it meets are
# those of one lowering's kernels, a few collectives apart.
_KEPT_COLUMNS = 8


def load_comm_calibration(path) -> CommCalibrationTable:
    """Load a calibration CSV; its ``#`` lines carry provenance.

    The rows of one (kind, world, sm_count) are its curve, keyed in the
    order the file first names it; they need not be contiguous or in
    order. A bad cell is named ``path:line``, and a file with no row by
    its path. Each curve is then sorted by size and checked, which names
    the first bad curve by its key."""
    (kinds, worlds, sms, *values), comments = read_csv(path, _HEADER, (
        str.strip, int_cell("world"), int_cell("sm_count"), float, float, float))
    samples: dict[tuple[str, int, int], list] = {}
    for key, sample in zip(zip(kinds, worlds, sms), zip(*values)):
        samples.setdefault(key, []).append(sample)
    table = CommCalibrationTable(provenance="; ".join(comments))
    for key, rows in samples.items():
        rows.sort(key=itemgetter(0))
        table.curves[key] = CommCurve(*map(list, zip(*rows)))
    with in_file(path):
        if not samples:
            raise ValidationError("comm calibration has no rows")
        table.validate()
    return table


def resolve_sm_curve(kind: str, world: int, sm_query: int,
                     table: CommCalibrationTable) -> "EffectiveCurve":
    """Effective per-size curve at an arbitrary SM allocation.

    Exact SM hits return the calibrated curve; otherwise log-values are
    interpolated linearly in sm_count between the two nearest calibrated
    allocations, clamping outside the calibrated range.
    """
    counts = table.sm_counts(kind, world)
    if not counts:
        raise BackendError(f"no calibration for ({kind}, world={world})")
    if sm_query in counts:
        return EffectiveCurve([table.curves[(kind, world, sm_query)]], 0.0)
    if sm_query <= counts[0]:
        return EffectiveCurve([table.curves[(kind, world, counts[0])]], 0.0)
    if sm_query >= counts[-1]:
        return EffectiveCurve([table.curves[(kind, world, counts[-1])]], 0.0)
    hi = bisect_left(counts, sm_query)
    lo = hi - 1
    frac = (sm_query - counts[lo]) / (counts[hi] - counts[lo])
    return EffectiveCurve(
        [table.curves[(kind, world, counts[lo])],
         table.curves[(kind, world, counts[hi])]], frac)


@dataclass
class EffectiveCurve:
    """One calibrated curve, or a log-space blend of two neighboring SM curves."""

    curves: list[CommCurve]
    frac: float

    def columns(self, sizes) -> tuple[array, array]:
        """(latencies, energies) at each of ``sizes``: of the one curve, or
        the log-space blend of the two at :attr:`frac`."""
        if len(self.curves) == 1:
            return self.curves[0].columns(sizes)
        (lat0, en0), (lat1, en1) = (curve.columns(sizes) for curve in self.curves)
        frac, rest = self.frac, 1 - self.frac
        log, exp = math.log, math.exp
        return (array("d", [exp(rest * log(a) + frac * log(b))
                            for a, b in zip(lat0, lat1)]),
                array("d", [exp(rest * log(a) + frac * log(b))
                            for a, b in zip(en0, en1)]))


def estimate_comm(c: CommDescriptor, table: CommCalibrationTable) -> CostEstimate:
    """Interpolated latency/energy for one collective, priced by a
    :class:`CommBackend` of its own."""
    return CommBackend(table).estimate(c)


class CommBackend:
    """The engine's comm pricer over one calibration table.

    A collective is priced on its (kind, world) curves at its SM count.
    Descriptors without an SM restriction use the largest calibrated
    sm_count (an unrestricted kernel). AllToAll without its own calibration
    falls back to ReduceScatter curves (factor 1.0) with a warning.

    The curve for each (kind, world, sm_count) is resolved once and kept,
    so the table must not change while the backend is in use; the table
    itself keeps no cache. The AllToAll fallback warns once per key.
    The columns of the last ``_KEPT_COLUMNS`` (curve, byte column) pairs
    priced are kept too, and shared by equal pairs.
    """

    def __init__(self, table: CommCalibrationTable):
        self.table = table
        self._curves: dict[tuple, EffectiveCurve] = {}
        self._priced: dict[tuple, tuple[array, array]] = {}

    def _curve(self, c) -> EffectiveCurve:
        key = (c.kind, c.world, c.sm_count)
        curve = self._curves.get(key)
        if curve is None:
            kind, table = c.kind, self.table
            if not table.has_key(kind, c.world):
                if kind == ALLTOALL and table.has_key(REDUCESCATTER, c.world):
                    warnings.warn(
                        f"no AllToAll calibration for world={c.world}; "
                        "falling back to ReduceScatter curves")
                    kind = REDUCESCATTER
                else:
                    raise BackendError(
                        f"no calibration for ({c.kind}, world={c.world})")
            sm = c.sm_count
            if sm is None:
                sm = table.sm_counts(kind, c.world)[-1]
            curve = self._curves[key] = resolve_sm_curve(kind, c.world, sm, table)
        return curve

    def estimate(self, c: CommDescriptor) -> CostEstimate:
        """:meth:`estimate_columns` of one collective."""
        return one_cost(self._curve(c).columns((c.bytes,)))

    def estimate_columns(self, c: CommColumns) -> tuple[array, array]:
        """(latencies, energies) of the collective at each point. Equal
        byte columns on one resolved curve (the AllReduces after attention
        and after the FFN, say) are priced once and share their arrays, so
        the caller must not change them."""
        curve, sizes = self._curve(c), c.bytes
        key = (id(curve), (sizes.typecode, sizes.tobytes())
               if type(sizes) is array else tuple(sizes))
        cost = self._priced.get(key)
        if cost is None:
            cost = self._priced[key] = curve.columns(sizes)
            if len(self._priced) > _KEPT_COLUMNS:
                del self._priced[next(iter(self._priced))]
        return cost


def synthetic_comm_table(worlds=(2, 4, 8), sm_counts=(1, 4, 16, 108),
                         min_bytes: float = 1024.0, max_bytes: float = 2 ** 30,
                         points_per_curve: int = 21,
                         base_bw: float = 200e9, alpha: float = 10e-6,
                         power_per_gpu: float = 275.0) -> CommCalibrationTable:
    """Generate an alpha-beta-model calibration table for tests and fixtures.

    latency = alpha*log2(world)*sm_penalty + bytes*traffic_factor/(base_bw*sm_scale)
    energy  = power_per_gpu * world * latency

    traffic_factor reflects how much data each kind moves relative to the
    tensor size; sm_scale throttles bandwidth below 16 SMs (ring kernels
    saturate the links with few SMs but degrade sharply under ~16).
    """
    factor = {
        ALLREDUCE: lambda w: 2.0 * (w - 1) / w,
        REDUCESCATTER: lambda w: (w - 1) / w,
        ALLGATHER: lambda w: (w - 1) / w,
        ALLTOALL: lambda w: (w - 1) / w,
    }
    table = CommCalibrationTable(provenance="synthetic alpha-beta model")
    ratio = (max_bytes / min_bytes) ** (1.0 / (points_per_curve - 1))
    for kind, traffic in factor.items():
        for world in worlds:
            for sm in sm_counts:
                sm_scale = min(1.0, sm / 16.0)
                sm_penalty = 1.0 + 1.0 / sm
                sizes, lats, ens = [], [], []
                for i in range(points_per_curve):
                    size = min_bytes * ratio ** i
                    lat = (alpha * math.log2(world) * sm_penalty
                           + size * traffic(world) / (base_bw * sm_scale))
                    sizes.append(size)
                    lats.append(lat)
                    ens.append(power_per_gpu * world * lat)
                table.curves[(kind, world, sm)] = CommCurve(sizes, lats, ens)
    table.validate()
    return table


def write_comm_table(table: CommCalibrationTable, path) -> None:
    with open(path, "w") as fh:
        if table.provenance:
            fh.write(f"# {table.provenance}\n")
        fh.write("kind,world,sm_count,bytes,latency_s,energy_j\n")
        for (kind, world, sm), curve in sorted(table.curves.items()):
            for size, lat, en in zip(curve.sizes, curve.latencies, curve.energies):
                fh.write(f"{kind},{world},{sm},{size!r},{lat!r},{en!r}\n")
