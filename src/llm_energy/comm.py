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
from bisect import bisect_left
from dataclasses import dataclass, field

from .compute import CostEstimate
from .errors import BackendError, ValidationError
from .interpreter import ALLGATHER, ALLREDUCE, ALLTOALL, REDUCESCATTER, CommDescriptor

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
        for prev, cur in zip(self.sizes, self.sizes[1:]):
            if cur <= prev:
                raise ValidationError(
                    f"comm calibration {key}: sizes must be strictly increasing "
                    f"(saw {prev} then {cur})")
        if min(self.latencies) <= 0 or min(self.energies) <= 0:
            raise ValidationError(f"comm calibration {key}: non-positive values")

    def _interp(self, values: list[float], size: float) -> float:
        sizes = self.sizes
        if size <= sizes[0]:
            # Overhead floor: small messages cost as much as the smallest
            # calibrated transfer.
            return values[0]
        if size >= sizes[-1]:
            lo, hi = len(sizes) - 2, len(sizes) - 1
        else:
            hi = bisect_left(sizes, size)
            lo = hi - 1
            if sizes[hi] == size:
                return values[hi]
        x0, x1 = math.log(sizes[lo]), math.log(sizes[hi])
        y0, y1 = math.log(values[lo]), math.log(values[hi])
        frac = (math.log(size) - x0) / (x1 - x0)
        return math.exp(y0 + frac * (y1 - y0))

    def latency(self, size: float) -> float:
        return self._interp(self.latencies, size)

    def energy(self, size: float) -> float:
        return self._interp(self.energies, size)


@dataclass
class CommCalibrationTable:
    """Calibration curves keyed by (kind, world, sm_count)."""

    curves: dict[tuple[str, int, int], CommCurve] = field(default_factory=dict)
    provenance: str = ""

    def validate(self) -> None:
        for key, curve in self.curves.items():
            curve.validate(key)

    def sm_counts(self, kind: str, world: int) -> list[int]:
        return sorted(sm for k, w, sm in self.curves if k == kind and w == world)

    def has_key(self, kind: str, world: int) -> bool:
        return bool(self.sm_counts(kind, world))


def load_comm_calibration(path) -> CommCalibrationTable:
    """Load a delimited calibration file.

    Columns: kind, world, sm_count, bytes, latency_s, energy_j. Lines
    starting with ``#`` carry provenance.
    """
    rows: dict[tuple[str, int, int], list[tuple[float, float, float]]] = {}
    provenance: list[str] = []
    header_seen = False
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                provenance.append(line.lstrip("# "))
                continue
            cols = [c.strip() for c in line.split(",")]
            if not header_seen:
                expected = ["kind", "world", "sm_count", "bytes", "latency_s",
                            "energy_j"]
                if cols != expected:
                    raise ValidationError(
                        f"{path}:{lineno}: header must be {','.join(expected)}")
                header_seen = True
                continue
            if len(cols) != 6:
                raise ValidationError(f"{path}:{lineno}: expected 6 columns")
            kind, world, sm, size, lat, en = cols
            if kind not in VALID_KINDS:
                raise ValidationError(f"{path}:{lineno}: unknown kind {kind!r}")
            try:
                key = (kind, int(world), int(sm))
                sample = (float(size), float(lat), float(en))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            rows.setdefault(key, []).append(sample)
    if not header_seen:
        raise ValidationError(f"{path}: missing header row")

    table = CommCalibrationTable(provenance="; ".join(provenance))
    for key, samples in rows.items():
        samples.sort(key=lambda r: r[0])
        for (s0, _, _), (s1, _, _) in zip(samples, samples[1:]):
            if s0 == s1:
                raise ValidationError(
                    f"{path}: duplicate bytes {s0} for key {key}")
        table.curves[key] = CommCurve([r[0] for r in samples],
                                      [r[1] for r in samples],
                                      [r[2] for r in samples])
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

    def _blend(self, a: float, b: float) -> float:
        return math.exp((1 - self.frac) * math.log(a) + self.frac * math.log(b))

    def latency(self, size: float) -> float:
        if len(self.curves) == 1:
            return self.curves[0].latency(size)
        return self._blend(self.curves[0].latency(size), self.curves[1].latency(size))

    def energy(self, size: float) -> float:
        if len(self.curves) == 1:
            return self.curves[0].energy(size)
        return self._blend(self.curves[0].energy(size), self.curves[1].energy(size))


def _collective_curve(c: CommDescriptor,
                      table: CommCalibrationTable) -> EffectiveCurve:
    """The curve that prices ``c``: its (kind, world) curves at its SM count.

    Descriptors without an SM restriction use the largest calibrated
    sm_count (an unrestricted kernel). AllToAll without its own calibration
    falls back to ReduceScatter curves (factor 1.0) with a warning.
    """
    kind = c.kind
    if not table.has_key(kind, c.world):
        if kind == ALLTOALL and table.has_key(REDUCESCATTER, c.world):
            warnings.warn(
                f"no AllToAll calibration for world={c.world}; "
                "falling back to ReduceScatter curves")
            kind = REDUCESCATTER
        else:
            raise BackendError(
                f"no calibration for ({c.kind}, world={c.world})")
    counts = table.sm_counts(kind, c.world)
    sm = c.sm_count if c.sm_count is not None else counts[-1]
    return resolve_sm_curve(kind, c.world, sm, table)


def estimate_comm(c: CommDescriptor, table: CommCalibrationTable) -> CostEstimate:
    """Interpolated latency/energy for one collective (see
    :func:`_collective_curve` for the curve chosen)."""
    curve = _collective_curve(c, table)
    return CostEstimate(curve.latency(c.bytes), curve.energy(c.bytes))


class CommBackend:
    """The engine's comm pricer over one calibration table.

    The curve for each (kind, world, sm_count) is resolved once and kept,
    so the table must not change while the backend is in use; the table
    itself keeps no cache. An AllToAll falling back to ReduceScatter warns
    once per key.
    """

    def __init__(self, table: CommCalibrationTable):
        self.table = table
        self._curves: dict[tuple, EffectiveCurve] = {}

    def estimate(self, c: CommDescriptor) -> CostEstimate:
        key = (c.kind, c.world, c.sm_count)
        curve = self._curves.get(key)
        if curve is None:
            curve = _collective_curve(c, self.table)
            self._curves[key] = curve
        return CostEstimate(curve.latency(c.bytes), curve.energy(c.bytes))


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
