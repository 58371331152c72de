"""Per-kernel latency/power estimation for GEMM and memory ops.

Two interchangeable backends: a roofline model driven by a
:class:`HardwareProfile`, and a calibration-table lookup for imported
measurements. Both return :class:`CostEstimate` and support SM-restricted
queries (used by overlap planning). Each also prices a kernel's columns
over a column of points (``*_columns``: decode positions, or a sweep
group's batch sizes and sequence lengths), returning (latencies, energies)
arrays with the scalar methods' arithmetic, in the same order, at each
point.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import MISSING, dataclass, fields

from .errors import BackendError, ValidationError
from .interpreter import (GemmColumns, GemmDescriptor, MemoryOpColumns,
                          MemoryOpDescriptor)
from .spec_lang import as_int, as_number, in_file, load_json, read_csv


@dataclass(frozen=True)
class CostEstimate:
    """Latency, energy, and mean power of one kernel or aggregate."""

    latency: float  # seconds
    energy: float  # joules

    @property
    def power(self) -> float:
        return self.energy / self.latency if self.latency > 0 else 0.0

    def __add__(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(self.latency + other.latency, self.energy + other.energy)


ZERO_COST = CostEstimate(0.0, 0.0)


@dataclass(frozen=True)
class HardwareProfile:
    """Device constants for the roofline backend and memory feasibility."""

    peak_flops: float  # FLOP/s at the target dtype
    mem_bw: float  # bytes/s
    total_sm: int
    dram_capacity: float  # bytes
    p_idle: float  # watts
    p_max: float  # watts
    kernel_launch_overhead: float = 5e-6  # seconds
    compute_efficiency: float = 1.0
    bandwidth_efficiency: float = 1.0
    memory_op_utilization: float = 0.3  # occupancy assumed for pure copy kernels
    name: str = "unnamed"

    def __post_init__(self):
        for f in fields(self):
            if f.name != "name":
                as_number(getattr(self, f.name), f"hardware field {f.name!r}")
        if not (self.p_max > self.p_idle > 0):
            raise ValidationError("require p_max > p_idle > 0")
        if not (0 < self.compute_efficiency <= 1 and 0 < self.bandwidth_efficiency <= 1):
            raise ValidationError("efficiencies must be in (0, 1]")
        if self.total_sm < 1:
            raise ValidationError("total_sm must be >= 1")
        if min(self.peak_flops, self.mem_bw, self.dram_capacity) <= 0:
            raise ValidationError("peak_flops/mem_bw/dram_capacity must be positive")


_HW_KEYS = {f.name for f in fields(HardwareProfile)} | {"format_version"}


def load_hardware_profile(path) -> HardwareProfile:
    raw = load_json(path)
    with in_file(path):
        if not isinstance(raw, dict):
            raise ValidationError("hardware profile must be a JSON object")
        unknown = set(raw) - _HW_KEYS
        if unknown:
            raise ValidationError(f"unknown hardware field(s) {sorted(unknown)}")
        missing = {f.name for f in fields(HardwareProfile)
                   if f.default is MISSING} - set(raw)
        if missing:
            raise ValidationError(f"missing hardware field(s) {sorted(missing)}")
        raw = {key: value for key, value in raw.items() if key != "format_version"}
        raw["total_sm"] = as_int(raw["total_sm"], "hardware field 'total_sm'")
        return HardwareProfile(**raw)


def _utilization_power(hw: HardwareProfile, u_eff: float) -> float:
    return hw.p_idle + (hw.p_max - hw.p_idle) * u_eff


def _compute_rate(g, hw: HardwareProfile) -> float:
    """Effective FLOP/s of a GEMM on its available SMs."""
    sm = g.sm_available if g.sm_available is not None else hw.total_sm
    if sm < 1:
        raise ValidationError(f"GEMM {g.label!r}: zero SMs available")
    if sm > hw.total_sm:
        raise ValidationError(f"GEMM {g.label!r}: sm_available exceeds total_sm")
    return hw.peak_flops * hw.compute_efficiency * sm / hw.total_sm


def estimate_gemm(g: GemmDescriptor, hw: HardwareProfile) -> CostEstimate:
    """Roofline estimate: max of compute and memory time plus launch overhead.

    Power blends the bound resource (full utilization) with the other
    resource's occupancy fraction, so balanced kernels approach p_max and
    memory-bound decode GEMMs stay well below it.
    """
    t_compute = g.flops / _compute_rate(g, hw)
    t_memory = g.bytes_moved / (hw.mem_bw * hw.bandwidth_efficiency)
    latency = max(t_compute, t_memory) + hw.kernel_launch_overhead
    hi, lo = max(t_compute, t_memory), min(t_compute, t_memory)
    u_eff = (1.0 + (lo / hi if hi > 0 else 1.0)) / 2.0
    power = _utilization_power(hw, u_eff)
    return CostEstimate(latency, power * latency)


def estimate_gemm_columns(g: GemmColumns,
                          hw: HardwareProfile) -> tuple[array, array]:
    """:func:`estimate_gemm` at each point: (latencies, energies)."""
    compute_rate = _compute_rate(g, hw)
    memory_rate = hw.mem_bw * hw.bandwidth_efficiency
    overhead, p_idle = hw.kernel_launch_overhead, hw.p_idle
    p_span = hw.p_max - hw.p_idle
    latencies, energies = array("d"), array("d")
    for flops, moved in zip(g.flops, g.bytes_moved):
        t_compute = flops / compute_rate
        t_memory = moved / memory_rate
        if t_memory > t_compute:
            hi, lo = t_memory, t_compute
        else:
            hi, lo = t_compute, t_memory
        latency = hi + overhead
        u_eff = (1.0 + (lo / hi if hi > 0 else 1.0)) / 2.0
        latencies.append(latency)
        energies.append((p_idle + p_span * u_eff) * latency)
    return latencies, energies


def estimate_memory_op(m: MemoryOpDescriptor, hw: HardwareProfile) -> CostEstimate:
    """Bandwidth-bound kernel: read + write traffic at effective bandwidth."""
    latency = 2.0 * m.bytes / (hw.mem_bw * hw.bandwidth_efficiency)
    latency += hw.kernel_launch_overhead
    power = _utilization_power(hw, hw.memory_op_utilization)
    return CostEstimate(latency, power * latency)


def estimate_memory_op_columns(m: MemoryOpColumns,
                               hw: HardwareProfile) -> tuple[array, array]:
    """:func:`estimate_memory_op` at each point: (latencies, energies)."""
    rate = hw.mem_bw * hw.bandwidth_efficiency
    overhead = hw.kernel_launch_overhead
    power = _utilization_power(hw, hw.memory_op_utilization)
    latencies = array("d", [2.0 * size / rate + overhead for size in m.bytes])
    return latencies, array("d", [power * latency for latency in latencies])


class RooflineBackend:
    """Default compute backend wrapping the roofline formulas."""

    def __init__(self, hw: HardwareProfile):
        self.hw = hw

    def estimate_gemm(self, g: GemmDescriptor) -> CostEstimate:
        return estimate_gemm(g, self.hw)

    def estimate_memory_op(self, m: MemoryOpDescriptor) -> CostEstimate:
        return estimate_memory_op(m, self.hw)

    def estimate_gemm_columns(self, g: GemmColumns) -> tuple[array, array]:
        return estimate_gemm_columns(g, self.hw)

    def estimate_memory_op_columns(self, m: MemoryOpColumns) -> tuple[array, array]:
        return estimate_memory_op_columns(m, self.hw)


@dataclass(frozen=True)
class GemmCalibrationPoint:
    group_count: float
    m: float
    contraction: float
    n: float
    dtype_bytes: int
    latency_s: float
    power_w: float

    def __post_init__(self):
        if self.dtype_bytes < 1 or not all(0 < v < math.inf for v in (
                self.group_count, self.m, self.contraction, self.n,
                self.flops, self.latency_s, self.power_w)):
            raise ValidationError(
                f"{self}: G, M, contraction, N, their FLOPs, latency and power "
                "must be positive and finite, and dtype_bytes at least 1")

    @property
    def flops(self) -> float:
        return 2.0 * self.group_count * self.m * self.contraction * self.n


def _log_dims(g) -> tuple[float, float, float, float]:
    return tuple(math.log(max(v, 1.0))
                 for v in (g.m, g.contraction, g.n, g.group_count))


def _add(a, b):
    """``a + b`` where each is a float or a column, added point by point."""
    if isinstance(a, float):
        return a + b if isinstance(b, float) else [a + y for y in b]
    if isinstance(b, float):
        return [x + b for x in a]
    return [x + y for x, y in zip(a, b)]


class GemmCalibrationTable:
    """Measured GEMM points; queried by log-space nearest neighbor.

    Latency is scaled by the FLOP ratio between the query and its nearest
    point; power is taken from that point. This is deliberately coarse --
    an import path for real measurements, not a learned predictor.
    """

    def __init__(self, points: list[GemmCalibrationPoint]):
        if not points:
            raise ValidationError("GEMM calibration table is empty")
        self.points = list(points)
        self._logs = [(_log_dims(p), p) for p in self.points]

    @classmethod
    def load(cls, path) -> "GemmCalibrationTable":
        columns, _ = read_csv(path, ("G", "M", "contraction", "N", "dtype_bytes",
                                     "latency_s", "power_w"),
                              [float] * 4 + [int, float, float])
        with in_file(path):
            return cls([GemmCalibrationPoint(*row) for row in zip(*columns)])

    def _nearest(self, g: GemmDescriptor) -> GemmCalibrationPoint:
        """The first point at the least squared log distance over (M,
        contraction, N, G), each dimension floored at 1."""
        return self._nearest_logs(*_log_dims(g))

    def _nearest_logs(self, qm: float, qk: float, qn: float,
                      qg: float) -> GemmCalibrationPoint:
        best, best_dist = None, math.inf
        for (lm, lk, ln, lg), p in self._logs:
            dist = (qm - lm) ** 2 + (qk - lk) ** 2 + (qn - ln) ** 2 + (qg - lg) ** 2
            if dist < best_dist:
                best, best_dist = p, dist
        return best

    def estimate_gemm(self, g: GemmDescriptor) -> CostEstimate:
        p = self._nearest(g)
        latency = p.latency_s * (g.flops / p.flops)
        if g.sm_available is not None:
            raise BackendError(
                "GEMM calibration backend does not support SM-restricted queries")
        return CostEstimate(latency, p.power_w * latency)

    def estimate_gemm_columns(self, g: GemmColumns) -> tuple[array, array]:
        """:meth:`estimate_gemm` at each point: (latencies, energies)."""
        if g.sm_available is not None:
            raise BackendError(
                "GEMM calibration backend does not support SM-restricted queries")
        # A dimension constant along the column is one log, whose squared
        # distance to each calibration point is taken once.
        n = len(g.m)
        queries = [math.log(max(col[0], 1.0)) if n and col.count(col[0]) == n
                   else [math.log(max(v, 1.0)) for v in col]
                   for col in (g.m, g.contraction, g.n, g.group_count)]
        # Per calibration point, its distance at each point of the column:
        # the terms added in :meth:`_nearest_logs`'s order, so that each
        # sum is the same float.
        distances = []
        for logs, _ in self._logs:
            dist = None  # a float while every term so far is constant
            for query, cal in zip(queries, logs):
                term = ((query - cal) ** 2 if isinstance(query, float)
                        else [(q - cal) ** 2 for q in query])
                dist = term if dist is None else _add(dist, term)
            distances.append(dist)
        latencies, energies = array("d"), array("d")
        points = self.points
        if isinstance(distances[0], float):  # no dimension varies
            distances = [[dist] * n for dist in distances]
        for dists, flops in zip(zip(*distances), g.flops):
            # The first point at the least distance.
            p = points[dists.index(min(dists))]
            latency = p.latency_s * (flops / p.flops)
            latencies.append(latency)
            energies.append(p.power_w * latency)
        return latencies, energies


class TableComputeBackend:
    """Calibration-backed GEMMs; memory ops fall back to the roofline."""

    def __init__(self, table: GemmCalibrationTable, hw: HardwareProfile):
        self.table = table
        self.hw = hw

    def estimate_gemm(self, g: GemmDescriptor) -> CostEstimate:
        if g.sm_available is not None:
            # Overlap planning needs SM-restricted queries the table cannot
            # answer; use the roofline for those.
            return estimate_gemm(g, self.hw)
        return self.table.estimate_gemm(g)

    def estimate_memory_op(self, m: MemoryOpDescriptor) -> CostEstimate:
        return estimate_memory_op(m, self.hw)

    def estimate_gemm_columns(self, g: GemmColumns) -> tuple[array, array]:
        if g.sm_available is not None:
            return estimate_gemm_columns(g, self.hw)
        return self.table.estimate_gemm_columns(g)

    def estimate_memory_op_columns(self, m: MemoryOpColumns) -> tuple[array, array]:
        return estimate_memory_op_columns(m, self.hw)
