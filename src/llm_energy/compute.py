"""Per-kernel latency/power estimation for GEMM and memory ops.

Two interchangeable backends: a roofline model driven by a
:class:`HardwareProfile`, and a calibration-table lookup for imported
measurements. Both return :class:`CostEstimate` and support SM-restricted
queries (used by overlap planning).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional

from .errors import BackendError, ValidationError
from .interpreter import GemmDescriptor, MemoryOpDescriptor
from .spec_lang import load_json


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
        if not (self.p_max > self.p_idle > 0):
            raise ValidationError("require p_max > p_idle > 0")
        if not (0 < self.compute_efficiency <= 1 and 0 < self.bandwidth_efficiency <= 1):
            raise ValidationError("efficiencies must be in (0, 1]")
        if self.total_sm < 1:
            raise ValidationError("total_sm must be >= 1")
        if min(self.peak_flops, self.mem_bw, self.dram_capacity) <= 0:
            raise ValidationError("peak_flops/mem_bw/dram_capacity must be positive")


_HW_KEYS = {"peak_flops", "mem_bw", "total_sm", "dram_capacity", "p_idle",
            "p_max", "kernel_launch_overhead", "compute_efficiency",
            "bandwidth_efficiency", "memory_op_utilization", "name",
            "format_version"}


def load_hardware_profile(path) -> HardwareProfile:
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: hardware profile must be a JSON object")
    unknown = set(raw) - _HW_KEYS
    if unknown:
        raise ValidationError(f"{path}: unknown hardware field(s) {sorted(unknown)}")
    missing = {f.name for f in fields(HardwareProfile)
               if f.default is MISSING} - set(raw)
    if missing:
        raise ValidationError(f"{path}: missing hardware field(s) {sorted(missing)}")
    raw = {k: v for k, v in raw.items() if k != "format_version"}
    for key, value in raw.items():
        if key not in ("name", "total_sm") and (
                isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValidationError(
                f"{path}: hardware field {key!r} must be a number, got {value!r}")
    try:
        raw["total_sm"] = int(raw["total_sm"])
    except (TypeError, ValueError):
        raise ValidationError(f"{path}: hardware field 'total_sm' must be an "
                              f"integer, got {raw['total_sm']!r}") from None
    return HardwareProfile(**raw)


def _utilization_power(hw: HardwareProfile, u_eff: float) -> float:
    return hw.p_idle + (hw.p_max - hw.p_idle) * u_eff


def estimate_gemm(g: GemmDescriptor, hw: HardwareProfile) -> CostEstimate:
    """Roofline estimate: max of compute and memory time plus launch overhead.

    Power blends the bound resource (full utilization) with the other
    resource's occupancy fraction, so balanced kernels approach p_max and
    memory-bound decode GEMMs stay well below it.
    """
    sm = g.sm_available if g.sm_available is not None else hw.total_sm
    if sm < 1:
        raise ValidationError(f"GEMM {g.label!r}: zero SMs available")
    if sm > hw.total_sm:
        raise ValidationError(f"GEMM {g.label!r}: sm_available exceeds total_sm")
    t_compute = g.flops / (hw.peak_flops * hw.compute_efficiency * sm / hw.total_sm)
    t_memory = g.bytes_moved / (hw.mem_bw * hw.bandwidth_efficiency)
    latency = max(t_compute, t_memory) + hw.kernel_launch_overhead
    hi, lo = max(t_compute, t_memory), min(t_compute, t_memory)
    u_eff = (1.0 + (lo / hi if hi > 0 else 1.0)) / 2.0
    power = _utilization_power(hw, u_eff)
    return CostEstimate(latency, power * latency)


def estimate_memory_op(m: MemoryOpDescriptor, hw: HardwareProfile) -> CostEstimate:
    """Bandwidth-bound kernel: read + write traffic at effective bandwidth."""
    latency = 2.0 * m.bytes / (hw.mem_bw * hw.bandwidth_efficiency)
    latency += hw.kernel_launch_overhead
    power = _utilization_power(hw, hw.memory_op_utilization)
    return CostEstimate(latency, power * latency)


class RooflineBackend:
    """Default compute backend wrapping the roofline formulas."""

    def __init__(self, hw: HardwareProfile):
        self.hw = hw

    def estimate_gemm(self, g: GemmDescriptor) -> CostEstimate:
        return estimate_gemm(g, self.hw)

    def estimate_memory_op(self, m: MemoryOpDescriptor) -> CostEstimate:
        return estimate_memory_op(m, self.hw)


@dataclass(frozen=True)
class GemmCalibrationPoint:
    group_count: float
    m: float
    contraction: float
    n: float
    dtype_bytes: int
    latency_s: float
    power_w: float

    @property
    def flops(self) -> float:
        return 2.0 * self.group_count * self.m * self.contraction * self.n


def _log_dims(g) -> tuple[float, float, float, float]:
    return tuple(math.log(max(v, 1.0))
                 for v in (g.m, g.contraction, g.n, g.group_count))


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
        points = []
        with open(path) as fh:
            header: Optional[list[str]] = None
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                cols = [c.strip() for c in line.split(",")]
                if header is None:
                    header = cols
                    expected = ["G", "M", "contraction", "N", "dtype_bytes",
                                "latency_s", "power_w"]
                    if header != expected:
                        raise ValidationError(
                            f"{path}:{lineno}: header must be {','.join(expected)}")
                    continue
                if len(cols) != len(expected):
                    raise ValidationError(
                        f"{path}:{lineno}: expected {len(expected)} columns")
                g, m_, k, n, t, lat, pw = cols
                try:
                    point = GemmCalibrationPoint(float(g), float(m_), float(k),
                                                 float(n), int(t), float(lat),
                                                 float(pw))
                except ValueError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from None
                if point.latency_s <= 0 or point.power_w <= 0:
                    raise ValidationError(f"{path}:{lineno}: non-positive latency/power")
                points.append(point)
        return cls(points)

    def _nearest(self, g: GemmDescriptor) -> GemmCalibrationPoint:
        """The first point at the least squared log distance over (M,
        contraction, N, G), each dimension floored at 1."""
        qm, qk, qn, qg = _log_dims(g)
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
