"""Phase-level aggregation: breakdown reports, ETFT/EPOT, memory feasibility."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .compute import HardwareProfile
from .errors import ValidationError
from .interpreter import (
    DECODE,
    PREFILL,
    PhaseContext,
    _flatten_ops,
    op_shards,
    operand_bytes,
)
from .spec_lang import RUNTIME_SYMBOLS, DimensionBindings, ModelSpec

CATEGORY_COMPUTE = "compute"
CATEGORY_COMM = "communication"
CATEGORY_MEMORY = "memory"
CATEGORY_EXPOSED = "exposed-comm"
CATEGORIES = (CATEGORY_COMPUTE, CATEGORY_COMM, CATEGORY_MEMORY, CATEGORY_EXPOSED)


@dataclass
class ReportRow:
    """Aggregated cost of one (op label, category) pair across all layers."""

    label: str
    category: str
    latency: float = 0.0
    energy: float = 0.0

    def add(self, latency: float, energy: float) -> None:
        self.latency += latency
        self.energy += energy


@dataclass
class PhaseReport:
    """Breakdown and workload-level metrics for one phase evaluation."""

    phase: str
    batch: int
    isl: int
    osl: int
    gpu_count: int
    rows: list[ReportRow] = field(default_factory=list)
    feasible: bool = True
    infeasible_reason: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def total_latency(self) -> float:
        return sum(r.latency for r in self.rows)

    @property
    def total_energy(self) -> float:
        return sum(r.energy for r in self.rows)

    def category_energy(self) -> dict[str, float]:
        out = {c: 0.0 for c in CATEGORIES}
        for r in self.rows:
            out[r.category] += r.energy
        return out

    def category_latency(self) -> dict[str, float]:
        out = {c: 0.0 for c in CATEGORIES}
        for r in self.rows:
            out[r.category] += r.latency
        return out

    def to_dict(self) -> dict:
        d = {
            "format_version": 1,
            "phase": self.phase,
            "batch": self.batch,
            "isl": self.isl,
            "osl": self.osl,
            "gpu_count": self.gpu_count,
            "feasible": self.feasible,
        }
        if not self.feasible:
            d["infeasible_reason"] = self.infeasible_reason
            d["meta"] = self.meta
            return d
        d.update({
            "rows": [{"label": r.label, "category": r.category,
                      "latency_s": r.latency, "energy_j": r.energy}
                     for r in self.rows],
            "total_latency_s": self.total_latency,
            "total_energy_j": self.total_energy,
            "category_energy_j": self.category_energy(),
            "category_latency_s": self.category_latency(),
            "meta": self.meta,
        })
        if self.phase == PREFILL:
            d["ttft_s"] = self.total_latency
            d["etft_j_per_request"] = etft(self)
        else:
            d["tpot_s"] = self.total_latency / self.osl
            d["epot_j_per_token"] = epot(self)
        return d


def etft(report: PhaseReport) -> float:
    """Energy to first token: prefill energy per request."""
    if report.phase != PREFILL:
        raise ValidationError("ETFT is defined on prefill reports")
    return report.total_energy / report.batch


def epot(report: PhaseReport) -> float:
    """Energy per output token per request: decode energy / (batch * OSL)."""
    if report.phase != DECODE:
        raise ValidationError("EPOT is defined on decode reports")
    return report.total_energy / (report.batch * report.osl)


@dataclass(frozen=True)
class MemoryModel:
    """Per-GPU DRAM footprint: sharded weights + KV cache."""

    weight_bytes: float
    kv_unit_bytes: float  # bytes per (batch element x context token)

    def kv_bytes(self, batch: int, z: int) -> float:
        return self.kv_unit_bytes * batch * z

    def required(self, batch: int, z: int) -> float:
        return self.weight_bytes + self.kv_bytes(batch, z)

    def fits(self, batch: int, z: int, capacity: float) -> bool:
        """Do the weights, and the weights with the KV cache of ``batch``
        sequences of context ``z``, fit in ``capacity``? The one test of
        :func:`check_memory`, in its float order."""
        return not (self.weight_bytes > capacity
                    or self.weight_bytes + self.kv_unit_bytes * batch * z > capacity)

    def max_context(self, batch: int, capacity: float) -> Optional[int]:
        """Largest context length z fitting in ``capacity`` at this batch size;
        None when the spec holds no KV cache, so memory bounds no context."""
        free = capacity - self.weight_bytes
        if free < 0:
            return 0
        if not self.kv_unit_bytes:
            return None
        return int(free // (self.kv_unit_bytes * batch))


def build_memory_model(spec: ModelSpec, dims: DimensionBindings,
                       degrees: dict[str, int], layers: int) -> MemoryModel:
    """Derive the per-GPU memory model from the op list.

    Weights are the input operands with no runtime symbol, sharded along the
    op's parallel dimension and replicated across the context-parallel
    group. The KV cache is every input operand that holds the context ``z``
    but not the query tokens ``s`` (the ``bKzh`` cache of each attention
    sub-op), per batch element and context token, sharded like that op.
    """
    weights = kv_unit = 0.0
    for op in _flatten_ops(spec):
        for operand in op.equation.input_operands:
            if not RUNTIME_SYMBOLS.intersection(operand):
                weights += operand_bytes(operand, dims,
                                         op_shards(op, dict(degrees, cp=1)))
            elif "z" in operand and "s" not in operand:
                per_token = "".join(sym for sym in operand
                                    if sym not in RUNTIME_SYMBOLS)
                kv_unit += operand_bytes(per_token, dims, op_shards(op, degrees))
    return MemoryModel(weights * layers, kv_unit * layers)


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    reason: str
    max_seq_at_batch: Optional[int]
    required_bytes: float
    capacity_bytes: float


def check_memory(mem: MemoryModel, ctx: PhaseContext,
                 hw: HardwareProfile) -> FeasibilityVerdict:
    """Does the workload's peak context fit per-GPU DRAM?"""
    z_peak = ctx.isl if ctx.phase == PREFILL else ctx.isl + ctx.osl
    required = mem.required(ctx.batch, z_peak)
    max_seq = mem.max_context(ctx.batch, hw.dram_capacity)
    if mem.fits(ctx.batch, z_peak, hw.dram_capacity):
        return FeasibilityVerdict(True, "", max_seq, required, hw.dram_capacity)
    if mem.weight_bytes > hw.dram_capacity:
        return FeasibilityVerdict(False, "weights alone exceed DRAM capacity",
                                  0, required, hw.dram_capacity)
    return FeasibilityVerdict(
        False,
        f"needs {required / 2**30:.1f} GiB > {hw.dram_capacity / 2**30:.1f} GiB "
        f"(max context {max_seq} at batch {ctx.batch})",
        max_seq, required, hw.dram_capacity)
