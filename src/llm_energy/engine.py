"""End-to-end estimation: lower, price, fold imbalance/overlap, aggregate."""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional

from .comm import CommBackend
from .compute import CostEstimate, HardwareProfile
from .errors import SpecError, ValidationError
# lower_model is unused here but stays importable from this module: the
# benchmark's tracer wraps engine.lower_model.
from .interpreter import (  # noqa: F401
    DECODE,
    PREFILL,
    CommDescriptor,
    GemmDescriptor,
    LayerPlan,
    LoweredOp,
    MemoryOpDescriptor,
    PhaseContext,
    compile_layer,
    decode_positions,
    lower_model,
    _flatten_ops,
    _is_moe_op,
)
from .metrics import (
    CATEGORY_COMM,
    CATEGORY_COMPUTE,
    CATEGORY_EXPOSED,
    CATEGORY_MEMORY,
    MemoryModel,
    PhaseReport,
    ReportRow,
    build_memory_model,
    check_memory,
)
from .moe import (
    DEFAULT_TILE,
    RoutingStats,
    RoutingTrace,
    fold_imbalance,
    stats_from_trace,
    uniform_routing,
)
from .overlap import plan_overlap
from .spec_lang import DimensionBindings, ModelSpec, validate_bindings

DEFAULT_DECODE_STRIDE = 64

# (label, category, latency, energy, reads_context) of one priced kernel.
Entry = tuple[str, str, float, float, bool]


def _kernel_category(kernel) -> str:
    if isinstance(kernel, GemmDescriptor):
        return CATEGORY_COMPUTE
    if isinstance(kernel, CommDescriptor):
        return CATEGORY_COMM
    return CATEGORY_MEMORY


class _Failure(NamedTuple):
    """A memoized validation failure: the exception type and its message,
    not the exception, whose traceback would keep its frames alive."""

    kind: type
    message: str


class Estimator:
    """Prices a model spec under given bindings, hardware, and backends.

    What depends only on the parallel degrees (and phase) is computed once
    per estimator and reused by every evaluation: the validated degrees,
    the memory model and the compiled :class:`LayerPlan`. Validation
    failures are memoized as messages and raised again on each evaluation.
    """

    def __init__(self, spec: ModelSpec, dims: DimensionBindings,
                 hw: HardwareProfile, compute_backend, comm_backend: CommBackend,
                 *, tile: int = DEFAULT_TILE,
                 decode_stride: int = DEFAULT_DECODE_STRIDE,
                 routing_trace: Optional[RoutingTrace] = None,
                 activation_headroom: float = 0.0):
        self.spec = spec
        self.dims = dims
        self.hw = hw
        self.compute_backend = compute_backend
        self.comm_backend = comm_backend
        self.tile = tile
        self.decode_stride = decode_stride
        self.routing_trace = routing_trace
        self.activation_headroom = activation_headroom
        self.has_moe = any(_is_moe_op(op) for op in _flatten_ops(spec))
        # Entries are published whole, so threads sharing the estimator see
        # a finished value or none (and then build it themselves).
        self._memo: dict = {}

    def _memoized(self, key, build):
        entry = self._memo.get(key)
        if entry is None:
            try:
                entry = build()
            except (SpecError, ValidationError) as exc:
                entry = _Failure(type(exc), str(exc))
            self._memo[key] = entry
        if isinstance(entry, _Failure):
            raise entry.kind(entry.message)
        return entry

    # -- helpers -----------------------------------------------------------

    def layers(self) -> int:
        return self.dims.layers if self.dims.layers is not None else self.spec.layers

    def gpu_count(self, degrees: dict[str, int]) -> int:
        return max(degrees.get("tp", 1), degrees.get("ep", 1)) * degrees.get("cp", 1)

    def _validated(self, degrees: dict[str, int]) -> dict[str, int]:
        """``degrees`` checked against the spec and dims, every kind filled in."""
        return self._memoized(
            ("degrees", tuple(degrees.items())),
            lambda: validate_bindings(self.spec, self.dims, degrees).degrees)

    def memory_model(self, degrees: dict[str, int]) -> MemoryModel:
        return self._memoized(
            ("memory", tuple(degrees.items())),
            lambda: build_memory_model(self.spec, self.dims, degrees,
                                       self.layers(), self.activation_headroom))

    def _layer_plan(self, degrees: dict[str, int], phase: str) -> LayerPlan:
        return self._memoized(
            ("plan", tuple(degrees.items()), phase),
            lambda: compile_layer(self.spec, self.dims, degrees, phase))

    def routing_stats(self, ctx: PhaseContext,
                      degrees: dict[str, int]) -> Optional[RoutingStats]:
        if not self.has_moe:
            return None
        e_total = self.dims.size("E")
        ep = degrees.get("ep", 1)
        if self.routing_trace is not None:
            return stats_from_trace(self.routing_trace, e_total, ep, self.tile)
        top_k = self.dims.size("A")
        return uniform_routing(ctx.batch, ctx.s, top_k, e_total, ep, self.tile)

    def _price(self, kernel) -> CostEstimate:
        if isinstance(kernel, GemmDescriptor):
            return self.compute_backend.estimate_gemm(kernel)
        if isinstance(kernel, CommDescriptor):
            return self.comm_backend.estimate(kernel)
        return self.compute_backend.estimate_memory_op(kernel)

    # -- per-layer costing -------------------------------------------------

    def _layer_entries(self, plan: LayerPlan, ctx: PhaseContext,
                       degrees: dict[str, int], stats: Optional[RoutingStats],
                       context_only: bool = False) -> list[Entry]:
        """(label, category, latency, energy, reads_context) per kernel for
        one layer, one GPU; ``context_only`` prices only the kernels that
        change with ``z``.

        MoE kernels are priced under the average and the bottleneck GPU's
        routing statistics and folded by :func:`fold_imbalance`.
        """
        avg_te = stats.avg if stats else None
        lowered = plan.lower(ctx, moe_te=avg_te, context_only=context_only)
        lowered_max = None
        if (stats is not None and not stats.balanced
                and any(op.is_moe for op in lowered)):
            lowered_max = plan.lower(ctx, moe_te=stats.max,
                                     context_only=context_only)

        entries: list[Entry] = []
        for idx, op in enumerate(lowered):
            if op.overlap is not None:
                entries.extend(self._overlap_entries(op, ctx, degrees))
                continue
            for k_idx, kernel in enumerate(op.kernels):
                cost = self._price(kernel)
                if op.is_moe and lowered_max is not None:
                    cost = fold_imbalance(
                        cost, self._price(lowered_max[idx].kernels[k_idx]),
                        self.hw.p_idle)
                entries.append((op.label, _kernel_category(kernel),
                                cost.latency, cost.energy, op.reads_context))
        return entries

    def _overlap_entries(self, op: LoweredOp, ctx: PhaseContext,
                         degrees: dict[str, int]) -> list[Entry]:
        stages, sm_comm, dim = op.overlap
        if op.gemm is None or op.collective is None:
            raise ValidationError(f"op {op.label!r}: overlap needs a GEMM + collective")
        bound = {"b": ctx.batch, "s": ctx.s, "z": ctx.z}
        dim_size = bound.get(dim, self.dims.sizes.get(dim))
        if dim_size is None:
            raise ValidationError(f"op {op.label!r}: overlap dim {dim!r} unbound")
        plan = plan_overlap(op.gemm, op.collective.bytes, op.collective.world,
                            stages, sm_comm, int(dim_size),
                            self.compute_backend, self.comm_backend,
                            self.hw.total_sm, label=op.label)
        out = []
        # Any kernels lowered ahead of the GEMM (cp transitions) keep their
        # normal pricing.
        for kernel in op.kernels:
            if kernel is op.gemm:
                continue
            cost = self._price(kernel)
            out.append((op.label, _kernel_category(kernel), cost.latency,
                        cost.energy, op.reads_context))
        out.append((op.label, CATEGORY_COMPUTE, plan.compute_latency,
                    plan.compute_energy, op.reads_context))
        out.append((op.label, CATEGORY_EXPOSED, plan.t_exposed, plan.exposed_energy,
                    op.reads_context))
        return out

    # -- phase estimation ----------------------------------------------------

    def estimate(self, ctx: PhaseContext, degrees: dict[str, int]) -> PhaseReport:
        degrees = self._validated(degrees)
        layers = self.layers()
        gpus = self.gpu_count(degrees)
        report = PhaseReport(phase=ctx.phase, batch=ctx.batch, isl=ctx.isl,
                             osl=ctx.osl, gpu_count=gpus)
        report.meta = {
            "layers": layers,
            "degrees": dict(degrees),
            "tile": self.tile,
            "decode_stride": self.decode_stride,
            "hardware": self.hw.name,
            "routing": ("trace" if self.routing_trace is not None else
                        ("uniform" if self.has_moe else "dense")),
        }

        verdict = check_memory(self.memory_model(degrees), ctx, self.hw)
        report.meta["max_seq_at_batch"] = verdict.max_seq_at_batch
        if not verdict.feasible:
            report.feasible = False
            report.infeasible_reason = verdict.reason
            return report

        rows: dict[tuple[str, str], ReportRow] = {}

        def accumulate(entries: list[Entry], weight: float,
                       invariant_weight: Optional[float] = None) -> None:
            for label, category, latency, energy, varying in entries:
                w = weight if varying or invariant_weight is None else invariant_weight
                scale = 1.0 if category == CATEGORY_COMM else float(gpus)
                row = rows.setdefault((label, category), ReportRow(label, category))
                row.add(latency * w, energy * scale * w)

        plan = self._layer_plan(degrees, ctx.phase)
        if ctx.phase == PREFILL:
            stats = self.routing_stats(ctx, degrees)
            accumulate(self._layer_entries(plan, ctx, degrees, stats), float(layers))
        else:
            # Only the kernels that read z change across decode positions;
            # the rest, and the routing statistics (s = 1 throughout), are
            # priced once and weighted by the whole phase.
            positions = decode_positions(ctx.osl, self.decode_stride)
            first_ctx = ctx.at_position(positions[0][0])
            stats = self.routing_stats(first_ctx, degrees)
            steps = sum(width for _, width in positions)
            accumulate(self._layer_entries(plan, first_ctx, degrees, stats),
                       float(layers) * positions[0][1], float(layers) * steps)
            for position, width in positions[1:]:
                accumulate(self._layer_entries(plan, ctx.at_position(position),
                                               degrees, stats, context_only=True),
                           float(layers) * width)

        report.rows = list(rows.values())
        return report


def apply_overlap_setting(spec: ModelSpec, stages: int, sm_comm: int,
                          overlap_dim: str = "s") -> ModelSpec:
    """Annotate every eligible op (sharded contraction containing the overlap
    dim) with the given overlap setting; others are left untouched."""
    new_ops = []
    for op in spec.ops:
        eligible = (not op.is_attention
                    and op.parallel is not None
                    and op.parallel in op.equation.summation_symbols
                    and overlap_dim in op.equation.all_symbols())
        if eligible and stages >= 1:
            op = dataclasses.replace(op, overlap_stage=stages,
                                     overlap_sm=sm_comm, overlap_dim=overlap_dim)
        new_ops.append(op)
    return ModelSpec(tuple(new_ops), spec.layers)
