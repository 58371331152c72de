"""Lower einsum ops into kernel descriptors (GEMMs, collectives, memory ops).

Each op becomes, in order: an optional transpose+all2all+transpose group
(context-parallel layout change), the compute kernel (grouped GEMM or
memory op), and an optional AllReduce (sharded contraction dimension).
The ``attention`` opcode expands to its sub-equations plus a memory op for
the score tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .errors import SpecError, ValidationError
from .spec_lang import (
    DimensionBindings,
    EinsumEquation,
    ModelSpec,
    OpSpec,
    degree_kind,
)

PREFILL = "prefill"
DECODE = "decode"

ALLREDUCE = "AllReduce"
REDUCESCATTER = "ReduceScatter"
ALLGATHER = "AllGather"
ALLTOALL = "AllToAll"


@dataclass(frozen=True)
class GemmDescriptor:
    """A (grouped) GEMM in standard form A[M,K] x B[K,N] = C[M,N], G groups."""

    group_count: float
    m: float
    contraction: float
    n: float
    dtype_bytes: int
    label: str = ""
    sm_available: Optional[int] = None  # None = all SMs

    @property
    def flops(self) -> float:
        return 2.0 * self.group_count * self.m * self.contraction * self.n

    @property
    def bytes_moved(self) -> float:
        per_group = (self.m * self.contraction
                     + self.contraction * self.n
                     + self.m * self.n)
        return self.group_count * per_group * self.dtype_bytes

    @property
    def arithmetic_intensity(self) -> float:
        return self.flops / self.bytes_moved

    def partitioned(self, fraction: float) -> "GemmDescriptor":
        """Scale M by ``fraction`` (overlap partitions the output rows)."""
        return replace(self, m=self.m * fraction)


@dataclass(frozen=True)
class CommDescriptor:
    """A collective communication kernel."""

    kind: str
    bytes: float
    world: int
    sm_count: Optional[int] = None  # None = backend default (unrestricted)
    label: str = ""

    def __post_init__(self):
        if self.bytes <= 0:
            raise ValidationError(f"collective {self.label!r}: bytes must be positive")
        if self.world < 2:
            raise ValidationError(f"collective {self.label!r}: world must be >= 2")


@dataclass(frozen=True)
class MemoryOpDescriptor:
    """A bandwidth-bound kernel (transpose, scatter, elementwise reduction)."""

    bytes: float
    flops: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.bytes < 0:
            raise ValidationError(f"memory op {self.label!r}: negative bytes")


KernelDescriptor = Union[GemmDescriptor, CommDescriptor, MemoryOpDescriptor]


@dataclass(frozen=True)
class PhaseContext:
    """Workload phase binding the runtime symbols b, s, z."""

    phase: str
    batch: int
    isl: int
    osl: int = 1
    decode_position: int = 1

    def __post_init__(self):
        if self.phase not in (PREFILL, DECODE):
            raise ValidationError(f"unknown phase {self.phase!r}")
        if min(self.batch, self.isl, self.osl) < 1:
            raise ValidationError("batch/isl/osl must be positive")
        if self.phase == DECODE and not 1 <= self.decode_position <= self.osl:
            raise ValidationError("decode_position must be in [1, osl]")

    @property
    def s(self) -> int:
        return self.isl if self.phase == PREFILL else 1

    @property
    def z(self) -> int:
        return self.isl if self.phase == PREFILL else self.isl + self.decode_position

    def at_position(self, position: int) -> "PhaseContext":
        return replace(self, decode_position=position)


def local_size(symbol: str, dims: DimensionBindings,
               shards: dict[str, int]) -> float:
    """Per-GPU size of ``symbol``: its bound size over its ``{symbol: degree}``
    shard. Integer sizes must divide evenly."""
    size = dims.size(symbol)
    deg = shards.get(symbol, 1)
    if deg == 1:
        return size
    if isinstance(size, int) and size % deg:
        raise ValidationError(
            f"symbol {symbol!r} size {size} not divisible by degree {deg}")
    return size / deg


def operand_bytes(operand: str, dims: DimensionBindings,
                  shards: dict[str, int]) -> float:
    """Per-GPU bytes of one tensor operand, multiplied in operand order."""
    prod = 1.0
    for sym in operand:
        prod *= local_size(sym, dims, shards)
    return prod * dims.dtype_bytes


def op_shards(op: OpSpec, degrees: dict[str, int]) -> dict[str, int]:
    """The op's ``{symbol: degree}`` shards: its ``parallel`` symbol over the
    tp or ep group, times its ``cp_dim`` over the cp group."""
    shards: dict[str, int] = {}
    if op.parallel is not None:
        shards[op.parallel] = degrees.get(degree_kind(op.parallel), 1)
    if op.cp_dim is not None:
        shards[op.cp_dim] = shards.get(op.cp_dim, 1) * degrees.get("cp", 1)
    return shards


class OuterProduct(Exception):
    """Raised by extract_gemm when the equation has no contraction."""


def extract_gemm(eq: EinsumEquation, dims: DimensionBindings,
                 shards: Optional[dict[str, int]] = None,
                 label: str = "") -> GemmDescriptor:
    """Map a two-operand contraction onto grouped-GEMM dimensions.

    Group symbols (in both inputs and the output) become the group count;
    output symbols exclusive to the first/second operand form M/N; the
    summation symbols form the contraction. ``{symbol: degree}`` shards
    divide those symbols' sizes before products are taken.
    """
    if len(eq.input_operands) != 2:
        raise SpecError(f"{eq.to_text()!r}: GEMM extraction needs exactly two operands")
    if not eq.summation_symbols:
        raise OuterProduct(eq.to_text())
    shards = shards or {}

    def prod(symbols) -> float:
        out = 1.0
        for sym in symbols:
            out *= local_size(sym, dims, shards)
        return out

    a, b = eq.input_operands
    out = set(eq.output_operand)
    groups = eq.group_symbols
    m_syms = [s for s in a if s in out and s not in groups]
    n_syms = [s for s in b if s in out and s not in groups]
    return GemmDescriptor(
        group_count=prod(groups),
        m=prod(m_syms),
        contraction=prod(eq.summation_symbols),
        n=prod(n_syms),
        dtype_bytes=dims.dtype_bytes,
        label=label,
    )


def detect_allreduce(op: OpSpec, dims: DimensionBindings,
                     world: int) -> Optional[CommDescriptor]:
    """AllReduce fires when the sharded dimension is a summation symbol.

    The message size is the full (unsharded) output tensor in bytes.
    """
    if op.parallel is None or op.is_attention or world < 2:
        return None
    if op.parallel not in op.equation.summation_symbols:
        return None
    size = operand_bytes(op.equation.output_operand, dims, {})
    return CommDescriptor(ALLREDUCE, size, world, label=f"{op.label} AllReduce")


def detect_all2all(op: OpSpec, prev: Optional[OpSpec], dims: DimensionBindings,
                   cp_degree: int) -> list[KernelDescriptor]:
    """On a context-parallel layout change, emit transpose + all2all + transpose.

    The message size is the previous op's per-rank output tensor. The first
    op of the stream (no predecessor) never triggers a transition.
    """
    if prev is None or op.cp_dim == getattr(prev, "cp_dim", None):
        return []
    if cp_degree < 2:
        raise ValidationError("cp_dim transition requires cp degree >= 2")
    if prev.is_attention or prev.equation is None:
        return []
    size = operand_bytes(prev.equation.output_operand, dims, {}) / cp_degree
    label = f"{prev.label}->{op.label}"
    return [
        MemoryOpDescriptor(size, label=f"{label} transpose (pre)"),
        CommDescriptor(ALLTOALL, size, cp_degree, label=f"{label} All2All"),
        MemoryOpDescriptor(size, label=f"{label} transpose (post)"),
    ]


@dataclass(frozen=True)
class LoweredOp:
    """Kernels for one op, in execution order, tagged by the op's label."""

    label: str
    kernels: tuple[KernelDescriptor, ...]
    is_moe: bool = False  # priced twice (avg/max routing) and imbalance-folded
    reads_context: bool = False  # kernels change with the context length z
    overlap: Optional[tuple[int, int, str]] = None  # (stages, sm_comm, dim)
    gemm: Optional[GemmDescriptor] = None
    collective: Optional[CommDescriptor] = None


def _flatten_ops(spec: ModelSpec) -> list[OpSpec]:
    """Expand attention opcodes into their sub-equations for stream analysis."""
    flat: list[OpSpec] = []
    for op in spec.ops:
        if op.is_attention:
            flat.extend(op.attn_eqs)
        else:
            flat.append(op)
    return flat


def reads_context(op: OpSpec) -> bool:
    """Whether the op's cost reads the context length ``z``: ``z`` is in its
    equation, or, for attention, in any of its sub-equations."""
    if op.is_attention:
        return any(reads_context(sub) for sub in op.attn_eqs)
    eq = op.equation
    return "z" in eq.output_operand or any("z" in o for o in eq.input_operands)


def _lower_compute(op: OpSpec, dims: DimensionBindings,
                   shards: dict[str, int]) -> KernelDescriptor:
    """Lower one op's compute kernel: grouped GEMM or memory op."""
    eq = op.equation
    if eq.is_single_input:
        # Broadcast/scatter: pure data movement sized by the output tensor.
        return MemoryOpDescriptor(
            operand_bytes(eq.output_operand, dims, shards), label=op.label)

    try:
        g = extract_gemm(eq, dims, shards, label=op.label)
    except OuterProduct:
        in_b = sum(operand_bytes(o, dims, shards) for o in eq.input_operands)
        out_b = operand_bytes(eq.output_operand, dims, shards)
        flops = 1.0
        for sym in eq.all_symbols():
            flops *= local_size(sym, dims, shards)
        return MemoryOpDescriptor(in_b + out_b, flops=flops, label=op.label)

    if g.n == 1:
        # Weighted-sum / elementwise-dominated ops (e.g. the MoE reduction):
        # no fresh output columns, so treat as memory bound.
        in_b = sum(operand_bytes(o, dims, shards) for o in eq.input_operands)
        out_b = operand_bytes(eq.output_operand, dims, shards)
        return MemoryOpDescriptor(in_b + out_b, flops=g.flops, label=op.label)
    return g


# Effective MoE binding: ops referencing the per-expert token symbol get
# T and E replaced by routing statistics (already per-GPU quantities).
MOE_TOKEN_SYMBOL = "T"


def _is_moe_op(op: OpSpec) -> bool:
    return (not op.is_attention
            and MOE_TOKEN_SYMBOL in op.equation.all_symbols())


def lower_model(spec: ModelSpec, dims: DimensionBindings, ctx: PhaseContext,
                degrees: dict[str, int],
                moe_te: Optional[tuple[float, float]] = None,
                context_only: bool = False) -> list[LoweredOp]:
    """Lower one layer's ops into kernel descriptor groups.

    ``moe_te`` binds the effective (tokens-per-expert, experts-per-GPU)
    pair for MoE ops; those ops skip the expert-parallel shard because the
    statistics are already per-GPU.

    In decode, each lowered op is tagged ``reads_context`` when its
    kernels change with ``z`` from one position to the next: the op reads
    the context, or it follows one that does and may carry a cp transition
    sized by that op's output. ``context_only`` lowers just those ops;
    predecessors still come from the full stream.
    """
    if ctx.phase == DECODE and any(op.overlap_stage for op in spec.ops):
        raise ValidationError("compute-communication overlap is a prefill technique; "
                              "not valid under a decode context")
    bound = dims.with_sizes(b=ctx.batch, s=ctx.s, z=ctx.z)
    stream = _flatten_ops(spec)
    stream_index = {id(op): i for i, op in enumerate(stream)}
    cp_degree = degrees.get("cp", 1)

    def preceding(op: OpSpec) -> Optional[OpSpec]:
        i = stream_index[id(op)]
        return stream[i - 1] if i > 0 else None

    def varies(op: OpSpec) -> bool:
        if ctx.phase != DECODE:
            return False  # z = isl throughout prefill
        prev = preceding(op)
        return reads_context(op) or (
            cp_degree > 1 and prev is not None and reads_context(prev))

    lowered: list[LoweredOp] = []

    def lower_one(op: OpSpec, parent_label: Optional[str] = None) -> None:
        varying = varies(op)
        if context_only and not varying:
            return
        label = parent_label or op.label
        kernels: list[KernelDescriptor] = []
        local = bound
        is_moe = _is_moe_op(op)
        if is_moe and moe_te is not None:
            t_eff, e_eff = moe_te
            local = local.with_sizes(**{MOE_TOKEN_SYMBOL: t_eff, "E": e_eff})
        elif is_moe and moe_te is None:
            raise ValidationError(
                f"op {op.label!r} uses the MoE token symbol but no routing "
                "statistics were supplied")

        if cp_degree > 1:
            kernels.extend(detect_all2all(op, preceding(op), local, cp_degree))

        # MoE ops: statistics are per-GPU, so no further expert shard.
        shards = op_shards(op, dict(degrees, ep=1) if is_moe else degrees)
        compute = _lower_compute(op, local, shards)
        kernels.append(compute)

        world = degrees[degree_kind(op.parallel)] if op.parallel else 1
        collective = detect_allreduce(op, local, world)
        overlap = None
        if op.overlap_stage is not None:
            if collective is None:
                raise ValidationError(
                    f"op {op.label!r}: overlap annotated but no collective detected")
            overlap = (op.overlap_stage, op.overlap_sm, op.overlap_dim)
        elif collective is not None:
            kernels.append(collective)

        lowered.append(LoweredOp(
            label=label,
            kernels=tuple(kernels),
            is_moe=is_moe,
            reads_context=varying,
            overlap=overlap,
            gemm=compute if isinstance(compute, GemmDescriptor) else None,
            collective=collective,
        ))

    for op in spec.ops:
        if op.is_attention:
            for j, sub in enumerate(op.attn_eqs):
                lower_one(sub, parent_label=f"{op.label}: {sub.label}")
                if j == 0 and not sub.is_attention:
                    score_varies = varies(sub)
                    if context_only and not score_varies:
                        continue
                    # Score tensor read/write around softmax; the framework
                    # does not price softmax FLOPs beyond this traffic.
                    score_bytes = operand_bytes(sub.equation.output_operand,
                                                bound, op_shards(sub, degrees))
                    lowered.append(LoweredOp(
                        label=f"{op.label}: score",
                        kernels=(MemoryOpDescriptor(2 * score_bytes,
                                                    label=f"{op.label} score"),),
                        reads_context=score_varies,
                    ))
        else:
            lower_one(op)
    return lowered


def decode_positions(osl: int, stride: int) -> list[tuple[int, int]]:
    """Sampled decode steps as (position, weight) pairs covering [1, osl]."""
    if stride < 1:
        raise ValidationError("decode stride must be >= 1")
    out = []
    p = 1
    while p <= osl:
        out.append((p, min(stride, osl - p + 1)))
        p += stride
    return out
