"""Lower einsum ops into kernel descriptors (GEMMs, collectives, memory ops).

Each op becomes, in order: an optional transpose+all2all+transpose group
(context-parallel layout change), the compute kernel (grouped GEMM or
memory op), and an optional AllReduce (sharded contraction dimension).
The ``attention`` opcode expands to its sub-equations plus a memory op for
the score tensor.

Lowering runs in two steps: :func:`compile_layer` fixes everything that
depends only on the spec, dims, parallel degrees and phase, and
:meth:`LayerPlan.lower` binds the runtime symbols of one evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Union

from .errors import SpecError, ValidationError
from .spec_lang import (
    RUNTIME_SYMBOLS,
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


def _shard(symbol: str, size, deg: int):
    """``size`` over ``deg`` GPUs; integer sizes must divide evenly."""
    if deg == 1:
        return size
    if isinstance(size, int) and size % deg:
        raise ValidationError(
            f"symbol {symbol!r} size {size} not divisible by degree {deg}")
    return size / deg


def local_size(symbol: str, dims: DimensionBindings,
               shards: dict[str, int]) -> float:
    """Per-GPU size of ``symbol``: its bound size over its ``{symbol: degree}``
    shard. Integer sizes must divide evenly."""
    return _shard(symbol, dims.size(symbol), shards.get(symbol, 1))


# The compiled plan's records are NamedTuples rather than dataclasses:
# creating the classes costs about a seventh as much, and every CLI call
# pays it at import.
class _Product(NamedTuple):
    """A product of per-GPU symbol sizes, taken from 1.0 in symbol order.

    The leading sizes known when it is built are multiplied into
    ``prefix``. Each later factor stays a number, or a ``(symbol, degree)``
    pair read when the product is evaluated: a runtime symbol, or a bound
    symbol whose shard fails, so that its error is raised where the full
    product would raise it. Evaluation therefore multiplies the same
    factors in the same order as a product built from scratch.
    """

    prefix: float
    tail: tuple

    @classmethod
    def of(cls, symbols, dims: DimensionBindings, shards: dict[str, int],
           runtime: frozenset = frozenset()) -> "_Product":
        prefix, tail = 1.0, []
        for sym in symbols:
            deg = shards.get(sym, 1)
            factor = (sym, deg)
            if sym not in runtime:
                try:
                    factor = _shard(sym, dims.size(sym), deg)
                except ValidationError:
                    pass  # raised again, in order, by value()
            if tail or type(factor) is tuple:
                tail.append(factor)
            else:
                prefix *= factor
        return cls(prefix, tuple(tail))

    def value(self, env: dict, dims: DimensionBindings) -> float:
        """The product with runtime symbols read from ``env``."""
        prod = self.prefix
        for factor in self.tail:
            if type(factor) is tuple:
                sym, deg = factor
                size = env.get(sym)
                prod *= _shard(sym, dims.size(sym) if size is None else size, deg)
            else:
                prod *= factor
        return prod


def operand_bytes(operand: str, dims: DimensionBindings,
                  shards: dict[str, int]) -> float:
    """Per-GPU bytes of one tensor operand, multiplied in operand order."""
    return _Product.of(operand, dims, shards).value({}, dims) * dims.dtype_bytes


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


def _gemm_axes(eq: EinsumEquation) -> tuple:
    """The (group, M, contraction, N) symbols of a two-operand contraction."""
    if len(eq.input_operands) != 2:
        raise SpecError(f"{eq.to_text()!r}: GEMM extraction needs exactly two operands")
    if not eq.summation_symbols:
        raise OuterProduct(eq.to_text())
    a, b = eq.input_operands
    out = set(eq.output_operand)
    groups = eq.group_symbols
    m_syms = [s for s in a if s in out and s not in groups]
    n_syms = [s for s in b if s in out and s not in groups]
    return groups, m_syms, eq.summation_symbols, n_syms


def extract_gemm(eq: EinsumEquation, dims: DimensionBindings,
                 shards: Optional[dict[str, int]] = None,
                 label: str = "") -> GemmDescriptor:
    """Map a two-operand contraction onto grouped-GEMM dimensions.

    Group symbols (in both inputs and the output) become the group count;
    output symbols exclusive to the first/second operand form M/N; the
    summation symbols form the contraction. ``{symbol: degree}`` shards
    divide those symbols' sizes before products are taken.
    """
    shards = shards or {}
    return GemmDescriptor(
        *(_Product.of(axis, dims, shards).value({}, dims) for axis in _gemm_axes(eq)),
        dtype_bytes=dims.dtype_bytes, label=label)


def _allreduce_size(op: OpSpec, dims: DimensionBindings, world: int,
                    runtime: frozenset = frozenset()) -> Optional[_Product]:
    """The AllReduce's message size, the full output tensor, when the op's
    sharded dimension is summed over ``world`` > 1 GPUs; else None."""
    if op.parallel is None or op.is_attention or world < 2:
        return None
    if op.parallel not in op.equation.summation_symbols:
        return None
    return _Product.of(op.equation.output_operand, dims, {}, runtime)


def detect_allreduce(op: OpSpec, dims: DimensionBindings,
                     world: int) -> Optional[CommDescriptor]:
    """AllReduce fires when the sharded dimension is a summation symbol.

    The message size is the full (unsharded) output tensor in bytes.
    """
    size = _allreduce_size(op, dims, world)
    if size is None:
        return None
    return CommDescriptor(ALLREDUCE, size.value({}, dims) * dims.dtype_bytes, world,
                          label=f"{op.label} AllReduce")


def _transition_size(op: OpSpec, prev: Optional[OpSpec], dims: DimensionBindings,
                     cp_degree: int,
                     runtime: frozenset = frozenset()) -> Optional[_Product]:
    """The previous op's full output tensor when ``op`` changes the cp
    layout; else None. The first op of the stream never does."""
    if prev is None or op.cp_dim == prev.cp_dim:
        return None
    if cp_degree < 2:
        raise ValidationError("cp_dim transition requires cp degree >= 2")
    if prev.is_attention:
        return None
    return _Product.of(prev.equation.output_operand, dims, {}, runtime)


def _all2all_kernels(label: str, size: float,
                     cp_degree: int) -> list[KernelDescriptor]:
    return [
        MemoryOpDescriptor(size, label=f"{label} transpose (pre)"),
        CommDescriptor(ALLTOALL, size, cp_degree, label=f"{label} All2All"),
        MemoryOpDescriptor(size, label=f"{label} transpose (post)"),
    ]


def detect_all2all(op: OpSpec, prev: Optional[OpSpec], dims: DimensionBindings,
                   cp_degree: int) -> list[KernelDescriptor]:
    """On a context-parallel layout change, emit transpose + all2all + transpose.

    The message size is the previous op's per-rank output tensor. The first
    op of the stream (no predecessor) never triggers a transition.
    """
    size = _transition_size(op, prev, dims, cp_degree)
    if size is None:
        return []
    return _all2all_kernels(f"{prev.label}->{op.label}",
                            size.value({}, dims) * dims.dtype_bytes / cp_degree,
                            cp_degree)


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


# Effective MoE binding: ops referencing the per-expert token symbol get
# T and E replaced by routing statistics (already per-GPU quantities).
MOE_TOKEN_SYMBOL = "T"
_MOE_RUNTIME = RUNTIME_SYMBOLS | {"E"}


def _is_moe_op(op: OpSpec) -> bool:
    return (not op.is_attention
            and MOE_TOKEN_SYMBOL in op.equation.all_symbols())


class _Compute(NamedTuple):
    """One op's compute kernel with its sizes compiled: a grouped GEMM
    (``gemm`` = group, M, contraction, N), or a memory op sized by the
    output alone (single input) or by all operands (outer product, with
    ``flops``, or a GEMM with N = 1)."""

    output: _Product
    inputs: tuple = ()
    gemm: Optional[tuple] = None
    flops: Optional[_Product] = None
    error: Optional[str] = None  # no GEMM form; raised when lowered

    def lower(self, env: dict, dims: DimensionBindings,
              label: str) -> KernelDescriptor:
        if self.error is not None:
            raise SpecError(self.error)
        dtype = dims.dtype_bytes
        if not self.inputs:
            # Broadcast/scatter: pure data movement sized by the output tensor.
            return MemoryOpDescriptor(self.output.value(env, dims) * dtype,
                                      label=label)
        if self.gemm is not None:
            g = GemmDescriptor(*(axis.value(env, dims) for axis in self.gemm),
                               dtype_bytes=dtype, label=label)
            if g.n != 1:
                return g
            # Weighted-sum / elementwise-dominated ops (e.g. the MoE
            # reduction): no fresh output columns, so treat as memory bound.
            flops = g.flops
        in_b = sum(p.value(env, dims) * dtype for p in self.inputs)
        out_b = self.output.value(env, dims) * dtype
        if self.gemm is None:
            flops = self.flops.value(env, dims)
        return MemoryOpDescriptor(in_b + out_b, flops=flops, label=label)


def _compile_compute(op: OpSpec, dims: DimensionBindings,
                     shards: dict[str, int], runtime: frozenset) -> _Compute:
    eq = op.equation
    output = _Product.of(eq.output_operand, dims, shards, runtime)
    if eq.is_single_input:
        return _Compute(output)
    inputs = tuple(_Product.of(o, dims, shards, runtime) for o in eq.input_operands)
    try:
        axes = _gemm_axes(eq)
    except OuterProduct:
        return _Compute(output, inputs,
                        flops=_Product.of(eq.all_symbols(), dims, shards, runtime))
    except SpecError as exc:
        return _Compute(output, error=str(exc))
    return _Compute(output, inputs,
                    gemm=tuple(_Product.of(a, dims, shards, runtime) for a in axes))


class _OpStep(NamedTuple):
    """One op of a LayerPlan: its kernels' sizes compiled, every condition
    that depends only on the spec, dims, degrees and phase decided."""

    label: str  # of the lowered op; attention sub-ops carry their parent's
    op: OpSpec
    is_moe: bool
    reads_context: bool
    transition: Optional[tuple]  # (previous output, label, cp degree)
    compute: _Compute
    allreduce: Optional[tuple]  # (output, world)

    def lower(self, env: dict, moe_env: Optional[dict],
              dims: DimensionBindings) -> LoweredOp:
        op = self.op
        if self.is_moe:
            if moe_env is None:
                raise ValidationError(
                    f"op {op.label!r} uses the MoE token symbol but no routing "
                    "statistics were supplied")
            for sym in ("E", MOE_TOKEN_SYMBOL):
                if moe_env[sym] <= 0:
                    raise ValidationError(
                        f"symbol {sym!r} has non-positive size {moe_env[sym]}")
            env = moe_env
        kernels: list[KernelDescriptor] = []
        if self.transition is not None:
            size, label, cp_degree = self.transition
            kernels.extend(_all2all_kernels(
                label, size.value(env, dims) * dims.dtype_bytes / cp_degree,
                cp_degree))
        compute = self.compute.lower(env, dims, op.label)
        kernels.append(compute)

        collective = None
        if self.allreduce is not None:
            size, world = self.allreduce
            collective = CommDescriptor(
                ALLREDUCE, size.value(env, dims) * dims.dtype_bytes, world,
                label=f"{op.label} AllReduce")
        overlap = None
        if op.overlap_stage is not None:
            if collective is None:
                raise ValidationError(
                    f"op {op.label!r}: overlap annotated but no collective detected")
            overlap = (op.overlap_stage, op.overlap_sm, op.overlap_dim)
        elif collective is not None:
            kernels.append(collective)

        return LoweredOp(
            label=self.label,
            kernels=tuple(kernels),
            is_moe=self.is_moe,
            reads_context=self.reads_context,
            overlap=overlap,
            gemm=compute if isinstance(compute, GemmDescriptor) else None,
            collective=collective,
        )


class _ScoreStep(NamedTuple):
    """Score tensor read/write around softmax; the framework does not price
    softmax FLOPs beyond this traffic."""

    label: str
    size: _Product
    reads_context: bool

    def lower(self, env: dict, moe_env: Optional[dict],
              dims: DimensionBindings) -> LoweredOp:
        score_bytes = self.size.value(env, dims) * dims.dtype_bytes
        return LoweredOp(
            label=f"{self.label}: score",
            kernels=(MemoryOpDescriptor(2 * score_bytes, label=f"{self.label} score"),),
            reads_context=self.reads_context,
        )


class LayerPlan(NamedTuple):
    """One layer compiled for (spec, dims, degrees, phase); :meth:`lower`
    binds the runtime symbols of one evaluation."""

    phase: str
    dims: DimensionBindings
    steps: tuple = ()
    error: Optional[str] = None  # the layer cannot be lowered in this phase

    def lower(self, ctx: PhaseContext,
              moe_te: Optional[tuple[float, float]] = None,
              context_only: bool = False) -> list[LoweredOp]:
        """Lower the layer at ``ctx``: kernel descriptor groups in stream
        order, with ``moe_te`` bound as MoE ops' (T, E) and, under
        ``context_only``, only the ops tagged ``reads_context``."""
        if ctx.phase != self.phase:
            raise ValidationError(
                f"layer compiled for {self.phase} cannot lower a {ctx.phase} context")
        if self.error is not None:
            raise ValidationError(self.error)
        env = {"b": ctx.batch, "s": ctx.s, "z": ctx.z}
        moe_env = None
        if moe_te is not None:
            moe_env = dict(env, **{MOE_TOKEN_SYMBOL: moe_te[0], "E": moe_te[1]})
        return [step.lower(env, moe_env, self.dims) for step in self.steps
                if step.reads_context or not context_only]


def compile_layer(spec: ModelSpec, dims: DimensionBindings,
                  degrees: dict[str, int], phase: str) -> LayerPlan:
    """Compile one layer's lowering for fixed spec, dims, degrees and phase.

    Everything but the runtime symbols b, s and z (and, for MoE ops, the
    routing statistics T and E) is fixed here: the op stream and each op's
    predecessor, shards, GEMM symbol partition, local sizes of the bound
    symbols, collectives, cp transitions, overlap annotations and the
    ``reads_context`` tags. Errors that lowering would raise are kept and
    raised by :meth:`LayerPlan.lower`, in the order lowering meets them.

    In decode, each op is tagged ``reads_context`` when its kernels change
    with ``z`` from one position to the next: the op reads the context, or
    it follows one that does and may carry a cp transition sized by that
    op's output.
    """
    if phase == DECODE and any(op.overlap_stage for op in spec.ops):
        return LayerPlan(phase, dims, error=(
            "compute-communication overlap is a prefill technique; "
            "not valid under a decode context"))
    cp_degree = degrees.get("cp", 1)

    def varies(op: OpSpec, prev: Optional[OpSpec]) -> bool:
        if phase != DECODE:
            return False  # z = isl throughout prefill
        return reads_context(op) or (
            cp_degree > 1 and prev is not None and reads_context(prev))

    def compile_op(op: OpSpec, prev: Optional[OpSpec], label: str) -> _OpStep:
        is_moe = _is_moe_op(op)
        runtime = _MOE_RUNTIME if is_moe else RUNTIME_SYMBOLS
        transition = None
        if cp_degree > 1:
            size = _transition_size(op, prev, dims, cp_degree, runtime)
            if size is not None:
                transition = (size, f"{prev.label}->{op.label}", cp_degree)
        # MoE ops: statistics are per-GPU, so no further expert shard.
        shards = op_shards(op, dict(degrees, ep=1) if is_moe else degrees)
        world = degrees[degree_kind(op.parallel)] if op.parallel else 1
        size = _allreduce_size(op, dims, world, runtime)
        return _OpStep(
            label=label, op=op, is_moe=is_moe, reads_context=varies(op, prev),
            transition=transition,
            compute=_compile_compute(op, dims, shards, runtime),
            allreduce=None if size is None else (size, world))

    steps: list = []
    prev = None
    for op in spec.ops:
        if not op.is_attention:
            steps.append(compile_op(op, prev, op.label))
            prev = op
            continue
        for j, sub in enumerate(op.attn_eqs):
            steps.append(compile_op(sub, prev, f"{op.label}: {sub.label}"))
            if j == 0 and not sub.is_attention:
                steps.append(_ScoreStep(
                    op.label,
                    _Product.of(sub.equation.output_operand, dims,
                                op_shards(sub, degrees), RUNTIME_SYMBOLS),
                    varies(sub, prev)))
            prev = sub
    return LayerPlan(phase, dims, tuple(steps))


def lower_model(spec: ModelSpec, dims: DimensionBindings, ctx: PhaseContext,
                degrees: dict[str, int],
                moe_te: Optional[tuple[float, float]] = None,
                context_only: bool = False) -> list[LoweredOp]:
    """Lower one layer's ops into kernel descriptor groups.

    ``moe_te`` binds the effective (tokens-per-expert, experts-per-GPU)
    pair for MoE ops; those ops skip the expert-parallel shard because the
    statistics are already per-GPU. ``context_only`` lowers just the ops
    tagged ``reads_context`` (see :func:`compile_layer`); predecessors
    still come from the full stream.
    """
    return compile_layer(spec, dims, degrees, ctx.phase).lower(
        ctx, moe_te=moe_te, context_only=context_only)


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
