"""Lower einsum ops into kernels (GEMMs, collectives, memory ops).

Each op becomes, in order: an optional transpose+all2all+transpose group
(context-parallel layout change), the compute kernel (grouped GEMM or
memory op), and an optional AllReduce (sharded contraction dimension).
The ``attention`` opcode expands to its sub-equations plus a memory op for
the score tensor.

Lowering runs in two steps: :func:`compile_layer` fixes everything that
depends only on the spec, dims, parallel degrees and phase, and
:meth:`LayerPlan.lower_columns` binds the runtime symbols of a column of
evaluations, any of b, s, z, T and E one size for all of them or a column
over them (one evaluation, the decode positions of one point, or the
batch sizes and sequence lengths of a sweep group): it sizes each kernel
over every evaluation, as columns, and builds no descriptor per
evaluation. :meth:`LayerPlan.lower` gives one evaluation's kernel
descriptors, read off its one-point columns. :meth:`LayerPlan.lower_decode`
lowers each step of a decode layer once for all its positions, a kernel
affine in the context length z as a line in z, which a backend sums over a
range of positions in closed form.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Optional, Sequence, Union

from .errors import SpecError, ValidationError
from .spec_lang import (
    RUNTIME_SYMBOLS,
    DimensionBindings,
    EinsumEquation,
    ModelSpec,
    OpSpec,
    as_int,
    check_overlap_setting,
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


# Column records: one kernel over a column of evaluations (points), each
# size a sequence with one value per point, equal to the matching
# descriptor field at that point. Columns that vary are arrays of doubles,
# which hold a long decode in a quarter of a list's memory.
class GemmColumns(NamedTuple):
    """:class:`GemmDescriptor` sizes over a column of points."""

    group_count: Sequence[float]
    m: Sequence[float]
    contraction: Sequence[float]
    n: Sequence[float]
    dtype_bytes: int
    label: str = ""
    sm_available: Optional[int] = None

    @property
    def flops(self) -> list:
        """:attr:`GemmDescriptor.flops` at each point."""
        return [2.0 * g * m * k * n for g, m, k, n in
                zip(self.group_count, self.m, self.contraction, self.n)]

    @property
    def bytes_moved(self) -> list:
        """:attr:`GemmDescriptor.bytes_moved` at each point."""
        dtype = self.dtype_bytes
        return [g * (m * k + k * n + m * n) * dtype for g, m, k, n in
                zip(self.group_count, self.m, self.contraction, self.n)]


class CommColumns(NamedTuple):
    """:class:`CommDescriptor` message sizes over a column of points."""

    kind: str
    bytes: Sequence[float]
    world: int
    sm_count: Optional[int] = None
    label: str = ""


class MemoryOpColumns(NamedTuple):
    """:class:`MemoryOpDescriptor` sizes over a column of points."""

    bytes: Sequence[float]
    flops: Sequence[float]
    label: str = ""


KernelColumns = Union[GemmColumns, CommColumns, MemoryOpColumns]


def as_columns(kernel: KernelDescriptor) -> KernelColumns:
    """A kernel descriptor as columns over one point."""
    if isinstance(kernel, GemmDescriptor):
        return GemmColumns((kernel.group_count,), (kernel.m,), (kernel.contraction,),
                           (kernel.n,), kernel.dtype_bytes, kernel.label,
                           kernel.sm_available)
    if isinstance(kernel, CommDescriptor):
        return CommColumns(kernel.kind, (kernel.bytes,), kernel.world,
                           kernel.sm_count, kernel.label)
    return MemoryOpColumns((kernel.bytes,), (kernel.flops,), kernel.label)


def _descriptor(kernel: KernelColumns) -> KernelDescriptor:
    """The kernel descriptor that one-point columns hold."""
    if isinstance(kernel, GemmColumns):
        (g,), (m,), (k,), (n,) = kernel[:4]
        return GemmDescriptor(g, m, k, n, *kernel[4:])
    if isinstance(kernel, CommColumns):
        (size,) = kernel.bytes
        return CommDescriptor(kernel.kind, size, *kernel[2:])
    (size,), (flops,) = kernel.bytes, kernel.flops
    return MemoryOpDescriptor(size, flops, kernel.label)


# Line records: one kernel whose sizes are affine in the context length z,
# so that a backend can sum its cost over an arithmetic progression of z in
# closed form. Each size is a (constant, slope) pair, its value at z being
# constant + slope * z; a size that is a product of symbol sizes has one of
# the two zero.
def _times(x: tuple, y: tuple) -> tuple:
    """The product of two (constant, slope) pairs, at most one of which has
    a slope."""
    return (x[0] * y[0], x[0] * y[1] + x[1] * y[0])


def _plus(x: tuple, y: tuple) -> tuple:
    return (x[0] + y[0], x[1] + y[1])


class GemmLine(NamedTuple):
    """:class:`GemmDescriptor` sizes affine in z: at most one axis has a
    slope, so the FLOPs and the bytes moved are affine in z too. A GEMM
    whose N grows with z is taken to be one at every position: N = 1 there
    would need a size below 1."""

    group_count: tuple
    m: tuple
    contraction: tuple
    n: tuple
    dtype_bytes: int
    label: str = ""
    sm_available: Optional[int] = None

    @property
    def flops(self) -> tuple:
        """:attr:`GemmDescriptor.flops` as a (constant, slope) pair."""
        flops = (2.0, 0.0)
        for axis in (self.group_count, self.m, self.contraction, self.n):
            flops = _times(flops, axis)
        return flops

    @property
    def bytes_moved(self) -> tuple:
        """:attr:`GemmDescriptor.bytes_moved` as a (constant, slope) pair."""
        m, k, n = self.m, self.contraction, self.n
        per_group = _plus(_plus(_times(m, k), _times(k, n)), _times(m, n))
        return _times(_times(self.group_count, per_group),
                      (float(self.dtype_bytes), 0.0))

    def columns(self, zs: range) -> GemmColumns:
        """The sizes at each z of ``zs``."""
        return GemmColumns(*([c + s * z for z in zs] for c, s in
                             (self.group_count, self.m, self.contraction, self.n)),
                           self.dtype_bytes, self.label, self.sm_available)


class MemoryOpLine(NamedTuple):
    """:class:`MemoryOpDescriptor` bytes affine in z, as a (constant,
    slope) pair. Pricing reads no FLOPs of a memory op."""

    bytes: tuple
    label: str = ""


KernelLine = Union[GemmLine, MemoryOpLine]


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
        for name in ("batch", "isl", "osl", "decode_position"):
            as_int(getattr(self, name), name)
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


def _indivisible(symbol: str, size, deg: int) -> ValidationError:
    return ValidationError(
        f"symbol {symbol!r} size {size} not divisible by degree {deg}")


def _shard(symbol: str, size, deg: int):
    """``size`` over ``deg`` GPUs; integer sizes must divide evenly."""
    if deg == 1:
        return size
    if isinstance(size, int) and size % deg:
        raise _indivisible(symbol, size, deg)
    return size / deg


def _shard_column(symbol: str, sizes: Sequence, deg: int, errors: dict) -> Sequence:
    """:func:`_shard` at each of ``sizes``. A point whose integer size does
    not divide keeps the quotient, and its error goes to ``errors`` under
    the point's index unless it already has one."""
    if deg == 1:
        return sizes
    for i, size in enumerate(sizes):
        if isinstance(size, int) and size % deg:
            errors.setdefault(i, _indivisible(symbol, size, deg))
    return [size / deg for size in sizes]


def is_column(value) -> bool:
    """Whether a runtime binding is a column (one size per point) rather
    than one size for every point."""
    return isinstance(value, array)


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
                    pass  # raised again, in order, by column()
            if tail or type(factor) is tuple:
                tail.append(factor)
            else:
                prefix *= factor
        return cls(prefix, tuple(tail))

    def value(self, env: dict, dims: DimensionBindings) -> float:
        """The product with runtime symbols read from ``env``, each one
        size: :meth:`column` at one point."""
        (prod,) = self.column(env, dims, 1, {})
        return prod

    def column(self, env: dict, dims: DimensionBindings, count: int,
               errors: dict) -> Sequence[float]:
        """The product at each of ``count`` points, with each runtime
        symbol read from ``env``, which binds it to one size or to a column
        of sizes (see :func:`is_column`), the factors multiplied in order. A
        point whose shard fails gets its error in ``errors`` (see
        :func:`_shard_column`); a shard that fails for every point raises."""
        prod, col = self.prefix, None
        for factor in self.tail:
            if type(factor) is tuple:
                sym, deg = factor
                size = env.get(sym)
                if size is None:
                    size = dims.size(sym)
                if is_column(size):
                    sizes = _shard_column(sym, size, deg, errors)
                    col = ([prod * v for v in sizes] if col is None
                           else [c * v for c, v in zip(col, sizes)])
                    continue
                factor = _shard(sym, size, deg)
            if col is None:
                prod *= factor
            else:
                col = [c * factor for c in col]
        return [prod] * count if col is None else array("d", col)

    @property
    def has_z(self) -> bool:
        """Whether the context length z is a factor."""
        return any(type(f) is tuple and f[0] == "z" for f in self.tail)

    @property
    def affine(self) -> bool:
        """Whether the product is affine in z: z is a factor at most once,
        and unsharded, so no position fails a shard."""
        factors = [f for f in self.tail if type(f) is tuple and f[0] == "z"]
        return factors in ([], [("z", 1)])

    def line(self, env: dict, dims: DimensionBindings) -> tuple:
        """An :attr:`affine` product as a (constant, slope) pair in z, with
        ``env`` binding z to 1: the value is then the slope when z is a
        factor, and the constant when it is not."""
        value = self.value(env, dims)
        return (0.0, value) if ("z", 1) in self.tail else (value, 0.0)


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


def _all2all_columns(label: str, sizes: Sequence[float],
                     cp_degree: int) -> list[KernelColumns]:
    """The transpose, All2All and transpose of a cp layout change of
    ``sizes`` bytes, over a column of points."""
    no_flops = [0.0] * len(sizes)
    return [
        MemoryOpColumns(sizes, no_flops, label=f"{label} transpose (pre)"),
        CommColumns(ALLTOALL, sizes, cp_degree, label=f"{label} All2All"),
        MemoryOpColumns(sizes, no_flops, label=f"{label} transpose (post)"),
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
    return [_descriptor(k) for k in _all2all_columns(
        f"{prev.label}->{op.label}",
        (size.value({}, dims) * dims.dtype_bytes / cp_degree,), cp_degree)]


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


class LoweredColumns(NamedTuple):
    """One op's kernels over a column of points, in execution order, tagged
    by the op's label: the columns of its :class:`LoweredOp`."""

    label: str
    kernels: tuple
    is_moe: bool = False
    reads_context: bool = False
    overlap: Optional[tuple[int, int, str]] = None
    gemm: Optional[GemmColumns] = None
    collective: Optional[CommColumns] = None

    def one_point(self) -> LoweredOp:
        """The :class:`LoweredOp` of one-point columns."""
        gemm, collective = (None if k is None else _descriptor(k)
                            for k in (self.gemm, self.collective))
        return LoweredOp(self.label, tuple(map(_descriptor, self.kernels)),
                         self.is_moe, self.reads_context, self.overlap, gemm,
                         collective)


class MixedColumns(ValidationError):
    """A GEMM column whose N is 1 at some points only: those points lower
    it as a memory op, so the column holds two kernel kinds. ``ones`` flags
    the points with N = 1."""

    def __init__(self, label: str, ones: list):
        super().__init__(f"op {label!r}: GEMM N is 1 at some points of a "
                         "column only")
        self.ones = ones


def _flatten_ops(spec: ModelSpec) -> list[OpSpec]:
    """Expand attention opcodes into their sub-equations for stream analysis."""
    flat: list[OpSpec] = []
    for op in spec.ops:
        if op.is_attention:
            flat.extend(op.attn_eqs)
        else:
            flat.append(op)
    return flat


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

    def columns(self, env: dict, dims: DimensionBindings, count: int,
                errors: dict, label: str) -> KernelColumns:
        """The kernel's sizes at each of ``count`` points (see
        :meth:`_Product.column`)."""
        if self.error is not None:
            raise SpecError(self.error)
        dtype = dims.dtype_bytes
        if not self.inputs:
            # Broadcast/scatter: pure data movement sized by the output tensor.
            return MemoryOpColumns(
                array("d", [v * dtype for v in
                            self.output.column(env, dims, count, errors)]),
                [0.0] * count, label=label)
        if self.gemm is not None:
            g = GemmColumns(*(axis.column(env, dims, count, errors)
                              for axis in self.gemm),
                            dtype_bytes=dtype, label=label)
            ones = g.n.count(1)
            if not ones:
                return g
            if ones != count:
                raise MixedColumns(label, [n == 1 for n in g.n])
            # Weighted-sum / elementwise-dominated ops (e.g. the MoE
            # reduction): no fresh output columns, so treat as memory bound.
            flops = g.flops
        in_b = [sum(sizes) for sizes in zip(*(
            [v * dtype for v in p.column(env, dims, count, errors)]
            for p in self.inputs))]
        out_b = self.output.column(env, dims, count, errors)
        if self.gemm is None:
            flops = self.flops.column(env, dims, count, errors)
        return MemoryOpColumns(
            array("d", [i + o * dtype for i, o in zip(in_b, out_b)]), flops,
            label=label)

    @property
    def affine(self) -> bool:
        """Whether the kernel's sizes are affine in z: each size is (see
        :attr:`_Product.affine`), and a GEMM has z in one axis at most."""
        axes = self.gemm or ()
        return (self.error is None
                and all(p.affine for p in (self.output, *self.inputs, *axes))
                and sum(("z", 1) in axis.tail for axis in axes) <= 1)

    def line(self, env: dict, dims: DimensionBindings, label: str) -> KernelLine:
        """The sizes of an :attr:`affine` kernel as a line, with ``env``
        binding z to 1 (see :meth:`_Product.line`)."""
        dtype = (float(dims.dtype_bytes), 0.0)
        if self.gemm is not None:
            g = GemmLine(*(axis.line(env, dims) for axis in self.gemm),
                         dtype_bytes=dims.dtype_bytes, label=label)
            if g.n != (1, 0.0):
                return g
        size = self.output.line(env, dims)
        for p in self.inputs:
            size = _plus(size, p.line(env, dims))
        return MemoryOpLine(_times(size, dtype), label)


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
    overlap: Optional[tuple]  # (stages, sm_comm, dim)
    # A decode context step summed over z in closed form: its one kernel is
    # affine in z, needs no collective and no routing statistics.
    line: bool = False

    def _env(self, env: dict, moe_env: Optional[dict],
             errors: Optional[dict] = None) -> dict:
        """The bindings the op's sizes read: ``moe_env`` for an MoE op. A
        point of a column whose T or E is not positive gets its error in
        ``errors``."""
        if not self.is_moe:
            return env
        if moe_env is None:
            raise ValidationError(
                f"op {self.op.label!r} uses the MoE token symbol but no routing "
                "statistics were supplied")
        for sym in ("E", MOE_TOKEN_SYMBOL):
            sizes = moe_env[sym]
            column = is_column(sizes)
            for i, size in enumerate(sizes if column else (sizes,)):
                if size <= 0:
                    exc = ValidationError(
                        f"symbol {sym!r} has non-positive size {size}")
                    if not column:
                        raise exc
                    errors.setdefault(i, exc)
        return moe_env

    def columns(self, env: dict, moe_env: Optional[dict],
                dims: DimensionBindings, count: int,
                errors: dict) -> LoweredColumns:
        """The op's kernels at each of ``count`` points (see
        :meth:`_Product.column`)."""
        op = self.op
        env = self._env(env, moe_env, errors)
        dtype = dims.dtype_bytes
        kernels: list[KernelColumns] = []
        if self.transition is not None:
            size, label, cp_degree = self.transition
            kernels.extend(_all2all_columns(label, array("d", [
                v * dtype / cp_degree
                for v in size.column(env, dims, count, errors)]), cp_degree))
        compute = self.compute.columns(env, dims, count, errors, op.label)
        kernels.append(compute)

        collective = None
        if self.allreduce is not None:
            size, world = self.allreduce
            collective = CommColumns(
                ALLREDUCE, array("d", [v * dtype for v in
                                       size.column(env, dims, count, errors)]),
                world, label=f"{op.label} AllReduce")
            kernels.append(collective)
        lowered = LoweredColumns(
            self.label, tuple(kernels), self.is_moe, self.reads_context, None,
            compute if isinstance(compute, GemmColumns) else None, collective)
        return lowered if self.overlap is None else self.overlapped(lowered)

    def overlapped(self, columns: LoweredColumns) -> LoweredColumns:
        """This step's columns, overlapped, from its un-overlapped
        ``columns``: the same without the collective kernel, which is the
        last. An op with no collective to overlap raises; lowering meets
        that error after the op's other errors."""
        if columns.collective is None:
            raise ValidationError(
                f"op {self.op.label!r}: overlap annotated but no collective detected")
        return columns._replace(kernels=columns.kernels[:-1], overlap=self.overlap)

    def lower_line(self, env: dict, dims: DimensionBindings) -> tuple:
        """(label, kernel line) of a :attr:`line` step (see
        :meth:`_Compute.line`)."""
        return self.label, self.compute.line(env, dims, self.op.label)


class _ScoreStep(NamedTuple):
    """Score tensor read/write around softmax; the framework does not price
    softmax FLOPs beyond this traffic."""

    label: str
    size: _Product
    reads_context: bool
    overlap: None = None  # never overlapped
    line: bool = False  # as _OpStep.line

    def columns(self, env: dict, moe_env: Optional[dict],
                dims: DimensionBindings, count: int,
                errors: dict) -> LoweredColumns:
        dtype = dims.dtype_bytes
        return LoweredColumns(f"{self.label}: score", (MemoryOpColumns(
            array("d", [2 * (v * dtype) for v in
                        self.size.column(env, dims, count, errors)]),
            [0.0] * count, label=f"{self.label} score"),),
            reads_context=self.reads_context)

    def lower_line(self, env: dict, dims: DimensionBindings) -> tuple:
        size = self.size.line(env, dims)
        return f"{self.label}: score", MemoryOpLine(
            (2 * (size[0] * dims.dtype_bytes), 2 * (size[1] * dims.dtype_bytes)),
            label=f"{self.label} score")


class LayerPlan(NamedTuple):
    """One layer compiled for (spec, dims, degrees, phase);
    :meth:`lower_columns` binds the runtime symbols of a column of
    evaluations."""

    phase: str
    dims: DimensionBindings
    steps: tuple = ()
    error: Optional[str] = None  # the layer cannot be lowered in this phase
    # Indices of the steps of the top-level ops that take an overlap
    # setting (see _takes_overlap).
    overlap_steps: tuple = ()

    def with_overlap(self, setting: Optional[tuple[int, int]]) -> "LayerPlan":
        """This plan with the overlap setting (stages, sm_comm) applied:
        it replaces the overlap of every step in :attr:`overlap_steps`.

        A setting that fails
        :func:`~llm_energy.spec_lang.check_overlap_setting` raises its
        error. Overlap is prefill-only, so in decode the result is a plan
        whose error says so, as it is when no step takes the setting. A
        plan that has an error keeps it.
        """
        if setting is None:
            return self
        check_overlap_setting(*setting, f"overlap setting {setting!r}")
        if self.error is not None:
            return self
        if self.phase == DECODE:
            return LayerPlan(self.phase, self.dims, error="overlap is prefill-only")
        if not self.overlap_steps:
            return LayerPlan(self.phase, self.dims, error=(
                f"overlap setting {setting[0]}:{setting[1]} applies to no op: "
                "none has both s and a sharded symbol that it sums"))
        steps = list(self.steps)
        for index in self.overlap_steps:
            steps[index] = steps[index]._replace(overlap=(*setting, "s"))
        return self._replace(steps=tuple(steps))

    def unoverlapped(self) -> "LayerPlan":
        """This plan with no step overlapped: each op lowers its
        collective as a kernel of its own."""
        if not any(step.overlap for step in self.steps):
            return self
        return self._replace(steps=tuple(step._replace(overlap=None)
                                         for step in self.steps))

    def _moe_env(self, env: dict, moe_te: Optional[tuple]) -> Optional[dict]:
        """Check that the plan can be lowered; return the MoE ops'
        bindings: ``env`` with ``moe_te`` bound as (T, E), if given."""
        if self.error is not None:
            raise ValidationError(self.error)
        if moe_te is None:
            return None
        return dict(env, **{MOE_TOKEN_SYMBOL: moe_te[0], "E": moe_te[1]})

    def lower(self, ctx: PhaseContext,
              moe_te: Optional[tuple[float, float]] = None) -> list[LoweredOp]:
        """Lower the layer at ``ctx``: kernel descriptor groups in stream
        order, with ``moe_te`` bound as MoE ops' (T, E), read off the
        layer's one-point columns (:meth:`lower_columns`)."""
        if ctx.phase != self.phase:
            raise ValidationError(
                f"layer compiled for {self.phase} cannot lower a {ctx.phase} context")
        env = {"b": ctx.batch, "s": ctx.s, "z": ctx.z}
        return [op.one_point() for op in self.lower_columns(env, 1, moe_te)]

    def lower_columns(self, env: dict, count: int,
                      moe_te: Optional[tuple] = None,
                      errors: Optional[dict] = None,
                      failed_at: Optional[dict] = None) -> list[LoweredColumns]:
        """Lower the layer at ``count`` points at once: per kernel, its
        sizes as columns whose i-th values are the kernel's at point i.

        ``env`` binds b, s and z, and ``moe_te`` the MoE ops' (T, E), each
        to one size for every point or to a column of sizes (see
        :func:`is_column`).

        Each point gets the error that lowering it alone would raise, the
        first in stream order. With ``errors``, they are recorded there by
        point index and lowering goes on for the other points (a failed
        point's sizes are placeholders); it stops once every point has
        failed. Without, the first point's error is raised. ``failed_at``,
        if given, gets the index of the step that recorded each new error
        in ``errors``. A GEMM whose N is 1 at some points only raises
        :class:`MixedColumns`.
        """
        moe_env = self._moe_env(env, moe_te)
        return self._walk(
            lambda step, record: step.columns(env, moe_env, self.dims, count, record),
            count, errors, failed_at)

    def lower_decode(self, env: dict, zs: range,
                     moe_te: Optional[tuple] = None) -> list[LoweredColumns]:
        """Lower a decode layer at the positions whose context lengths are
        the z of ``zs``, each step once, in stream order: a step that does
        not read the context as one-point columns, a :attr:`~_OpStep.line`
        step as its one kernel's line (a :data:`KernelLine`), any other as
        columns over the positions.
        ``env`` binds b and s, and ``moe_te`` the MoE ops' (T, E). It
        raises the first position's first error in stream order, or else
        the earliest failing position's."""
        count = len(zs)
        point = dict(env, z=1)  # what the steps that do not read z see
        if any(step.reads_context and not step.line for step in self.steps):
            env = dict(env, z=array("q", zs))
        moe_env, moe_point = self._moe_env(env, moe_te), self._moe_env(point, moe_te)

        def lower(step, record: dict) -> LoweredColumns:
            if step.line:
                label, line = step.lower_line(point, self.dims)
                return LoweredColumns(label, (line,), reads_context=True)
            if step.reads_context:
                return step.columns(env, moe_env, self.dims, count, record)
            # Each size one number, it raises its errors, the same at
            # every position.
            return step.columns(point, moe_point, self.dims, 1, {})

        return self._walk(lower, count)

    def _walk(self, lower, count: int, errors: Optional[dict] = None,
              failed_at: Optional[dict] = None) -> list[LoweredColumns]:
        """``lower(step, errors)`` of each step in stream order, with the
        errors of :meth:`lower_columns`: one it raises is every point's."""
        record = {} if errors is None else errors
        lowered = []
        for index, step in enumerate(self.steps):
            known = len(record)
            try:
                lowered.append(lower(step, record))
            except MixedColumns:
                raise
            except (SpecError, ValidationError) as exc:
                for i in range(count):
                    record.setdefault(i, exc)
            if failed_at is not None and len(record) > known:
                # Errors are only ever added, so the new ones come last.
                failed_at.update((i, index) for i in islice(record, known, None))
            if len(record) == count:
                break
        if errors is None and record:
            raise record[min(record)]
        return lowered


def _takes_overlap(op: OpSpec) -> bool:
    """Whether an overlap setting applies to a top-level op: its sharded
    symbol is summed, so it ends in an AllReduce, and it has ``s``."""
    eq = op.equation
    return op.parallel in eq.summation_symbols and "s" in eq.all_symbols()


def compile_layer(spec: ModelSpec, dims: DimensionBindings,
                  degrees: dict[str, int], phase: str,
                  overlap: Optional[tuple[int, int]] = None) -> LayerPlan:
    """Compile one layer's lowering for fixed spec, dims, degrees, phase
    and overlap setting.

    Everything but the runtime symbols b, s and z (and, for MoE ops, the
    routing statistics T and E) is fixed here: the op stream and each op's
    predecessor, shards, GEMM symbol partition, local sizes of the bound
    symbols, collectives, cp transitions, each op's overlap and the
    ``reads_context`` tags. Errors that lowering would raise are kept and
    raised by :meth:`LayerPlan.lower_columns`, in the order lowering meets
    them.

    The ``overlap`` setting (stages, sm_comm) is applied by
    :meth:`LayerPlan.with_overlap`: it replaces the annotation of every
    top-level op that takes it (see :func:`_takes_overlap`). Overlap, set
    or annotated on any op or sub-op, is prefill-only: in decode it is an
    error of the whole plan.

    In decode, a step is tagged ``reads_context`` when its kernels change
    with z from one position to the next: z is a factor of one of its
    compiled size products (its cp transition's, its compute kernel's, its
    AllReduce's or its score's).
    """
    annotated = any(op.overlap_stage is not None
                    for op in (*spec.ops, *_flatten_ops(spec)))
    if phase == DECODE and annotated:
        return LayerPlan(phase, dims, error="overlap is prefill-only"
                         ).with_overlap(overlap)
    cp_degree = degrees.get("cp", 1)

    def reads(*sizes: Optional[_Product]) -> bool:
        # z = isl throughout prefill
        return phase == DECODE and any(p is not None and p.has_z for p in sizes)

    def compile_op(op: OpSpec, prev: Optional[OpSpec], label: str) -> _OpStep:
        is_moe = _is_moe_op(op)
        runtime = _MOE_RUNTIME if is_moe else RUNTIME_SYMBOLS
        moved = (_transition_size(op, prev, dims, cp_degree, runtime)
                 if cp_degree > 1 else None)
        transition = (None if moved is None else
                      (moved, f"{prev.label}->{op.label}", cp_degree))
        # MoE ops: statistics are per-GPU, so no further expert shard.
        shards = op_shards(op, dict(degrees, ep=1) if is_moe else degrees)
        world = degrees[degree_kind(op.parallel)] if op.parallel else 1
        size = _allreduce_size(op, dims, world, runtime)
        compute = _compile_compute(op, dims, shards, runtime)
        context = reads(moved, compute.output, *compute.inputs,
                        *(compute.gemm or ()), compute.flops, size)
        return _OpStep(
            label=label, op=op, is_moe=is_moe, reads_context=context,
            transition=transition, compute=compute,
            allreduce=None if size is None else (size, world),
            overlap=None if op.overlap_stage is None else (
                op.overlap_stage, op.overlap_sm, op.overlap_dim),
            line=(context and not is_moe and transition is None and size is None
                  and compute.affine))

    steps: list = []
    takes: list = []
    prev = None
    for op in spec.ops:
        if not op.is_attention:
            if _takes_overlap(op):
                takes.append(len(steps))
            steps.append(compile_op(op, prev, op.label))
            prev = op
            continue
        for j, sub in enumerate(op.attn_eqs):
            steps.append(compile_op(sub, prev, f"{op.label}: {sub.label}"))
            if j == 0 and not sub.is_attention:
                size = _Product.of(sub.equation.output_operand, dims,
                                   op_shards(sub, degrees), RUNTIME_SYMBOLS)
                context = reads(size)
                steps.append(_ScoreStep(op.label, size, context,
                                        line=context and size.affine))
            prev = sub
    plan = LayerPlan(phase, dims, tuple(steps), overlap_steps=tuple(takes))
    return plan.with_overlap(overlap)


def lower_model(spec: ModelSpec, dims: DimensionBindings, ctx: PhaseContext,
                degrees: dict[str, int],
                moe_te: Optional[tuple[float, float]] = None) -> list[LoweredOp]:
    """Lower one layer's ops into kernel descriptor groups.

    ``moe_te`` binds the effective (tokens-per-expert, experts-per-GPU)
    pair for MoE ops; those ops skip the expert-parallel shard because the
    statistics are already per-GPU.
    """
    return compile_layer(spec, dims, degrees, ctx.phase).lower(ctx, moe_te=moe_te)


def decode_positions(osl: int) -> range:
    """The decode positions 1..``osl``, each priced and summed exactly."""
    return range(1, osl + 1)
