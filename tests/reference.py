"""Independent references for the tests.

The program lowers and prices every evaluation as columns over points. These
references do it from scratch, one evaluation and one kernel descriptor at a
time, with the scalar formulas the columns must equal: lowering with every
size bound into the dims, the roofline GEMM and memory op, the calibration
table's nearest point, the three-phase overlap plan, the MoE imbalance fold,
and the report rows built from them. Collectives are priced by the comm
backend, whose curve lookup has a reference of its own in ``test_comm.py``.

Input files are read the same way, one line and one row at a time: the CSV
reader; the comm calibration loader, which appends each row to its
curve, sorts every curve and checks the curves one by one; and the routing
trace loader, which converts every expert cell and counts the rows.
"""

import functools
import math
from collections import Counter
from itertools import chain, islice
from dataclasses import replace

from llm_energy import (
    BackendError,
    CostEstimate,
    OverlapPlan,
    TableComputeBackend,
    ValidationError,
    detect_all2all,
    detect_allreduce,
    extract_gemm,
)
from llm_energy.interpreter import (
    ALLGATHER,
    ALLREDUCE,
    ALLTOALL,
    DECODE,
    MOE_TOKEN_SYMBOL,
    PREFILL,
    REDUCESCATTER,
    CommDescriptor,
    GemmDescriptor,
    LoweredOp,
    MemoryOpDescriptor,
    OuterProduct,
    _flatten_ops,
    _is_moe_op,
    local_size,
    op_shards,
    operand_bytes,
)
from llm_energy.metrics import (
    CATEGORY_COMM,
    CATEGORY_COMPUTE,
    CATEGORY_EXPOSED,
    CATEGORY_MEMORY,
)
from llm_energy.spec_lang import ModelSpec, degree_kind, validate_bindings

# -- lowering -------------------------------------------------------------------


def reference_lower(spec, dims, ctx, degrees, moe_te=None):
    """Lowering with every size taken from scratch per call: bind b, s, z
    (and T, E for MoE ops) into the dims, then shard and multiply."""
    if ctx.phase == DECODE and any(op.overlap_stage for op in spec.ops):
        raise ValidationError("overlap is prefill-only")
    bound = dims.with_sizes(b=ctx.batch, s=ctx.s, z=ctx.z)
    stream = _flatten_ops(spec)
    cp = degrees.get("cp", 1)

    def preceding(op):
        i = next(i for i, o in enumerate(stream) if o is op)
        return stream[i - 1] if i > 0 else None

    def has_z(op):
        eq = op.equation
        return any("z" in operand for operand in (*eq.input_operands, eq.output_operand))

    def varies(op):
        # In decode, an op's kernels change with z when z is in its
        # equation, or when it changes the cp layout of an op whose output
        # holds z, which sizes the transition.
        prev = preceding(op)
        return ctx.phase == DECODE and (has_z(op) or (
            cp > 1 and prev is not None and op.cp_dim != prev.cp_dim
            and "z" in prev.equation.output_operand))

    def compute(op, local, shards):
        eq = op.equation
        if eq.is_single_input:
            return MemoryOpDescriptor(operand_bytes(eq.output_operand, local, shards),
                                      label=op.label)
        try:
            g = extract_gemm(eq, local, shards, label=op.label)
        except OuterProduct:
            in_b = sum(operand_bytes(o, local, shards) for o in eq.input_operands)
            out_b = operand_bytes(eq.output_operand, local, shards)
            flops = 1.0
            for sym in eq.all_symbols():
                flops *= local_size(sym, local, shards)
            return MemoryOpDescriptor(in_b + out_b, flops=flops, label=op.label)
        if g.n != 1:
            return g
        in_b = sum(operand_bytes(o, local, shards) for o in eq.input_operands)
        out_b = operand_bytes(eq.output_operand, local, shards)
        return MemoryOpDescriptor(in_b + out_b, flops=g.flops, label=op.label)

    lowered = []

    def lower_one(op, label):
        local = bound
        is_moe = _is_moe_op(op)
        if is_moe:
            if moe_te is None:
                raise ValidationError(
                    f"op {op.label!r} uses the MoE token symbol but no routing "
                    "statistics were supplied")
            local = local.with_sizes(**{MOE_TOKEN_SYMBOL: moe_te[0], "E": moe_te[1]})
        kernels = detect_all2all(op, preceding(op), local, cp) if cp > 1 else []
        kern = compute(op, local, op_shards(op, dict(degrees, ep=1) if is_moe
                                            else degrees))
        kernels.append(kern)
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
            label, tuple(kernels), is_moe, varies(op), overlap,
            kern if isinstance(kern, GemmDescriptor) else None, collective))

    for op in spec.ops:
        if not op.is_attention:
            lower_one(op, op.label)
            continue
        for j, sub in enumerate(op.attn_eqs):
            lower_one(sub, f"{op.label}: {sub.label}")
            if j == 0:
                size = operand_bytes(sub.equation.output_operand, bound,
                                     op_shards(sub, degrees))
                lowered.append(LoweredOp(
                    f"{op.label}: score",
                    (MemoryOpDescriptor(2 * size, label=f"{op.label} score"),),
                    reads_context=(ctx.phase == DECODE
                                   and any(map(has_z, op.attn_eqs)))))
    return lowered


def annotate_overlap(spec, stages, sm_comm):
    """Reference for an overlap setting: ``spec`` with (stages, sm_comm, "s")
    annotated on every top-level sharded contraction that has ``s``."""
    ops = []
    for op in spec.ops:
        if (not op.is_attention and op.parallel is not None
                and op.parallel in op.equation.summation_symbols
                and "s" in op.equation.all_symbols()):
            op = replace(op, overlap_stage=stages, overlap_sm=sm_comm,
                         overlap_dim="s")
        ops.append(op)
    return ModelSpec(tuple(ops), spec.layers)


# -- pricing --------------------------------------------------------------------


def _flops(g):
    return 2.0 * g.group_count * g.m * g.contraction * g.n


def _bytes_moved(g):
    return g.group_count * (g.m * g.contraction + g.contraction * g.n
                            + g.m * g.n) * g.dtype_bytes


def roofline_gemm(g, hw):
    """Roofline GEMM: the larger of compute and memory time plus the launch
    overhead, at a power that blends the bound resource's full use with the
    other's fraction."""
    sm = g.sm_available if g.sm_available is not None else hw.total_sm
    if sm < 1:
        raise ValidationError(f"GEMM {g.label!r}: zero SMs available")
    if sm > hw.total_sm:
        raise ValidationError(f"GEMM {g.label!r}: sm_available exceeds total_sm")
    t_compute = _flops(g) / (hw.peak_flops * hw.compute_efficiency * sm / hw.total_sm)
    t_memory = _bytes_moved(g) / (hw.mem_bw * hw.bandwidth_efficiency)
    latency = max(t_compute, t_memory) + hw.kernel_launch_overhead
    hi, lo = max(t_compute, t_memory), min(t_compute, t_memory)
    u_eff = (1.0 + (lo / hi if hi > 0 else 1.0)) / 2.0
    power = hw.p_idle + (hw.p_max - hw.p_idle) * u_eff
    return CostEstimate(latency, power * latency)


def roofline_memory_op(m, hw):
    """Read + write traffic at effective bandwidth, plus the launch overhead."""
    latency = 2.0 * m.bytes / (hw.mem_bw * hw.bandwidth_efficiency)
    latency += hw.kernel_launch_overhead
    power = hw.p_idle + (hw.p_max - hw.p_idle) * hw.memory_op_utilization
    return CostEstimate(latency, power * latency)


def _logs(x):
    """The logs of (M, contraction, N, G), each dimension floored at 1."""
    return [math.log(max(v, 1.0)) for v in (x.m, x.contraction, x.n, x.group_count)]


@functools.lru_cache(maxsize=None)
def _calibration_logs(table):
    return [(_logs(p), p) for p in table.points]


def table_nearest(table, g):
    """The first calibration point at the least squared log distance over
    (M, contraction, N, G), each dimension floored at 1."""
    qm, qk, qn, qg = _logs(g)
    best, best_dist = None, math.inf
    for (lm, lk, ln, lg), p in _calibration_logs(table):
        dist = (qm - lm) ** 2 + (qk - lk) ** 2 + (qn - ln) ** 2 + (qg - lg) ** 2
        if dist < best_dist:
            best, best_dist = p, dist
    return best


def table_gemm(table, g):
    """The nearest point's latency scaled by the FLOP ratio, at its power."""
    if g.sm_available is not None:
        raise BackendError(
            "GEMM calibration backend does not support SM-restricted queries")
    p = table_nearest(table, g)
    latency = p.latency_s * (_flops(g) / _flops(p))
    return CostEstimate(latency, p.power_w * latency)


def price(kernel, compute_backend, comm_backend):
    """One kernel descriptor's cost under a roofline or table compute backend
    (the table's SM-restricted GEMMs and memory ops on the roofline)."""
    if isinstance(kernel, CommDescriptor):
        return comm_backend.estimate(kernel)
    hw = compute_backend.hw
    if isinstance(kernel, MemoryOpDescriptor):
        return roofline_memory_op(kernel, hw)
    if isinstance(compute_backend, TableComputeBackend) and kernel.sm_available is None:
        return table_gemm(compute_backend.table, kernel)
    return roofline_gemm(kernel, hw)


def plan_overlap(g, collective_bytes, world, stages, sm_comm, overlap_dim_size,
                 compute_backend, comm_backend, total_sm, label=""):
    """The three-phase plan of one GEMM + AllReduce pair: the first 1/stages
    GEMM partition on all SMs; stages - 1 overlapped stages of the partition
    on the SMs the collective leaves and a ReduceScatter chunk on
    ``sm_comm``; one exposed AllGather chunk. One stage is the full GEMM
    then the full AllReduce."""
    if overlap_dim_size % stages:
        raise ValidationError(
            f"overlap dimension size {overlap_dim_size} not divisible by "
            f"{stages} stages")
    if sm_comm >= total_sm:
        raise ValidationError(f"sm_comm must be in [1, total_sm), got {sm_comm}")
    part = replace(g, m=g.m * (1.0 / stages))
    first = price(part, compute_backend, comm_backend)
    if stages == 1:
        exposed = comm_backend.estimate(CommDescriptor(
            ALLREDUCE, collective_bytes, world, label=f"{label} AllReduce"))
        return OverlapPlan(1, sm_comm, first.latency, 0.0, 0.0, exposed.latency,
                           first.power, first.power, label)
    restricted = price(replace(part, sm_available=total_sm - sm_comm),
                       compute_backend, comm_backend)
    chunk = collective_bytes / stages
    rs = comm_backend.estimate(CommDescriptor(
        REDUCESCATTER, chunk, world, sm_count=sm_comm, label=f"{label} ReduceScatter"))
    ag = comm_backend.estimate(CommDescriptor(
        ALLGATHER, chunk, world, label=f"{label} AllGather"))
    return OverlapPlan(stages, sm_comm, first.latency, restricted.latency,
                       rs.latency, ag.latency, first.power, restricted.power, label)


def fold_imbalance(avg, mx, p_idle):
    """Bottleneck latency; average energy plus the average GPU idling at
    ``p_idle`` until the bottleneck finishes."""
    bottleneck = max(mx.latency, avg.latency)
    return CostEstimate(bottleneck, avg.energy + (bottleneck - avg.latency) * p_idle)


# -- reports --------------------------------------------------------------------


def _category(kernel):
    if isinstance(kernel, CommDescriptor):
        return CATEGORY_COMM
    if isinstance(kernel, GemmDescriptor):
        return CATEGORY_COMPUTE
    return CATEGORY_MEMORY


def reference_rows(est, ctx, degrees, overlap=None, invariant_once=False):
    """An estimator's report rows, {(label, category): (latency, energy)} in
    row order, priced from scratch: in prefill once, in decode at every
    position 1..osl, the routing statistics, the full lowering (twice for
    imbalanced MoE), every kernel's price with MoE kernels folded and
    overlapped ops planned, each weighted by layers. With ``invariant_once``, a decode kernel that does not read
    the context is added at the first position only, weighted by layers x
    osl, as the estimator adds it. ``overlap`` is a setting (stages,
    sm_comm) that some op takes."""
    degrees = validate_bindings(est.spec, est.dims, degrees).degrees
    spec = est.spec if overlap is None else annotate_overlap(est.spec, *overlap)
    gpus = est.gpu_count(degrees)
    positions = [1] if ctx.phase == PREFILL else range(1, ctx.osl + 1)
    rows = {}

    def add(label, category, cost, weight):
        scale = 1 if category == CATEGORY_COMM else gpus
        latency, energy = rows.get((label, category), (0.0, 0.0))
        rows[(label, category)] = (latency + cost.latency * weight,
                                   energy + cost.energy * scale * weight)

    def cost_of(kernel):
        return price(kernel, est.compute_backend, est.comm_backend)

    for n, position in enumerate(positions):
        step = ctx if ctx.phase == PREFILL else replace(ctx, decode_position=position)
        stats = est.routing_stats(step, degrees)
        lowered = reference_lower(spec, est.dims, step, degrees,
                                  moe_te=stats.avg if stats else None)
        lowered_max = None
        if stats is not None and not stats.balanced:
            lowered_max = reference_lower(spec, est.dims, step, degrees,
                                          moe_te=stats.max)
        for idx, op in enumerate(lowered):
            weight = est.layers()
            if invariant_once and not op.reads_context:
                if n:
                    continue
                weight = est.layers() * ctx.osl
            if op.overlap is not None:
                stages, sm_comm, dim = op.overlap
                size = {"b": step.batch, "s": step.s, "z": step.z}.get(
                    dim, est.dims.sizes.get(dim))
                plan = plan_overlap(op.gemm, op.collective.bytes, op.collective.world,
                                    stages, sm_comm, int(size), est.compute_backend,
                                    est.comm_backend, est.hw.total_sm, label=op.label)
                for kernel in op.kernels:
                    if kernel is not op.gemm:
                        add(op.label, _category(kernel), cost_of(kernel), weight)
                add(op.label, CATEGORY_COMPUTE,
                    CostEstimate(plan.compute_latency, plan.compute_energy), weight)
                add(op.label, CATEGORY_EXPOSED,
                    CostEstimate(plan.t_exposed, plan.exposed_energy), weight)
                continue
            for k_idx, kernel in enumerate(op.kernels):
                cost = cost_of(kernel)
                if op.is_moe and lowered_max is not None:
                    cost = fold_imbalance(
                        cost, cost_of(lowered_max[idx].kernels[k_idx]), est.hw.p_idle)
                add(op.label, _category(kernel), cost, weight)
    return rows


# -- input files ------------------------------------------------------------------


def _csv_rows(lines, comments):
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line[:1] == "#":
            comments.append(line.lstrip("# "))
        elif line:
            yield lineno, line


def read_csv(path, header, converters, rest=None):
    """``spec_lang.read_csv`` line by line: each row split on its own and
    checked a block of 256 rows at a time, the width of every row of a
    block before its cells, a column at a time."""
    comments = []
    with open(path, encoding="utf-8") as fh:
        try:
            rows = _csv_rows(fh, comments)
            lineno, first = next(rows, (1, ""))
            head = first.split(",") if first else []
            if header is not None and [cell.strip() for cell in head] != list(header):
                raise ValidationError(
                    f"{path}:{lineno}: header must be {','.join(header)}")
            if header is None and first:
                rows = chain([(lineno, first)], rows)
            width = len(head)
            converters = list(converters) + [rest] * (width - len(converters))
            columns = [[] for _ in converters]
            while block := list(islice(rows, 256)):
                split = [line.split(",") for _, line in block]
                for (lineno, _), row in zip(block, split):
                    if len(row) != width:
                        raise ValidationError(
                            f"{path}:{lineno}: expected {width} columns")
                for column, convert, cells in zip(columns, converters, zip(*split)):
                    if convert is None:
                        continue
                    for (lineno, _), cell in zip(block, cells):
                        try:
                            column.append(convert(cell))
                        except ValueError as exc:
                            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return columns, comments


COMM_HEADER = ("kind", "world", "sm_count", "bytes", "latency_s", "energy_j")
COMM_KINDS = (ALLREDUCE, REDUCESCATTER, ALLGATHER, ALLTOALL)


def _check_comm_curve(key, sizes, latencies, energies):
    kind, world, sm = key
    if kind not in COMM_KINDS or world < 2 or sm < 1:
        raise ValidationError(f"comm calibration {key}: needs a known "
                              "kind, world >= 2 and sm_count >= 1")
    if len(sizes) < 2:
        raise ValidationError(f"comm calibration {key}: need >= 2 points")
    for values in (sizes, latencies, energies):
        for v in values:
            if not 0 < v < math.inf:
                raise ValidationError(
                    f"comm calibration {key}: sizes, latencies and energies "
                    "must be positive and finite")
    for prev, cur in zip(sizes, sizes[1:]):
        if cur <= prev:
            raise ValidationError(
                f"comm calibration {key}: sizes must be strictly increasing "
                f"(saw {prev} then {cur})")
        if math.log(cur) == math.log(prev):
            raise ValidationError(
                f"comm calibration {key}: sizes {prev} and {cur} have the "
                "same log, so no segment lies between them")


def load_comm_calibration(path):
    """(curves, provenance) of a comm calibration CSV, where ``curves`` maps
    each (kind, world, sm_count), in the order the rows first name it, to
    its (sizes, latencies, energies) sorted by size; or the ValidationError
    of the first bad cell, of a file with no row or of the first bad
    curve."""
    (kinds, worlds, sms, *values), comments = read_csv(
        path, COMM_HEADER, [str.strip, int, int, float, float, float])
    samples = {}
    for key, sample in zip(zip(kinds, worlds, sms), zip(*values)):
        samples.setdefault(key, []).append(sample)
    if not samples:
        raise ValidationError(f"{path}: comm calibration has no rows")
    curves = {}
    for key, rows in samples.items():
        rows.sort(key=lambda row: row[0])
        curves[key] = tuple(map(list, zip(*rows)))
        try:
            _check_comm_curve(key, *curves[key])
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    return curves, "; ".join(comments)


def load_trace(path):
    """(rows, top_k, tokens per expert index in the order the rows first name
    them) of a routing trace file: each row's expert cells converted by
    ``int``, the token column not read; or the ValidationError of the first
    bad row or cell, or of a file with no expert cell."""
    (_, *experts), _ = read_csv(path, None, [None], rest=int)
    choices = tuple(zip(*experts))
    if not choices:
        raise ValidationError(f"{path}: routing trace has no expert choices")
    return choices, len(choices[0]), Counter(chain.from_iterable(choices))
