"""Lowering tests: GEMM extraction, collective detection, kernel streams."""

import math
from array import array
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llm_energy import (
    CommDescriptor,
    DimensionBindings,
    Estimator,
    GemmDescriptor,
    MemoryOpDescriptor,
    PhaseContext,
    ValidationError,
    detect_all2all,
    detect_allreduce,
    extract_gemm,
    load_bindings,
    load_model_spec,
    lower_model,
    parse_equation,
)
from llm_energy.fixtures import fixture_path
from llm_energy.interpreter import (
    ALLREDUCE,
    ALLTOALL,
    DECODE,
    PREFILL,
    CommColumns,
    GemmColumns,
    GemmLine,
    LoweredOp,
    MemoryOpLine,
    MixedColumns,
    _flatten_ops,
    compile_layer,
    decode_positions,
    op_shards,
    operand_bytes,
)
from llm_energy.spec_lang import ModelSpec, OpSpec

from reference import reference_lower


def _op(eq, label="op", **kw):
    return OpSpec(equation=parse_equation(eq), label=label, **kw)


def test_extract_gemm_basic():
    dims = DimensionBindings({"b": 2, "s": 4, "m": 8, "f": 16})
    g = extract_gemm(parse_equation("bsm,mf->bsf"), dims)
    assert (g.group_count, g.m, g.contraction, g.n) == (1, 8, 8, 16)
    assert g.flops == 2 * 1 * 8 * 8 * 16 == 2048


def test_extract_gemm_grouped_attention():
    dims = DimensionBindings({"b": 1, "K": 2, "r": 4, "s": 8, "z": 8, "h": 16})
    g = extract_gemm(parse_equation("bKrsh,bKzh->bKrsz"), dims)
    assert (g.group_count, g.m, g.contraction, g.n) == (2, 32, 16, 8)


def test_extract_gemm_shard():
    dims = DimensionBindings({"b": 1, "s": 2, "m": 4, "F": 32})
    g = extract_gemm(parse_equation("bsm,mF->bsF"), dims, shards={"F": 2})
    assert g.n == 16


def test_gemm_bytes_and_intensity():
    g = GemmDescriptor(1, 1, 8192, 8192, dtype_bytes=2)
    expected = 2 * 8192 * 8192 / ((8192 + 8192 * 8192 + 8192) * 2)
    assert g.arithmetic_intensity == pytest.approx(expected)
    assert g.arithmetic_intensity == pytest.approx(1.0, rel=0.01)
    small = GemmDescriptor(1, 1, 1, 1, dtype_bytes=1)
    assert small.arithmetic_intensity == pytest.approx(2 / 3)
    # Doubling M at fixed contraction, N strictly increases intensity.
    assert (GemmDescriptor(1, 64, 256, 256, 2).arithmetic_intensity
            > GemmDescriptor(1, 32, 256, 256, 2).arithmetic_intensity)


def test_sharding_conserves_flops():
    dims = DimensionBindings({"b": 2, "s": 16, "m": 64, "F": 32})
    eq = parse_equation("bsm,mF->bsF")
    full = extract_gemm(eq, dims).flops
    for tp in (2, 4, 8):
        assert extract_gemm(eq, dims, shards={"F": tp}).flops * tp == full


def test_detect_allreduce_fires_on_summed_parallel():
    dims = DimensionBindings({"b": 1, "s": 2, "f": 4, "m": 8})
    c = detect_allreduce(_op("bsf,fm->bsm", parallel="f"), dims, world=2)
    assert c is not None and c.kind == ALLREDUCE
    assert c.bytes == 1 * 2 * 8 * 2  # full output tensor b*s*m*t


def test_detect_allreduce_silent_on_output_parallel():
    dims = DimensionBindings({"b": 1, "s": 2, "m": 4, "f": 8})
    assert detect_allreduce(_op("bsm,mf->bsf", parallel="f"), dims, world=2) is None


def test_detect_allreduce_output_projection_bytes():
    dims = DimensionBindings({"b": 2, "s": 4096, "H": 64, "h": 128, "m": 8192})
    c = detect_allreduce(_op("bsHh,Hhm->bsm", parallel="H"), dims, world=8)
    assert c.bytes == 2 * 4096 * 8192 * 2 == 134_217_728


def test_allreduce_bytes_invariant_to_world():
    dims = DimensionBindings({"b": 1, "s": 8, "f": 16, "m": 32})
    op = _op("bsf,fm->bsm", parallel="f")
    sizes = {detect_allreduce(op, dims, w).bytes for w in (2, 4, 8)}
    assert len(sizes) == 1


def test_detect_all2all_transition():
    dims = DimensionBindings({"b": 1, "s": 1024, "m": 64, "i": 10,
                              "K": 2, "r": 4, "z": 1024, "h": 16})
    prev = _op("bsm,mi->bsi", cp_dim="s", label="QKV")
    cur = _op("bKrsh,bKzh->bKrsz", cp_dim="K", label="QK")
    out = detect_all2all(cur, prev, dims, cp_degree=2)
    assert len(out) == 3
    assert isinstance(out[0], MemoryOpDescriptor)
    assert isinstance(out[1], CommDescriptor) and out[1].kind == ALLTOALL
    assert isinstance(out[2], MemoryOpDescriptor)
    prev_out_bytes = 1 * 1024 * 10 * 2
    assert out[1].bytes == prev_out_bytes / 2
    assert out[0].bytes == out[1].bytes == out[2].bytes


def test_detect_all2all_no_transition():
    dims = DimensionBindings({"b": 1, "s": 4, "m": 8, "f": 16})
    a = _op("bsm,mf->bsf", cp_dim="s")
    b = _op("bsf,fm->bsm", cp_dim="s")
    assert detect_all2all(b, a, dims, 2) == []
    assert detect_all2all(a, None, dims, 2) == []


def test_lower_dense_tp2_collective_pattern(dense_spec, dims_8b):
    ctx = PhaseContext(PREFILL, batch=2, isl=128)
    lowered = lower_model(dense_spec, dims_8b, ctx, {"tp": 2, "ep": 1, "cp": 1})
    comms = [(op.label, k) for op in lowered for k in op.kernels
             if isinstance(k, CommDescriptor)]
    assert [label for label, _ in comms] == ["Output Projection", "Down Projection"]
    assert all(k.kind == ALLREDUCE and k.world == 2 for _, k in comms)


def test_lower_moe_tp2_ep2_collective_pattern(moe_spec, dims_moe):
    ctx = PhaseContext(PREFILL, batch=2, isl=128)
    lowered = lower_model(moe_spec, dims_moe, ctx, {"tp": 2, "ep": 2, "cp": 1},
                          moe_te=(16.0, 64.0))
    comms = [(op.label, k) for op in lowered for k in op.kernels
             if isinstance(k, CommDescriptor)]
    assert [label for label, _ in comms] == ["Output Projection", "Reduction"]
    # Attention AllReduce spans the TP group; the MoE combine spans EP.
    assert comms[0][1].world == 2
    assert comms[1][1].world == 2
    # Expert GEMMs carry group_count = experts per GPU (E is grouped, not summed).
    gate = next(op for op in lowered if op.label == "Gate & Up Projection")
    assert gate.gemm is not None and gate.gemm.group_count == 64.0


def test_lower_cp_transition_pattern(cp_spec, dims_8b):
    ctx = PhaseContext(PREFILL, batch=1, isl=256)
    lowered = lower_model(cp_spec, dims_8b, ctx, {"tp": 1, "ep": 1, "cp": 2})
    a2a = [k for op in lowered for k in op.kernels
           if isinstance(k, CommDescriptor)]
    assert [k.kind for k in a2a] == [ALLTOALL, ALLTOALL]
    # Each transition is bracketed by two transpose memory ops of equal size.
    for op in lowered:
        kinds = [type(k).__name__ for k in op.kernels]
        if "CommDescriptor" in kinds:
            i = kinds.index("CommDescriptor")
            assert kinds[i - 1] == kinds[i + 1] == "MemoryOpDescriptor"


def test_decode_phase_rule(dense_spec, dims_8b):
    ctx = PhaseContext(DECODE, batch=4, isl=512, osl=8, decode_position=3)
    assert ctx.s == 1 and ctx.z == 515
    lowered = lower_model(dense_spec, dims_8b, ctx, {"tp": 1, "ep": 1, "cp": 1})
    qkv = next(op for op in lowered if op.label == "QKV Projection")
    assert qkv.gemm.m == 4  # s=1 leaves only the batch factor


@pytest.mark.parametrize("bad", [2.5, 512.0, True])
@pytest.mark.parametrize("field", ["batch", "isl", "osl", "decode_position"])
def test_phase_sizes_that_are_not_integers_are_rejected(field, bad):
    # A fractional batch was priced and reported as such, and a fractional
    # decode position ended in a TypeError inside the estimator.
    sizes = {"batch": 2, "isl": 512, "osl": 600, "decode_position": 1}
    assert PhaseContext(DECODE, **sizes).z == 513
    with pytest.raises(ValidationError,
                       match=f"^{field} must be an integer, got {bad!r}$"):
        PhaseContext(DECODE, **dict(sizes, **{field: bad}))
    if field in ("batch", "isl"):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer"):
            PhaseContext(PREFILL, **dict({"batch": 2, "isl": 512}, **{field: bad}))


def test_scatter_lowered_as_memory_op(moe_spec, dims_moe):
    ctx = PhaseContext(PREFILL, batch=1, isl=64)
    lowered = lower_model(moe_spec, dims_moe, ctx, {"tp": 1, "ep": 1, "cp": 1},
                          moe_te=(32.0, 128.0))
    scatter = next(op for op in lowered if op.label == "Scatter")
    assert isinstance(scatter.kernels[0], MemoryOpDescriptor)
    # Reduction is a weighted sum: memory-bound with FLOPs 2*b*s*A*m.
    red = next(op for op in lowered if op.label == "Reduction")
    kern = [k for k in red.kernels if isinstance(k, MemoryOpDescriptor)][0]
    assert kern.flops == 2 * 1 * 64 * 8 * 2048


def test_decode_overlap_rejected(dense_spec, dims_8b):
    import dataclasses
    ops = [dataclasses.replace(dense_spec.ops[2], overlap_stage=2,
                               overlap_sm=8, overlap_dim="s")]
    from llm_energy.spec_lang import ModelSpec
    spec = ModelSpec(tuple(ops), 1)
    with pytest.raises(ValidationError):
        lower_model(spec, dims_8b, PhaseContext(DECODE, 1, 64, 4),
                    {"tp": 2, "ep": 1, "cp": 1})


def test_decode_positions():
    # Every position 1..osl, each once: the exact sum, no sample.
    assert decode_positions(1) == range(1, 2)
    assert list(decode_positions(5)) == [1, 2, 3, 4, 5]
    assert len(decode_positions(777)) == 777


def _context_ops_spec():
    """Decode context ops of every kernel form, besides the attention
    fixtures': a memory op sized by its output, an outer product, GEMMs
    with N = 1 and with z in M, and an op whose z is sharded by tp."""
    return ModelSpec((
        _op("bKz->bKz", label="Scale"),
        _op("bKz,bKh->bKzh", label="Outer"),
        _op("bKzh,bKh->bKz", parallel="K", label="Narrow"),
        _op("bKzh,bKhw->bKzw", parallel="K", label="Wide"),
        _op("bKzh,hm->bKzm", parallel="z", label="Sharded"),
    ), 1)


@pytest.mark.parametrize("tp", [1, 2])
def test_line_steps_are_decided_from_the_compiled_sizes(tp):
    # A context step has a line form when z is a factor, unsharded, of at
    # most one size product per GEMM axis; read at any z, its line is the
    # kernel that lowering gives there. z sharded by tp > 1 is not affine,
    # so that step is lowered as columns over the positions.
    dims = load_bindings(fixture_path("llama3_8b.json")).with_sizes(w=64)
    plan = compile_layer(_context_ops_spec(), dims, {"tp": tp, "ep": 1, "cp": 1},
                         DECODE)
    assert [(step.label, step.reads_context, step.line) for step in plan.steps] == [
        ("Scale", True, True), ("Outer", True, True), ("Narrow", True, True),
        ("Wide", True, True), ("Sharded", True, tp == 1)]
    for z in (2, 518, 4096):  # z sharded by 2 must divide
        lowered = plan.lower(PhaseContext(DECODE, 3, z - 1, osl=1))
        decoded = plan.lower_decode({"b": 3, "s": 1}, range(z, z + 1))
        assert [type(op.kernels[0]).__name__ for op in decoded] == [
            "MemoryOpLine", "MemoryOpLine", "MemoryOpLine", "GemmLine",
            "GemmLine" if tp == 1 else "GemmColumns"]
        for step, got, op in zip(plan.steps, decoded, lowered):
            kernel = got.kernels[0] if step.line else _column_kernel(got.kernels[0], 0)
            assert (got.label, len(got.kernels)) == (op.label, 1)
            assert _line_kernel(kernel, z) == _line_kernel(op.kernels[0], z)


@pytest.mark.parametrize("isl, osl, error", [
    (511, 1, None),
    (511, 3, "symbol 'z' size 513 not divisible by degree 2"),  # position 2
    (512, 1, "symbol 'z' size 513 not divisible by degree 2")])  # position 1
def test_decode_error_is_the_first_failing_positions(hw, roofline, comm_backend,
                                                      isl, osl, error):
    # z sharded by tp 2 must divide at every position: the error raised is
    # the first position's first in stream order, or else the earliest
    # failing position's.
    dims = load_bindings(fixture_path("llama3_8b.json")).with_sizes(w=64)
    est = Estimator(_context_ops_spec(), dims, hw, roofline, comm_backend)
    ctx = PhaseContext(DECODE, 3, isl, osl=osl)
    if error is None:
        assert est.estimate(ctx, {"tp": 2}).feasible
        return
    with pytest.raises(ValidationError, match=f"^{error}$"):
        est.estimate(ctx, {"tp": 2})


_FIXTURE_PAIRS = (
    ("dense_fused", "llama3_8b"), ("dense_fused", "llama3_70b"),
    ("dense_unfused", "llama3_8b"), ("dense_unfused", "llama3_70b"),
    ("dense_fused_cp", "llama3_8b"), ("dense_fused_cp", "llama3_70b"),
    ("moe_fused", "qwen3_30b_a3b"),
)
_DEGREES = st.sampled_from([1, 2, 3, 4, 8])


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from(_FIXTURE_PAIRS), tp=_DEGREES, ep=_DEGREES,
       cp=_DEGREES, runtime=st.tuples(*[st.integers(1, 64)] * 4))
def test_operand_bytes_shards_conserve_total(pair, tp, ep, cp, runtime):
    spec = load_model_spec(fixture_path(f"{pair[0]}.json"))
    b, s, z, t = runtime
    dims = load_bindings(fixture_path(f"{pair[1]}.json")).with_sizes(
        b=b, s=s, z=z, T=t)
    degrees = {"tp": tp, "ep": ep, "cp": cp}
    for op in _flatten_ops(spec):
        shards = op_shards(op, degrees)
        for operand in (*op.equation.input_operands, op.equation.output_operand):
            cut = {sym: deg for sym, deg in shards.items() if sym in operand}
            if all(dims.size(sym) % deg == 0 for sym, deg in cut.items()):
                assert (operand_bytes(operand, dims, shards) * math.prod(cut.values())
                        == operand_bytes(operand, dims, {}))
            else:
                with pytest.raises(ValidationError):
                    operand_bytes(operand, dims, shards)


# -- compiled plans against lowering from scratch ------------------------------

def _column_kernel(col, i):
    """The descriptor that kernel columns ``col`` hold at position ``i``."""
    if isinstance(col, GemmColumns):
        return GemmDescriptor(col.group_count[i], col.m[i], col.contraction[i],
                              col.n[i], col.dtype_bytes, col.label,
                              col.sm_available)
    if isinstance(col, CommColumns):
        return CommDescriptor(col.kind, col.bytes[i], col.world, col.sm_count,
                              col.label)
    return MemoryOpDescriptor(col.bytes[i], col.flops[i], col.label)


def _line_kernel(kernel, z):
    """A kernel's label and sizes at ``z``: read off a descriptor, or off a
    line (see GemmLine) with the same factors multiplied in another order,
    so equal up to rounding. A memory op's FLOPs are not priced, and a line
    does not carry them."""
    if isinstance(kernel, GemmLine):
        return (kernel.label, *(pytest.approx(c + s * z, rel=1e-15, abs=0)
                                for c, s in kernel[:4]))
    if isinstance(kernel, MemoryOpLine):
        return kernel.label, pytest.approx(kernel.bytes[0] + kernel.bytes[1] * z,
                                           rel=1e-15, abs=0)
    if isinstance(kernel, GemmDescriptor):
        return (kernel.label, kernel.group_count, kernel.m, kernel.contraction,
                kernel.n)
    return kernel.label, kernel.bytes


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValidationError, ValueError) as exc:
        return type(exc), str(exc)


_PLAN_SPECS = ("dense_fused", "dense_unfused", "dense_fused_cp", "moe_fused")
_PLAN_DIMS = {"dense_fused": ("llama3_8b", "llama3_70b"),
              "dense_unfused": ("llama3_70b",),
              "dense_fused_cp": ("llama3_8b",),
              "moe_fused": ("qwen3_30b_a3b",)}


@settings(max_examples=200, deadline=None)
@given(spec_name=st.sampled_from(_PLAN_SPECS), pick=st.integers(0, 1),
       overlap=st.booleans(), tp=_DEGREES, ep=st.sampled_from([1, 2, 4]),
       cp=st.sampled_from([1, 2, 3]), phase=st.sampled_from([PREFILL, DECODE]),
       batch=st.integers(1, 9), isl=st.integers(1, 600),
       position=st.integers(1, 4), hidden=st.one_of(st.none(), st.integers(1, 5000)),
       moe_te=st.one_of(st.none(), st.tuples(
           st.integers(4, 448).map(lambda n: n / 7),
           st.integers(2, 192).map(lambda n: n / 3))))
@example(spec_name="moe_fused", pick=0, overlap=False, tp=2, ep=4, cp=1,
         phase=PREFILL, batch=3, isl=100, position=1, hidden=3001,
         moe_te=(4 / 7, 8 / 3))
@example(spec_name="dense_fused_cp", pick=0, overlap=True, tp=1, ep=1, cp=2,
         phase=PREFILL, batch=2, isl=64, position=1, hidden=None, moe_te=None)
@example(spec_name="dense_fused", pick=1, overlap=False, tp=2, ep=1, cp=1,
         phase=DECODE, batch=3, isl=100, position=2, hidden=None, moe_te=None)
def test_plan_lowers_like_reference(annotate_overlap, spec_name, pick, overlap,
                                    tp, ep, cp, phase, batch, isl, position,
                                    hidden, moe_te):
    # Covers indivisible shards (K = 8 by tp 3, s by cp), decode overlap,
    # overlap without a collective at tp 1, an overlap setting no op takes
    # (the cp spec has no sharded op), and MoE ops without statistics. In
    # decode, the lowering over positions position..osl holds, position by
    # position, the ops lowered from scratch: a step that reads the context
    # as columns or as a line, any other as one point.
    # The MoE spec gains an op whose sizes interleave the fractional T with
    # bound sizes (an odd hidden size m, f = 3 * 256), so that a product
    # taken in another factor order differs in its last bits.
    spec = load_model_spec(fixture_path(f"{spec_name}.json"))
    if spec_name == "moe_fused":
        spec = ModelSpec(spec.ops + (_op("Tmf->Tmf", label="Spread"),), spec.layers)
    setting = (2, 8) if overlap else None
    annotated = annotate_overlap(spec, *setting) if overlap else spec
    dims_names = _PLAN_DIMS[spec_name]
    dims = load_bindings(fixture_path(f"{dims_names[pick % len(dims_names)]}.json"))
    if hidden is not None:
        dims = dims.with_sizes(m=hidden)
    degrees = {"tp": tp, "ep": ep, "cp": cp}
    ctx = PhaseContext(phase, batch, isl, osl=4, decode_position=position)
    want = _outcome(reference_lower, annotated, dims, ctx, degrees,
                    moe_te=moe_te)
    positions = list(range(position, ctx.osl + 1))
    steps = [_outcome(reference_lower, annotated, dims,
                      replace(ctx, decode_position=p), degrees, moe_te=moe_te)
             for p in positions]
    errors = [step for step in steps if isinstance(step, tuple)]
    want_columns = errors[0] if errors else steps
    if overlap and phase == DECODE:
        # A setting is prefill-only even on a spec with no op that takes it.
        want = want_columns = (ValidationError, "overlap is prefill-only")
    elif overlap and annotated == spec:
        want = (ValidationError, "overlap setting 2:8 applies to no op: none "
                                 "has both s and a sharded symbol that it sums")
    plan = compile_layer(spec, dims, degrees, phase, setting)
    for _ in range(2):  # a plan is reusable
        assert _outcome(plan.lower, ctx, moe_te=moe_te) == want
    if phase == DECODE:
        zs = [isl + p for p in positions]
        got = _outcome(plan.lower_decode, {"b": batch, "s": 1},
                       range(zs[0], zs[-1] + 1), moe_te=moe_te)
        if isinstance(want_columns, tuple):
            # The earliest failing position's first error in stream order.
            assert got == want_columns
            return
        for i, (z, want) in enumerate(zip(zs, want_columns)):
            assert len(got) == len(want)
            for step, op, ref in zip(plan.steps, got, want):
                assert ((op.label, op.is_moe, op.reads_context)
                        == (ref.label, ref.is_moe, ref.reads_context))
                if step.line:  # its one kernel, read at z
                    assert len(ref.kernels) == 1
                    assert (_line_kernel(op.kernels[0], z)
                            == _line_kernel(ref.kernels[0], z))
                    continue
                at = i if op.reads_context else 0
                assert tuple(_column_kernel(k, at) for k in op.kernels) == ref.kernels


def _lower_points(plan, points, moe_te):
    """Each prefill point's lowering from columns over ``points``: its
    LoweredOps, or the (type, message) of its error. A column with mixed
    kernel kinds is split by N = 1 and each part lowered again."""
    n = len(points)
    env = {"b": array("q", [b for b, _ in points]),
           "s": array("q", [isl for _, isl in points])}
    env["z"] = env["s"]
    if moe_te is not None:
        moe_te = tuple(array("d", [v] * n) for v in moe_te)
    errors = {}
    try:
        lowered = plan.lower_columns(env, n, moe_te, errors)
    except MixedColumns as mixed:
        out = [None] * n
        for flag in (True, False):
            part = [i for i in range(n) if mixed.ones[i] == flag]
            got = _lower_points(plan, [points[i] for i in part],
                                None if moe_te is None else (moe_te[0][0], moe_te[1][0]))
            for i, outcome in zip(part, got):
                out[i] = outcome
        return out

    def at(col, i):
        return None if col is None else _column_kernel(col, i)

    return [(type(errors[i]), str(errors[i])) if i in errors else [
        LoweredOp(op.label, tuple(_column_kernel(k, i) for k in op.kernels),
                  op.is_moe, False, op.overlap, at(op.gemm, i), at(op.collective, i))
        for op in lowered] for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(spec_name=st.sampled_from(_PLAN_SPECS), pick=st.integers(0, 1),
       overlap=st.sampled_from([None, (1, 8), (2, 8), (4, 200)]), tp=_DEGREES,
       ep=st.sampled_from([1, 2, 4]), cp=st.sampled_from([1, 2, 3]),
       points=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 600)),
                       min_size=1, max_size=6),
       moe_te=st.one_of(st.none(), st.tuples(
           st.integers(4, 448).map(lambda n: n / 7),
           st.integers(2, 192).map(lambda n: n / 3))))
@example(spec_name="dense_fused", pick=0, overlap=(2, 8), tp=2, ep=1, cp=1,
         points=[(1, 1), (2, 64), (3, 63)], moe_te=None)
@example(spec_name="dense_fused_cp", pick=0, overlap=None, tp=1, ep=1, cp=2,
         points=[(2, 64), (1, 255), (3, 9), (2, 8)], moe_te=None)
def test_prefill_columns_lower_like_reference_per_point(
        annotate_overlap, spec_name, pick, overlap, tp, ep, cp, points, moe_te):
    # Columns over (b, s) points: each point's kernels equal its lowering
    # from scratch, and each failing point gets its own first error (s by
    # cp or by tp, overlap without a collective at tp 1), while the other
    # points lower. At isl 1 the attention scores GEMM has N = 1 and
    # lowers as a memory op, so a column over isl 1 and more is split.
    spec = load_model_spec(fixture_path(f"{spec_name}.json"))
    annotated = annotate_overlap(spec, *overlap) if overlap else spec
    dims_names = _PLAN_DIMS[spec_name]
    dims = load_bindings(fixture_path(f"{dims_names[pick % len(dims_names)]}.json"))
    degrees = {"tp": tp, "ep": ep, "cp": cp}
    plan = compile_layer(spec, dims, degrees, PREFILL, overlap)
    if plan.error is not None:
        return
    want = [_outcome(reference_lower, annotated, dims,
                     PhaseContext(PREFILL, b, isl), degrees, moe_te=moe_te)
            for b, isl in points]
    assert _lower_points(plan, points, moe_te) == want


def test_three_operand_op_fails_where_lowering_meets_it(dims_8b):
    # The GEMM form is decided at compile time, but the error comes from
    # lowering, after the s shard of the first op fails.
    spec = ModelSpec((_op("bsm,mf->bsf", label="first", cp_dim="s"),
                      _op("bsf,fm,mk->bsk", label="three")), 1)
    dims = dims_8b.with_sizes(k=3)
    plan = compile_layer(spec, dims, {"tp": 1, "ep": 1, "cp": 2}, PREFILL)
    for isl, message in ((9, "not divisible by degree 2"),
                         (8, "GEMM extraction needs exactly two operands")):
        ctx = PhaseContext(PREFILL, 1, isl)
        got = _outcome(plan.lower, ctx)
        assert got == _outcome(reference_lower, spec, dims, ctx,
                               {"tp": 1, "ep": 1, "cp": 2})
        assert message in got[1]
