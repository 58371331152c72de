"""End-to-end estimator behavior: accounting, MoE folding, overlap wiring."""

import dataclasses
import functools
import json
import random
import re
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llm_energy import (
    CommBackend,
    Estimator,
    GemmCalibrationTable,
    PhaseContext,
    RooflineBackend,
    RoutingTrace,
    TableComputeBackend,
    ValidationError,
    epot,
    etft,
)
from llm_energy import engine
from llm_energy.fixtures import fixture_path
from llm_energy.interpreter import (
    DECODE,
    PREFILL,
    CommDescriptor,
    GemmDescriptor,
    GemmLine,
    LayerPlan,
    MemoryOpLine,
    compile_layer,
    lower_model,
)
from llm_energy.metrics import (
    CATEGORY_COMM,
    CATEGORY_EXPOSED,
    CATEGORY_MEMORY,
    ReportRow,
)
from llm_energy.spec_lang import (
    ModelSpec,
    OpSpec,
    parse_equation,
    parse_model_spec,
    validate_bindings,
)

import reference


def _est(spec, dims, hw, roofline, comm_backend, **kw):
    return Estimator(spec, dims, hw, roofline, comm_backend, **kw)


def test_prefill_report_structure(dense_spec, dims_8b, hw, roofline, comm_backend):
    est = _est(dense_spec, dims_8b, hw, roofline, comm_backend)
    report = est.estimate(PhaseContext(PREFILL, 2, 512), {"tp": 2})
    assert report.feasible
    labels = {r.label for r in report.rows}
    for op in ("QKV Projection", "Output Projection", "Down Projection"):
        assert op in labels
    comm_rows = [r for r in report.rows if r.category == CATEGORY_COMM]
    assert {r.label for r in comm_rows} == {"Output Projection", "Down Projection"}
    assert report.gpu_count == 2
    assert etft(report) == report.total_energy / 2


def test_layer_scaling(dense_spec, dims_8b, hw, roofline, comm_backend):
    # dims layers=32 overrides spec layers=1; totals scale linearly.
    est = _est(dense_spec, dims_8b, hw, roofline, comm_backend)
    r = est.estimate(PhaseContext(PREFILL, 1, 256), {"tp": 2})
    import dataclasses
    dims1 = dataclasses.replace(dims_8b, layers=1)
    r1 = _est(dense_spec, dims1, hw, roofline, comm_backend).estimate(
        PhaseContext(PREFILL, 1, 256), {"tp": 2})
    assert r.total_latency == pytest.approx(32 * r1.total_latency)
    assert r.total_energy == pytest.approx(32 * r1.total_energy)


def test_comm_energy_counted_once_compute_per_gpu(dense_spec, dims_8b, hw,
                                                  roofline, comm_backend):
    est = _est(dense_spec, dims_8b, hw, roofline, comm_backend)
    ctx = PhaseContext(PREFILL, 1, 256)
    report = est.estimate(ctx, {"tp": 2})
    from llm_energy.interpreter import lower_model, CommDescriptor
    lowered = lower_model(dense_spec, dims_8b, ctx, {"tp": 2, "ep": 1, "cp": 1})
    comm_energy = sum(
        comm_backend.estimate(k).energy
        for op in lowered for k in op.kernels if isinstance(k, CommDescriptor))
    assert report.category_energy()[CATEGORY_COMM] == pytest.approx(
        comm_energy * 32)  # once per event per layer, not per GPU


def test_moe_uniform_balanced_no_idle_term(moe_spec, dims_moe, hw, roofline,
                                           comm_backend):
    est = _est(moe_spec, dims_moe, hw, roofline, comm_backend)
    report = est.estimate(PhaseContext(PREFILL, 4, 1024), {"tp": 2, "ep": 4})
    assert report.feasible
    assert report.gpu_count == 4  # max(tp, ep) * cp
    stats = est.routing_stats(PhaseContext(PREFILL, 4, 1024), {"ep": 4})
    assert stats.balanced


def test_moe_trace_imbalance_raises_energy(moe_spec, dims_moe, hw, roofline,
                                           comm_backend):
    from llm_energy import RoutingTrace
    # Compute-bound prefill: all tokens land on GPU 0's eight experts, so
    # the bottleneck GPU carries 4x the average expert work.
    n = 2048
    skewed = RoutingTrace(tuple(tuple((0, 1, 2, 3, 4, 5, 6, 7)) for _ in range(n)))
    ctx = PhaseContext(PREFILL, 4, 512)
    balanced = _est(moe_spec, dims_moe, hw, roofline, comm_backend).estimate(
        ctx, {"ep": 4})
    traced = _est(moe_spec, dims_moe, hw, roofline, comm_backend,
                  routing_trace=skewed).estimate(ctx, {"ep": 4})
    assert traced.total_latency > balanced.total_latency


def test_moe_uniform_bottleneck_prices_whole_expert(moe_spec, dims_moe, hw,
                                                   roofline, comm_backend):
    # Batch-1 decode activates 8 of 128 experts. Over EP16 the bottleneck
    # GPU still holds one whole expert, as every GPU does over EP8, so the
    # expert GEMMs take as long at EP16 as at EP8. The reduction op is left
    # unsharded so that top-8 need not divide by EP16.
    import dataclasses
    spec = dataclasses.replace(moe_spec, ops=tuple(
        dataclasses.replace(op, parallel=None) if op.label == "Reduction" else op
        for op in moe_spec.ops))
    ctx = PhaseContext(DECODE, 1, 512, osl=1)
    moe_rows = ("Gate & Up Projection", "Down Projection")

    def latencies(ep):
        report = _est(spec, dims_moe, hw, roofline, comm_backend).estimate(
            ctx, {"ep": ep})
        return {r.label: r.latency for r in report.rows if r.label in moe_rows}

    ep16, ep8 = latencies(16), latencies(8)
    assert set(ep16) == set(moe_rows)
    for label in moe_rows:
        assert ep16[label] == pytest.approx(ep8[label], rel=1e-12)


def test_overlap_setting_applies_to_eligible_ops(dense_spec, dims_8b):
    degrees, ctx = {"tp": 2, "ep": 1, "cp": 1}, PhaseContext(PREFILL, 1, 512)
    plan = compile_layer(dense_spec, dims_8b, degrees)
    overlapped = {op.label: op.overlap for op in plan.lower(ctx, overlap=(4, 16))
                  if op.overlap}
    assert overlapped == {"Output Projection": (4, 16, "s"),
                          "Down Projection": (4, 16, "s")}
    assert [step.label for step, overlap in zip(
        plan.steps, plan.overlaps((4, 16), PREFILL)) if overlap] == list(overlapped)
    for bad in ((0, 4), (2, 0), (True, 4), (2.5, 4)):
        for phase in (PREFILL, DECODE):
            with pytest.raises(ValidationError, match="integers >= 1"):
                plan.overlaps(bad, phase)


def test_overlap_changes_category_split(dense_spec, dims_70b, hw, roofline,
                                        comm_backend):
    ctx = PhaseContext(PREFILL, 4, 4096)
    plain = _est(dense_spec, dims_70b, hw, roofline, comm_backend).estimate(
        ctx, {"tp": 8})
    ov = _est(dense_spec, dims_70b, hw, roofline, comm_backend).estimate(
        ctx, {"tp": 8}, overlap=(4, 16))
    assert plain.category_energy()[CATEGORY_EXPOSED] == 0.0
    assert ov.category_energy()[CATEGORY_EXPOSED] > 0.0
    # The overlapped ops' AllReduce disappears from the communication rows.
    assert (ov.category_energy()[CATEGORY_COMM]
            < plain.category_energy()[CATEGORY_COMM])


def test_overlap_stage1_latency_matches_sequential(dense_spec, dims_70b, hw,
                                                   roofline, comm_backend):
    ctx = PhaseContext(PREFILL, 4, 4096)
    plain = _est(dense_spec, dims_70b, hw, roofline, comm_backend).estimate(
        ctx, {"tp": 8})
    degenerate = _est(dense_spec, dims_70b, hw, roofline, comm_backend).estimate(
        ctx, {"tp": 8}, overlap=(1, 16))
    assert degenerate.total_latency == pytest.approx(plain.total_latency,
                                                     rel=1e-12)


def test_decode_overlap_rejected_by_estimator(dense_spec, dims_8b, hw,
                                              roofline, comm_backend):
    decode = PhaseContext(DECODE, 1, 128, osl=4)
    est = _est(dense_spec, dims_8b, hw, roofline, comm_backend)
    with pytest.raises(ValidationError, match="overlap is prefill-only"):
        est.estimate(decode, {"tp": 2}, overlap=(2, 8))
    # An overlap annotation on an attention sub-op (QK sharded over its
    # summed head dim h, so it ends in an AllReduce) is prefill-only too.
    attn = dense_spec.ops[1]
    qk = dataclasses.replace(attn.attn_eqs[0], parallel="h", overlap_stage=1,
                             overlap_sm=8, overlap_dim="s")
    attn = dataclasses.replace(attn, attn_eqs=(qk, *attn.attn_eqs[1:]))
    spec = ModelSpec((dense_spec.ops[0], attn, *dense_spec.ops[2:]), 1)
    est = _est(spec, dims_8b, hw, roofline, comm_backend)
    prefill = est.estimate(PhaseContext(PREFILL, 1, 128), {"tp": 2})
    assert prefill.category_energy()[CATEGORY_EXPOSED] > 0
    with pytest.raises(ValidationError, match="overlap is prefill-only"):
        est.estimate(decode, {"tp": 2})


def test_tp_sharding_keeps_compute_energy_close(dense_spec, dims_70b, hw,
                                                roofline, comm_backend):
    ctx = PhaseContext(PREFILL, 4, 4096)
    reports = {tp: _est(dense_spec, dims_70b, hw, roofline, comm_backend)
               .estimate(ctx, {"tp": tp}) for tp in (2, 8)}
    comp = {tp: r.category_energy()["compute"] for tp, r in reports.items()}
    assert abs(comp[2] - comp[8]) / comp[8] < 0.05
    comm = {tp: r.category_energy()[CATEGORY_COMM] for tp, r in reports.items()}
    assert comm[8] > comm[2]


# -- decode: invariant kernels priced once, context kernels as columns -------

def _skewed_trace():
    # Every token's eight experts come from the first 40 of 128, so GPU 0
    # carries most of the expert work at ep 2 and ep 4.
    rng = random.Random(11)
    return RoutingTrace(tuple(tuple(rng.sample(range(40), 8)) for _ in range(96)))


def _table_backend(hw):
    return TableComputeBackend(
        GemmCalibrationTable.load(fixture_path("gemm_synthetic.csv")), hw)


@pytest.fixture(scope="module")
def cp_decode_spec(cp_spec):
    """The cp fixture with batch as the cp layout and attention cut to QK,
    so the Output Projection's cp transition is sized by the QK scores:
    it changes with z although the projection does not read z."""
    def relayout(op):
        if op.is_attention:
            return dataclasses.replace(op, cp_dim=None, attn_eqs=op.attn_eqs[:1])
        return dataclasses.replace(op, cp_dim="b")
    return dataclasses.replace(cp_spec, ops=tuple(map(relayout, cp_spec.ops)))


@pytest.fixture(scope="module")
def moe_context_spec(moe_spec):
    """The MoE fixture plus an expert op that reads the context, so its
    columns are priced under both routing statistics and folded."""
    extra = OpSpec(equation=parse_equation("ETm,Ezm->ETz"), parallel="E",
                   label="Expert Context")
    return dataclasses.replace(moe_spec, ops=moe_spec.ops + (extra,))


_DENSE_CASES = [(spec, {"tp": tp}, None)
                for spec in ("dense_spec", "unfused_spec") for tp in (1, 2, 4)]
_MOE_CASES = [("moe_spec", {"tp": 2, "ep": 4}, None),
              ("moe_spec", {"tp": 2, "ep": 2}, "trace"),
              ("moe_spec", {"tp": 2, "ep": 4}, "trace")]
_CP_CASES = [("cp_decode_spec", {"cp": 2}, None)]
_CASES = (_DENSE_CASES + _MOE_CASES + _CP_CASES
          + [("moe_context_spec", {"tp": 2, "ep": 4}, "trace")])


def _oracle_case(k, backend, osl):
    spec_name, degrees, routing = _CASES[k]
    return pytest.param(spec_name, degrees, routing, backend, osl,
                        id=f"{spec_name}-degrees{k}-{routing}-{backend}-{osl}")


@pytest.mark.parametrize(
    "spec_name, degrees, routing, backend, osl",
    [_oracle_case(k, backend, osl) for k in range(len(_CASES))
     for backend in ("roofline", "table") for osl in (80, 200)]
    # Every position of a long decode: dense at tp 2, and cp 2, whose
    # AllToAll transition is a comm column.
    + [_oracle_case(1, "roofline", 4096), _oracle_case(9, "roofline", 4096)])
def test_decode_matches_per_position_pricing(request, spec_name, degrees, routing,
                                             backend, osl, hw,
                                             roofline, comm_backend):
    spec = request.getfixturevalue(spec_name)
    dims = request.getfixturevalue("dims_moe" if spec_name.startswith("moe")
                                   else "dims_8b")
    compute = roofline if backend == "roofline" else _table_backend(hw)
    est = _est(spec, dims, hw, compute, comm_backend,
               routing_trace=_skewed_trace() if routing else None)
    ctx = PhaseContext(DECODE, 2, 512, osl=osl)
    if routing:
        assert not est.routing_stats(ctx, degrees).balanced
    report = est.estimate(ctx, degrees)
    expected = reference.reference_rows(est, ctx, degrees)

    assert [(r.label, r.category) for r in report.rows] == list(expected)
    for row in report.rows:
        latency, energy = expected[(row.label, row.category)]
        assert row.latency == pytest.approx(latency, rel=1e-12, abs=0)
        assert row.energy == pytest.approx(energy, rel=1e-12, abs=0)
    assert report.total_latency == pytest.approx(
        sum(lat for lat, _ in expected.values()), rel=1e-12, abs=0)
    assert report.total_energy == pytest.approx(
        sum(en for _, en in expected.values()), rel=1e-12, abs=0)


def _decode_lowering(spec, dims, degrees):
    """The decode layer lowered at one position (see
    :meth:`LayerPlan.lower_decode`); any routing statistics will do."""
    degrees = validate_bindings(spec, dims, degrees).degrees
    plan = compile_layer(spec, dims, degrees)
    return plan.lower_decode({"b": 2, "s": 1}, range(514, 515),
                             moe_te=(16.0, 8.0))


def _closed_form_labels(est, degrees):
    """The labels of the decode rows that the estimator sums over z in
    closed form, and of the other rows of kernels that read the context."""
    lowered = _decode_lowering(est.spec, est.dims, degrees)
    closed = {op.label for op in lowered
              if isinstance(op.kernels[0], (GemmLine, MemoryOpLine))}
    return closed, {op.label for op in lowered if op.reads_context} - closed


@pytest.mark.parametrize("backend", ["roofline", "table"])
@pytest.mark.parametrize("spec_name, degrees, routing", [
    ("dense_spec", {"tp": 2}, None),
    ("moe_context_spec", {"tp": 2, "ep": 4}, "trace"),
    ("cp_decode_spec", {"cp": 2}, None)])
def test_decode_report_bytes_match_scalar_accumulation(
        request, spec_name, degrees, routing, backend, hw, roofline,
        comm_backend):
    # Rows of kernels that do not read the context are priced once and
    # weighted by the whole phase, as the reference does with
    # invariant_once: their bytes are the same. Rows of context kernels,
    # summed over z in closed form or over the positions as columns (the
    # cp transition, the folded MoE expert op), are a
    # reassociated sum: at every osl they agree within the tolerance stated
    # for them, a relative 1e-12.
    spec = request.getfixturevalue(spec_name)
    dims = request.getfixturevalue("dims_moe" if spec_name.startswith("moe")
                                   else "dims_8b")
    compute = roofline if backend == "roofline" else _table_backend(hw)
    est = _est(spec, dims, hw, compute, comm_backend,
               routing_trace=_skewed_trace() if routing else None)
    closed, columns = _closed_form_labels(est, degrees)
    assert closed and bool(columns) == (spec_name != "dense_spec")
    for osl in (1, 300):
        ctx = PhaseContext(DECODE, 2, 512, osl=osl)
        report = est.estimate(ctx, degrees)
        expected = reference.reference_rows(est, ctx, degrees, invariant_once=True)
        assert [(r.label, r.category) for r in report.rows] == list(expected)
        rows = []
        for row in report.rows:
            latency, energy = expected[(row.label, row.category)]
            if row.label in closed | columns:
                assert row.latency == pytest.approx(latency, rel=1e-12, abs=0)
                assert row.energy == pytest.approx(energy, rel=1e-12, abs=0)
                latency, energy = row.latency, row.energy
            rows.append(ReportRow(row.label, row.category, latency, energy))
        assert (json.dumps(report.to_dict(), indent=2, sort_keys=True)
                == json.dumps(dataclasses.replace(report, rows=rows).to_dict(),
                              indent=2, sort_keys=True))


_PRICING = [(RooflineBackend, name) for name in (
    "estimate_gemm", "estimate_memory_op", "estimate_gemm_columns",
    "estimate_memory_op_columns", "estimate_gemm_sum", "estimate_memory_op_sum")
] + [(CommBackend, "estimate"), (CommBackend, "estimate_columns")]


@pytest.mark.parametrize("spec_name, degrees, routing", [
    ("dense_spec", {"tp": 2}, None),
    ("moe_spec", {"tp": 2, "ep": 4}, None),
    ("moe_spec", {"tp": 2, "ep": 4}, "trace")])
def test_decode_lowers_full_layer_once(
        request, monkeypatch, spec_name, degrees, routing, hw, roofline,
        comm_backend):
    # The layer is lowered once for the whole phase, each step that does
    # not read the context as one-point columns, and each context kernel is
    # summed over the positions in closed form: no lowering or pricing call
    # is repeated per position, whatever osl is, and no descriptor is
    # lowered.
    spec = request.getfixturevalue(spec_name)
    dims = request.getfixturevalue("dims_moe" if spec_name.startswith("moe")
                                   else "dims_8b")
    calls = {}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[key] = calls.get(key, 0) + 1
            if key == "lower_decode":
                # The bottleneck GPU's lowering maps stream indices to the
                # MoE ops' columns.
                ops = result.values() if isinstance(result, dict) else result
                calls["kernels"] = calls.get("kernels", 0) + sum(
                    len(op.kernels) for op in ops)
            return result
        return wrapped

    # Any routing statistics will do: they size kernels, not their count.
    full = lower_model(spec, dims, PhaseContext(DECODE, 2, 512, osl=2),
                       validate_bindings(spec, dims, degrees).degrees,
                       moe_te=(16.0, 8.0) if spec_name == "moe_spec" else None)
    layer_kernels = sum(len(op.kernels) for op in full)
    moe_kernels = sum(len(op.kernels) for op in full if op.is_moe)

    for name in ("lower", "lower_columns", "lower_decode"):
        monkeypatch.setattr(LayerPlan, name, counting(getattr(LayerPlan, name), name))
    for owner, name in _PRICING:
        monkeypatch.setattr(owner, name, counting(getattr(owner, name), name))
    monkeypatch.setattr(engine, "stats_from_trace",
                        counting(engine.stats_from_trace, "routing"))
    monkeypatch.setattr(engine, "uniform_routing",
                        counting(engine.uniform_routing, "routing"))
    est = _est(spec, dims, hw, roofline, comm_backend,
               routing_trace=_skewed_trace() if routing else None)
    # An imbalanced trace lowers the layer's MoE ops a second time for the
    # bottleneck GPU, once per phase; no op that reads the context is an
    # MoE op, so every context kernel has a closed form and no other
    # columns are lowered.
    lowerings = 2 if routing else 1
    kernels = layer_kernels + (moe_kernels if routing else 0)
    assert 0 < moe_kernels < layer_kernels or spec_name == "dense_spec"
    counts = []
    for osl in (40, 400, 4000):
        calls.clear()
        report = est.estimate(PhaseContext(DECODE, 2, 512, osl=osl), degrees)
        assert report.feasible
        # A trace's statistics are taken on its first estimate and kept.
        assert calls.pop("routing", 0) == (spec_name == "moe_spec"
                                           and (not routing or osl == 40))
        assert (calls["lower_decode"], calls["kernels"], calls.get("lower"),
                calls.get("lower_columns")) == (lowerings, kernels, None, None)
        counts.append(dict(calls))
    assert counts[0] == counts[1] == counts[2]


@pytest.mark.parametrize("degrees", [{"tp": 2}, {"tp": 2, "cp": 2}])
def test_decode_column_pricing_is_independent_of_osl(dense_spec, dims_8b, hw,
                                                     roofline, comm_backend,
                                                     monkeypatch, degrees):
    # The elements that the backends price as columns on a dense decode:
    # as many at osl 64 as at osl 4096. The fused fixture has no cp layout,
    # so cp 2 changes no kernel: its rows and latencies are cp 1's, bit for
    # bit (energies count twice the GPUs).
    priced = []

    def counting(fn, size):
        def wrapped(self, kernel):
            priced[-1] += len(size(kernel))
            return fn(self, kernel)
        return wrapped

    for owner, name, size in (
            (RooflineBackend, "estimate_gemm_columns", lambda g: g.m),
            (RooflineBackend, "estimate_memory_op_columns", lambda m: m.bytes),
            (CommBackend, "estimate_columns", lambda c: c.bytes)):
        monkeypatch.setattr(owner, name, counting(getattr(owner, name), size))
    est = _est(dense_spec, dims_8b, hw, roofline, comm_backend)
    for osl in (64, 4096):
        priced.append(0)
        ctx = PhaseContext(DECODE, 16, 4096, osl=osl)
        report = est.estimate(ctx, degrees)
        assert report.feasible
        assert ([(r.label, r.category, r.latency) for r in report.rows]
                == [(r.label, r.category, r.latency)
                    for r in est.estimate(ctx, {"tp": 2}).rows])
    assert priced[0] == priced[1]


def _low_peak(hw):
    """``hw`` with peak FLOPs so low that Llama3-8B's attention GEMMs turn
    compute bound at z = 600. Per group and unit of z, QK and AV do
    2 r h = 1024 FLOPs (r = 4, h = 128) and move (h + r) * 2 = 264 bytes,
    besides a fixed r h * 2 = 1024 bytes, so the two times meet where
    1024 z / peak = (1024 + 264 z) / bandwidth."""
    bandwidth = hw.mem_bw * hw.bandwidth_efficiency
    return dataclasses.replace(
        hw, peak_flops=bandwidth * 1024 / (264 + 1024 / 600) / hw.compute_efficiency)


def test_low_peak_profile_puts_the_roofline_crossover_inside_the_decode(
        dense_spec, dims_8b, hw):
    # Positions 2..200 after isl 512 span z = 514..712; the fixture's
    # profile keeps the attention GEMMs memory bound over all of them.
    gemms = [op.kernels[0] for op in _decode_lowering(dense_spec, dims_8b, {"tp": 2})
             if isinstance(op.kernels[0], GemmLine)]
    assert len(gemms) == 2
    for profile, crosses in ((hw, False), (_low_peak(hw), True)):
        for g in gemms:
            bound = set()
            for z in (514, 712):
                d = GemmDescriptor(*(c + s * z for c, s in g[:4]), g.dtype_bytes)
                bound.add(d.bytes_moved / (profile.mem_bw * profile.bandwidth_efficiency)
                          > d.flops / (profile.peak_flops * profile.compute_efficiency))
            assert (len(bound) == 2) == crosses


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(["fused", "unfused"]), batch=st.integers(1, 64),
       isl=st.integers(1, 1200), osl=st.integers(1, 300),
       tp=st.sampled_from([1, 2, 4, 8]), backend=st.sampled_from(["roofline", "table"]),
       low_peak=st.booleans())
@example(spec="fused", batch=2, isl=512, osl=200, tp=2, backend="roofline",
         low_peak=True)
@example(spec="unfused", batch=64, isl=400, osl=300, tp=4, backend="roofline",
         low_peak=True)
def test_closed_form_decode_matches_per_position_sum(
        dense_spec, unfused_spec, dims_8b, hw, comm_backend, spec, batch, isl,
        osl, tp, backend, low_peak):
    # Every row and both totals within a relative 1e-12 of the independent
    # position-by-position loop, the roofline crossover inside the z range
    # or not, the first and last positions included.
    profile = _low_peak(hw) if low_peak else hw
    compute = RooflineBackend(profile) if backend == "roofline" else _table_backend(profile)
    est = _est(dense_spec if spec == "fused" else unfused_spec, dims_8b, profile,
               compute, comm_backend)
    ctx = PhaseContext(DECODE, batch, isl, osl=osl)
    report = est.estimate(ctx, {"tp": tp})
    assert report.feasible
    expected = reference.reference_rows(est, ctx, {"tp": tp})
    assert [(r.label, r.category) for r in report.rows] == list(expected)
    for row in report.rows:
        latency, energy = expected[(row.label, row.category)]
        assert row.latency == pytest.approx(latency, rel=1e-12, abs=0)
        assert row.energy == pytest.approx(energy, rel=1e-12, abs=0)
    assert report.total_latency == pytest.approx(
        sum(lat for lat, _ in expected.values()), rel=1e-12, abs=0)
    assert report.total_energy == pytest.approx(
        sum(en for _, en in expected.values()), rel=1e-12, abs=0)


def test_decode_steps_read_the_context_by_their_compiled_sizes(
        dense_spec, moe_spec, dims_8b, dims_moe, cp_decode_spec):
    # Attention's sub-equations and score read z; under cp, so does the cp
    # transition sized by the QK scores, but not an op that only follows
    # them. No op lowered in prefill reads the context: z = isl throughout.
    attention = {"Attention: QK", "Attention: score", "Attention: AV"}
    for spec, dims, degrees, reading in (
            (dense_spec, dims_8b, {"tp": 2}, attention),
            (moe_spec, dims_moe, {"tp": 2, "ep": 4}, attention),
            (cp_decode_spec, dims_8b, {"cp": 2},
             {"Attention: QK", "Attention: score", "Output Projection"})):
        assert {op.label for op in _decode_lowering(spec, dims, degrees)
                if op.reads_context} == reading
        degrees = validate_bindings(spec, dims, degrees).degrees
        assert not any(op.reads_context for op in compile_layer(
            spec, dims, degrees).lower(PhaseContext(PREFILL, 2, 512), (16.0, 8.0)))


@pytest.mark.parametrize("settings", [[(2, 4), None, (4, 16), (1, 8), (2, 108)],
                                      [None, (4, 16), (4, 32)]])
def test_prefill_settings_in_any_order_equal_scalar_estimates(
        dense_spec, dims_8b, hw, roofline, comm_backend, settings):
    # The sweep hands settings over sorted, no overlap first; in any order,
    # each setting's results are a fresh estimator's for that point and
    # setting alone, the ops it leaves un-overlapped keeping their
    # collectives, and each feasible point's totals the reference's.
    points = [(1, 512), (4, 510), (2, 4096), (64, 131072)]
    for tp in (1, 2):
        got = _est(dense_spec, dims_8b, hw, roofline, comm_backend
                   ).estimate_prefill_settings(points, {"tp": tp}, settings)
        want = []
        for setting in settings:
            results = []
            for batch, isl in points:
                est = _est(dense_spec, dims_8b, hw, roofline, comm_backend)
                ctx = PhaseContext(PREFILL, batch, isl)
                try:
                    report = est.estimate(ctx, {"tp": tp}, setting)
                except ValidationError as exc:
                    results.append((None, None, str(exc)))
                    continue
                if not report.feasible:
                    results.append((None, None, report.infeasible_reason))
                    continue
                rows = reference.reference_rows(est, ctx, {"tp": tp}, setting)
                results.append((sum(lat for lat, _ in rows.values()),
                                sum(en for _, en in rows.values()), ""))
            want.append(results)
        assert got == want
        assert any(point[2] == "" for results in got for point in results)


@pytest.mark.parametrize("backend", ["roofline", "table"])
@pytest.mark.parametrize("spec_name, degrees, routing, setting", [
    ("dense_spec", {"tp": 2}, None, None),
    ("dense_spec", {"tp": 2}, None, (4, 16)),
    ("unfused_spec", {"tp": 4}, None, (1, 8)),
    ("unfused_spec", {"tp": 1}, None, None),
    ("moe_spec", {"tp": 2, "ep": 4}, None, None),
    ("moe_spec", {"tp": 2, "ep": 4}, "trace", None),
    ("moe_context_spec", {"tp": 2, "ep": 2}, "trace", None),
    ("cp_spec", {"cp": 2}, None, None)])
def test_prefill_rows_match_reference(request, spec_name, degrees, routing,
                                      setting, backend, hw, roofline,
                                      comm_backend):
    # A prefill estimate's rows, each term in the reference's order, bit for
    # bit: overlapped ops planned, imbalanced MoE kernels folded, cp
    # transitions and the table's roofline fallback included.
    spec = request.getfixturevalue(spec_name)
    dims = request.getfixturevalue("dims_moe" if spec_name.startswith("moe")
                                   else "dims_8b")
    compute = roofline if backend == "roofline" else _table_backend(hw)
    est = _est(spec, dims, hw, compute, comm_backend,
               routing_trace=_skewed_trace() if routing else None)
    ctx = PhaseContext(PREFILL, 2, 512)
    if routing:
        assert not est.routing_stats(ctx, degrees).balanced
    report = est.estimate(ctx, degrees, setting)
    assert report.feasible
    assert [(r.label, r.category, r.latency, r.energy) for r in report.rows] == [
        (*key, *value) for key, value in
        reference.reference_rows(est, ctx, degrees, setting).items()]
    assert (report.category_energy()[CATEGORY_EXPOSED] > 0) == (setting is not None)


@pytest.mark.parametrize("tile, message", [
    pytest.param(0, "tile must be >= 1, got 0", id="0"),
    pytest.param(-16, "tile must be >= 1, got -16", id="-16"),
    pytest.param(10**400, "tile must be an integer that fits a float, "
                          "got one of 1329 bits", id="huge"),
    pytest.param(16.0, "tile must be an integer, got 16.0", id="float"),
])
def test_estimator_rejects_tile_below_one(dense_spec, dims_8b, hw, roofline,
                                          comm_backend, tile, message):
    # Checked for every spec, not only when an MoE op quantizes tokens; a
    # tile is an integer that a float can hold, as the CLI's --tile is.
    with pytest.raises(ValidationError) as error:
        Estimator(dense_spec, dims_8b, hw, roofline, comm_backend, tile=tile)
    assert str(error.value) == message


@pytest.mark.parametrize("backend", ["roofline", "table"])
def test_closed_form_decode_of_every_kernel_form(dims_8b, hw, roofline,
                                                comm_backend, backend):
    # Memory ops sized by their output or by every operand, GEMMs with
    # N = 1 and with z in M, each summed in closed form, and, under cp, a
    # GEMM that does not read z but follows one that does in the same cp
    # layout, priced once: within a relative 1e-12 of the
    # position-by-position loop.
    spec = ModelSpec(tuple(
        OpSpec(equation=parse_equation(eq), cp_dim="b", label=label, **kw)
        for eq, label, kw in (
            ("bKz->bKz", "Scale", {}),
            ("bKz,bKh->bKzh", "Outer", {}),
            ("bKzh,bKh->bKz", "Narrow", {"parallel": "K"}),
            ("bKzh,bKhw->bKzw", "Wide", {"parallel": "K"}),
            ("bKh,hm->bKm", "Constant", {}))), 1)
    dims = dims_8b.with_sizes(w=64)
    degrees = {"tp": 2, "cp": 2}
    compute = roofline if backend == "roofline" else _table_backend(hw)
    est = _est(spec, dims, hw, compute, comm_backend)
    closed, columns = _closed_form_labels(est, degrees)
    assert closed == {"Scale", "Outer", "Narrow", "Wide"}
    assert not columns
    ctx = PhaseContext(DECODE, 6, 3000, osl=700)
    report = est.estimate(ctx, degrees)
    expected = reference.reference_rows(est, ctx, degrees)
    assert [(r.label, r.category) for r in report.rows] == list(expected)
    for row in report.rows:
        latency, energy = expected[(row.label, row.category)]
        assert row.latency == pytest.approx(latency, rel=1e-12, abs=0)
        assert row.energy == pytest.approx(energy, rel=1e-12, abs=0)


@pytest.mark.parametrize("isl, osl, error", [
    (1, 5, "symbol 'z' size 3 not divisible by degree 2"),  # position 2
    (1, 1, None),
    (5, 3, "symbol 'z' size 7 not divisible by degree 2")])  # position 2
def test_decode_gemm_with_n_one_at_one_position(dims_8b, hw, roofline,
                                                comm_backend, isl, osl, error):
    # N = z / 2 is 1 at z = 2 only, which lowers the GEMM as a memory op
    # there, its own row. Every position is priced, so past one position an
    # odd z fails to shard over tp 2: the estimate raises the earliest
    # failing position's error, as the reference does position by position,
    # not the error of a column that mixes N = 1 with other N (an isl of 5
    # never reaches N = 1).
    spec = ModelSpec((OpSpec(equation=parse_equation("bKh,bKzh->bKz"),
                             parallel="z", label="Scores"),), 1)
    est = _est(spec, dims_8b, hw, roofline, comm_backend)
    ctx = PhaseContext(DECODE, 2, isl, osl=osl)
    if error is not None:
        for price in (est.estimate, functools.partial(reference.reference_rows, est)):
            with pytest.raises(ValidationError, match=f"^{error}$"):
                price(ctx, {"tp": 2})
        return
    report = est.estimate(ctx, {"tp": 2})
    expected = reference.reference_rows(est, ctx, {"tp": 2})
    assert [(r.label, r.category) for r in report.rows] == list(expected)
    assert [r.category for r in report.rows] == [CATEGORY_MEMORY]
    for row in report.rows:
        latency, energy = expected[(row.label, row.category)]
        assert row.latency == pytest.approx(latency, rel=1e-12, abs=0)
        assert row.energy == pytest.approx(energy, rel=1e-12, abs=0)


@pytest.mark.parametrize("bad", [2.5, 2.0, True])
def test_degree_that_is_not_an_integer_is_rejected(bad, dense_spec, dims_8b, hw,
                                                   roofline, comm_backend):
    # 2.5 was priced as tp 2, and 2.0 and True shared the memo entry of the
    # integer they equal; each estimator first validates the integer.
    message = f"^tp degree must be an integer, got {bad!r}$"
    ctx = PhaseContext(PREFILL, 2, 512)
    est = _est(dense_spec, dims_8b, hw, roofline, comm_backend)
    assert est.estimate(ctx, {"tp": int(bad)}).feasible
    with pytest.raises(ValidationError, match=message):
        est.estimate(ctx, {"tp": bad})
    est = _est(dense_spec, dims_8b, hw, roofline, comm_backend)
    points = [(2, 512), (4, 1024)]
    [priced] = est.estimate_prefill_settings(points, {"tp": int(bad)}, [None])
    assert all(latency is not None for latency, _, _ in priced)
    [results] = est.estimate_prefill_settings(points, {"tp": bad}, [None])
    assert results == [(None, None, message[1:-1])] * len(points)


_MEMORY_POINTS = [(1, 512), (2, 512), (2, 513), (4, 1000), (64, 131072)]


@pytest.mark.parametrize("case", ["exactly-full", "one-byte-over", "weights-over",
                                  "no-kv-cache-full", "no-kv-cache-over"])
def test_prefill_memory_verdicts_equal_check_memory(case, dense_spec, dims_8b, hw,
                                                    roofline, comm_backend):
    # A sweep tests each point with MemoryModel.fits and asks check_memory
    # only for the reason of a point that fails it: at the boundary, each
    # point is feasible exactly when check_memory says so, or carries its
    # reason.
    est = _est(dense_spec, dims_8b, hw, roofline, comm_backend)
    memory = est.memory_model(est._validated({"tp": 1}))
    if case.startswith("no-kv-cache"):
        memory = dataclasses.replace(memory, kv_unit_bytes=0.0)
    capacity = {"exactly-full": memory.required(2, 512),
                "one-byte-over": memory.required(2, 512) - 1,
                "weights-over": memory.weight_bytes - 1,
                "no-kv-cache-full": memory.weight_bytes,
                "no-kv-cache-over": memory.weight_bytes - 1}[case]
    tight = dataclasses.replace(hw, dram_capacity=capacity)
    est = _est(dense_spec, dims_8b, tight, roofline, comm_backend)
    est.memory_model = lambda degrees: memory
    [results] = est.estimate_prefill_settings(_MEMORY_POINTS, {"tp": 1}, [None])
    verdicts = [engine.check_memory(memory, PhaseContext(PREFILL, batch, isl), tight)
                for batch, isl in _MEMORY_POINTS]
    for (latency, energy, reason), verdict in zip(results, verdicts):
        if verdict.feasible:
            assert reason == "" and latency is not None and energy is not None
        else:
            assert (latency, energy, reason) == (None, None, verdict.reason)
    feasible = [verdict.feasible for verdict in verdicts]
    assert feasible == {"exactly-full": [True, True, False, False, False],
                        "one-byte-over": [True, False, False, False, False],
                        "weights-over": [False] * 5,
                        "no-kv-cache-full": [True] * 5,
                        "no-kv-cache-over": [False] * 5}[case]
    if case == "exactly-full":
        assert verdicts[1].required_bytes == capacity
    if case.endswith("over") and case != "one-byte-over":
        assert {verdict.reason for verdict in verdicts} == {
            "weights alone exceed DRAM capacity"}


@pytest.mark.parametrize("bad, message", [
    ((0, 512), "batch/isl/osl must be positive"),
    ((2, -1), "batch/isl/osl must be positive"),
    ((2.0, 512), "batch must be an integer, got 2.0"),
    ((2, True), "isl must be an integer, got True")])
def test_prefill_point_that_is_not_a_context_raises_its_error(
        bad, message, dense_spec, dims_8b, hw, roofline, comm_backend):
    # Behind a feasible and an infeasible point, and ahead of a good one.
    est = _est(dense_spec, dims_8b, hw, roofline, comm_backend)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        est.estimate_prefill_settings([(2, 512), (64, 131072), bad, (1, 128)],
                                      {"tp": 1}, [None])


# -- the bottleneck GPU's lowering of the MoE steps --------------------------------

# Top-8-of-128 routings: every expert routed four tokens; a skew onto the
# first 40 experts; one token, whose experts fall unevenly over the ranks.
_ROUTINGS = {
    "balanced": lambda: RoutingTrace(tuple(tuple((8 * t + j) % 128 for j in range(8))
                                           for t in range(64))),
    "skewed": lambda: _skewed_trace(),
    "one-row": lambda: RoutingTrace(((0, 3, 9, 17, 33, 65, 90, 127),)),
}


@pytest.mark.parametrize("tile", [1, 16, 64])
@pytest.mark.parametrize("ep", [1, 2, 4, 8])
@pytest.mark.parametrize("routing", list(_ROUTINGS))
def test_bottleneck_lowering_of_moe_steps_matches_reference(
        moe_spec, dims_moe, hw, roofline, comm_backend, routing, ep, tile):
    # The bottleneck GPU's lowering walks the MoE steps only: it is the
    # whole layer's lowering under the bottleneck's (T, E), restricted to
    # those steps, in prefill and in decode. The rows built from it equal
    # the reference's, which lowers the whole layer twice: bit for bit in
    # prefill, within the closed form's 1e-12 in decode.
    est = _est(moe_spec, dims_moe, hw, roofline, comm_backend, tile=tile,
               routing_trace=_ROUTINGS[routing]())
    degrees = validate_bindings(moe_spec, dims_moe, {"tp": 2, "ep": ep}).degrees
    stats = est.routing_stats(PhaseContext(PREFILL, 2, 512), degrees)
    assert stats.balanced == (routing == "balanced" or ep == 1)
    plan = compile_layer(moe_spec, dims_moe, degrees)  # for both phases
    for phase in (PREFILL, DECODE):
        assert list(plan.moe_steps) == [
            index for index, op in enumerate(plan.lower_columns(
                {"b": 2, "s": 1, "z": 513}, 1, stats.avg)) if op.is_moe]
        assert plan.moe_steps
        if phase == PREFILL:
            env = {"b": 2, "s": 512, "z": 512}
            full = plan.lower_columns(env, 1, stats.max)
            only = plan.lower_columns(env, 1, stats.max, moe_only=True)
        else:
            full = plan.lower_decode({"b": 2, "s": 1}, range(513, 553), stats.max)
            only = plan.lower_decode({"b": 2, "s": 1}, range(513, 553), stats.max,
                                     moe_only=True)
        assert only == {index: full[index] for index in plan.moe_steps}

        ctx = PhaseContext(phase, 2, 512, osl=40)
        report = est.estimate(ctx, degrees)
        expected = reference.reference_rows(est, ctx, degrees)
        assert [(r.label, r.category) for r in report.rows] == list(expected)
        for row in report.rows:
            latency, energy = expected[(row.label, row.category)]
            if phase == PREFILL:
                assert (row.latency, row.energy) == (latency, energy)
            else:
                assert row.latency == pytest.approx(latency, rel=1e-12, abs=0)
                assert row.energy == pytest.approx(energy, rel=1e-12, abs=0)


@pytest.fixture(scope="module")
def moe_between_spec():
    """An MoE op between two that shard a runtime symbol by tp: at tp 2 a
    point with an odd s fails before it, one with an odd b after it, each
    under the average's and the bottleneck's binding alike."""
    return parse_model_spec({"layers": 2, "ops": [
        {"eq": "bsm,mF->bsF", "parallel": "s", "label": "Up"},
        {"eq": "ETm,EmF->ETF", "parallel": "E", "label": "Experts"},
        {"eq": "bsF,Fm->bsm", "parallel": "b", "label": "Down"}]})


def test_lowering_errors_under_both_bindings_keep_message_and_precedence(
        moe_between_spec, dims_moe, hw, roofline, comm_backend):
    # Each point's reason in a sweep is the error that lowering it alone
    # meets first (the reference lowers the whole layer under the average,
    # then under the bottleneck's routing), and the one the estimate of
    # that point raises; walking every step for the bottleneck records the
    # same errors as walking the MoE steps only.
    spec, degrees = moe_between_spec, {"tp": 2, "ep": 4}
    est = _est(spec, dims_moe, hw, roofline, comm_backend,
               routing_trace=_skewed_trace())
    points = [(3, 511), (2, 512), (1, 1), (4, 6), (3, 6), (2, 7)]
    stats = est.routing_stats(PhaseContext(PREFILL, 1, 1), degrees)
    assert not stats.balanced
    [priced] = est.estimate_prefill_settings(points, degrees, [None])
    validated = validate_bindings(spec, dims_moe, degrees).degrees
    want = []
    for batch, isl in points:
        ctx = PhaseContext(PREFILL, batch, isl)
        try:
            for moe_te in (stats.avg, stats.max):
                reference.reference_lower(spec, dims_moe, ctx, validated, moe_te)
        except ValidationError as exc:
            want.append(str(exc))
            with pytest.raises(ValidationError) as raised:
                est.estimate(ctx, degrees)
            assert str(raised.value) == str(exc)
            continue
        want.append("")
    assert [reason for _, _, reason in priced] == want
    assert sorted(set(want)) == [
        "", "symbol 'b' size 3 not divisible by degree 2",
        "symbol 's' size 1 not divisible by degree 2",
        "symbol 's' size 511 not divisible by degree 2",
        "symbol 's' size 7 not divisible by degree 2"]

    plan = compile_layer(spec, dims_moe, validated)
    env = {"b": array("q", [b for b, _ in points]),
           "s": array("q", [s for _, s in points])}
    env["z"] = env["s"]
    moe_avg, moe_max = ([array("d", [x] * len(points)) for x in te]
                        for te in (stats.avg, stats.max))
    walked = []
    for moe_only in (False, True):
        errors = {}
        plan.lower_columns(env, len(points), moe_avg, errors)
        plan.lower_columns(env, len(points), moe_max, errors, moe_only=moe_only)
        walked.append({i: str(exc) for i, exc in errors.items()})
    assert walked[0] == walked[1] == {i: reason for i, reason in enumerate(want)
                                      if reason}

    # In decode, an odd batch fails after the MoE step, under both bindings.
    decode_spec = dataclasses.replace(spec, ops=(
        dataclasses.replace(spec.ops[0], parallel="F"), *spec.ops[1:]))
    est = _est(decode_spec, dims_moe, hw, roofline, comm_backend,
               routing_trace=_skewed_trace())
    with pytest.raises(ValidationError,
                       match="^symbol 'b' size 3 not divisible by degree 2$"):
        est.estimate(PhaseContext(DECODE, 3, 64, osl=5), degrees)
    assert est.estimate(PhaseContext(DECODE, 2, 64, osl=5), degrees).feasible


def test_one_plan_is_kept_for_every_phase_and_overlap_setting(
        dense_spec, dims_8b, hw, roofline, comm_backend, monkeypatch):
    # Every overlap setting and both phases lower the one plan of their
    # degrees: it is compiled once and kept in the memo, and a second call
    # with a setting gives the first's rows, which a fresh estimator also
    # gives.
    made = []
    compile_layer = engine.compile_layer

    def counting(*args):
        made.append(args)
        return compile_layer(*args)
    monkeypatch.setattr(engine, "compile_layer", counting)
    memo = {}
    ctx = PhaseContext(PREFILL, 2, 512)
    reports = []
    for setting in ((4, 16), (4, 16), (2, 4), None):
        est = _est(dense_spec, dims_8b, hw, roofline, comm_backend, memo=memo)
        reports.append(est.estimate(ctx, {"tp": 2}, setting))
    assert len(made) == 1
    est.estimate_prefill_settings([(2, 512), (4, 1024)], {"tp": 2}, [(4, 16), None])
    est.estimate(PhaseContext(DECODE, 2, 512, osl=4), {"tp": 2})
    assert len(made) == 1
    fresh = _est(dense_spec, dims_8b, hw, roofline, comm_backend)
    assert reports[1] == reports[0] == fresh.estimate(ctx, {"tp": 2}, (4, 16))
    assert reports[3] == fresh.estimate(ctx, {"tp": 2})
    assert [key for key in memo if key[0] == "plan"] == [
        ("plan", (("tp", 2), ("ep", 1), ("cp", 1)))]
