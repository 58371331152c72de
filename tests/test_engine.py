"""End-to-end estimator behavior: accounting, MoE folding, overlap wiring."""

import dataclasses
import random

import pytest

from llm_energy import (
    Estimator,
    GemmCalibrationTable,
    PhaseContext,
    RoutingTrace,
    TableComputeBackend,
    ValidationError,
    apply_overlap_setting,
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
    LayerPlan,
    decode_positions,
    lower_model,
    reads_context,
)
from llm_energy.metrics import (
    CATEGORY_COMM,
    CATEGORY_COMPUTE,
    CATEGORY_EXPOSED,
    CATEGORY_MEMORY,
)
from llm_energy.moe import fold_imbalance
from llm_energy.spec_lang import validate_bindings


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


def test_decode_stride_consistency(dense_spec, dims_8b, hw, roofline,
                                   comm_backend):
    ctx = PhaseContext(DECODE, 2, 512, osl=32)
    exact = _est(dense_spec, dims_8b, hw, roofline, comm_backend,
                 decode_stride=1).estimate(ctx, {"tp": 2})
    sampled = _est(dense_spec, dims_8b, hw, roofline, comm_backend,
                   decode_stride=16).estimate(ctx, {"tp": 2})
    assert sampled.total_energy == pytest.approx(exact.total_energy, rel=0.01)
    assert epot(sampled) == pytest.approx(epot(exact), rel=0.01)


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


def test_apply_overlap_setting(dense_spec):
    spec = apply_overlap_setting(dense_spec, stages=4, sm_comm=16)
    annotated = [op.label for op in spec.ops if op.overlap_stage is not None]
    assert annotated == ["Output Projection", "Down Projection"]
    for op in spec.ops:
        if op.overlap_stage is not None:
            assert (op.overlap_stage, op.overlap_sm, op.overlap_dim) == (4, 16, "s")


def test_overlap_changes_category_split(dense_spec, dims_70b, hw, roofline,
                                        comm_backend):
    ctx = PhaseContext(PREFILL, 4, 4096)
    plain = _est(dense_spec, dims_70b, hw, roofline, comm_backend).estimate(
        ctx, {"tp": 8})
    ov_spec = apply_overlap_setting(dense_spec, 4, 16)
    ov = _est(ov_spec, dims_70b, hw, roofline, comm_backend).estimate(
        ctx, {"tp": 8})
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
    ov_spec = apply_overlap_setting(dense_spec, stages=1, sm_comm=16)
    degenerate = _est(ov_spec, dims_70b, hw, roofline, comm_backend).estimate(
        ctx, {"tp": 8})
    assert degenerate.total_latency == pytest.approx(plain.total_latency,
                                                     rel=1e-12)


def test_decode_overlap_rejected_by_estimator(dense_spec, dims_8b, hw,
                                              roofline, comm_backend):
    ov_spec = apply_overlap_setting(dense_spec, 2, 8)
    est = _est(ov_spec, dims_8b, hw, roofline, comm_backend)
    with pytest.raises(ValidationError):
        est.estimate(PhaseContext(DECODE, 1, 128, osl=4), {"tp": 2})


def test_tp_sharding_keeps_compute_energy_close(dense_spec, dims_70b, hw,
                                                roofline, comm_backend):
    ctx = PhaseContext(PREFILL, 4, 4096)
    reports = {tp: _est(dense_spec, dims_70b, hw, roofline, comm_backend)
               .estimate(ctx, {"tp": tp}) for tp in (2, 8)}
    comp = {tp: r.category_energy()["compute"] for tp, r in reports.items()}
    assert abs(comp[2] - comp[8]) / comp[8] < 0.05
    comm = {tp: r.category_energy()[CATEGORY_COMM] for tp, r in reports.items()}
    assert comm[8] > comm[2]


# -- decode: invariant kernels priced once, context kernels per position ----

def _per_position_rows(est, ctx, degrees):
    """Decode rows as priced position by position: at every sampled position,
    the routing statistics, the full lowering (twice for imbalanced MoE) and
    every kernel's price, weighted by layers x width."""
    degrees = validate_bindings(est.spec, est.dims, degrees).degrees
    gpus = est.gpu_count(degrees)
    rows = {}
    for position, width in decode_positions(ctx.osl, est.decode_stride):
        step = ctx.at_position(position)
        stats = est.routing_stats(step, degrees)
        lowered = lower_model(est.spec, est.dims, step, degrees,
                              moe_te=stats.avg if stats else None)
        lowered_max = None
        if stats is not None and not stats.balanced:
            lowered_max = lower_model(est.spec, est.dims, step, degrees,
                                      moe_te=stats.max)
        weight = est.layers() * width
        for idx, op in enumerate(lowered):
            for k_idx, kernel in enumerate(op.kernels):
                cost = est._price(kernel)
                if op.is_moe and lowered_max is not None:
                    cost = fold_imbalance(
                        cost, est._price(lowered_max[idx].kernels[k_idx]),
                        est.hw.p_idle)
                if isinstance(kernel, CommDescriptor):
                    category, scale = CATEGORY_COMM, 1
                elif isinstance(kernel, GemmDescriptor):
                    category, scale = CATEGORY_COMPUTE, gpus
                else:
                    category, scale = CATEGORY_MEMORY, gpus
                latency, energy = rows.get((op.label, category), (0.0, 0.0))
                rows[(op.label, category)] = (
                    latency + cost.latency * weight,
                    energy + cost.energy * scale * weight)
    return rows


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


_DENSE_CASES = [(spec, {"tp": tp}, None)
                for spec in ("dense_spec", "unfused_spec") for tp in (1, 2, 4)]
_MOE_CASES = [("moe_spec", {"tp": 2, "ep": 4}, None),
              ("moe_spec", {"tp": 2, "ep": 2}, "trace"),
              ("moe_spec", {"tp": 2, "ep": 4}, "trace")]
_CP_CASES = [("cp_decode_spec", {"cp": 2}, None)]


@pytest.mark.parametrize("stride, osl", [(1, 80), (64, 200)])
@pytest.mark.parametrize("backend", ["roofline", "table"])
@pytest.mark.parametrize("spec_name, degrees, routing",
                         _DENSE_CASES + _MOE_CASES + _CP_CASES)
def test_decode_matches_per_position_pricing(request, spec_name, degrees, routing,
                                             backend, stride, osl, hw,
                                             roofline, comm_backend):
    spec = request.getfixturevalue(spec_name)
    dims = request.getfixturevalue("dims_moe" if spec_name == "moe_spec"
                                   else "dims_8b")
    compute = roofline if backend == "roofline" else _table_backend(hw)
    est = _est(spec, dims, hw, compute, comm_backend, decode_stride=stride,
               routing_trace=_skewed_trace() if routing else None)
    ctx = PhaseContext(DECODE, 2, 512, osl=osl)
    if routing:
        assert not est.routing_stats(ctx, degrees).balanced
    report = est.estimate(ctx, degrees)
    expected = _per_position_rows(est, ctx, degrees)

    assert [(r.label, r.category) for r in report.rows] == list(expected)
    for row in report.rows:
        latency, energy = expected[(row.label, row.category)]
        assert row.latency == pytest.approx(latency, rel=1e-12)
        assert row.energy == pytest.approx(energy, rel=1e-12)
    assert report.total_latency == pytest.approx(
        sum(lat for lat, _ in expected.values()), rel=1e-12)
    assert report.total_energy == pytest.approx(
        sum(en for _, en in expected.values()), rel=1e-12)


@pytest.mark.parametrize("spec_name, degrees, routing", [
    ("dense_spec", {"tp": 2}, None),
    ("moe_spec", {"tp": 2, "ep": 4}, None),
    ("moe_spec", {"tp": 2, "ep": 4}, "trace")])
def test_decode_lowers_full_layer_once(request, monkeypatch, spec_name, degrees,
                                       routing, hw, roofline, comm_backend):
    spec = request.getfixturevalue(spec_name)
    dims = request.getfixturevalue("dims_moe" if spec_name == "moe_spec"
                                   else "dims_8b")
    calls = {"routing": 0, "kernels": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[key] += (sum(len(op.kernels) for op in result)
                           if key == "kernels" else 1)
            return result
        return wrapped

    osl = 40
    # Any routing statistics will do: they size kernels, not their count.
    full = lower_model(spec, dims, PhaseContext(DECODE, 2, 512, osl=osl),
                       validate_bindings(spec, dims, degrees).degrees,
                       moe_te=(16.0, 8.0) if spec_name == "moe_spec" else None)

    monkeypatch.setattr(LayerPlan, "lower", counting(LayerPlan.lower, "kernels"))
    monkeypatch.setattr(engine, "stats_from_trace",
                        counting(engine.stats_from_trace, "routing"))
    monkeypatch.setattr(engine, "uniform_routing",
                        counting(engine.uniform_routing, "routing"))
    est = _est(spec, dims, hw, roofline, comm_backend, decode_stride=1,
               routing_trace=_skewed_trace() if routing else None)
    report = est.estimate(PhaseContext(DECODE, 2, 512, osl=osl), degrees)
    assert report.feasible

    layer_kernels = sum(len(op.kernels) for op in full)
    # QK, AV and the score traffic: one kernel each, the only ones that
    # read the context in these specs.
    context_kernels = sum(len(op.kernels) for op in full if op.reads_context)
    assert context_kernels == 3
    # An imbalanced trace lowers the layer a second time for the bottleneck
    # GPU, once per phase.
    lowerings = 2 if routing else 1
    assert calls["routing"] == (1 if spec_name == "moe_spec" else 0)
    assert calls["kernels"] == (lowerings * layer_kernels
                                + (osl - 1) * context_kernels)


def test_reads_context_marks_attention_by_sub_equations(dense_spec, moe_spec):
    reading = {op.label for op in dense_spec.ops if reads_context(op)}
    assert reading == {"Attention"}
    attention = next(op for op in moe_spec.ops if op.is_attention)
    assert [reads_context(sub) for sub in attention.attn_eqs] == [True, True]
    assert not any(reads_context(op) for op in moe_spec.ops
                   if not op.is_attention)
