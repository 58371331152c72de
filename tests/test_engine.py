"""End-to-end estimator behavior: accounting, MoE folding, overlap wiring."""

import dataclasses
import json
import random

import pytest

from llm_energy import (
    Estimator,
    GemmCalibrationTable,
    PhaseContext,
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
    LayerPlan,
    compile_layer,
    decode_positions,
    lower_model,
    reads_context,
)
from llm_energy.metrics import (
    CATEGORY_COMM,
    CATEGORY_COMPUTE,
    CATEGORY_EXPOSED,
    CATEGORY_MEMORY,
    ReportRow,
)
from llm_energy.moe import fold_imbalance
from llm_energy.spec_lang import ModelSpec, OpSpec, parse_equation, validate_bindings


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


def test_overlap_setting_applies_to_eligible_ops(dense_spec, dims_8b):
    degrees, ctx = {"tp": 2, "ep": 1, "cp": 1}, PhaseContext(PREFILL, 1, 512)
    plan = compile_layer(dense_spec, dims_8b, degrees, PREFILL, overlap=(4, 16))
    overlapped = {op.label: op.overlap for op in plan.lower(ctx) if op.overlap}
    assert overlapped == {"Output Projection": (4, 16, "s"),
                          "Down Projection": (4, 16, "s")}
    for bad in ((0, 4), (2, 0), (True, 4), (2.5, 4)):
        with pytest.raises(ValidationError, match="integers >= 1"):
            compile_layer(dense_spec, dims_8b, degrees, PREFILL, overlap=bad)


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

def _per_position_rows(est, ctx, degrees, invariant_once=False):
    """Decode rows as priced position by position: at every sampled position,
    the routing statistics, the full lowering (twice for imbalanced MoE) and
    every kernel's price, weighted by layers x width. With
    ``invariant_once``, a kernel that does not read the context is added at
    the first position only, weighted by layers x osl, as the estimator adds
    it."""
    degrees = validate_bindings(est.spec, est.dims, degrees).degrees
    gpus = est.gpu_count(degrees)
    rows = {}
    for n, (position, width) in enumerate(
            decode_positions(ctx.osl, est.decode_stride)):
        step = ctx.at_position(position)
        stats = est.routing_stats(step, degrees)
        lowered = lower_model(est.spec, est.dims, step, degrees,
                              moe_te=stats.avg if stats else None)
        lowered_max = None
        if stats is not None and not stats.balanced:
            lowered_max = lower_model(est.spec, est.dims, step, degrees,
                                      moe_te=stats.max)
        for idx, op in enumerate(lowered):
            weight = est.layers() * width
            if invariant_once and not op.reads_context:
                if n:
                    continue
                weight = est.layers() * ctx.osl
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


def _oracle_case(k, backend, stride, osl):
    spec_name, degrees, routing = _CASES[k]
    return pytest.param(spec_name, degrees, routing, backend, stride, osl,
                        id=f"{spec_name}-degrees{k}-{routing}-{backend}-{stride}-{osl}")


@pytest.mark.parametrize(
    "spec_name, degrees, routing, backend, stride, osl",
    [_oracle_case(k, backend, stride, osl) for k in range(len(_CASES))
     for backend in ("roofline", "table") for stride, osl in ((1, 80), (64, 200))]
    # Every position of a long decode: dense at tp 2, and cp 2, whose
    # AllToAll transition is a comm column.
    + [_oracle_case(1, "roofline", 1, 4096), _oracle_case(9, "roofline", 1, 4096)])
def test_decode_matches_per_position_pricing(request, spec_name, degrees, routing,
                                             backend, stride, osl, hw,
                                             roofline, comm_backend):
    spec = request.getfixturevalue(spec_name)
    dims = request.getfixturevalue("dims_moe" if spec_name.startswith("moe")
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


@pytest.mark.parametrize("stride", [1, 64])
@pytest.mark.parametrize("backend", ["roofline", "table"])
@pytest.mark.parametrize("spec_name, degrees, routing", [
    ("dense_spec", {"tp": 2}, None),
    ("moe_context_spec", {"tp": 2, "ep": 4}, "trace"),
    ("cp_decode_spec", {"cp": 2}, None)])
def test_decode_report_bytes_match_scalar_accumulation(
        request, spec_name, degrees, routing, backend, stride, hw, roofline,
        comm_backend):
    # The columns add each row's terms position by position, kernel by
    # kernel, as scalar pricing did: the report's bytes are the same.
    spec = request.getfixturevalue(spec_name)
    dims = request.getfixturevalue("dims_moe" if spec_name.startswith("moe")
                                   else "dims_8b")
    compute = roofline if backend == "roofline" else _table_backend(hw)
    est = _est(spec, dims, hw, compute, comm_backend, decode_stride=stride,
               routing_trace=_skewed_trace() if routing else None)
    ctx = PhaseContext(DECODE, 2, 512, osl=300)
    report = est.estimate(ctx, degrees)
    expected = dataclasses.replace(report, rows=[
        ReportRow(label, category, latency, energy) for (label, category),
        (latency, energy) in _per_position_rows(est, ctx, degrees,
                                                invariant_once=True).items()])
    assert (json.dumps(report.to_dict(), indent=2, sort_keys=True)
            == json.dumps(expected.to_dict(), indent=2, sort_keys=True))


@pytest.mark.parametrize("spec_name, degrees, routing", [
    ("dense_spec", {"tp": 2}, None),
    ("moe_spec", {"tp": 2, "ep": 4}, None),
    ("moe_spec", {"tp": 2, "ep": 4}, "trace")])
def test_decode_lowers_full_layer_once(request, monkeypatch, spec_name, degrees,
                                       routing, hw, roofline, comm_backend):
    # The context kernels at positions 2..osl are lowered as columns in one
    # call, so no lowering is repeated per position, whatever osl is.
    spec = request.getfixturevalue(spec_name)
    dims = request.getfixturevalue("dims_moe" if spec_name.startswith("moe")
                                   else "dims_8b")
    calls = {}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[key] += 1
            if key == "lower":
                calls["kernels"] += sum(len(op.kernels) for op in result)
            return result
        return wrapped

    # Any routing statistics will do: they size kernels, not their count.
    full = lower_model(spec, dims, PhaseContext(DECODE, 2, 512, osl=2),
                       validate_bindings(spec, dims, degrees).degrees,
                       moe_te=(16.0, 8.0) if spec_name == "moe_spec" else None)
    layer_kernels = sum(len(op.kernels) for op in full)

    monkeypatch.setattr(LayerPlan, "lower", counting(LayerPlan.lower, "lower"))
    monkeypatch.setattr(LayerPlan, "lower_columns",
                        counting(LayerPlan.lower_columns, "columns"))
    monkeypatch.setattr(engine, "stats_from_trace",
                        counting(engine.stats_from_trace, "routing"))
    monkeypatch.setattr(engine, "uniform_routing",
                        counting(engine.uniform_routing, "routing"))
    est = _est(spec, dims, hw, roofline, comm_backend, decode_stride=1,
               routing_trace=_skewed_trace() if routing else None)
    # An imbalanced trace lowers the layer a second time for the bottleneck
    # GPU, once per phase; no op that reads the context is an MoE op, so
    # the columns are lowered once.
    lowerings = 2 if routing else 1
    for osl in (40, 400):
        calls.update(routing=0, lower=0, kernels=0, columns=0)
        report = est.estimate(PhaseContext(DECODE, 2, 512, osl=osl), degrees)
        assert report.feasible
        assert calls == {"routing": 1 if spec_name == "moe_spec" else 0,
                         "lower": lowerings,
                         "kernels": lowerings * layer_kernels,
                         "columns": 1}


def test_reads_context_marks_attention_by_sub_equations(dense_spec, moe_spec):
    reading = {op.label for op in dense_spec.ops if reads_context(op)}
    assert reading == {"Attention"}
    attention = next(op for op in moe_spec.ops if op.is_attention)
    assert [reads_context(sub) for sub in attention.attn_eqs] == [True, True]
    assert not any(reads_context(op) for op in moe_spec.ops
                   if not op.is_attention)


@pytest.mark.parametrize("settings", [[(2, 4), None, (4, 16), (1, 8), (2, 108)],
                                      [None, (4, 16), (4, 32)]])
def test_prefill_settings_in_any_order_equal_scalar_estimates(
        dense_spec, dims_8b, hw, roofline, comm_backend, settings):
    # The sweep hands settings over sorted, no overlap first; in any order,
    # each setting's results are the scalar estimate's, the ops it leaves
    # un-overlapped keeping their collectives.
    points = [(1, 512), (4, 510), (2, 4096), (64, 131072)]
    for tp in (1, 2):
        got = _est(dense_spec, dims_8b, hw, roofline, comm_backend
                   ).estimate_prefill_settings(points, {"tp": tp}, settings)
        want = []
        for setting in settings:
            results = []
            for batch, isl in points:
                try:
                    report = _est(dense_spec, dims_8b, hw, roofline, comm_backend
                                  ).estimate(PhaseContext(PREFILL, batch, isl),
                                             {"tp": tp}, setting)
                except ValidationError as exc:
                    results.append((None, None, str(exc)))
                    continue
                results.append((report.total_latency, report.total_energy, "")
                               if report.feasible else
                               (None, None, report.infeasible_reason))
            want.append(results)
        assert got == want


@pytest.mark.parametrize("tile", [0, -16])
def test_estimator_rejects_tile_below_one(dense_spec, dims_8b, hw, roofline,
                                          comm_backend, tile):
    # Checked for every spec, not only when an MoE op quantizes tokens.
    with pytest.raises(ValidationError, match=f"tile must be >= 1, got {tile}"):
        Estimator(dense_spec, dims_8b, hw, roofline, comm_backend, tile=tile)
