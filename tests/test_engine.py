"""End-to-end estimator behavior: accounting, MoE folding, overlap wiring."""

import pytest

from llm_energy import (
    Estimator,
    PhaseContext,
    ValidationError,
    apply_overlap_setting,
    epot,
    etft,
)
from llm_energy.interpreter import DECODE, PREFILL
from llm_energy.metrics import CATEGORY_COMM, CATEGORY_EXPOSED


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
