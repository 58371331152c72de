"""Report arithmetic, ETFT/EPOT, and the memory feasibility model."""

import pytest

from llm_energy import (
    MemoryModel,
    PhaseReport,
    ValidationError,
    build_memory_model,
    check_memory,
    epot,
    etft,
)
from llm_energy.metrics import ReportRow
from llm_energy.interpreter import DECODE, PREFILL, PhaseContext


def _report(phase, batch, osl, rows):
    r = PhaseReport(phase=phase, batch=batch, isl=1024, osl=osl, gpu_count=1)
    r.rows = [ReportRow(lbl, cat, lat, en) for lbl, cat, lat, en in rows]
    return r


def test_totals_are_row_sums():
    r = _report(PREFILL, 1, 1, [("a", "compute", 1.0, 100.0),
                                ("b", "compute", 1.0, 100.0)])
    assert r.total_latency == 2.0
    assert r.total_energy == 200.0
    cats = r.category_energy()
    assert sum(cats.values()) == r.total_energy


def test_etft_arithmetic():
    r = _report(PREFILL, 4, 1, [("a", "compute", 1.0, 200.0)])
    assert etft(r) == 50.0
    r1 = _report(PREFILL, 1, 1, [("a", "compute", 1.0, 200.0)])
    assert etft(r1) == r1.total_energy


def test_epot_arithmetic():
    r = _report(DECODE, 2, 100, [("a", "compute", 1.0, 1000.0)])
    assert epot(r) == 5.0
    r1 = _report(DECODE, 4, 1, [("a", "compute", 1.0, 120.0)])
    assert epot(r1) == 30.0


def test_metric_phase_guards():
    with pytest.raises(ValidationError):
        etft(_report(DECODE, 1, 1, []))
    with pytest.raises(ValidationError):
        epot(_report(PREFILL, 1, 1, []))


def test_report_dict_shape():
    r = _report(PREFILL, 2, 1, [("a", "compute", 1.0, 100.0)])
    d = r.to_dict()
    assert d["format_version"] == 1
    assert d["ttft_s"] == 1.0
    assert d["etft_j_per_request"] == 50.0
    d2 = _report(DECODE, 2, 10, [("a", "compute", 1.0, 100.0)]).to_dict()
    assert d2["tpot_s"] == pytest.approx(0.1)
    assert d2["epot_j_per_token"] == 5.0


def test_memory_model_linear_kv():
    mem = MemoryModel(weight_bytes=1e9, kv_unit_bytes=1000.0)
    assert mem.kv_bytes(2, 100) == 2 * mem.kv_bytes(1, 100)
    assert mem.kv_bytes(1, 200) == 2 * mem.kv_bytes(1, 100)
    assert mem.required(1, 100) == 1e9 + 100_000


def test_batch_times_context_constant():
    mem = MemoryModel(weight_bytes=0.0, kv_unit_bytes=4096.0)
    cap = 4096.0 * 147456
    products = {b * mem.max_context(b, cap) for b in (1, 2, 4, 8, 16)}
    assert products == {147456}


def test_check_memory_weights_exceed():
    from llm_energy import load_hardware_profile
    from llm_energy.fixtures import fixture_path
    hw = load_hardware_profile(fixture_path("a100_sxm_80g.json"))
    mem = MemoryModel(weight_bytes=hw.dram_capacity * 2, kv_unit_bytes=1.0)
    verdict = check_memory(mem, PhaseContext(PREFILL, 1, 128), hw)
    assert not verdict.feasible
    assert "weights" in verdict.reason


def test_check_memory_decode_peaks_at_isl_plus_osl(hw):
    mem = MemoryModel(weight_bytes=0.0, kv_unit_bytes=hw.dram_capacity / 1000)
    ok = check_memory(mem, PhaseContext(DECODE, 1, 500, 400), hw)
    assert ok.feasible
    over = check_memory(mem, PhaseContext(DECODE, 1, 500, 600), hw)
    assert not over.feasible


def test_build_memory_model_dense(dense_spec, dims_70b, hw):
    # 70B-shaped weights: fused QKV (m*i*K*h) + output (H*h*m) + gate&up
    # (m*F) + down (f*m), in bf16, 80 layers, sharded by TP.
    d = dims_70b.sizes
    per_layer = (d["m"] * d["i"] * d["K"] * d["h"] + d["H"] * d["h"] * d["m"]
                 + d["m"] * d["F"] + d["f"] * d["m"]) * 2
    for tp in (1, 8):
        mem = build_memory_model(dense_spec, dims_70b, {"tp": tp, "ep": 1, "cp": 1},
                                 layers=80)
        assert mem.weight_bytes == pytest.approx(per_layer * 80 / tp)
        expected_kv = 2 * d["K"] * d["h"] * 2 * 80 / tp
        assert mem.kv_unit_bytes == pytest.approx(expected_kv)


def test_kv_cache_follows_spec_annotations(cp_spec, dims_70b):
    # One layer of the QK and AV caches bKzh: 2 x K x h x 2 bytes = 4096 B
    # per token, split over the cp group by cp_dim K. The spec carries no
    # parallel annotation, so tp leaves the cache whole.
    for tp, cp, kv in ((1, 1, 4096), (1, 2, 2048), (1, 4, 1024), (2, 1, 4096)):
        mem = build_memory_model(cp_spec, dims_70b,
                                 {"tp": tp, "ep": 1, "cp": cp}, layers=1)
        assert mem.kv_unit_bytes == kv


def test_spec_without_attention_holds_no_kv_cache(dims_8b, hw):
    from llm_energy import parse_model_spec
    mlp = parse_model_spec({"ops": [
        {"eq": "bsm,mf->bsf", "parallel": "f", "label": "Up"},
        {"eq": "bsf,fm->bsm", "parallel": "f", "label": "Down"}]})
    mem = build_memory_model(mlp, dims_8b, {"tp": 2, "ep": 1, "cp": 1}, 32)
    assert mem.kv_unit_bytes == 0
    assert mem.weight_bytes == 2 * 4096 * 14336 * 2 * 32 / 2
    verdict = check_memory(mem, PhaseContext(PREFILL, 8, 4096), hw)
    assert verdict.feasible and verdict.max_seq_at_batch is None


def test_doubling_tp_doubles_max_context(dense_spec, dims_70b, hw):
    m4 = build_memory_model(dense_spec, dims_70b, {"tp": 4, "ep": 1, "cp": 1}, 80)
    m8 = build_memory_model(dense_spec, dims_70b, {"tp": 8, "ep": 1, "cp": 1}, 80)
    # KV-dominated capacity: discount weights to isolate the KV term.
    cap = hw.dram_capacity
    free4 = (cap - m4.weight_bytes) / m4.kv_unit_bytes
    free8 = (cap - m8.weight_bytes) / m8.kv_unit_bytes
    assert free8 > free4  # more TP leaves room for more KV tokens
    assert m4.kv_unit_bytes == pytest.approx(2 * m8.kv_unit_bytes)


def test_infeasible_point_matches_check_memory(dense_spec, dims_70b, hw,
                                               roofline, comm_backend):
    from llm_energy import Estimator
    est = Estimator(dense_spec, dims_70b, hw, roofline, comm_backend)
    degrees = {"tp": 2, "ep": 1, "cp": 1}
    ctx = PhaseContext(PREFILL, batch=64, isl=131072)
    verdict = check_memory(est.memory_model(degrees), ctx, hw)
    report = est.estimate(ctx, degrees)
    assert not verdict.feasible
    assert not report.feasible
    assert report.infeasible_reason == verdict.reason
