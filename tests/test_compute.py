"""Roofline and calibration-table compute backend tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llm_energy import (
    BackendError,
    GemmCalibrationTable,
    GemmDescriptor,
    HardwareProfile,
    MemoryOpDescriptor,
    RooflineBackend,
    TableComputeBackend,
    ValidationError,
    estimate_gemm,
    estimate_memory_op,
)
from llm_energy.compute import GemmCalibrationPoint
from llm_energy.fixtures import fixture_path


def _ideal_hw(**kw):
    base = dict(peak_flops=100e9, mem_bw=1e12, total_sm=100,
                dram_capacity=1e12, p_idle=80.0, p_max=400.0,
                kernel_launch_overhead=0.0, compute_efficiency=1.0,
                bandwidth_efficiency=1.0)
    base.update(kw)
    return HardwareProfile(**base)


def test_compute_bound_square_gemm():
    hw = _ideal_hw()
    g = GemmDescriptor(1, 4096, 4096, 4096, dtype_bytes=2)
    cost = estimate_gemm(g, hw)
    assert cost.latency == pytest.approx(2 * 4096 ** 3 / 100e9)
    assert cost.latency == pytest.approx(1.374, rel=1e-3)


def test_memory_bound_gemm_latency_is_memory_term():
    hw = _ideal_hw(peak_flops=1e18)  # compute term vanishes
    g = GemmDescriptor(1, 1, 8192, 8192, dtype_bytes=2)
    cost = estimate_gemm(g, hw)
    assert cost.latency == pytest.approx(g.bytes_moved / 1e12)


def test_sm_scaling_halves():
    hw = _ideal_hw()
    g = GemmDescriptor(1, 4096, 4096, 4096, dtype_bytes=2)
    full = estimate_gemm(g, hw).latency
    from dataclasses import replace
    half = estimate_gemm(replace(g, sm_available=50), hw).latency
    assert half == pytest.approx(2 * full)


def test_zero_sm_rejected():
    hw = _ideal_hw()
    from dataclasses import replace
    g = replace(GemmDescriptor(1, 4, 4, 4, 2), sm_available=0)
    with pytest.raises(ValidationError):
        estimate_gemm(g, hw)


def test_latency_floor_is_overhead():
    hw = _ideal_hw(kernel_launch_overhead=5e-6)
    tiny = GemmDescriptor(1, 1, 2, 2, 1)
    assert estimate_gemm(tiny, hw).latency >= 5e-6
    assert estimate_memory_op(MemoryOpDescriptor(0.0), hw).latency == 5e-6


def test_monotonicity():
    hw = _ideal_hw()
    base = estimate_gemm(GemmDescriptor(1, 256, 256, 256, 2), hw).latency
    more_flops = estimate_gemm(GemmDescriptor(1, 512, 256, 256, 2), hw).latency
    assert more_flops >= base


def test_power_bounds():
    hw = _ideal_hw(kernel_launch_overhead=5e-6)
    for g in (GemmDescriptor(1, 1, 8192, 8192, 2),
              GemmDescriptor(1, 4096, 4096, 4096, 2),
              GemmDescriptor(8, 64, 128, 256, 2)):
        p = estimate_gemm(g, hw).power
        assert hw.p_idle <= p <= hw.p_max
    p = estimate_memory_op(MemoryOpDescriptor(1 << 20), hw).power
    assert hw.p_idle <= p <= hw.p_max


def test_memory_op_formula():
    hw = _ideal_hw(mem_bw=2 ** 30)  # 1 GiB/s
    cost = estimate_memory_op(MemoryOpDescriptor(float(2 ** 30)), hw)
    assert cost.latency == pytest.approx(2.0)
    # Transposes share the generic memory-op path: same size, same price.
    a = estimate_memory_op(MemoryOpDescriptor(64 * 2 ** 20, label="transpose"), hw)
    b = estimate_memory_op(MemoryOpDescriptor(64 * 2 ** 20, label="generic"), hw)
    assert a == b


def test_energy_power_consistency():
    hw = _ideal_hw(kernel_launch_overhead=1e-6)
    cost = estimate_gemm(GemmDescriptor(1, 128, 128, 128, 2), hw)
    assert cost.energy == pytest.approx(cost.power * cost.latency)


def test_hw_profile_invariants():
    with pytest.raises(ValidationError):
        _ideal_hw(p_idle=500.0)
    with pytest.raises(ValidationError):
        _ideal_hw(compute_efficiency=0.0)
    with pytest.raises(ValidationError):
        _ideal_hw(total_sm=0)


def test_table_exact_hit():
    pts = [GemmCalibrationPoint(1, 256, 256, 256, 2, 1e-4, 300.0)]
    table = GemmCalibrationTable(pts)
    cost = table.estimate_gemm(GemmDescriptor(1, 256, 256, 256, 2))
    assert cost.latency == pytest.approx(1e-4)
    assert cost.power == pytest.approx(300.0)


def test_table_flop_ratio_scaling():
    pts = [GemmCalibrationPoint(1, 256, 256, 256, 2, 1e-4, 300.0)]
    table = GemmCalibrationTable(pts)
    cost = table.estimate_gemm(GemmDescriptor(1, 512, 256, 256, 2))
    assert cost.latency == pytest.approx(2e-4)


def test_table_nearest_in_log_space():
    pts = [GemmCalibrationPoint(1, 16, 16, 16, 2, 1e-5, 200.0),
           GemmCalibrationPoint(1, 4096, 4096, 4096, 2, 1e-2, 390.0),
           GemmCalibrationPoint(1, 256, 256, 256, 2, 1e-4, 300.0)]
    table = GemmCalibrationTable(pts)
    q = GemmDescriptor(1, 300, 300, 300, 2)
    cost = table.estimate_gemm(q)
    # Nearest neighbor is the 256-cube; latency scaled by the flops ratio.
    assert cost.power == pytest.approx(300.0)
    assert cost.latency == pytest.approx(1e-4 * q.flops / (2 * 256 ** 3))


def test_table_rejects_sm_restricted():
    table = GemmCalibrationTable([GemmCalibrationPoint(1, 16, 16, 16, 2, 1e-5, 200.0)])
    from dataclasses import replace
    with pytest.raises(BackendError):
        table.estimate_gemm(replace(GemmDescriptor(1, 16, 16, 16, 2),
                                    sm_available=50))


def test_empty_table_rejected():
    with pytest.raises(ValidationError):
        GemmCalibrationTable([])


def test_table_backend_substitutable(hw):
    table = GemmCalibrationTable.load(fixture_path("gemm_synthetic.csv"))
    backend = TableComputeBackend(table, hw)
    g = GemmDescriptor(1, 4096, 8192, 8192, 2)
    cost = backend.estimate_gemm(g)
    assert cost.latency > 0 and cost.energy > 0
    # SM-restricted queries fall back to the roofline instead of failing.
    from dataclasses import replace
    restricted = backend.estimate_gemm(replace(g, sm_available=64))
    assert restricted.latency > 0
    # Memory ops route to the roofline path.
    assert backend.estimate_memory_op(MemoryOpDescriptor(1024.0)).latency > 0


# Few distinct sizes, so tables often hold equidistant and duplicate points.
_GEMM_DIM = st.one_of(st.sampled_from([0.5, 1.0, 16.0, 256.0, 4096.0]),
                      st.floats(0.25, 1e5))


@settings(max_examples=300, deadline=None)
@given(dims=st.lists(st.tuples(*[_GEMM_DIM] * 4), min_size=1, max_size=12),
       query=st.tuples(*[_GEMM_DIM] * 4))
def test_nearest_is_first_least_log_distance(dims, query):
    table = GemmCalibrationTable([
        GemmCalibrationPoint(g, m, k, n, 2, 1e-4 * (i + 1), 300.0)
        for i, (g, m, k, n) in enumerate(dims)])
    gemm = GemmDescriptor(*query, dtype_bytes=2)

    def log_distance(p):
        dist = 0.0
        for a, b in ((gemm.m, p.m), (gemm.contraction, p.contraction),
                     (gemm.n, p.n), (gemm.group_count, p.group_count)):
            dist += (math.log(max(a, 1.0)) - math.log(max(b, 1.0))) ** 2
        return dist

    # min keeps the first of equal keys, so ties resolve to table order.
    assert table._nearest(gemm) is min(table.points, key=log_distance)
