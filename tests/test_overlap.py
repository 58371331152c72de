"""Overlap plan latency/energy rules and the three-phase timeline."""

import pytest

from llm_energy import (
    CommDescriptor,
    GemmDescriptor,
    OverlapPlan,
    RooflineBackend,
    ValidationError,
    plan_overlap,
)
from llm_energy.interpreter import ALLREDUCE, GemmColumns
from llm_energy.overlap import StageColumns


def test_closed_form_substitution():
    plan = OverlapPlan(stages=4, sm_comm=16, t_first=3e-3, t_gemm_ov=3.5e-3,
                       t_comm_ov=1.2e-3, t_exposed=1e-3,
                       p_first=300.0, p_overlapped=250.0)
    assert plan.total_latency == pytest.approx(3e-3 + 1e-3 + 3.5e-3 * 3)
    assert plan.total_latency == pytest.approx(14.5e-3)


def test_hiding_bound():
    plan = OverlapPlan(stages=4, sm_comm=16, t_first=3e-3, t_gemm_ov=1.0e-3,
                       t_comm_ov=2.5e-3, t_exposed=1e-3,
                       p_first=300.0, p_overlapped=250.0)
    bound = plan.t_first + plan.t_exposed + (plan.stages - 1) * plan.t_gemm_ov
    assert plan.total_latency >= bound


def test_energy_constant_power_factorization():
    plan = OverlapPlan(stages=3, sm_comm=8, t_first=2e-3, t_gemm_ov=1e-3,
                       t_comm_ov=0.5e-3, t_exposed=0.4e-3,
                       p_first=200.0, p_overlapped=200.0)
    assert plan.total_energy == pytest.approx(200.0 * plan.total_latency)


def test_plan_overlap_stage1_degenerate(hw, comm_backend):
    backend = RooflineBackend(hw)
    g = GemmDescriptor(1, 4096, 8192, 8192, dtype_bytes=2, label="x")
    bytes_ = 4096 * 8192 * 2.0
    plan = plan_overlap(g, bytes_, world=8, stages=1, sm_comm=16,
                        overlap_dim_size=4096, compute_backend=backend,
                        comm_backend=comm_backend, total_sm=hw.total_sm)
    # Sequential lowering of the same op: full GEMM then full AllReduce.
    gemm_cost = backend.estimate_gemm(g)
    ar_cost = comm_backend.estimate(CommDescriptor(ALLREDUCE, bytes_, 8))
    assert plan.total_latency == gemm_cost.latency + ar_cost.latency
    # Power rule: the exposed collective is priced at GEMM power.
    assert plan.total_energy == pytest.approx(
        gemm_cost.energy + ar_cost.latency * gemm_cost.power)


def test_plan_overlap_multistage(hw, comm_backend):
    backend = RooflineBackend(hw)
    g = GemmDescriptor(1, 4096, 8192, 8192, dtype_bytes=2)
    plan = plan_overlap(g, 4096 * 8192 * 2.0, world=8, stages=4, sm_comm=16,
                        overlap_dim_size=4096, compute_backend=backend,
                        comm_backend=comm_backend, total_sm=hw.total_sm)
    assert plan.stages == 4
    # Phase i: full-SM 1/4 GEMM partition; phase ii uses fewer SMs, so it is
    # never faster than phase i.
    assert plan.t_gemm_ov >= plan.t_first
    assert plan.total_latency == (plan.t_first + plan.t_exposed
                                  + max(plan.t_gemm_ov, plan.t_comm_ov) * 3)
    assert plan.total_energy == plan.compute_energy + plan.exposed_energy


@pytest.mark.parametrize("stages", [1, 2, 4])
def test_stage_columns_serve_every_sm_comm_like_scalar_plans(hw, comm_backend,
                                                             stages):
    # One StageColumns per stage count, shared by settings with different
    # sm_comm: each plan equals plan_overlap at each point, bit for bit.
    backend = RooflineBackend(hw)
    ms = [4096.0, 512.0, 131072.0, 8.0]
    sizes = [m * 8192 * 2.0 for m in ms]
    g = GemmColumns([1.0] * 4, ms, [8192.0] * 4, [8192.0] * 4, dtype_bytes=2,
                    label="x")
    stage = StageColumns(g, sizes, 8, stages, backend, comm_backend, label="x")
    for sm_comm in (1, 16, 32, 100):
        got = stage.plan(sm_comm, hw.total_sm)
        for i, (m, size) in enumerate(zip(ms, sizes)):
            want = plan_overlap(GemmDescriptor(1.0, m, 8192.0, 8192.0, 2),
                                size, world=8, stages=stages, sm_comm=sm_comm,
                                overlap_dim_size=int(m), compute_backend=backend,
                                comm_backend=comm_backend, total_sm=hw.total_sm)
            assert (got.compute_latency[i], got.compute_energy[i],
                    got.t_exposed[i], got.exposed_energy[i]) == (
                want.compute_latency, want.compute_energy, want.t_exposed,
                want.exposed_energy)


def test_partition_overhead_dominated(hw, comm_backend):
    # Overhead-dominated small GEMM: a 1/stages partition costs strictly
    # more than 1/stages of the full kernel.
    backend = RooflineBackend(hw)
    g = GemmDescriptor(1, 64, 512, 512, dtype_bytes=2)
    full = backend.estimate_gemm(g).latency
    part = backend.estimate_gemm(g.partitioned(1.0 / 8)).latency
    assert part > full / 8


def test_divisibility_and_sm_validation(hw, comm_backend):
    backend = RooflineBackend(hw)
    g = GemmDescriptor(1, 100, 64, 64, dtype_bytes=2)
    with pytest.raises(ValidationError):
        plan_overlap(g, 1e6, 2, stages=3, sm_comm=8, overlap_dim_size=100,
                     compute_backend=backend, comm_backend=comm_backend,
                     total_sm=hw.total_sm)
    with pytest.raises(ValidationError):
        plan_overlap(g, 1e6, 2, stages=2, sm_comm=108, overlap_dim_size=100,
                     compute_backend=backend, comm_backend=comm_backend,
                     total_sm=108)


def test_effective_sm_tradeoff(hw, comm_backend):
    backend = RooflineBackend(hw)
    g = GemmDescriptor(1, 4096, 8192, 8192, dtype_bytes=2)
    plans = [plan_overlap(g, 4096 * 8192 * 2.0, 8, stages=4, sm_comm=sm,
                          overlap_dim_size=4096, compute_backend=backend,
                          comm_backend=comm_backend, total_sm=hw.total_sm)
             for sm in (1, 4, 16)]
    assert [p.sm_comm for p in plans] == [1, 4, 16]
    # More communication SMs never slows the RS chunk down.
    comm_lats = [p.t_comm_ov for p in plans]
    assert comm_lats == sorted(comm_lats, reverse=True)
