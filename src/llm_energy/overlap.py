"""Megatron-style compute-communication overlap modeling.

An AllReduce-bearing GEMM is split into ``stages`` partitions along an
output-row dimension. The timeline has three phases: (i) the first GEMM
partition on all SMs, (ii) ``stages - 1`` overlapped stages, each the max
of the SM-restricted GEMM partition and an SM-restricted ReduceScatter
chunk, and (iii) one exposed AllGather. Power in phases (ii) and (iii) is
attributed via the GEMM estimate (most SMs and bandwidth serve compute,
and short exposed collectives do not reach steady-state NCCL power).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .comm import CommBackend
from .errors import ValidationError
from .interpreter import (
    ALLGATHER,
    ALLREDUCE,
    REDUCESCATTER,
    CommDescriptor,
    GemmDescriptor,
)


@dataclass(frozen=True)
class OverlapPlan:
    """Per-phase latencies and powers of one overlapped GEMM+collective pair."""

    stages: int
    sm_comm: int
    t_first: float  # phase i: partitioned GEMM, all SMs
    t_gemm_ov: float  # phase ii per stage: SM-restricted GEMM partition
    t_comm_ov: float  # phase ii per stage: SM-restricted ReduceScatter chunk
    t_exposed: float  # phase iii: exposed collective, default SMs
    p_first: float  # watts during phase i
    p_overlapped: float  # watts attributed to phases ii and iii
    label: str = ""

    def __post_init__(self):
        if min(self.t_first, self.t_gemm_ov, self.t_comm_ov, self.t_exposed) < 0:
            raise ValidationError("phase latencies must be nonnegative")

    @property
    def total_latency(self) -> float:
        return (self.t_first + self.t_exposed
                + max(self.t_gemm_ov, self.t_comm_ov) * (self.stages - 1))

    @property
    def compute_latency(self) -> float:
        return (self.t_first
                + max(self.t_gemm_ov, self.t_comm_ov) * (self.stages - 1))

    @property
    def compute_energy(self) -> float:
        return (self.t_first * self.p_first
                + max(self.t_gemm_ov, self.t_comm_ov) * (self.stages - 1)
                * self.p_overlapped)

    @property
    def exposed_energy(self) -> float:
        return self.t_exposed * self.p_overlapped

    @property
    def total_energy(self) -> float:
        return self.compute_energy + self.exposed_energy


def plan_overlap(g: GemmDescriptor, collective_bytes: float, world: int,
                 stages: int, sm_comm: int, overlap_dim_size: int,
                 compute_backend, comm_backend: CommBackend,
                 total_sm: int, label: str = "") -> OverlapPlan:
    """Build the three-phase plan for one GEMM + AllReduce pair.

    ``stages == 1`` degenerates to the sequential full GEMM followed by the
    full AllReduce. For ``stages > 1`` the AllReduce decomposes into
    per-stage ReduceScatter chunks (bytes / stages) overlapped with 1/stages
    GEMM partitions, plus one exposed AllGather chunk at default SMs. The
    per-stage GEMM is re-queried against the backend rather than scaled
    linearly: small partitions are overhead/intensity dominated. The setting
    must pass :func:`~llm_energy.spec_lang.check_overlap_setting`.
    """
    if overlap_dim_size % stages:
        raise ValidationError(
            f"overlap dimension size {overlap_dim_size} not divisible by "
            f"{stages} stages")
    if sm_comm >= total_sm:
        raise ValidationError(f"sm_comm must be in [1, total_sm), got {sm_comm}")

    part = g.partitioned(1.0 / stages)
    first = compute_backend.estimate_gemm(part)

    if stages == 1:
        exposed = comm_backend.estimate(CommDescriptor(
            ALLREDUCE, collective_bytes, world, label=f"{label} AllReduce"))
        return OverlapPlan(
            stages=1, sm_comm=sm_comm,
            t_first=first.latency, t_gemm_ov=0.0, t_comm_ov=0.0,
            t_exposed=exposed.latency,
            p_first=first.power, p_overlapped=first.power, label=label)

    restricted = compute_backend.estimate_gemm(
        replace(part, sm_available=total_sm - sm_comm))
    chunk = collective_bytes / stages
    rs = comm_backend.estimate(CommDescriptor(
        REDUCESCATTER, chunk, world, sm_count=sm_comm,
        label=f"{label} ReduceScatter"))
    ag = comm_backend.estimate(CommDescriptor(
        ALLGATHER, chunk, world, label=f"{label} AllGather"))
    return OverlapPlan(
        stages=stages, sm_comm=sm_comm,
        t_first=first.latency,
        t_gemm_ov=restricted.latency,
        t_comm_ov=rs.latency,
        t_exposed=ag.latency,
        p_first=first.power,
        p_overlapped=restricted.power,
        label=label)

