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

from array import array
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

from .comm import CommBackend
from .errors import ValidationError
from .interpreter import (
    ALLGATHER,
    ALLREDUCE,
    REDUCESCATTER,
    CommColumns,
    CommDescriptor,
    GemmColumns,
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


def check_overlap(overlap_dim_size: int, stages: int, sm_comm: int,
                  total_sm: int) -> None:
    """Raise the ValidationError of a setting that cannot split this
    point: ``stages`` must divide the overlap dimension, and ``sm_comm``
    must leave SMs for the GEMM."""
    if overlap_dim_size % stages:
        raise ValidationError(
            f"overlap dimension size {overlap_dim_size} not divisible by "
            f"{stages} stages")
    if sm_comm >= total_sm:
        raise ValidationError(f"sm_comm must be in [1, total_sm), got {sm_comm}")


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
    check_overlap(overlap_dim_size, stages, sm_comm, total_sm)
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



class OverlapColumns(NamedTuple):
    """:class:`OverlapPlan` at each point of a column: its phase latencies
    and powers as columns, and its terms with the same arithmetic."""

    stages: int
    t_first: Sequence[float]
    t_gemm_ov: Sequence[float]
    t_comm_ov: Sequence[float]
    t_exposed: Sequence[float]
    p_first: Sequence[float]
    p_overlapped: Sequence[float]

    def _overlapped(self) -> list:
        """``max(t_gemm_ov, t_comm_ov) * (stages - 1)`` at each point."""
        k = self.stages - 1
        return [(c if c > g else g) * k
                for g, c in zip(self.t_gemm_ov, self.t_comm_ov)]

    @property
    def compute_latency(self) -> list:
        return [f + o for f, o in zip(self.t_first, self._overlapped())]

    @property
    def compute_energy(self) -> list:
        return [f * pf + o * po for f, pf, o, po in zip(
            self.t_first, self.p_first, self._overlapped(), self.p_overlapped)]

    @property
    def exposed_energy(self) -> list:
        return [t * p for t, p in zip(self.t_exposed, self.p_overlapped)]


def _power(cost: tuple[Sequence[float], Sequence[float]]) -> array:
    """:attr:`~llm_energy.compute.CostEstimate.power` at each point of
    (latencies, energies) columns."""
    return array("d", [e / t if t > 0 else 0.0 for t, e in zip(*cost)])


class StageColumns:
    """:func:`plan_overlap` at each point of a GEMM + AllReduce column pair
    split into ``stages``, each kernel priced as one column, for every
    ``sm_comm`` the settings of one stage count give. The terms that
    depend on the stages alone are priced once, by the backends kept for
    each setting's own terms: the GEMM partition (1 / ``stages`` of its
    rows) on all SMs, its power, the message per stage, and the exposed
    collective, an AllGather chunk (the whole AllReduce at one stage).
    The points must pass :func:`check_overlap`."""

    def __init__(self, g: GemmColumns, collective_bytes: Sequence[float],
                 world: int, stages: int, compute_backend,
                 comm_backend: CommBackend, label: str = ""):
        fraction = 1.0 / stages
        self.stages, self.world, self.label = stages, world, label
        self.compute_backend, self.comm_backend = compute_backend, comm_backend
        self.part = g._replace(m=[m * fraction for m in g.m])
        self.first = compute_backend.estimate_gemm_columns(self.part)
        self.p_first = _power(self.first)
        self.chunk = [size / stages for size in collective_bytes]
        self._exposed = None

    def plan(self, sm_comm: int, total_sm: int) -> OverlapColumns:
        """The plan of the setting with ``sm_comm`` SMs for the collective."""
        first, p_first, stages = self.first, self.p_first, self.stages
        if stages == 1:
            t_gemm_ov = t_comm_ov = [0.0] * len(first[0])
            p_overlapped = p_first
        else:
            restricted = self.compute_backend.estimate_gemm_columns(
                self.part._replace(sm_available=total_sm - sm_comm))
            t_gemm_ov, p_overlapped = restricted[0], _power(restricted)
            t_comm_ov = self.comm_backend.estimate_columns(CommColumns(
                REDUCESCATTER, self.chunk, self.world, sm_count=sm_comm,
                label=f"{self.label} ReduceScatter"))[0]
        # The exposed collective is priced after the setting's own kernels,
        # in plan_overlap's order, so that a backend missing several of
        # them raises the same BackendError first.
        if self._exposed is None:
            kind = ALLREDUCE if stages == 1 else ALLGATHER
            self._exposed = self.comm_backend.estimate_columns(CommColumns(
                kind, self.chunk, self.world, label=f"{self.label} {kind}"))[0]
        return OverlapColumns(stages, first[0], t_gemm_ov, t_comm_ov,
                              self._exposed, p_first, p_overlapped)
