"""MoE effective routing quantities and load-imbalance aggregation.

Expert-parallel cost depends on how tokens land on experts. We reduce a
routing (uniform or traced) to two pairs: the effective tokens-per-expert
and activated-experts-per-GPU of the average GPU (energy) and of the
bottleneck GPU (latency). Per-expert token counts are quantized up to the
grouped-GEMM tile size (default 16). The imbalance equation prices the
idle time of underloaded GPUs at idle power.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .compute import ZERO_COST, CostEstimate, one_cost
from .errors import ValidationError
from .spec_lang import in_file, read_csv

DEFAULT_TILE = 16


@dataclass(frozen=True)
class RoutingStats:
    """Effective (tokens-per-expert, experts-per-GPU) pairs."""

    t_avg: float
    t_max: float
    e_avg: float
    e_max: float
    source: str  # "uniform" or "trace"

    def __post_init__(self):
        # Only positivity is required: the bottleneck GPU (largest total
        # quantized work) can have a smaller per-expert mean than the
        # cross-GPU average when it is the bottleneck via many
        # lightly-loaded experts, so no per-field ordering holds.
        if min(self.t_avg, self.t_max, self.e_avg, self.e_max) <= 0:
            raise ValidationError("routing statistics must be positive")

    @property
    def avg(self) -> tuple[float, float]:
        return (self.t_avg, self.e_avg)

    @property
    def max(self) -> tuple[float, float]:
        return (self.t_max, self.e_max)

    @property
    def balanced(self) -> bool:
        return self.t_avg == self.t_max and self.e_avg == self.e_max


def quantize_tokens(tokens: float, tile: int) -> float:
    """Round a per-expert token count up to the next tile multiple (floor = tile)."""
    if tile < 1:
        raise ValidationError("tile must be >= 1")
    if tokens <= 0:
        return 0.0
    return float(max(tile, tile * math.ceil(tokens / tile)))


def uniform_routing(batch: int, s: int, top_k: int, total_experts: int,
                    ep_degree: int, tile: int = DEFAULT_TILE) -> RoutingStats:
    """Ideal routing: token-expert assignments spread evenly.

    With fewer assignments than experts (small decode batches) only
    ``batch*s*top_k`` experts activate, one token each, padded to the tile
    floor. When the activated experts do not divide evenly over the EP
    ranks, the bottleneck GPU holds ``ceil(activated / ep)`` of them.
    """
    if total_experts % ep_degree:
        raise ValidationError(
            f"total_experts {total_experts} not divisible by ep degree {ep_degree}")
    assignments = batch * s * top_k
    if assignments < 1:
        raise ValidationError("no token-expert assignments")
    activated = min(assignments, total_experts)
    t_eff = quantize_tokens(assignments / activated, tile)
    e_avg = activated / ep_degree
    return RoutingStats(t_avg=t_eff, t_max=t_eff, e_avg=e_avg,
                        e_max=float(math.ceil(e_avg)), source="uniform")


@dataclass(frozen=True)
class RoutingTrace:
    """Per-token expert choices: one row of ``top_k`` expert indices per token."""

    choices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.choices:
            raise ValidationError("routing trace has no expert choices")
        if len(set(map(len, self.choices))) != 1:
            raise ValidationError("all tokens must pick the same number of experts")

    @property
    def top_k(self) -> int:
        return len(self.choices[0])

    @cached_property
    def expert_counts(self) -> Counter:
        """Tokens routed to each expert index, counted once per trace; the
        indices in the order the rows first name them."""
        return Counter(e for row in self.choices for e in row)

    @classmethod
    def load(cls, path) -> "RoutingTrace":
        """Rows of ``token,expert,...,expert``; the token column is not read."""
        (_, *experts), _ = read_csv(path, None, [None], rest=int)
        with in_file(path):
            return cls(tuple(zip(*experts)))


def stats_from_trace(trace: RoutingTrace, total_experts: int, ep_degree: int,
                     tile: int = DEFAULT_TILE) -> RoutingStats:
    """Per-GPU statistics from a measured routing.

    Experts are placed contiguously by index (experts [0, E/ep) on GPU 0,
    and so on). The bottleneck GPU is the one with the largest total
    quantized work; averages are taken over all GPUs.
    """
    if total_experts % ep_degree:
        raise ValidationError(
            f"total_experts {total_experts} not divisible by ep degree {ep_degree}")
    per_gpu = total_experts // ep_degree

    tokens_per_expert = [0] * total_experts
    for e, count in trace.expert_counts.items():
        if not 0 <= e < total_experts:
            raise ValidationError(f"expert index {e} out of range")
        tokens_per_expert[e] = count

    gpu_t: list[float] = []
    gpu_e: list[float] = []
    gpu_work: list[float] = []
    for g in range(ep_degree):
        counts = [quantize_tokens(c, tile)
                  for c in tokens_per_expert[g * per_gpu:(g + 1) * per_gpu] if c > 0]
        gpu_e.append(float(len(counts)))
        gpu_t.append(sum(counts) / len(counts) if counts else 0.0)
        gpu_work.append(sum(counts))

    bottleneck = max(range(ep_degree), key=lambda g: gpu_work[g])
    return RoutingStats(
        t_avg=sum(gpu_t) / ep_degree,
        t_max=gpu_t[bottleneck],
        e_avg=sum(gpu_e) / ep_degree,
        e_max=gpu_e[bottleneck],
        source="trace",
    )


def fold_imbalance(avg: CostEstimate, mx: CostEstimate,
                   p_idle: float) -> CostEstimate:
    """:func:`fold_imbalance_columns` of one kernel."""
    return one_cost(fold_imbalance_columns(((avg.latency,), (avg.energy,)),
                                           ((mx.latency,), (mx.energy,)), p_idle))


def fold_imbalance_columns(avg: tuple[array, array], mx: tuple[array, array],
                           p_idle: float) -> tuple[array, array]:
    """A kernel's imbalance fold at each point of its (latencies, energies)
    columns under the average (``avg``) and the bottleneck GPU's (``mx``)
    routing: bottleneck latency, average energy plus the average GPU
    idling at ``p_idle`` until the bottleneck finishes.

    latency = L' = max(L(max), L(avg))
    energy  = E(avg) + (L' - L(avg)) * p_idle

    The bottleneck GPU need not be slower on every single kernel (its
    per-expert mean can be smaller), but the true per-kernel maximum across
    GPUs bounds both, hence the clamp.
    """
    avg_latency, avg_energy = avg
    bottleneck = array("d", [max(m, a) for m, a in zip(mx[0], avg_latency)])
    return bottleneck, array("d", [e + (b - a) * p_idle for e, b, a in
                                   zip(avg_energy, bottleneck, avg_latency)])


def aggregate_moe(costs_avg: Sequence[CostEstimate],
                  costs_max: Sequence[CostEstimate],
                  p_idle: float) -> CostEstimate:
    """Sum of the per-kernel imbalance folds of aligned avg/max cost lists."""
    if len(costs_avg) != len(costs_max):
        raise ValidationError("avg/max cost lists must align one-to-one")
    return sum((fold_imbalance(avg, mx, p_idle)
                for avg, mx in zip(costs_avg, costs_max)), ZERO_COST)
