"""Per-kernel latency/power estimation for GEMM and memory ops.

Two interchangeable backends: a roofline model driven by a
:class:`HardwareProfile`, and a calibration-table lookup for imported
measurements. Both support SM-restricted queries (used by overlap
planning). Each prices a kernel's columns over a column of points
(``*_columns``: one evaluation, decode positions, or a sweep group's batch
sizes and sequence lengths), returning (latencies, energies) arrays; the
descriptor methods (``estimate_gemm``/``estimate_memory_op``) price one
kernel as one-point columns and return a :class:`CostEstimate`. And each
sums a kernel whose sizes are affine in the context length z (a line, see
:class:`~llm_energy.interpreter.GemmLine`) over a range of z in closed
form (``*_sum``), within rounding of the sum point by point. The table's
nearest point along one varying size, at each point of a column or on
each run of z of a line, is read off one envelope (``_reader``).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from itertools import chain
from typing import Sequence

from .errors import BackendError, ValidationError
from .interpreter import (GemmColumns, GemmDescriptor, GemmLine,
                          MemoryOpColumns, MemoryOpDescriptor, MemoryOpLine,
                          as_columns)
from .spec_lang import (as_int, as_number, in_file, int_cell, load_json,
                        read_csv)


@dataclass(frozen=True)
class CostEstimate:
    """Latency, energy, and mean power of one kernel or aggregate."""

    latency: float  # seconds
    energy: float  # joules

    @property
    def power(self) -> float:
        return self.energy / self.latency if self.latency > 0 else 0.0

    def __add__(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(self.latency + other.latency, self.energy + other.energy)


ZERO_COST = CostEstimate(0.0, 0.0)


def one_cost(cost: tuple[Sequence[float], Sequence[float]]) -> CostEstimate:
    """The cost at the one point of (latencies, energies) columns."""
    (latency,), (energy,) = cost
    return CostEstimate(latency, energy)


@dataclass(frozen=True)
class HardwareProfile:
    """Device constants for the roofline backend and memory feasibility."""

    peak_flops: float  # FLOP/s at the target dtype
    mem_bw: float  # bytes/s
    total_sm: int
    dram_capacity: float  # bytes
    p_idle: float  # watts
    p_max: float  # watts
    kernel_launch_overhead: float = 5e-6  # seconds
    compute_efficiency: float = 1.0
    bandwidth_efficiency: float = 1.0
    memory_op_utilization: float = 0.3  # occupancy assumed for pure copy kernels
    name: str = "unnamed"

    def __post_init__(self):
        for f in fields(self):
            if f.name != "name":
                as_number(getattr(self, f.name), f"hardware field {f.name!r}")
        if not (self.p_max > self.p_idle > 0):
            raise ValidationError("require p_max > p_idle > 0")
        if not (0 < self.compute_efficiency <= 1 and 0 < self.bandwidth_efficiency <= 1):
            raise ValidationError("efficiencies must be in (0, 1]")
        if self.total_sm < 1:
            raise ValidationError("total_sm must be >= 1")
        if min(self.peak_flops, self.mem_bw, self.dram_capacity) <= 0:
            raise ValidationError("peak_flops/mem_bw/dram_capacity must be positive")
        if self.kernel_launch_overhead < 0:
            raise ValidationError("kernel_launch_overhead must be >= 0")
        if not 0 <= self.memory_op_utilization <= 1:
            raise ValidationError("memory_op_utilization must be in [0, 1]")


_HW_KEYS = {f.name for f in fields(HardwareProfile)} | {"format_version"}


def load_hardware_profile(path) -> HardwareProfile:
    raw = load_json(path)
    with in_file(path):
        if not isinstance(raw, dict):
            raise ValidationError("hardware profile must be a JSON object")
        unknown = set(raw) - _HW_KEYS
        if unknown:
            raise ValidationError(f"unknown hardware field(s) {sorted(unknown)}")
        missing = {f.name for f in fields(HardwareProfile)
                   if f.default is MISSING} - set(raw)
        if missing:
            raise ValidationError(f"missing hardware field(s) {sorted(missing)}")
        raw = {key: value for key, value in raw.items() if key != "format_version"}
        raw["total_sm"] = as_int(raw["total_sm"], "hardware field 'total_sm'")
        return HardwareProfile(**raw)


def _utilization_power(hw: HardwareProfile, u_eff: float) -> float:
    return hw.p_idle + (hw.p_max - hw.p_idle) * u_eff


def _compute_rate(g, hw: HardwareProfile) -> float:
    """Effective FLOP/s of a GEMM on its available SMs."""
    sm = g.sm_available if g.sm_available is not None else hw.total_sm
    if sm < 1:
        raise ValidationError(f"GEMM {g.label!r}: zero SMs available")
    if sm > hw.total_sm:
        raise ValidationError(f"GEMM {g.label!r}: sm_available exceeds total_sm")
    return hw.peak_flops * hw.compute_efficiency * sm / hw.total_sm


def estimate_gemm(g: GemmDescriptor, hw: HardwareProfile) -> CostEstimate:
    """:func:`estimate_gemm_columns` of one GEMM."""
    return one_cost(estimate_gemm_columns(as_columns(g), hw))


def estimate_gemm_columns(g: GemmColumns,
                          hw: HardwareProfile) -> tuple[array, array]:
    """Roofline estimate at each point, (latencies, energies): max of
    compute and memory time plus launch overhead.

    Power blends the bound resource (full utilization) with the other
    resource's occupancy fraction, so balanced kernels approach p_max and
    memory-bound decode GEMMs stay well below it.
    """
    compute_rate = _compute_rate(g, hw)
    memory_rate = hw.mem_bw * hw.bandwidth_efficiency
    overhead, p_idle = hw.kernel_launch_overhead, hw.p_idle
    p_span = hw.p_max - hw.p_idle
    dtype = g.dtype_bytes
    latencies, energies = array("d"), array("d")
    add_latency, add_energy = latencies.append, energies.append
    # GemmDescriptor.flops and .bytes_moved, in their order of operations.
    for gc, m, k, n in zip(g.group_count, g.m, g.contraction, g.n):
        t_compute = 2.0 * gc * m * k * n / compute_rate
        t_memory = gc * (m * k + k * n + m * n) * dtype / memory_rate
        if t_memory > t_compute:
            hi, lo = t_memory, t_compute
        else:
            hi, lo = t_compute, t_memory
        latency = hi + overhead
        u_eff = (1.0 + (lo / hi if hi > 0 else 1.0)) / 2.0
        add_latency(latency)
        add_energy((p_idle + p_span * u_eff) * latency)
    return latencies, energies


def _series(line: tuple, zs: range) -> float:
    """The sum of a (constant, slope) pair's values over ``zs``."""
    constant, slope = line
    z_sum = (zs[0] + zs[-1]) * len(zs) // 2  # an integer, exactly
    return len(zs) * constant + slope * z_sum


# Coefficients of 1/x**2, 1/x**4, ... in the asymptotic series of the
# digamma function: B_2k / 2k, B_2k the Bernoulli numbers. At x >= 10 the
# first term left out, 1/(12 x**14), is below 1e-15.
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760)


def _harmonic(x: float, n: int) -> float:
    """The sum of 1/(x + k) for k = 0 .. n-1, for x > 0: the digamma
    difference psi(x + n) - psi(x). Terms are added one by one until x is at
    least 10; the rest is the difference of two asymptotic series, each
    term's difference taken in a form that does not cancel."""
    total = 0.0
    while x < 10.0 and n:
        total += 1.0 / x
        x += 1.0
        n -= 1
    if not n:
        return total
    y = x + n
    # ln(y/x) + (1/(2x) - 1/(2y)) + sum of c_k (1/x**2k - 1/y**2k)
    total += math.log1p(n / x) + n / (2.0 * x * y)
    ix, iy = 1.0 / (x * x), 1.0 / (y * y)
    px, py = ix, iy
    for coefficient in _DIGAMMA_SERIES:
        total += coefficient * (px - py)
        px, py = px * ix, py * iy
    return total


def estimate_gemm_sum(g: GemmLine, hw: HardwareProfile,
                      zs: range) -> tuple[float, float]:
    """:func:`estimate_gemm_columns` summed over every z of ``zs``:
    (latency, energy).

    t_compute and t_memory are affine in z, so they cross once at most. The
    range is split there, the split settled by the branch test of
    :func:`estimate_gemm_columns` at the positions on either side, so that
    each position takes the branch it takes in a column (where rounding
    could decide the test, the two times are level and either branch costs
    the same). On each side the latency
    hi + overhead is affine in z, and the energy is
    p_idle * latency + p_span / 2 * (hi + overhead + lo + overhead * lo / hi),
    where the sum of lo / hi is a constant plus a digamma difference.
    """
    compute_rate = _compute_rate(g, hw)
    memory_rate = hw.mem_bw * hw.bandwidth_efficiency
    f0, f1 = g.flops
    b0, b1 = g.bytes_moved
    t_compute = (f0 / compute_rate, f1 / compute_rate)
    t_memory = (b0 / memory_rate, b1 / memory_rate)

    def memory_bound(z: int) -> bool:
        return (b0 + b1 * z) / memory_rate > (f0 + f1 * z) / compute_rate

    n = len(zs)
    first = memory_bound(zs[0])
    split = n
    if memory_bound(zs[-1]) != first:
        # Where the two times meet; the settling steps cover rounding.
        gain = t_memory[1] - t_compute[1]
        cross = (t_compute[0] - t_memory[0]) / gain if gain else zs[0]
        split = min(max(math.ceil((cross - zs.start) / zs.step), 1), n - 1)
        while memory_bound(zs[split - 1]) != first:
            split -= 1
        while memory_bound(zs[split]) == first:
            split += 1
    overhead, p_span = hw.kernel_launch_overhead, hw.p_max - hw.p_idle
    latency = energy = 0.0
    for part, bound in ((zs[:split], first), (zs[split:], not first)):
        if not part:
            continue
        hi, lo = (t_memory, t_compute) if bound else (t_compute, t_memory)
        count = len(part)
        if hi[1] == 0.0:
            ratio = _series(lo, part) / hi[0]
        else:
            # lo/hi = lo1/hi1 + (lo0 - lo1 * hi0 / hi1) / (hi0 + hi1 z)
            ratio = (count * lo[1] / hi[1]
                     + (lo[0] - lo[1] * hi[0] / hi[1]) / (hi[1] * part.step)
                     * _harmonic((hi[0] + hi[1] * part.start) / (hi[1] * part.step),
                                 count))
        part_latency = _series(hi, part) + count * overhead
        latency += part_latency
        energy += (hw.p_idle * part_latency + p_span / 2.0 * (
            part_latency + _series(lo, part) + overhead * ratio))
    return latency, energy


def estimate_memory_op(m: MemoryOpDescriptor, hw: HardwareProfile) -> CostEstimate:
    """:func:`estimate_memory_op_columns` of one memory op."""
    return one_cost(estimate_memory_op_columns(as_columns(m), hw))


def estimate_memory_op_columns(m: MemoryOpColumns,
                               hw: HardwareProfile) -> tuple[array, array]:
    """Bandwidth-bound kernel at each point, (latencies, energies): read +
    write traffic at effective bandwidth."""
    rate = hw.mem_bw * hw.bandwidth_efficiency
    overhead = hw.kernel_launch_overhead
    power = _utilization_power(hw, hw.memory_op_utilization)
    latencies = array("d", [2.0 * size / rate + overhead for size in m.bytes])
    return latencies, array("d", [power * latency for latency in latencies])


def estimate_memory_op_sum(m: MemoryOpLine, hw: HardwareProfile,
                           zs: range) -> tuple[float, float]:
    """:func:`estimate_memory_op_columns` summed over every z of ``zs``:
    (latency, energy). The latency is affine in z, an arithmetic series."""
    latency = (2.0 * _series(m.bytes, zs) / (hw.mem_bw * hw.bandwidth_efficiency)
               + len(zs) * hw.kernel_launch_overhead)
    return latency, _utilization_power(hw, hw.memory_op_utilization) * latency


class RooflineBackend:
    """Default compute backend wrapping the roofline formulas."""

    def __init__(self, hw: HardwareProfile):
        self.hw = hw

    def estimate_gemm(self, g: GemmDescriptor) -> CostEstimate:
        return estimate_gemm(g, self.hw)

    def estimate_memory_op(self, m: MemoryOpDescriptor) -> CostEstimate:
        return estimate_memory_op(m, self.hw)

    def estimate_gemm_columns(self, g: GemmColumns) -> tuple[array, array]:
        return estimate_gemm_columns(g, self.hw)

    def estimate_memory_op_columns(self, m: MemoryOpColumns) -> tuple[array, array]:
        return estimate_memory_op_columns(m, self.hw)

    def estimate_gemm_sum(self, g: GemmLine, zs: range) -> tuple[float, float]:
        return estimate_gemm_sum(g, self.hw, zs)

    def estimate_memory_op_sum(self, m: MemoryOpLine,
                               zs: range) -> tuple[float, float]:
        return estimate_memory_op_sum(m, self.hw, zs)


@dataclass(frozen=True)
class GemmCalibrationPoint:
    group_count: float
    m: float
    contraction: float
    n: float
    dtype_bytes: int
    latency_s: float
    power_w: float

    def __post_init__(self):
        if self.dtype_bytes < 1 or not all(0 < v < math.inf for v in (
                self.group_count, self.m, self.contraction, self.n,
                self.flops, self.latency_s, self.power_w)):
            raise ValidationError(
                f"{self}: G, M, contraction, N, their FLOPs, latency and power "
                "must be positive and finite, and dtype_bytes at least 1")

    @cached_property
    def flops(self) -> float:
        return 2.0 * self.group_count * self.m * self.contraction * self.n


def _log_dims(g) -> tuple[float, float, float, float]:
    return tuple(math.log(max(v, 1.0))
                 for v in (g.m, g.contraction, g.n, g.group_count))


def _add(a, b):
    """``a + b`` where each is a float or a column, added point by point."""
    if isinstance(a, float):
        return a + b if isinstance(b, float) else [a + y for y in b]
    if isinstance(b, float):
        return [x + b for x in a]
    return [x + y for x, y in zip(a, b)]


# A point of a column or a line takes its nearest calibration point from an
# envelope (see GemmCalibrationTable._envelope) only where that point's
# squared log distance is below every other point's by more than _MARGIN
# times a bound on the distances and their terms. Rounding moves a computed
# distance by less than 1e-15 of it, so there the first point at the least
# distance in floats is that point too; anywhere else the point is looked up.
_MARGIN = 1e-12
# Above the log of the largest float: every finite size's log is below it.
_LOG_MAX = 710.0
# A one-axis column reads its points off an envelope only when it has at
# least this many points per calibration point. The envelope costs up to
# O(P**2) for a table of P points, when every point is on it; the distance
# columns cost O(P) per column point. With every point on the envelope, a
# column of P points priced 1.5-2.1x faster through it, and one of P / 2
# points about as fast, for P from 8 to 512 (CPython 3.11, one core).
_ENVELOPE_QUERIES_PER_POINT = 1


class GemmCalibrationTable:
    """Measured GEMM points; queried by log-space nearest neighbor.

    Latency is scaled by the FLOP ratio between the query and its nearest
    point; power is taken from that point. This is deliberately coarse --
    an import path for real measurements, not a learned predictor.
    """

    def __init__(self, points: list[GemmCalibrationPoint]):
        if not points:
            raise ValidationError("GEMM calibration table is empty")
        self.points = list(points)
        self._logs = [(_log_dims(p), p) for p in self.points]
        self._axis_logs = [sorted(logs) for logs in zip(*(l for l, _ in self._logs))]

    @classmethod
    def load(cls, path) -> "GemmCalibrationTable":
        columns, _ = read_csv(path, ("G", "M", "contraction", "N", "dtype_bytes",
                                     "latency_s", "power_w"),
                              [float] * 4 + [int_cell("dtype_bytes"), float, float])
        with in_file(path):
            return cls([GemmCalibrationPoint(*row) for row in zip(*columns)])

    def _nearest_logs(self, qm: float, qk: float, qn: float,
                      qg: float) -> GemmCalibrationPoint:
        """The first point at the least squared log distance from the logs
        of (M, contraction, N, G), each dimension floored at 1."""
        best, best_dist = None, math.inf
        for (lm, lk, ln, lg), p in self._logs:
            dist = (qm - lm) ** 2 + (qk - lk) ** 2 + (qn - ln) ** 2 + (qg - lg) ** 2
            if dist < best_dist:
                best, best_dist = p, dist
        return best

    def _envelope(self, axis: int, query: list, lo: float,
                  hi: float) -> tuple[list, list, list]:
        """Where along ``axis`` (the index of its log in ``query``, whose
        other logs are fixed) each point is nearest by the margin
        (:data:`_MARGIN`), within the logs [lo, hi]: (starts, ends, points),
        sorted, such that for a log x in [starts[i], ends[i]]
        :meth:`_nearest_logs` gives points[i].

        Along the axis, a point's squared distance is (x - l)**2 + c, l its
        log on the axis and c the sum of its other terms. All of these
        parabolas have one curvature, so the difference of two is a line in
        x: a point w is nearest by the margin where every other point's line
        less w's is above the margin, an interval from lo to hi cut once per
        other point, taken by l outwards from w, toward [lo, hi] first: so a
        point nearest only outside it is soon cut empty. Of points level
        along the axis only the nearest can win; a level point with other
        terms bit-equal to an earlier one's ties it at every x, so is left
        out."""
        # The other terms, added in _nearest_logs' order.
        (a, qa), (b, qb), (c, qc) = [(i, q) for i, q in enumerate(query) if i != axis]
        lines, seen = [], set()
        for logs, p in self._logs:
            terms = ((qa - logs[a]) ** 2, (qb - logs[b]) ** 2, (qc - logs[c]) ** 2)
            key = (logs[axis], *terms)
            if key not in seen:
                seen.add(key)
                lines.append((logs[axis], terms[0] + terms[1] + terms[2], p))
        # A bound on each distance over [0, _LOG_MAX], and on the terms that
        # the cuts below are made of.
        margin = _MARGIN * (1.0 + 2.0 * max(rest for _, rest, _ in lines)
                            + 4.0 * (_LOG_MAX + max(lw for lw, _, _ in lines)) ** 2)
        # q's distance less w's is slope * x + (lq**2 + cq) - (lw**2 + cw),
        # slope = 2 * (lw - lq): above the margin where slope * x is above
        # margin - (lq**2 + cq) + (lw**2 + cw).
        lines = sorted(((lw, lw * lw + cw, w) for lw, cw, w in lines),
                       key=lambda line: line[:2])
        spans = []
        for i, (lw, bw, w) in enumerate(lines):
            if i and lines[i - 1][0] == lw:
                continue  # a point level with w along the axis is as near
            start, end = lo, hi
            left, right = range(i - 1, -1, -1), range(i + 1, len(lines))
            for j in chain(left, right) if lw > hi else chain(right, left):
                lq, bq, _ = lines[j]
                if lq < lw:
                    cut = (margin - bq + bw) / (2.0 * (lw - lq))
                    if cut > start:
                        start = cut
                elif lq > lw:
                    cut = (margin - bq + bw) / (2.0 * (lw - lq))
                    if cut < end:
                        end = cut
                elif margin - bq + bw >= 0.0:
                    break  # level along the axis, and not below by the margin
                if start > end:
                    break  # each cut only narrows the interval
            else:
                spans.append((start, end, w))
        return tuple(map(list, zip(*spans))) if spans else ([], [], [])

    def _reader(self, axis: int, query: list, lo: float, hi: float,
                count: int):
        """For ``count`` logs x in [lo, hi] along ``axis``, the other logs
        those of ``query``: a function of x giving (the point
        :meth:`_nearest_logs` gives at x, a, b), nearest at every log in
        [a, b]: x's :meth:`_envelope` interval, else x alone, looked up. A
        lookup costs O(P), as the envelope does per point whose log is in
        [lo, hi], so with fewer x than such points every x is looked up."""
        logs = self._axis_logs[axis]
        within = bisect_right(logs, hi) - bisect_left(logs, lo)
        starts, ends, winners = ((), (), ()) if count < (
            _ENVELOPE_QUERIES_PER_POINT * within) else self._envelope(axis, query, lo, hi)
        query, nearest_logs = list(query), self._nearest_logs

        def read(x: float) -> tuple:
            i = bisect_right(starts, x) - 1
            if i >= 0 and x <= ends[i]:
                return winners[i], starts[i], ends[i]
            query[axis] = x
            return nearest_logs(*query), x, x
        return read

    def estimate_gemm(self, g: GemmDescriptor) -> CostEstimate:
        """:meth:`estimate_gemm_columns` of one GEMM."""
        return one_cost(self.estimate_gemm_columns(as_columns(g)))

    def estimate_gemm_columns(self, g: GemmColumns) -> tuple[array, array]:
        """At each point, (latencies, energies): the latency of the nearest
        calibration point (see :meth:`_nearest_logs`) scaled by the FLOP
        ratio, at that point's power. Along a column with one varying axis
        and enough points (see :data:`_ENVELOPE_QUERIES_PER_POINT`), each
        point's nearest is read off the :meth:`_envelope` (:meth:`_reader`)."""
        if g.sm_available is not None:
            raise BackendError(
                "GEMM calibration backend does not support SM-restricted queries")
        # A dimension constant along the column is one log, whose squared
        # distance to each calibration point is taken once.
        count = len(g.m)
        columns = (g.m, g.contraction, g.n, g.group_count)  # _log_dims' order
        queries = [math.log(max(col[0], 1.0))
                   if count and col.count(col[0]) == count else None
                   for col in columns]
        varying = [axis for axis, query in enumerate(queries) if query is None]
        if not varying:
            nearest = [self._nearest_logs(*queries)] * count
        elif (len(varying) == 1
              and _ENVELOPE_QUERIES_PER_POINT * len(self._logs) <= count):
            xs = [math.log(max(size, 1.0)) for size in columns[varying[0]]]
            read = self._reader(varying[0], queries, min(xs), max(xs), count)
            nearest = [read(x)[0] for x in xs]
        else:
            # Per calibration point, its distance at each point of the
            # column: the terms added in :meth:`_nearest_logs`'s order, so
            # that each sum is the same float.
            for axis in varying:
                queries[axis] = [math.log(max(v, 1.0)) for v in columns[axis]]
            distances = []
            for logs, _ in self._logs:
                dist = None  # a float while every term so far is constant
                for query, cal in zip(queries, logs):
                    term = ((query - cal) ** 2 if isinstance(query, float)
                            else [(q - cal) ** 2 for q in query])
                    dist = term if dist is None else _add(dist, term)
                distances.append(dist)
            # At each point, the first calibration point at the least distance.
            points = self.points
            nearest = [points[dists.index(min(dists))] for dists in zip(*distances)]
        latencies, energies = array("d"), array("d")
        add_latency, add_energy = latencies.append, energies.append
        # GemmDescriptor.flops, in its order of operations.
        for p, gc, m, k, n in zip(nearest, g.group_count, g.m, g.contraction, g.n):
            latency = p.latency_s * (2.0 * gc * m * k * n / p.flops)
            add_latency(latency)
            add_energy(p.power_w * latency)
        return latencies, energies

    def _nearest_runs(self, g: GemmLine, zs: range) -> list:
        """The point :meth:`_nearest_logs` gives at each z of ``zs``, as
        maximal runs (point, start, stop) of indices into ``zs``.

        At most one axis varies; its log at z is that of the size
        :meth:`GemmLine.columns` gives there, floored at 1 as a column is,
        so monotone in z. A run's point is read (:meth:`_reader`) at its
        first z, and the run holds the later z whose log is in the interval
        read with it, one stretch found by bisection."""
        axes = (g.m, g.contraction, g.n, g.group_count)  # _log_dims' order
        # The varying axis; in a line with none, any axis reads one run.
        axis = next((i for i, (_, slope) in enumerate(axes) if slope), 0)
        constant, slope = axes[axis]
        log, n = math.log, len(zs)

        def log_at(k: int) -> float:
            return log(max(constant + slope * zs[k], 1.0))

        ends = sorted((log_at(0), log_at(n - 1)))
        read = self._reader(axis, [log(max(c, 1.0)) for c, _ in axes], *ends, n)

        runs, k = [], 0
        while k < n:
            p, lo, hi = read(log_at(k))
            stop = bisect_left(range(n), True, k + 1,
                               key=lambda j: not lo <= log_at(j) <= hi)
            if runs and runs[-1][0] is p:
                runs[-1] = (p, runs[-1][1], stop)
            else:
                runs.append((p, k, stop))
            k = stop
        return runs

    def estimate_gemm_sum(self, g: GemmLine, zs: range) -> tuple[float, float]:
        """:meth:`estimate_gemm` summed over every z of ``zs``: (latency,
        energy). On a run of one nearest point (see :meth:`_nearest_runs`)
        the latency is that point's latency per FLOP times the FLOPs, which
        are affine in z."""
        if g.sm_available is not None:
            raise BackendError(
                "GEMM calibration backend does not support SM-restricted queries")
        flops = g.flops
        latency = energy = 0.0
        for p, start, stop in self._nearest_runs(g, zs):
            part = p.latency_s * (_series(flops, zs[start:stop]) / p.flops)
            latency += part
            energy += p.power_w * part
        return latency, energy


class TableComputeBackend:
    """Calibration-backed GEMMs; memory ops fall back to the roofline."""

    def __init__(self, table: GemmCalibrationTable, hw: HardwareProfile):
        self.table = table
        self.hw = hw

    def estimate_gemm(self, g: GemmDescriptor) -> CostEstimate:
        return one_cost(self.estimate_gemm_columns(as_columns(g)))

    def estimate_memory_op(self, m: MemoryOpDescriptor) -> CostEstimate:
        return estimate_memory_op(m, self.hw)

    def estimate_gemm_columns(self, g: GemmColumns) -> tuple[array, array]:
        if g.sm_available is not None:
            # Overlap planning needs SM-restricted queries the table cannot
            # answer; use the roofline for those.
            return estimate_gemm_columns(g, self.hw)
        return self.table.estimate_gemm_columns(g)

    def estimate_memory_op_columns(self, m: MemoryOpColumns) -> tuple[array, array]:
        return estimate_memory_op_columns(m, self.hw)

    def estimate_gemm_sum(self, g: GemmLine, zs: range) -> tuple[float, float]:
        if g.sm_available is not None:
            return estimate_gemm_sum(g, self.hw, zs)
        return self.table.estimate_gemm_sum(g, zs)

    def estimate_memory_op_sum(self, m: MemoryOpLine,
                               zs: range) -> tuple[float, float]:
        return estimate_memory_op_sum(m, self.hw, zs)
