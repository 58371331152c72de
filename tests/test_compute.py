"""Roofline and calibration-table compute backend tests."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llm_energy import (
    BackendError,
    CostEstimate,
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
from llm_energy.compute import (GemmCalibrationPoint, _harmonic, estimate_gemm_sum,
                                estimate_memory_op_sum)
from llm_energy.interpreter import GemmColumns, GemmLine, MemoryOpColumns, MemoryOpLine
from llm_energy.fixtures import fixture_path

import reference


# Peak FLOPs at which a G x 4 x 128 attention GEMM, N or contraction = z,
# turns compute bound at z = 600 on 2 TB/s (see test_engine's _low_peak).
_CROSSING_PEAK = 2e12 * 1024 / (264 + 1024 / 600)


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
    nearest = min(table.points, key=log_distance)
    assert table._nearest_logs(*(math.log(max(v, 1.0)) for v in (
        gemm.m, gemm.contraction, gemm.n, gemm.group_count))) is nearest
    latency = nearest.latency_s * (gemm.flops / nearest.flops)
    assert table.estimate_gemm(gemm) == CostEstimate(latency, nearest.power_w * latency)


@settings(max_examples=300, deadline=None)
@given(dims=st.lists(st.tuples(*[_GEMM_DIM] * 4), min_size=1, max_size=12),
       columns=st.integers(1, 12).flatmap(lambda n: st.tuples(*[st.one_of(
           _GEMM_DIM.map(lambda v: [v] * n),
           st.lists(_GEMM_DIM, min_size=n, max_size=n))] * 4)))
@example(dims=[(1.0, 16.0, 256.0, 4096.0), (1.0, 16.0, 256.0, 4096.0)],
         columns=([1.0, 1.0], [16.0, 16.0], [256.0, 4096.0], [0.5, 0.5]))
def test_table_columns_equal_scalar_lookups(dims, columns):
    # Dimensions constant along a column, each taken once per calibration
    # point, and varying ones in any position: each point's latency and
    # energy equal the reference lookup's, ties to the first point included.
    table = GemmCalibrationTable([
        GemmCalibrationPoint(g, m, k, n, 2, 1e-4 * (i + 1), 300.0 + i)
        for i, (g, m, k, n) in enumerate(dims)])
    g_col, m_col, k_col, n_col = columns
    latencies, energies = table.estimate_gemm_columns(
        GemmColumns(g_col, m_col, k_col, n_col, dtype_bytes=2))
    want = [reference.table_gemm(table, GemmDescriptor(*shape, dtype_bytes=2))
            for shape in zip(*columns)]
    assert list(zip(latencies, energies)) == [(c.latency, c.energy) for c in want]


# Decode columns: 16-row attention GEMMs are memory bound on the A100
# profile, 4096-row projections compute bound; sizes below 1 exercise the
# table's log floor.
_SHAPE = st.tuples(*[st.one_of(st.sampled_from([1.0, 16.0, 256.0, 4096.0, 8192.0]),
                               st.floats(0.25, 1e5))] * 4)


@settings(max_examples=200, deadline=None)
@given(shapes=st.lists(_SHAPE, min_size=1, max_size=8),
       sm_available=st.one_of(st.none(), st.integers(1, 108)),
       backend=st.sampled_from(["roofline", "table"]))
@example(shapes=[(1.0, 16.0, 4096.0, 4097.0), (1.0, 4096.0, 4096.0, 4096.0)],
         sm_available=None, backend="roofline")
@example(shapes=[(8.0, 16.0, 128.0, 4097.0), (1.0, 4096.0, 8192.0, 8192.0)],
         sm_available=None, backend="table")
@example(shapes=[(8.0, 16.0, 128.0, 4097.0), (1.0, 4096.0, 8192.0, 8192.0)],
         sm_available=64, backend="table")
def test_column_pricing_equals_scalar_pricing(hw, shapes, sm_available, backend):
    # Element by element and bit for bit against the reference formulas,
    # including the table's roofline fallback for SM-restricted GEMMs.
    compute = RooflineBackend(hw) if backend == "roofline" else TableComputeBackend(
        GemmCalibrationTable.load(fixture_path("gemm_synthetic.csv")), hw)
    g = GemmColumns(*map(list, zip(*shapes)), dtype_bytes=2, label="g",
                    sm_available=sm_available)
    latencies, energies = compute.estimate_gemm_columns(g)
    want = [reference.price(GemmDescriptor(*shape, dtype_bytes=2, label="g",
                                           sm_available=sm_available), compute, None)
            for shape in shapes]
    assert list(zip(latencies, energies)) == [(c.latency, c.energy) for c in want]

    sizes = [math.prod(shape) for shape in shapes]
    latencies, energies = compute.estimate_memory_op_columns(
        MemoryOpColumns(sizes, [0.0] * len(sizes)))
    want = [reference.price(MemoryOpDescriptor(size), compute, None) for size in sizes]
    assert list(zip(latencies, energies)) == [(c.latency, c.energy) for c in want]


def test_column_pricing_spans_the_roofline_crossover(hw):
    # The examples above price both sides of the compute/memory crossover.
    for shape, compute_bound in (((1.0, 16.0, 4096.0, 4097.0), False),
                                 ((1.0, 4096.0, 4096.0, 4096.0), True)):
        g = GemmDescriptor(*shape, dtype_bytes=2)
        t_compute = g.flops / (hw.peak_flops * hw.compute_efficiency)
        t_memory = g.bytes_moved / (hw.mem_bw * hw.bandwidth_efficiency)
        assert (t_compute > t_memory) == compute_bound


# -- sums over an arithmetic progression of z -----------------------------------

@settings(max_examples=300, deadline=None)
@given(x=st.floats(1e-3, 1e7), n=st.integers(1, 5000))
@example(x=9.5, n=1)
@example(x=10.0, n=1)  # every series term counts
@example(x=10.0, n=4096)
@example(x=1e6, n=1)  # ln(y/x) without cancellation
@example(x=12345.678, n=3)
def test_harmonic_is_the_sum_of_its_terms(x, n):
    # The digamma difference psi(x + n) - psi(x) against the terms summed.
    assert _harmonic(x, n) == pytest.approx(
        math.fsum(1.0 / (x + k) for k in range(n)), rel=1e-14, abs=0)


def _line_with(sizes, axis, slope):
    """A GemmLine of constant ``sizes`` (G, M, contraction, N) whose
    ``axis`` is ``slope`` * z instead."""
    pairs = [(float(v), 0.0) for v in sizes]
    pairs[axis] = (0.0, float(slope))
    return GemmLine(*pairs, dtype_bytes=2, label="g")


def _per_z(line, zs):
    """Each z's GemmDescriptor of a line."""
    return [GemmDescriptor(*(c + s * z for c, s in line[:4]), line.dtype_bytes,
                           line.label) for z in zs]


@settings(max_examples=300, deadline=None)
@given(sizes=st.tuples(*[st.integers(1, 4096)] * 4), axis=st.integers(0, 3),
       slope=st.integers(1, 64), start=st.integers(1, 20000),
       step=st.integers(1, 64), count=st.integers(1, 600),
       peak=st.floats(1e10, 1e15))
@example(sizes=(16, 4, 128, 1), axis=3, slope=1, start=514, step=1, count=199,
         peak=_CROSSING_PEAK)
@example(sizes=(16, 4, 1, 128), axis=2, slope=1, start=514, step=7, count=28,
         peak=_CROSSING_PEAK)
def test_roofline_sum_equals_sum_over_positions(sizes, axis, slope, start, step,
                                                count, peak):
    # The crossover inside the range or not: each position takes the
    # branch it takes alone, and the sums agree within a relative 1e-12.
    hw = _ideal_hw(peak_flops=peak, mem_bw=2e12, kernel_launch_overhead=5e-6)
    line = _line_with(sizes, axis, slope)
    zs = range(start, start + count * step, step)
    latency, energy = estimate_gemm_sum(line, hw, zs)
    costs = [reference.roofline_gemm(g, hw) for g in _per_z(line, zs)]
    assert latency == pytest.approx(math.fsum(c.latency for c in costs), rel=1e-12, abs=0)
    assert energy == pytest.approx(math.fsum(c.energy for c in costs), rel=1e-12, abs=0)
    m = MemoryOpLine((3.0 * sizes[0], 2.0 * slope))
    latency, energy = estimate_memory_op_sum(m, hw, zs)
    costs = [reference.roofline_memory_op(
        MemoryOpDescriptor(3.0 * sizes[0] + 2.0 * slope * z), hw) for z in zs]
    assert latency == pytest.approx(math.fsum(c.latency for c in costs), rel=1e-12, abs=0)
    assert energy == pytest.approx(math.fsum(c.energy for c in costs), rel=1e-12, abs=0)


def test_roofline_sum_examples_cross_over():
    # The examples above put the crossover inside their ranges.
    hw = _ideal_hw(peak_flops=_CROSSING_PEAK, mem_bw=2e12)
    for sizes, axis, zs in (((16, 4, 128, 1), 3, range(514, 713)),
                            ((16, 4, 1, 128), 2, range(514, 710, 7))):
        bound = {g.bytes_moved / hw.mem_bw > g.flops / hw.peak_flops
                 for g in _per_z(_line_with(sizes, axis, 1), (zs[0], zs[-1]))}
        assert bound == {True, False}


def _grid_table(groups):
    """A calibration table of every (G, M, contraction, N) with G from
    ``groups`` and the other sizes a few powers of 2."""
    return GemmCalibrationTable([
        GemmCalibrationPoint(g, m, k, n, 2, 1e-4 * (i + 1), 200.0 + i)
        for i, (g, m, k, n) in enumerate(
            (g, m, k, n) for g in groups for m in (16, 1024)
            for k in (128, 8192) for n in (64, 4096, 262144))])


@pytest.mark.parametrize("backend", ["fixture", "grid"])
@pytest.mark.parametrize("axis", [0, 1, 2, 3])
def test_table_runs_are_the_nearest_point_at_every_z(backend, axis):
    # Over a few thousand consecutive z, and a stride, each run's point is
    # the reference's nearest point at every z, and the sum equals the sum
    # of the per-z reference lookups. In the grid, a query G of 16 lies as far from 8 as
    # from 32 in logs, to the last bit: such points tie at every z, and the
    # first wins throughout.
    table = (GemmCalibrationTable.load(fixture_path("gemm_synthetic.csv"))
             if backend == "fixture" else _grid_table((8, 32)))
    line = _line_with((16, 4, 128, 128), axis, 1)
    runs_seen = 0
    for zs in (range(3, 6003), range(100, 300000, 97)):
        runs = table._nearest_runs(line, zs)
        assert runs[0][1] == 0 and runs[-1][2] == len(zs)
        assert all(a[2] == b[1] for a, b in zip(runs, runs[1:]))
        points = [p for p, start, stop in runs for _ in range(start, stop)]
        want = [reference.table_nearest(table, g) for g in _per_z(line, zs)]
        assert len(points) == len(want)
        assert all(p is q for p, q in zip(points, want))
        runs_seen = max(runs_seen, len(runs))
        latency, energy = table.estimate_gemm_sum(line, zs)
        costs = [reference.table_gemm(table, g) for g in _per_z(line, zs)]
        assert latency == pytest.approx(math.fsum(c.latency for c in costs), rel=1e-12, abs=0)
        assert energy == pytest.approx(math.fsum(c.energy for c in costs), rel=1e-12, abs=0)
    assert runs_seen > 1  # some point draws level with another as z grows


def test_table_sum_prices_near_ties_position_by_position():
    # A query G of 16 lies as far from 4 as from 64 in logs, but the two
    # squared distances differ in their last bit: rounding picks either
    # point, a thousand times over, as z changes the other terms. No run
    # form holds, and the sum is taken over the per-z lookups.
    table = _grid_table((4, 64))
    line = _line_with((16, 4, 128, 128), 1, 1)
    zs = range(3, 6003)
    want = [reference.table_nearest(table, g) for g in _per_z(line, zs)]
    assert sum(p is not q for p, q in zip(want, want[1:])) > 100
    assert table._nearest_runs(line, zs) is None
    costs = [reference.table_gemm(table, g) for g in _per_z(line, zs)]
    assert table.estimate_gemm_sum(line, zs) == (
        math.fsum(c.latency for c in costs), math.fsum(c.energy for c in costs))
