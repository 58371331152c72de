"""Communication model tests: loading, interpolation, SM resolution."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llm_energy import (
    BackendError,
    CommBackend,
    CommDescriptor,
    ValidationError,
    estimate_comm,
    load_comm_calibration,
    resolve_sm_curve,
    synthetic_comm_table,
)
from llm_energy.comm import CommCalibrationTable, CommCurve
from llm_energy.interpreter import ALLGATHER, ALLREDUCE, ALLTOALL, REDUCESCATTER


def _table(sizes, lats, ens, kind=ALLREDUCE, world=2, sm=16):
    t = CommCalibrationTable()
    t.curves[(kind, world, sm)] = CommCurve(list(sizes), list(lats), list(ens))
    t.validate()
    return t


def test_exact_at_calibration_points(comm_table):
    for (kind, world, sm), curve in comm_table.curves.items():
        for size, lat, en in zip(curve.sizes, curve.latencies, curve.energies):
            cost = estimate_comm(
                CommDescriptor(kind, size, world, sm_count=sm), comm_table)
            assert cost.latency == pytest.approx(lat, rel=1e-12)
            assert cost.energy == pytest.approx(en, rel=1e-12)


def test_loglog_midpoint():
    # Latencies 10 us and 40 us: the log-log midpoint is their geometric
    # mean, 20 us, queried at the geometric mean of the two sizes.
    t = _table([1024.0, 4096.0], [10e-6, 40e-6], [1e-3, 4e-3])
    mid = math.sqrt(1024.0 * 4096.0)
    cost = estimate_comm(CommDescriptor(ALLREDUCE, mid, 2, sm_count=16), t)
    assert cost.latency == pytest.approx(20e-6, rel=1e-12)
    assert cost.energy == pytest.approx(2e-3, rel=1e-12)


def test_clamp_below_smallest():
    t = _table([1024.0, 4096.0], [10e-6, 40e-6], [1e-3, 4e-3])
    cost = estimate_comm(CommDescriptor(ALLREDUCE, 102.4, 2, sm_count=16), t)
    assert cost.latency == 10e-6
    assert cost.energy == 1e-3


def test_slope_extension_above_largest():
    # Slope 2 in log-log space between the last two points extends beyond.
    t = _table([1024.0, 2048.0, 4096.0], [1e-6, 4e-6, 16e-6],
               [1e-3, 4e-3, 16e-3])
    cost = estimate_comm(CommDescriptor(ALLREDUCE, 8192.0, 2, sm_count=16), t)
    assert cost.latency == pytest.approx(64e-6, rel=1e-12)
    assert cost.energy == pytest.approx(64e-3, rel=1e-12)


def test_sm_curve_exact_and_blend():
    t = CommCalibrationTable()
    t.curves[(REDUCESCATTER, 8, 4)] = CommCurve([1e3, 1e6], [4e-5, 4e-4],
                                                [4e-2, 4e-1])
    t.curves[(REDUCESCATTER, 8, 16)] = CommCurve([1e3, 1e6], [1e-5, 1e-4],
                                                 [1e-2, 1e-1])
    t.validate()
    exact = resolve_sm_curve(REDUCESCATTER, 8, 4, t)
    assert exact.latency(1e3) == 4e-5
    # sm=10 is halfway between 4 and 16: log-blend = geometric mean.
    blended = resolve_sm_curve(REDUCESCATTER, 8, 10, t)
    assert blended.latency(1e3) == pytest.approx(
        math.exp(0.5 * (math.log(4e-5) + math.log(1e-5))), rel=1e-12)
    assert 1e-5 < blended.latency(1e3) < 4e-5
    # Outside the calibrated range: clamp to nearest.
    assert resolve_sm_curve(REDUCESCATTER, 8, 100, t).latency(1e3) == 1e-5
    assert resolve_sm_curve(REDUCESCATTER, 8, 1, t).latency(1e3) == 4e-5


def test_fewer_sms_never_faster(comm_table):
    # Expected shape: restricted-SM collectives are never faster when the
    # calibrated curves are ordered.
    for size in (1 << 14, 1 << 20, 1 << 26):
        lats = [estimate_comm(CommDescriptor(REDUCESCATTER, float(size), 8,
                                             sm_count=sm), comm_table).latency
                for sm in (1, 2, 4, 8, 16, 64, 108)]
        assert lats == sorted(lats, reverse=True)


def test_default_sm_is_max_calibrated(comm_table):
    c = CommDescriptor(ALLREDUCE, 1 << 20, 8)
    explicit = CommDescriptor(ALLREDUCE, 1 << 20, 8, sm_count=108)
    assert (estimate_comm(c, comm_table).latency
            == estimate_comm(explicit, comm_table).latency)


def test_alltoall_falls_back_to_reducescatter():
    t = _table([1e3, 1e6], [1e-5, 1e-3], [1e-2, 1.0], kind=REDUCESCATTER)
    with pytest.warns(UserWarning):
        cost = estimate_comm(CommDescriptor(ALLTOALL, 1e3, 2, sm_count=16), t)
    rs = estimate_comm(CommDescriptor(REDUCESCATTER, 1e3, 2, sm_count=16), t)
    assert cost.latency == rs.latency


def test_missing_key_rejected():
    t = _table([1e3, 1e6], [1e-5, 1e-3], [1e-2, 1.0])
    with pytest.raises(BackendError):
        estimate_comm(CommDescriptor(ALLGATHER, 1e3, 4), t)


def test_load_rejects_duplicates(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("kind,world,sm_count,bytes,latency_s,energy_j\n"
                 "AllReduce,2,16,1024,1e-5,1e-2\n"
                 "AllReduce,2,16,1024,2e-5,2e-2\n")
    with pytest.raises(ValidationError):
        load_comm_calibration(p)


def test_load_minimal_and_provenance(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("# measured on rig X\n"
                 "kind,world,sm_count,bytes,latency_s,energy_j\n"
                 "AllReduce,2,16,1024,1e-5,1e-2\n"
                 "AllReduce,2,16,2048,2e-5,2e-2\n")
    t = load_comm_calibration(p)
    assert t.provenance == "measured on rig X"
    assert len(t.curves) == 1


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("kind,world,bytes,latency_s,energy_j\nAllReduce,2,1024,1,1\n")
    with pytest.raises(ValidationError):
        load_comm_calibration(p)


def test_energy_per_bit_decreases_with_size(comm_table):
    curve = comm_table.curves[(ALLREDUCE, 8, 108)]
    per_bit = [e / s for s, e in zip(curve.sizes, curve.energies)]
    for a, b in zip(per_bit, per_bit[1:]):
        assert b <= a * (1 + 1e-12)


def test_monotone_latency_interpolation(comm_table):
    curve_key = (ALLREDUCE, 4, 16)
    sizes = [2 ** k for k in range(10, 31)]
    lats = [estimate_comm(CommDescriptor(ALLREDUCE, float(s), 4, sm_count=16),
                          comm_table).latency for s in sizes]
    assert lats == sorted(lats)


def test_synthetic_table_coverage():
    t = synthetic_comm_table()
    for kind in (ALLREDUCE, REDUCESCATTER, ALLGATHER, ALLTOALL):
        for world in (2, 4, 8):
            assert t.has_key(kind, world)
    curve = t.curves[(ALLREDUCE, 2, 108)]
    assert curve.sizes[0] == 1024.0
    assert curve.sizes[-1] == pytest.approx(2 ** 30)


_SM_COUNTS = (1, 4, 16, 108)
_SIZES = synthetic_comm_table().curves[(ALLREDUCE, 2, 1)].sizes


@pytest.fixture(scope="module")
def table_without_alltoall_at_8():
    """The synthetic table less its AllToAll curves at world 8, which
    therefore fall back to ReduceScatter."""
    full = synthetic_comm_table(sm_counts=_SM_COUNTS)
    return CommCalibrationTable({key: curve for key, curve in full.curves.items()
                                 if key[:2] != (ALLTOALL, 8)})


@pytest.fixture(scope="module")
def shared_backend(table_without_alltoall_at_8):
    # One backend across all examples, so most lookups hit its curve memo.
    return CommBackend(table_without_alltoall_at_8)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from([ALLREDUCE, REDUCESCATTER, ALLGATHER, ALLTOALL]),
       world=st.sampled_from([2, 4, 8]),
       sm_count=st.one_of(st.none(), st.sampled_from(_SM_COUNTS),
                          st.integers(1, 200)),
       size=st.one_of(st.sampled_from(_SIZES), st.floats(1.0, 1e11)))
def test_backend_memo_matches_estimate_comm(table_without_alltoall_at_8,
                                           shared_backend, kind, world,
                                           sm_count, size):
    # Exact SM hits, blends between calibrated counts, clamps above 108,
    # floor clamps below 1 KiB, slope extension above 1 GiB and the
    # AllToAll fallback at world 8.
    desc = CommDescriptor(kind, size, world, sm_count=sm_count)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = estimate_comm(desc, table_without_alltoall_at_8)
        assert shared_backend.estimate(desc) == want
        assert shared_backend.estimate(desc) == want
