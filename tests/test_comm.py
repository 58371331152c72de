"""Communication model tests: loading, interpolation, SM resolution."""

import math
import random
import warnings
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings
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
from llm_energy.comm import _KEPT_COLUMNS, CommCalibrationTable, CommCurve, EffectiveCurve
from llm_energy.fixtures import fixture_path
from llm_energy.interpreter import (ALLGATHER, ALLREDUCE, ALLTOALL, REDUCESCATTER,
                                   CommColumns)

import reference


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

    def latency(sm_query):
        return resolve_sm_curve(REDUCESCATTER, 8, sm_query, t).columns([1e3])[0][0]

    assert latency(4) == 4e-5
    # sm=10 is halfway between 4 and 16: log-blend = geometric mean.
    assert latency(10) == pytest.approx(
        math.exp(0.5 * (math.log(4e-5) + math.log(1e-5))), rel=1e-12)
    assert 1e-5 < latency(10) < 4e-5
    # Outside the calibrated range: clamp to nearest.
    assert latency(100) == 1e-5
    assert latency(1) == 4e-5


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


def test_load_rejects_sizes_with_equal_logs(tmp_path):
    # 1000.0 < 1000.0000000000001, but their logs are equal: no segment
    # lies between them to interpolate over.
    p = tmp_path / "cal.csv"
    p.write_text("kind,world,sm_count,bytes,latency_s,energy_j\n"
                 "AllReduce,2,16,1000.0,1e-5,1e-2\n"
                 "AllReduce,2,16,1000.0000000000001,2e-5,2e-2\n")
    with pytest.raises(ValidationError, match="have the same log"):
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


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from([ALLREDUCE, REDUCESCATTER, ALLGATHER, ALLTOALL]),
       world=st.sampled_from([2, 4, 8]),
       sm_count=st.one_of(st.none(), st.sampled_from(_SM_COUNTS),
                          st.integers(1, 200)),
       sizes=st.lists(st.one_of(st.sampled_from(_SIZES), st.floats(1.0, 1e11)),
                      min_size=1, max_size=8))
# Below the first calibrated size (floor clamp), between sizes
# (interpolated), on one, above the last (extrapolated), at an SM count
# between two calibrated ones (blended) and through the AllToAll fallback.
@example(kind=ALLTOALL, world=8, sm_count=8,
         sizes=[100.0, 5000.0, _SIZES[3], 2.0 ** 31])
@example(kind=ALLREDUCE, world=2, sm_count=None,
         sizes=[100.0, 5000.0, _SIZES[3], 2.0 ** 31])
def test_column_pricing_equals_scalar_pricing(shared_backend, kind, world,
                                              sm_count, sizes):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        latencies, energies = shared_backend.estimate_columns(
            CommColumns(kind, sizes, world, sm_count))
        want = [shared_backend.estimate(CommDescriptor(kind, size, world,
                                                       sm_count=sm_count))
                for size in sizes]
    assert list(zip(latencies, energies)) == [(c.latency, c.energy) for c in want]


def test_equal_byte_columns_on_one_curve_are_priced_once(comm_table):
    # The AllReduces after attention and after the FFN carry equal byte
    # columns: the second takes the first's arrays. Another SM count, or
    # another column, is priced on its own, and so is a pair pushed out by
    # _KEPT_COLUMNS later ones.
    def column(sizes, sm_count=None):
        return CommColumns(ALLREDUCE, sizes, 2, sm_count)

    backend, fresh = CommBackend(comm_table), CommBackend(comm_table)
    priced = []
    columns = EffectiveCurve.columns

    def counting(curve, sizes):
        priced.append(list(sizes))
        return columns(curve, sizes)

    sizes = [2.0 ** 20, 3e7, 2.0 ** 31]
    with mock.patch.object(EffectiveCurve, "columns", counting):
        first = backend.estimate_columns(column(array("d", sizes)))
        assert backend.estimate_columns(column(array("d", sizes))) is first
        assert backend.estimate_columns(column(list(sizes))) == first
        assert backend.estimate_columns(column(list(sizes))) is not first
        assert len(priced) == 2
        other = backend.estimate_columns(column(array("d", sizes), sm_count=4))
        assert other != first and len(priced) == 3
        for i in range(_KEPT_COLUMNS):
            backend.estimate_columns(column(array("d", [1e3 * (i + 1)])))
        assert backend.estimate_columns(column(array("d", sizes))) == first
        assert len(priced) == 4 + _KEPT_COLUMNS
    assert first == fresh.estimate_columns(column(sizes))
    assert other == fresh.estimate_columns(column(sizes, sm_count=4))


def _interp_from_scratch(curve, values, size):
    """CommCurve's lookup with every log taken at the query."""
    sizes = curve.sizes
    if size <= sizes[0]:
        return values[0]
    if size >= sizes[-1]:
        lo, hi = len(sizes) - 2, len(sizes) - 1
    else:
        hi = next(i for i, s in enumerate(sizes) if s >= size)
        lo = hi - 1
        if sizes[hi] == size:
            return values[hi]
    x0, x1 = math.log(sizes[lo]), math.log(sizes[hi])
    y0, y1 = math.log(values[lo]), math.log(values[hi])
    frac = (math.log(size) - x0) / (x1 - x0)
    return math.exp(y0 + frac * (y1 - y0))


_POSITIVE = st.floats(1e-9, 1e12, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(samples=st.lists(st.tuples(_POSITIVE, _POSITIVE, _POSITIVE), min_size=2,
                        max_size=12, unique_by=lambda sample: sample[0]),
       queries=st.lists(st.floats(1e-12, 1e15), min_size=1, max_size=10))
def test_cached_logs_lookup_equals_formula(samples, queries):
    # The curve takes each sample's log once; every lookup, floor-clamped,
    # on a sample, interpolated or extrapolated, equals the lookup with the
    # logs taken at the query.
    samples.sort()
    curve = CommCurve(*map(list, zip(*samples)))
    queries += [s for s, _, _ in samples]
    def outcome(lookup, *args):
        try:
            return lookup(*args)
        except ArithmeticError as exc:  # sizes with equal logs, or steep
            return type(exc)            # extrapolation: both ways alike

    def lookup(size):
        latencies, energies = curve.columns([size])
        return latencies[0], energies[0]

    want = []
    for size in queries:
        got = outcome(lookup, size)
        expected = tuple(outcome(_interp_from_scratch, curve, values, size)
                         for values in (curve.latencies, curve.energies))
        if isinstance(got, type):
            assert got in expected
        else:
            assert got == expected
        want.append(got)
    # A column of the same queries, in one pass: each size's latency and
    # energy as a lookup of that size alone gives them, or its error.
    if any(isinstance(value, type) for value in want):
        with pytest.raises(ArithmeticError):
            curve.columns(queries)
    else:
        assert list(zip(*curve.columns(queries))) == want


# -- the loader against the reference ----------------------------------------------

_FIXTURE_LINES = fixture_path("comm_synthetic.csv").read_text().splitlines()
_PREAMBLE, _ROWS = _FIXTURE_LINES[:2], [line.split(",") for line in _FIXTURE_LINES[2:]]
_BAD_VALUES = ("nan", "inf", "0", "-1", "-inf", "0.0")


def _put(row, k, value):
    """Write cell ``k`` of ``row`` if the row has it (a short row may not)
    and ``value`` is not None."""
    if k < len(row) and value is not None:
        row[k] = value


def _edit(rows, name, i, j):
    """Apply one named edit at row ``i`` (with ``j`` its second choice).
    At most four edits leave a row at least its kind and world cells."""
    n = len(rows)
    row = rows[i % n]
    before = rows[i % n - 1] if i % n else rows[-1]
    size = before[3] if len(before) > 3 else None  # the size before, if any
    if name == "move":             # a curve's rows no longer contiguous
        rows.insert(j % n, rows.pop(i % n))
    elif name == "move two":       # two runs of one curve, each of two rows
        k = i % (n - 1)
        pair = rows[k:k + 2]
        del rows[k:k + 2]
        rows[j % (n - 1):j % (n - 1)] = pair
    elif name == "swap":           # two rows out of size order
        k = i % (n - 1)
        rows[k], rows[k + 1] = rows[k + 1], rows[k]
    elif name == "duplicate size":
        _put(row, 3, size)
    elif name == "equal logs":     # the next float above the size before
        _put(row, 3, None if size is None else
             repr(math.nextafter(float(size), math.inf)))
    elif name == "unknown kind":
        row[0] = "Broadcast"
    elif name == "world 1":
        row[1] = "1"
    elif name == "sm 0":
        _put(row, 2, "0")
    elif name == "one-point curve":  # a key of its own, as the last row
        rows.append([ALLREDUCE, "16", "16", "1024.0", "1e-05", "0.01"])
    elif name == "value":          # each bad value in each numeric column
        _put(row, 3 + j % 3, _BAD_VALUES[j // 3 % len(_BAD_VALUES)])
    elif name == "padded kind":    # other cells, the same key
        row[0] = f" {row[0]} "
    elif name == "padded world":
        row[1] = "0" + row[1]
    elif name == "text world":     # a cell that is not an integer
        row[1] = "two"
    elif name == "text size":
        _put(row, 3, "x")
    elif name == "short row":
        del row[-1]
    elif name == "no rows":        # the preamble and header alone
        rows.clear()
    else:
        raise AssertionError(name)


_EDITS = ("move", "move two", "swap", "duplicate size", "equal logs", "unknown kind",
          "world 1", "sm 0", "one-point curve", "value", "padded kind",
          "padded world", "text world", "text size", "short row")


def _loaded_or_message(load, path):
    try:
        return load(path)
    except ValidationError as exc:
        return str(exc)


def _assert_loads_as_reference(path, edits):
    rows = [list(row) for row in _ROWS]
    for edit in edits:
        _edit(rows, *edit)
    path.write_text("\n".join(_PREAMBLE + [",".join(row) for row in rows]) + "\n")
    want = _loaded_or_message(reference.load_comm_calibration, path)
    got = _loaded_or_message(load_comm_calibration, path)
    if isinstance(want, str):
        assert got == want
        return
    curves, provenance = want
    assert [(key, (curve.sizes, curve.latencies, curve.energies))
            for key, curve in got.curves.items()] == list(curves.items())
    assert got.provenance == provenance


@pytest.mark.parametrize("edits", [
    [],
    *([(name, 500, 90)] for name in _EDITS),
    *([("value", 500, j)] for j in range(3 * len(_BAD_VALUES))),
    [("move", 3, 400), ("move", 700, 5)],   # two curves interleaved
    [("move two", 3, 400)],
    [("swap", 40, 0), ("padded kind", 41, 0)],
    [("value", 600, 2), ("text world", 300, 0)],  # the first fault named
    [("short row", 900, 0), ("text size", 100, 0)],
    [("no rows", 0, 0)],
], ids=repr)
def test_loader_equals_reference_on_fixture_edits(tmp_path, edits):
    _assert_loads_as_reference(tmp_path / "cal.csv", edits)


def test_loader_equals_reference_on_random_edits(tmp_path_factory):
    path = tmp_path_factory.mktemp("comm") / "cal.csv"

    @settings(max_examples=150, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(_EDITS),
                                    st.integers(0, 2000), st.integers(0, 2000)),
                          max_size=4))
    @example(edits=[("short row", 0, 0), ("value", 0, 158)])  # a cell it lacks
    def check(edits):
        _assert_loads_as_reference(path, edits)

    check()


def _curves(table):
    return {key: (curve.sizes, curve.latencies, curve.energies)
            for key, curve in table.curves.items()}


def _prices(table):
    backend = CommBackend(table)
    sizes = array("d", [100.0, 1024.0, 3e5, 2.0 ** 24 + 1, 2.0 ** 30, 2.0 ** 32])
    prices = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kind in (ALLREDUCE, REDUCESCATTER, ALLGATHER, ALLTOALL):
            for world in (2, 4, 8):
                for sm_count in (None, 1, 8, 16, 60, 108, 200):
                    prices[kind, world, sm_count] = tuple(
                        column.tobytes() for column in backend.estimate_columns(
                            CommColumns(kind, sizes, world, sm_count)))
    return prices


@pytest.mark.parametrize("order", ["shuffled", "two keys interleaved"])
def test_loader_ignores_row_order(tmp_path, comm_table, order):
    rows = list(_ROWS)
    if order == "shuffled":
        random.Random(24).shuffle(rows)
    else:
        # The rows of the first two keys alternate, the second's from its
        # largest size down.
        first, second = rows[:21], rows[21:42][::-1]
        keys = [{tuple(row[:3]) for row in group} for group in (first, second)]
        assert len(keys[0]) == len(keys[1]) == 1 and keys[0] != keys[1]
        rows[:42] = [row for pair in zip(first, second) for row in pair]
    assert rows != _ROWS
    path = tmp_path / "cal.csv"
    path.write_text("\n".join(_PREAMBLE + [",".join(row) for row in rows]) + "\n")
    table = load_comm_calibration(path)
    assert _curves(table) == _curves(comm_table)
    assert table.provenance == comm_table.provenance
    assert _prices(table) == _prices(comm_table)
