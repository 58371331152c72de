"""Fuzzing of the input loaders on mutated copies of the shipped fixtures.

Each example truncates a fixture, flips one of its bytes, or sets one of
its cells (a CSV field or a JSON scalar) to a hostile value. The loader must
return or raise SpecError/ValidationError; a table that loads must price a
query to finite values.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llm_energy import (
    CommBackend,
    CommDescriptor,
    GemmCalibrationTable,
    RoutingTrace,
    SpecError,
    ValidationError,
    load_bindings,
    load_comm_calibration,
    load_hardware_profile,
    load_model_spec,
    stats_from_trace,
)
from llm_energy.compute import estimate_gemm, estimate_memory_op
from llm_energy.fixtures import fixture_path
from llm_energy.interpreter import GemmDescriptor, MemoryOpDescriptor

_VALUES = [b"", b'""', b"nan", b"NaN", b"-1", b"0", b"1e400", b"\xff"]
# A CSV field, or a JSON scalar (quoted string, number or literal).
_CELL = re.compile(rb'"[^"\n]*"|[^,\n:{}\[\]\s"]+')
_TRACE = b"# token,experts\n0,1,3\n1,0,2\n2,1,1\n3,2,0\n4,3,1\n"
_GEMMS = [GemmDescriptor(1, 128, 4096, 4096, 2), GemmDescriptor(8, 64, 2048, 1536, 2),
          GemmDescriptor(1, 1, 1, 1, 2)]


def _price_comm(table):
    backend = CommBackend(table)
    for kind, world, sm in table.curves:
        for size in (1.0, 1e6, 2 * table.curves[(kind, world, sm)].sizes[-1]):
            for sm_count in (sm, None):
                cost = backend.estimate(CommDescriptor(kind, size, world, sm_count))
                yield from (cost.latency, cost.energy)


def _price_gemm(table):
    for g in _GEMMS:
        cost = table.estimate_gemm(g)
        yield from (cost.latency, cost.energy)


def _price_hw(hw):
    for cost in [estimate_gemm(g, hw) for g in _GEMMS] + [
            estimate_memory_op(MemoryOpDescriptor(1e6), hw)]:
        yield from (cost.latency, cost.energy)


def _route(trace):
    try:
        stats = stats_from_trace(trace, 4, 2)
    except ValidationError:  # an expert index outside the 4 experts
        return
    yield from (stats.t_avg, stats.t_max, stats.e_avg, stats.e_max)


def _nothing(loaded):
    return ()


# (loader, fixture bytes, pricing of what loaded)
_CASES = {
    **{name: (load_model_spec, fixture_path(name).read_bytes(), _nothing)
       for name in ("dense_fused.json", "dense_unfused.json",
                    "dense_fused_cp.json", "moe_fused.json")},
    **{name: (load_bindings, fixture_path(name).read_bytes(), _nothing)
       for name in ("llama3_8b.json", "llama3_70b.json", "qwen3_30b_a3b.json")},
    "a100_sxm_80g.json": (load_hardware_profile,
                          fixture_path("a100_sxm_80g.json").read_bytes(), _price_hw),
    "comm_synthetic.csv": (load_comm_calibration,
                           fixture_path("comm_synthetic.csv").read_bytes(),
                           _price_comm),
    "gemm_synthetic.csv": (GemmCalibrationTable.load,
                           fixture_path("gemm_synthetic.csv").read_bytes(),
                           _price_gemm),
    "trace.csv": (RoutingTrace.load, _TRACE, _route),
}


@st.composite
def _mutation(draw, data: bytes) -> bytes:
    how = draw(st.sampled_from(["truncate", "flip", "cell"]))
    if how == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if how == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    cell = draw(st.sampled_from(list(_CELL.finditer(data))))
    return data[:cell.start()] + draw(st.sampled_from(_VALUES)) + data[cell.end():]


@pytest.mark.parametrize("name", sorted(_CASES))
def test_loader_accepts_or_rejects_mutated_fixture(name, tmp_path_factory):
    loader, data, price = _CASES[name]
    path = tmp_path_factory.mktemp("fuzz") / name

    @settings(max_examples=150, deadline=None)
    @given(mutated=_mutation(data))
    def check(mutated):
        path.write_bytes(mutated)
        try:
            loaded = loader(path)
        except (SpecError, ValidationError):
            return
        assert all(math.isfinite(v) for v in price(loaded))

    check()
