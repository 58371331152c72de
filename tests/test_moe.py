"""MoE routing statistics, tile quantization, and imbalance aggregation."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llm_energy import (
    CostEstimate,
    RoutingTrace,
    ValidationError,
    aggregate_moe,
    stats_from_trace,
    uniform_routing,
)
from llm_energy.moe import fold_imbalance, quantize_tokens

import reference


def test_quantize_tokens():
    assert quantize_tokens(1, 16) == 16
    assert quantize_tokens(16, 16) == 16
    assert quantize_tokens(17, 16) == 32
    assert quantize_tokens(0, 16) == 0.0
    assert quantize_tokens(5, 1) == 5
    with pytest.raises(ValidationError):
        quantize_tokens(4, 0)


def test_uniform_decode_tile_floor():
    stats = uniform_routing(batch=1, s=1, top_k=8, total_experts=128,
                            ep_degree=4, tile=16)
    assert stats.t_avg == stats.t_max == 16.0
    assert stats.e_avg == stats.e_max == 8 / 4  # 8 activated experts over EP4
    assert stats.balanced


def test_uniform_bottleneck_holds_whole_expert():
    # Batch-1 decode activates 8 of 128 experts; over EP16 the average GPU
    # holds half an expert but the bottleneck GPU holds a whole one.
    stats = uniform_routing(batch=1, s=1, top_k=8, total_experts=128,
                            ep_degree=16, tile=16)
    assert stats.e_avg == 0.5
    assert stats.e_max == 1.0
    assert stats.t_avg == stats.t_max == 16.0
    assert not stats.balanced
    # 24 activated over EP16: ceil(1.5) = 2 experts on the bottleneck.
    stats = uniform_routing(batch=3, s=1, top_k=8, total_experts=128,
                            ep_degree=16, tile=16)
    assert (stats.e_avg, stats.e_max) == (1.5, 2.0)


def test_uniform_prefill():
    stats = uniform_routing(batch=4, s=1024, top_k=8, total_experts=128,
                            ep_degree=4, tile=16)
    assert stats.t_avg == 4 * 1024 * 8 / 128 == 256.0
    assert stats.e_avg == 128 / 4 == 32.0


def test_uniform_tile_1_exact():
    stats = uniform_routing(batch=4, s=100, top_k=8, total_experts=128,
                            ep_degree=2, tile=1)
    assert stats.t_avg == 4 * 100 * 8 / 128


def test_uniform_divisibility():
    with pytest.raises(ValidationError):
        uniform_routing(1, 1, 8, 100, 3)


def test_trace_all_on_gpu0():
    # 8 tokens all picking expert 0 (of 4 experts, EP2).
    trace = RoutingTrace(tuple((0,) for _ in range(8)))
    stats = stats_from_trace(trace, total_experts=4, ep_degree=2, tile=16)
    assert stats.e_max == 1.0
    assert stats.e_avg == 0.5  # GPU 1 activates nothing
    assert stats.t_max == 16.0
    assert stats.t_avg == 8.0


def test_trace_balanced():
    trace = RoutingTrace(tuple((i % 4,) for i in range(64)))
    stats = stats_from_trace(trace, total_experts=4, ep_degree=2, tile=16)
    assert stats.balanced
    assert stats.t_avg == 16.0
    assert stats.e_avg == 2.0


def test_trace_single_token():
    stats = stats_from_trace(RoutingTrace(((2,),)), 4, 2, tile=16)
    assert stats.t_max == 16.0
    assert stats.e_max == 1.0


def test_trace_index_out_of_range():
    with pytest.raises(ValidationError):
        stats_from_trace(RoutingTrace(((9,),)), 4, 2)


def test_trace_load(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text("# token,expert...\n0,1,3\n1,0,2\n2,1,1\n")
    trace = RoutingTrace.load(p)
    assert trace.top_k == 2
    assert trace.choices == ((1, 3), (0, 2), (1, 1))


def test_loaded_trace_holds_counts_and_builds_rows_on_request(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text("0,5,+2\n1, 05,2\ntoken,3,5\n")
    trace = RoutingTrace.load(p)
    assert trace.top_k == 2
    assert list(trace.expert_counts.items()) == [(5, 3), (2, 2), (3, 1)]
    assert "choices" not in vars(trace)
    assert trace == RoutingTrace(((5, 2), (5, 2), (3, 5)))
    assert trace.choices == ((5, 2), (5, 2), (3, 5))
    assert hash(trace) == hash(RoutingTrace(((5, 2), (5, 2), (3, 5))))


def test_check_experts_names_the_trace_file(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text("0,1,7\n1,9,2\n")
    RoutingTrace.load(p).check_experts(10)
    with pytest.raises(ValidationError,
                       match=f"^{p}: expert index 7 out of range for 4 experts$"):
        RoutingTrace.load(p).check_experts(4)
    with pytest.raises(ValidationError, match="^routing trace: expert index -1 "):
        RoutingTrace(((0, -1),)).check_experts(4)


# An expert index and the ways a cell may write it; a token cell, which is
# never read; and lines that are no row.
_EXPERT_CELL = st.integers(0, 40).flatmap(lambda e: st.sampled_from(
    [str(e), f" {e}", f"+{e}", f"0{e}", f"{e} ", f"-{e}"]))
_TOKEN_CELL = st.sampled_from(["0", "17", " 3", "tok", "", "a#b"])
_NO_ROW = st.sampled_from(["", "   ", "# token,experts", "  # note", "#"])
_BAD_CELL = st.sampled_from(["x", "", "1.5", "nan", "1e3", "0x1f"])


@st.composite
def _trace_file(draw):
    """A trace file's bytes: rows of one width among comments and blank
    lines, often more than one block of rows long, perhaps with a fault."""
    top_k = draw(st.integers(1, 4))
    row = st.tuples(_TOKEN_CELL, st.lists(_EXPERT_CELL, min_size=top_k,
                                          max_size=top_k))
    pattern = draw(st.permutations([draw(row), *draw(st.lists(
        st.one_of(row, row, _NO_ROW), max_size=7))]))
    lines = [",".join([line[0], *line[1]]) if isinstance(line, tuple) else line
             for line in pattern * draw(st.integers(1, 9) | st.integers(100, 300))]
    fault = draw(st.sampled_from(["none", "none", "short", "long", "cell",
                                  "width 1", "empty", "comments", "byte"]))
    where = draw(st.integers(0, 10 ** 4)) % len(lines)
    if fault == "short":
        lines[where] = ",".join(["0"] + ["1"] * (top_k - 1))
    elif fault == "long":
        lines[where] = ",".join(["0"] + ["1"] * (top_k + 1))
    elif fault == "cell":
        cells = ["0"] + ["1"] * top_k
        cells[draw(st.integers(0, top_k))] = draw(_BAD_CELL)
        lines[where] = ",".join(cells)
    elif fault == "width 1":
        lines = [line if line.strip()[:1] in ("", "#") else line.split(",")[0]
                 for line in lines]
    elif fault in ("empty", "comments"):
        lines = [] if fault == "empty" else ["# routing trace", "", "#"]
    data = draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode() + b"\n"
    if fault == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _as_loaded(path):
    trace = RoutingTrace.load(path)
    top_k, counts = trace.top_k, list(trace.expert_counts.items())
    assert "choices" not in vars(trace)  # reading these built no rows
    return trace.choices, top_k, counts


def _as_reference(path):
    choices, top_k, counts = reference.load_trace(path)
    return choices, top_k, list(counts.items())


@settings(max_examples=200, deadline=None)
@given(data=_trace_file())
def test_trace_load_equals_reference(tmp_path_factory, data):
    # The rows, top_k and per-expert counts in order, or the message of the
    # same fault, as converting every cell and counting the rows gives them.
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    path.write_bytes(data)

    def outcome(load):
        try:
            return load(path)
        except ValidationError as exc:
            return str(exc)

    assert outcome(_as_loaded) == outcome(_as_reference)


def _brute_force_stats(choices, total_experts, ep_degree, tile):
    """Independent assignment simulator for stats_from_trace."""
    counts = [0] * total_experts
    for row in choices:
        for e in row:
            counts[e] += 1

    def quant(c):
        if c <= 0:
            return 0.0
        full, rem = divmod(c, tile)
        return float(tile * (full + (1 if rem else 0)))

    per = total_experts // ep_degree
    gpus = []
    for g in range(ep_degree):
        qs = [quant(c) for c in counts[g * per:(g + 1) * per] if c > 0]
        gpus.append((sum(qs), len(qs), (sum(qs) / len(qs)) if qs else 0.0))
    work = [g[0] for g in gpus]
    bn = work.index(max(work))
    t_avg = sum(g[2] for g in gpus) / ep_degree
    e_avg = sum(g[1] for g in gpus) / ep_degree
    return t_avg, gpus[bn][2], e_avg, gpus[bn][1]


def test_trace_oracle_random():
    rng = random.Random(42)
    for _ in range(200):
        n_tokens = rng.randint(1, 64)
        top_k = rng.randint(1, 4)
        ep = rng.choice([2, 4])
        total = 16
        choices = tuple(tuple(rng.randrange(total) for _ in range(top_k))
                        for _ in range(n_tokens))
        tile = rng.choice([1, 4, 16])
        stats = stats_from_trace(RoutingTrace(choices), total, ep, tile)
        t_avg, t_max, e_avg, e_max = _brute_force_stats(choices, total, ep, tile)
        assert stats.t_avg == pytest.approx(t_avg)
        assert stats.t_max == pytest.approx(t_max)
        assert stats.e_avg == pytest.approx(e_avg)
        assert stats.e_max == pytest.approx(e_max)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 4).flatmap(lambda top_k: st.lists(
           st.lists(st.integers(-2, 33), min_size=top_k, max_size=top_k),
           min_size=1, max_size=80)),
       layouts=st.lists(st.tuples(st.sampled_from([8, 16, 32]),
                                  st.sampled_from([1, 2, 4, 8])),
                        min_size=1, max_size=3),
       tile=st.sampled_from([1, 4, 16]))
def test_trace_stats_equal_brute_force(rows, layouts, tile):
    # One trace read at several expert layouts, as a sweep reads it at
    # several ep degrees: each read equals the simulator exactly, and an
    # index out of range names the first such index in row order.
    choices = tuple(map(tuple, rows))
    trace = RoutingTrace(choices)
    flat = [e for row in choices for e in row]
    # Counted in the order the rows first name each index.
    assert list(trace.expert_counts.items()) == list(Counter(flat).items())
    for total, ep in layouts:
        bad = [e for e in flat if not 0 <= e < total]
        if bad:
            with pytest.raises(ValidationError,
                               match=f"^expert index {bad[0]} out of range$"):
                stats_from_trace(trace, total, ep, tile)
            continue
        stats = stats_from_trace(trace, total, ep, tile)
        assert ((stats.t_avg, stats.t_max, stats.e_avg, stats.e_max)
                == _brute_force_stats(choices, total, ep, tile))


def test_aggregate_direct_substitution():
    cost = aggregate_moe([CostEstimate(1.0, 100.0)],
                         [CostEstimate(1.5, 180.0)], p_idle=50.0)
    assert cost.latency == 1.5
    assert cost.energy == pytest.approx(125.0)  # 100 + 0.5s idle at 50 W


def test_aggregate_balanced():
    costs = [CostEstimate(0.5, 60.0), CostEstimate(0.25, 20.0)]
    out = aggregate_moe(costs, costs, p_idle=50.0)
    assert out.latency == 0.75
    assert out.energy == 80.0


def test_aggregate_clamps_bottleneck_to_average():
    # A bottleneck kernel faster than the average GPU's is clamped to the
    # average latency and adds no idle energy.
    avg, mx = CostEstimate(2.0, 10.0), CostEstimate(1.0, 3.0)
    assert fold_imbalance(avg, mx, 50.0) == avg
    assert aggregate_moe([avg], [mx], 50.0) == avg
    with pytest.raises(ValidationError):
        aggregate_moe([avg], [], 50.0)


def test_aggregate_energy_lower_bound():
    rng = random.Random(1)
    for _ in range(50):
        avg, mx = [], []
        for _ in range(rng.randint(1, 6)):
            la = rng.uniform(0.01, 1.0)
            avg.append(CostEstimate(la, la * rng.uniform(100, 400)))
            mx.append(CostEstimate(la * rng.uniform(1.0, 2.0), 0.0))
        out = aggregate_moe(avg, mx, p_idle=80.0)
        assert out.energy >= sum(c.energy for c in avg) - 1e-12
