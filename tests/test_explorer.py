"""Sweep, Pareto frontier, heuristic recovery, and insight query tests."""

import random
import sys
from collections import Counter
from itertools import product

import pytest

from llm_energy import (
    ConfigPoint,
    Estimator,
    GemmCalibrationTable,
    PhaseContext,
    RoutingTrace,
    TableComputeBackend,
    ValidationError,
    apply_overlap_setting,
    heuristic_compare,
    insight_queries,
    pareto_front,
    recovery_rate,
    sweep,
)
from llm_energy import engine
from llm_energy.explorer import max_overlap_setting, normalize_grid
from llm_energy.fixtures import fixture_path
from llm_energy.interpreter import DECODE, PREFILL


def _pt(lat, en, phase=PREFILL, **kw):
    base = dict(phase=phase, batch=1, isl=1, osl=1, tp=1, ep=1, cp=1,
                overlap=None, feasible=True, latency=lat, energy=en)
    base.update(kw)
    return ConfigPoint(**base)


def test_frontier_example():
    pts = [_pt(1, 10, batch=1), _pt(2, 5, batch=2), _pt(3, 6, batch=3)]
    front = pareto_front(pts).frontier
    assert {(p.latency, p.energy) for p in front} == {(1, 10), (2, 5)}


def test_all_identical_kept():
    pts = [_pt(1, 1, batch=b) for b in (1, 2, 3)]
    assert len(pareto_front(pts).frontier) == 3


def test_mixed_phases_rejected():
    with pytest.raises(ValidationError):
        pareto_front([_pt(1, 1), _pt(2, 2, phase="decode")])


def test_infeasible_excluded_from_frontier():
    pts = [_pt(1, 10), ConfigPoint(PREFILL, 9, 9, 9, 1, 1, 1, None,
                                   feasible=False, infeasible_reason="oom")]
    assert len(pareto_front(pts).frontier) == 1


def test_monotone_augmentation():
    pts = [_pt(1, 10, batch=1), _pt(2, 5, batch=2)]
    base = {p.identity for p in pareto_front(pts).frontier}
    with_dominated = pts + [_pt(3, 20, batch=3)]
    assert {p.identity for p in pareto_front(with_dominated).frontier} == base
    with_dominating = pts + [_pt(0.5, 1, batch=4)]
    new_front = {p.identity for p in pareto_front(with_dominating).frontier}
    assert len(new_front & base) < len(base)


def _oracle_frontier(points):
    """O(n^2) dominance oracle."""
    feas = [p for p in points if p.feasible]
    front = []
    for p in feas:
        dominated = any(
            q.latency <= p.latency and q.energy <= p.energy
            and (q.latency < p.latency or q.energy < p.energy)
            for q in feas)
        if not dominated:
            front.append(p)
    return front


def test_frontier_matches_oracle_random():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 200)
        pts = [_pt(rng.randint(1, 20), rng.randint(1, 20), batch=i)
               for i in range(n)]
        got = {id(p) for p in pareto_front(pts).frontier}
        want = {id(p) for p in _oracle_frontier(pts)}
        assert got == want


def test_recovery_rate_example():
    ref = [_pt(i, 10 - i, batch=i) for i in range(1, 6)]  # 5-point frontier
    candidate = [ref[0]]
    assert recovery_rate(candidate, ref) == pytest.approx(0.2)
    assert recovery_rate(ref, ref) == 1.0
    with pytest.raises(ValidationError):
        recovery_rate(candidate, [])


def test_max_overlap_setting():
    pts = [_pt(1, 1, batch=1, overlap=(2, 4)), _pt(1, 1, batch=2, overlap=(4, 16)),
           _pt(1, 1, batch=3, overlap=(8, 4)), _pt(1, 1, batch=4)]
    assert max_overlap_setting(pts) == (4, 16)
    with pytest.raises(ValidationError):
        max_overlap_setting([_pt(1, 1)])


def test_normalize_grid():
    grid = normalize_grid({"batch": [1, 2], "overlap": ["none", "4:16"]})
    assert grid["batch"] == [1, 2]
    assert grid["tp"] == [1]
    assert grid["overlap"] == [None, (4, 16)]
    with pytest.raises(ValidationError):
        normalize_grid({"bogus": [1]})
    with pytest.raises(ValidationError):
        normalize_grid({"batch": [0]})
    with pytest.raises(ValidationError):
        normalize_grid({"batch": []})
    with pytest.raises(ValidationError, match="JSON object"):
        normalize_grid([1, 2])
    for bad in ({"overlap": ["bad"]}, {"overlap": [[2]]}, {"overlap": [5]},
                {"batch": ["abc"]}, {"batch": 4}, {"batch": [{}]}):
        with pytest.raises(ValidationError):
            normalize_grid(bad)


def test_sweep_single_point(dense_spec, dims_8b, hw, roofline, comm_backend):
    pts = sweep(dense_spec, dims_8b, {"batch": [2], "isl": [128], "tp": [2]},
                hw, roofline, comm_backend)
    assert len(pts) == 1
    assert pts[0].feasible and pts[0].latency > 0


def test_sweep_cardinality_and_infeasible(dense_spec, dims_70b, hw, roofline,
                                          comm_backend):
    grid = {"batch": [1, 64], "isl": [128, 131072], "tp": [2]}
    pts = sweep(dense_spec, dims_70b, grid, hw, roofline, comm_backend)
    assert len(pts) == 4
    flags = {(p.batch, p.isl): p.feasible for p in pts}
    assert flags[(1, 128)] is True
    assert flags[(64, 131072)] is False


def test_sweep_thread_determinism(dense_spec, dims_8b, hw, roofline,
                                  comm_backend):
    grid = {"batch": [1, 4], "isl": [256, 1024], "tp": [2, 4]}
    serial = sweep(dense_spec, dims_8b, grid, hw, roofline, comm_backend)
    threaded = sweep(dense_spec, dims_8b, grid, hw, roofline, comm_backend,
                     jobs=4)
    assert [p.to_dict() for p in serial] == [p.to_dict() for p in threaded]


def test_heuristic_compare_identity():
    pts = [_pt(1, 10, batch=1, overlap=(4, 16)), _pt(2, 5, batch=2, overlap=(4, 16))]
    ref = pareto_front(pts).frontier
    out = heuristic_compare(pts, ref)
    assert out["heuristic_recovery"] == 1.0
    assert out["full_recovery"] == 1.0


def test_full_recovery_bounds_heuristic():
    rng = random.Random(11)
    for _ in range(20):
        pts = [_pt(rng.randint(1, 30), rng.randint(1, 30), batch=i,
                   overlap=rng.choice([None, (2, 4), (4, 16)]))
               for i in range(40)]
        if not any(p.overlap is not None for p in pts):
            continue
        ref = pareto_front(pts).frontier
        out = heuristic_compare(pts, ref)
        assert out["full_recovery"] >= out["heuristic_recovery"]


def test_insight_queries_prefill():
    pts = [_pt(2.0, 100.0, batch=4, tp=2, isl=4096),
           _pt(1.0, 600.0, batch=16, tp=8, isl=4096)]
    out = insight_queries(pts)
    row = out["b4tp2_vs_b16tp8"][0]
    assert row["isl"] == 4096
    assert row["etft_b4_tp2"] == 25.0
    assert row["etft_b16_tp8"] == 37.5
    assert out["per_isl_winners"][0]["winner"]["batch"] == 4


def test_insight_queries_decode():
    pts = [_pt(1.0, 160.0, phase="decode", batch=1, tp=8, osl=10),
           _pt(1.5, 320.0, phase="decode", batch=16, tp=8, osl=10)]
    out = insight_queries(pts)
    row = out["epot_batch_ratio"][0]
    assert row["epot_b1"] == 16.0
    assert row["epot_b16"] == 2.0
    assert row["epot_ratio_b16_over_b1"] == pytest.approx(0.125)


def test_insight_queries_missing_configs_note():
    out = insight_queries([_pt(1.0, 1.0, batch=2, tp=2, isl=100)])
    assert out["notes"]


# -- sweep: one compiled layer per (degrees, overlap) group ------------------

def _sweep_point_by_point(spec, dims, grid, hw, compute, comm, phase,
                          **estimator_kwargs):
    """The sweep as a fresh Estimator per grid point, in the sweep's order."""
    axes = normalize_grid(grid)
    combos = sorted(
        product(axes["batch"], axes["isl"], axes["osl"], axes["tp"],
                axes["ep"], axes["cp"], axes["overlap"]),
        key=lambda c: tuple((x is not None, x) if i == 6 else x
                            for i, x in enumerate(c)))
    points = []
    for batch, isl, osl, tp, ep, cp, ov in combos:
        head = (phase, batch, isl, osl, tp, ep, cp, ov)
        run_spec = spec
        if ov is not None:
            if phase == DECODE:
                points.append(ConfigPoint(*head, feasible=False,
                                          infeasible_reason="overlap is prefill-only"))
                continue
            run_spec = apply_overlap_setting(spec, *ov)
        est = Estimator(run_spec, dims, hw, compute, comm, **estimator_kwargs)
        try:
            report = est.estimate(PhaseContext(phase, batch, isl, osl),
                                  {"tp": tp, "ep": ep, "cp": cp})
        except ValidationError as exc:
            points.append(ConfigPoint(*head, feasible=False,
                                      infeasible_reason=str(exc)))
            continue
        if report.feasible:
            points.append(ConfigPoint(*head, feasible=True,
                                      latency=report.total_latency,
                                      energy=report.total_energy))
        else:
            points.append(ConfigPoint(*head, feasible=False,
                                      infeasible_reason=report.infeasible_reason))
    return points


def _skewed_trace():
    rng = random.Random(5)
    return RoutingTrace(tuple(tuple(rng.sample(range(40), 8)) for _ in range(64)))


# Each case mixes feasible points with lowering errors (overlap at tp 1,
# s not divisible by cp, overlap or cp in decode), validation errors
# (K = 8 not divisible by tp 3, E = 128 by ep 3) and memory-infeasible
# points.
_SWEEP_CASES = {
    "dense": ("dense_spec", "dims_8b", PREFILL,
              {"batch": [1, 64], "isl": [512, 131072], "tp": [1, 2, 3],
               "overlap": [None, "2:4", "4:16"]}, {}),
    "unfused": ("unfused_spec", "dims_70b", PREFILL,
                {"batch": [1, 16], "isl": [1024, 65536], "tp": [1, 4, 8],
                 "overlap": ["none", "4:32"]}, {}),
    "cp": ("cp_spec", "dims_8b", PREFILL,
           {"batch": [2], "isl": [255, 1024], "tp": [1, 2], "cp": [1, 2]}, {}),
    "cp-decode": ("cp_spec", "dims_8b", DECODE,
                  {"batch": [2], "isl": [512], "osl": [3], "cp": [1, 2],
                   "overlap": [None, "2:4"]}, {"decode_stride": 2}),
    "moe": ("moe_spec", "dims_moe", PREFILL,
            {"batch": [1, 8], "isl": [128], "tp": [1, 2], "ep": [1, 2, 4],
             "overlap": [None, "2:4"]}, {}),
    "moe-trace-decode": ("moe_spec", "dims_moe", DECODE,
                         {"batch": [1, 4], "isl": [256], "osl": [5],
                          "ep": [2, 3, 4]}, {"decode_stride": 2, "tile": 4,
                                          "routing_trace": "trace"}),
}


@pytest.mark.parametrize("backend", ["roofline", "table"])
@pytest.mark.parametrize("case", list(_SWEEP_CASES))
def test_sweep_equals_fresh_estimator_per_point(request, case, backend, hw,
                                                roofline, comm_backend):
    spec_name, dims_name, phase, grid, kwargs = _SWEEP_CASES[case]
    spec = request.getfixturevalue(spec_name)
    dims = request.getfixturevalue(dims_name)
    compute = roofline if backend == "roofline" else TableComputeBackend(
        GemmCalibrationTable.load(fixture_path("gemm_synthetic.csv")), hw)
    if kwargs.get("routing_trace"):
        kwargs = dict(kwargs, routing_trace=_skewed_trace())
    got = sweep(spec, dims, grid, hw, compute, comm_backend, phase=phase, **kwargs)
    want = _sweep_point_by_point(spec, dims, grid, hw, compute, comm_backend,
                                 phase, **kwargs)
    assert got == want
    reasons = " ".join(p.infeasible_reason for p in want)
    assert any(p.feasible for p in want) and not all(p.feasible for p in want)
    if case == "dense":
        assert "no collective detected" in reasons and "GiB" in reasons
        assert "not divisible by degree 3" in reasons


def test_sweep_compiles_once_per_group(monkeypatch, dense_spec, dims_8b, hw,
                                       roofline, comm_backend):
    calls = Counter()

    def counting(name):
        fn = getattr(engine, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("validate_bindings", "build_memory_model", "compile_layer"):
        monkeypatch.setattr(engine, name, counting(name))
    grid = {"batch": [1, 2, 4], "isl": [256, 512], "tp": [1, 2, 4],
            "overlap": [None, "2:4"]}
    points = sweep(dense_spec, dims_8b, grid, hw, roofline, comm_backend)
    assert len(points) == 36
    # Overlap at tp 1 fails to lower, but only after its layer is compiled.
    assert sum(not p.feasible for p in points) == 6
    groups = 3 * 2  # tp x overlap
    assert calls == {"validate_bindings": groups, "build_memory_model": groups,
                     "compile_layer": groups}


def test_sweep_threads_share_compiled_layers(dense_spec, dims_8b, hw, roofline,
                                             comm_backend):
    grid = {"batch": [1, 2, 4, 8], "isl": [256, 512, 1024], "tp": [1, 2, 4, 8],
            "overlap": [None, "2:4", "4:16"]}
    serial = sweep(dense_spec, dims_8b, grid, hw, roofline, comm_backend)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sweep(dense_spec, dims_8b, grid, hw, roofline, comm_backend,
                         jobs=8)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
