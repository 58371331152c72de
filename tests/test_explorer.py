"""Sweep, Pareto frontier, heuristic recovery, and insight query tests."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from llm_energy import (
    ConfigPoint,
    Estimator,
    GemmCalibrationTable,
    PhaseContext,
    RoutingTrace,
    TableComputeBackend,
    ValidationError,
    heuristic_compare,
    insight_queries,
    pareto_front,
    recovery_rate,
    sweep,
)
from llm_energy import engine, overlap
from llm_energy.explorer import max_overlap_setting, normalize_grid
from llm_energy.fixtures import fixture_path
from llm_energy.interpreter import DECODE, PREFILL, LayerPlan, lower_model
from llm_energy.overlap import StageColumns
from llm_energy.spec_lang import parse_model_spec

import reference


def _pt(lat, en, phase=PREFILL, **kw):
    base = dict(phase=phase, batch=1, isl=1, osl=1, tp=1, ep=1, cp=1,
                overlap=None, feasible=True, latency=lat, energy=en)
    base.update(kw)
    return ConfigPoint(**base)


def test_config_point_fields_defaults_and_rows():
    # A tuple of the fields in order, built by keyword or by position.
    point = ConfigPoint(phase=PREFILL, batch=2, isl=512, osl=1, tp=2, ep=1,
                        cp=1, overlap=(4, 16), feasible=False)
    assert point == ConfigPoint(PREFILL, 2, 512, 1, 2, 1, 1, (4, 16), False,
                                None, None, "")
    assert point.identity == (PREFILL, 2, 512, 1, 2, 1, 1, (4, 16))
    assert point.to_dict() == {
        "phase": PREFILL, "batch": 2, "isl": 512, "osl": 1, "tp": 2, "ep": 1,
        "cp": 1, "overlap": "4:16", "feasible": False, "latency_s": None,
        "energy_j": None, "infeasible_reason": ""}
    assert point != point._replace(latency=1.0)
    # Equality is tuple equality.
    assert point == tuple(point) and point[:2] == (PREFILL, 2)


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
        result = pareto_front(pts)
        got = {id(p) for p in result.frontier}
        want = {id(p) for p in _oracle_frontier(pts)}
        assert got == want
        # Both lists in input order, ties of equal cost included.
        assert [id(p) for p in result.frontier] == [id(p) for p in pts
                                                    if id(p) in want]
        assert [id(p) for p in result.dominated] == [id(p) for p in pts
                                                     if id(p) not in want]


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
    # Integers only, as for overlap settings: no bools, floats or strings.
    for axis, value in (("batch", 1.5), ("isl", 128.5), ("tp", 2.0),
                        ("batch", True), ("osl", "4")):
        with pytest.raises(ValidationError,
                           match=f"grid axis '{axis}' value must be an integer"):
            normalize_grid({axis: [value]})


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


def test_sweep_marks_overlap_setting_no_op_takes_infeasible(cp_spec, dims_8b, hw,
                                                           roofline, comm_backend):
    pts = sweep(cp_spec, dims_8b, {"batch": [1], "isl": [1024], "cp": [2],
                                   "overlap": ["none", "2:4"]},
                hw, roofline, comm_backend)
    assert [(p.overlap, p.feasible) for p in pts] == [(None, True), ((2, 4), False)]
    assert pts[1].infeasible_reason.startswith("overlap setting 2:4 applies to no op")


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
        # The caller's own front, handed in, gives the same comparison.
        assert heuristic_compare(pts, ref, full_frontier=ref) == out


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

def _sweep_point_by_point(annotate_overlap, spec, dims, grid, hw, compute, comm,
                          phase, **estimator_kwargs):
    """The sweep as a fresh Estimator per grid point, in the sweep's order,
    with each overlap setting annotated on the spec. A feasible prefill
    point's totals are the reference's, priced from scratch."""
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
            run_spec = annotate_overlap(spec, *ov)
        est = Estimator(run_spec, dims, hw, compute, comm, **estimator_kwargs)
        ctx, degrees = PhaseContext(phase, batch, isl, osl), {"tp": tp, "ep": ep, "cp": cp}
        try:
            report = est.estimate(ctx, degrees)
        except ValidationError as exc:
            points.append(ConfigPoint(*head, feasible=False,
                                      infeasible_reason=str(exc)))
            continue
        if report.feasible:
            latency, energy = report.total_latency, report.total_energy
            if phase == PREFILL:
                rows = reference.reference_rows(est, ctx, degrees).values()
                latency, energy = sum(r[0] for r in rows), sum(r[1] for r in rows)
            points.append(ConfigPoint(*head, feasible=True, latency=latency,
                                      energy=energy))
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
# points. Both backends run every case: with the table, overlap's
# SM-restricted GEMMs fall back to the roofline.
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
                   "overlap": [None, "2:4"]}, {}),
    "moe": ("moe_spec", "dims_moe", PREFILL,
            {"batch": [1, 8], "isl": [128], "tp": [1, 2], "ep": [1, 2, 4],
             "overlap": [None, "2:4"]}, {}),
    # isl 510 does not split into 4 stages, in groups whose isl 512 does.
    "stages": ("dense_spec", "dims_8b", PREFILL,
               {"batch": [1, 8], "isl": [510, 512], "tp": [2],
                "overlap": [None, "2:8", "4:16"]}, {}),
    # 108 SMs for the collective leave none for the GEMM on the A100.
    "all-sms": ("dense_spec", "dims_8b", PREFILL,
                {"batch": [2], "isl": [512], "tp": [1, 2],
                 "overlap": [None, "2:108"]}, {}),
    "moe-trace": ("moe_spec", "dims_moe", PREFILL,
                  {"batch": [1, 8], "isl": [128, 96], "tp": [1, 2],
                   "ep": [2, 3, 4], "overlap": [None, "2:4"]},
                  {"tile": 4, "routing_trace": "trace"}),
    "moe-trace-decode": ("moe_spec", "dims_moe", DECODE,
                         {"batch": [1, 4], "isl": [256], "osl": [5],
                          "ep": [2, 3, 4]}, {"tile": 4,
                                          "routing_trace": "trace"}),
}


@pytest.mark.parametrize("backend", ["roofline", "table"])
@pytest.mark.parametrize("case", list(_SWEEP_CASES))
def test_sweep_equals_fresh_estimator_per_point(request, case, backend, hw,
                                                roofline, comm_backend,
                                                annotate_overlap):
    spec_name, dims_name, phase, grid, kwargs = _SWEEP_CASES[case]
    spec = request.getfixturevalue(spec_name)
    dims = request.getfixturevalue(dims_name)
    compute = roofline if backend == "roofline" else TableComputeBackend(
        GemmCalibrationTable.load(fixture_path("gemm_synthetic.csv")), hw)
    if kwargs.get("routing_trace"):
        kwargs = dict(kwargs, routing_trace=_skewed_trace())
    got = sweep(spec, dims, grid, hw, compute, comm_backend, phase=phase, **kwargs)
    want = _sweep_point_by_point(annotate_overlap, spec, dims, grid, hw, compute,
                                 comm_backend, phase, **kwargs)
    assert got == want
    reasons = " ".join(p.infeasible_reason for p in want)
    assert any(p.feasible for p in want) and not all(p.feasible for p in want)
    if case == "dense":
        assert "no collective detected" in reasons and "GiB" in reasons
        assert "not divisible by degree 3" in reasons
    if case == "stages":
        assert "overlap dimension size 510 not divisible by 4 stages" in reasons
    if case == "all-sms":
        assert "sm_comm must be in [1, total_sm), got 108" in reasons


# Top-8-of-128 routings: every expert routed four tokens, a skew onto the
# first 40 experts, and one token.
_ROUTINGS = {
    "balanced": lambda: RoutingTrace(tuple(tuple((8 * t + j) % 128 for j in range(8))
                                           for t in range(64))),
    "skewed": lambda: _skewed_trace(),
    "one-row": lambda: RoutingTrace(((0, 3, 9, 17, 33, 65, 90, 127),)),
}


@pytest.mark.parametrize("phase", [PREFILL, DECODE])
@pytest.mark.parametrize("routing", list(_ROUTINGS))
def test_traced_moe_sweeps_equal_per_point_estimates(moe_spec, dims_moe, hw, roofline,
                                                     comm_backend, annotate_overlap,
                                                     routing, phase):
    # At every ep and tile, each point of a traced sweep equals a fresh
    # estimator's, which takes the statistics of a trace of its own: the
    # bottleneck GPU's lowering of the MoE steps and the statistics kept on
    # the sweep's trace price as the reference does.
    grid = {"batch": [1, 8], "isl": [128, 1024], "osl": [16], "tp": [1, 2],
            "ep": [1, 2, 4, 8]}
    for tile in (1, 16, 64):
        trace = _ROUTINGS[routing]()
        got = sweep(moe_spec, dims_moe, grid, hw, roofline, comm_backend, phase=phase,
                    tile=tile, routing_trace=trace)
        assert got == _sweep_point_by_point(
            annotate_overlap, moe_spec, dims_moe, grid, hw, roofline, comm_backend,
            phase, tile=tile, routing_trace=_ROUTINGS[routing]())
        assert all(p.feasible for p in got)
        assert sorted(trace.stats) == [(128, ep, tile) for ep in (1, 2, 4, 8)]


_FIXTURE_PAIRS = [("dense_spec", "dims_8b"), ("dense_spec", "dims_70b"),
                  ("unfused_spec", "dims_70b"), ("cp_spec", "dims_8b"),
                  ("moe_spec", "dims_moe")]


def _subset(values, n=3):
    return st.lists(st.sampled_from(values), min_size=1, max_size=n, unique=True)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=st.sampled_from(_FIXTURE_PAIRS), table=st.booleans(),
       trace=st.booleans(), batch=_subset([1, 2, 3, 16, 64], 2),
       isl=_subset([1, 2, 6, 96, 510, 512, 4096, 131072]),
       tp=_subset([1, 2, 3, 4, 8], 2), ep=_subset([1, 2, 4], 2),
       cp=_subset([1, 2], 2),
       overlap=_subset([None, "1:4", "2:8", "4:16", "3:108"], 2))
def test_random_prefill_grids_equal_fresh_estimator_per_point(
        request, annotate_overlap, hw, roofline, comm_backend, pair, table, trace,
        batch, isl, tp, ep, cp, overlap):
    # Small grids over every fixture pair: isl 1 lowers the attention
    # scores as a memory op, odd lengths fail cp and stage splits, and the
    # degrees, memory and SM counts fail in places. The cp spec has no op
    # that takes an overlap setting, which the reference cannot tell (see
    # test_sweep_marks_overlap_setting_no_op_takes_infeasible).
    if pair[0] == "cp_spec":
        overlap = [None]
    spec = request.getfixturevalue(pair[0])
    dims = request.getfixturevalue(pair[1])
    compute = TableComputeBackend(
        GemmCalibrationTable.load(fixture_path("gemm_synthetic.csv")), hw
    ) if table else roofline
    kwargs = {"routing_trace": _skewed_trace()} if trace else {}
    grid = {"batch": batch, "isl": isl, "tp": tp, "ep": ep, "cp": cp,
            "overlap": overlap}
    got = sweep(spec, dims, grid, hw, compute, comm_backend, **kwargs)
    assert got == _sweep_point_by_point(annotate_overlap, spec, dims, grid, hw,
                                        compute, comm_backend, PREFILL, **kwargs)


_SETTING_PAIRS = [("dense_spec", "dims_8b"), ("dense_spec", "dims_70b"),
                  ("unfused_spec", "dims_70b"), ("moe_spec", "dims_moe"),
                  ("cp_overlap_spec", "dims_8b"), ("shared_label_spec", "dims_8b")]

# An op that takes overlap settings after one that shards b over cp, and
# itself sharding s over cp: at tp 1, where it has no collective to
# overlap, a point with an odd batch fails before it, and a point with an
# odd length fails in it, before its overlap check.
@pytest.fixture(scope="session")
def cp_overlap_spec():
    return parse_model_spec({"layers": 2, "ops": [
        {"eq": "bsm,mHh->bsHh", "cp_dim": "b", "label": "In"},
        {"eq": "bsHh,Hhm->bsm", "parallel": "H", "cp_dim": "s", "label": "Out"}]})


# Two ops under one label, the first taking overlap settings: its report
# rows mix entries of an overlapped op with entries that no setting
# changes.
@pytest.fixture(scope="session")
def shared_label_spec():
    return parse_model_spec({"layers": 2, "ops": [
        {"eq": "bsHh,Hhm->bsm", "parallel": "H", "label": "Proj"},
        {"eq": "bsm,mF->bsF", "parallel": "F", "label": "Proj"}]})


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=st.sampled_from(_SETTING_PAIRS), table=st.booleans(),
       annotation=st.sampled_from([None, (2, 8), (3, 16)]),
       batch=_subset([1, 2, 16], 2), isl=_subset([1, 96, 100, 510, 511, 512, 131072]),
       tp=_subset([1, 2, 4, 8], 2), ep=_subset([1, 2, 4], 2), cp=_subset([1, 2], 2),
       overlap=st.lists(st.sampled_from([None, "1:4", "2:4", "2:8", "3:16", "4:16",
                                         "4:32", "2:108"]),
                        min_size=2, max_size=5, unique=True))
@example(pair=("dense_spec", "dims_8b"), table=True, annotation=(2, 8),
         batch=[1, 2], isl=[510, 512], tp=[1, 2], ep=[1], cp=[1],
         overlap=[None, "2:4", "2:8", "4:16", "2:108"])
@example(pair=("moe_spec", "dims_moe"), table=False, annotation=None,
         batch=[1, 8], isl=[96, 128], tp=[1, 2], ep=[2, 4], cp=[1],
         overlap=["2:4", None, "2:8"])
@example(pair=("cp_overlap_spec", "dims_8b"), table=False, annotation=None,
         batch=[1, 2], isl=[511, 512], tp=[1, 2], ep=[1], cp=[2],
         overlap=[None, "2:4"])
@example(pair=("shared_label_spec", "dims_8b"), table=False, annotation=None,
         batch=[1, 2], isl=[512], tp=[2], ep=[1], cp=[1],
         overlap=["2:4", None, "4:16"])
def test_overlap_settings_of_one_degrees_equal_fresh_estimator_per_point(
        request, annotate_overlap, hw, roofline, comm_backend, pair, table,
        annotation, batch, isl, tp, ep, cp, overlap):
    # Two to five settings share each set of degrees: settings with the
    # same stages, settings that replace the spec's own annotation, tp 1
    # (no collective to overlap) with points that fail before or in the
    # op that takes a setting, lengths that do not split into the stages,
    # all 108 SMs of the A100 for the collective, and the MoE spec under
    # an imbalanced trace. Each setting's points must be what a fresh
    # estimator gives for the spec annotated with that setting.
    spec = request.getfixturevalue(pair[0])
    if annotation is not None:
        spec = annotate_overlap(spec, *annotation)
    dims = request.getfixturevalue(pair[1])
    compute = TableComputeBackend(
        GemmCalibrationTable.load(fixture_path("gemm_synthetic.csv")), hw
    ) if table else roofline
    kwargs = {"routing_trace": _skewed_trace()} if pair[0] == "moe_spec" else {}
    grid = {"batch": batch, "isl": isl, "tp": tp, "ep": ep, "cp": cp,
            "overlap": overlap}
    got = sweep(spec, dims, grid, hw, compute, comm_backend, **kwargs)
    assert got == _sweep_point_by_point(annotate_overlap, spec, dims, grid, hw,
                                        compute, comm_backend, PREFILL, **kwargs)


def test_cp_overlap_spec_fails_before_in_and_at_the_overlap_check(
        cp_overlap_spec, dims_8b, hw, roofline, comm_backend):
    # The three places where a point of the example above fails at tp 1.
    points = sweep(cp_overlap_spec, dims_8b,
                   {"batch": [1, 2], "isl": [511, 512], "cp": [2], "overlap": ["2:4"]},
                   hw, roofline, comm_backend)
    assert [p.infeasible_reason for p in points] == [
        "symbol 'b' size 1 not divisible by degree 2",
        "symbol 'b' size 1 not divisible by degree 2",
        "symbol 's' size 511 not divisible by degree 2",
        "op 'Out': overlap annotated but no collective detected"]


def test_prefill_sweep_lowers_each_group_once_as_columns(
        monkeypatch, dense_spec, dims_8b, hw, roofline, comm_backend):
    # No point is lowered or estimated on its own, and no overlap setting
    # lowers the layer again: each set of degrees is lowered once, as
    # columns over its points, and each of its kernel columns is priced
    # once. Each setting plans only the ops it overlaps.
    calls = Counter()

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    layer_kernels = sum(
        len(op.kernels)
        for tp in (1, 2, 4)
        for op in lower_model(dense_spec, dims_8b, PhaseContext(PREFILL, 1, 256),
                              {"tp": tp, "ep": 1, "cp": 1}))
    counting(LayerPlan, "lower")
    counting(LayerPlan, "lower_columns")
    counting(Estimator, "estimate")
    counting(Estimator, "_price_columns")
    counting(StageColumns, "plan")
    grid = {"batch": [1, 2, 4], "isl": [256, 512], "tp": [1, 2, 4],
            "overlap": [None, "2:4", "4:16"]}
    points = sweep(dense_spec, dims_8b, grid, hw, roofline, comm_backend)
    # Overlap at tp 1 fails to lower: no op there has a collective.
    assert len(points) == 54 and sum(p.feasible for p in points) == 42
    # Two overlapped ops (Output and Down Projection) per setting at tp 2
    # and 4.
    assert calls == {"lower_columns": 3, "_price_columns": layer_kernels,
                     "plan": 2 * 2 * 2}


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
    # Validation, the memory model and the layer once per tp.
    assert calls == {"validate_bindings": 3, "build_memory_model": 3,
                     "compile_layer": 3}


def test_prefill_prices_each_batch_and_length_once_for_every_osl(
        monkeypatch, annotate_overlap, dense_spec, dims_8b, hw, roofline,
        comm_backend):
    # Prefill ignores osl, so each (batch, isl) of a degrees group is
    # priced once for both osl values: half the group's grid points per
    # setting. Each point is still what a fresh estimator gives for it.
    lengths = []
    price = Estimator.estimate_prefill_settings

    def counting(self, points, degrees, settings):
        lengths.append(len(points))
        return price(self, points, degrees, settings)

    monkeypatch.setattr(Estimator, "estimate_prefill_settings", counting)
    grid = {"batch": [1, 2, 64], "isl": [510, 512, 131072], "osl": [1, 4],
            "tp": [1, 2], "overlap": [None, "2:4"]}
    points = sweep(dense_spec, dims_8b, grid, hw, roofline, comm_backend)
    assert points == _sweep_point_by_point(annotate_overlap, dense_spec, dims_8b,
                                           grid, hw, roofline, comm_backend,
                                           PREFILL)
    assert lengths == [3 * 3, 3 * 3]  # of 3 * 3 * 2 grid points per setting
    reasons = " ".join(p.infeasible_reason for p in points)
    assert any(p.feasible for p in points) and "GiB" in reasons


def test_settings_with_the_same_stages_share_their_stage_terms(
        monkeypatch, dense_spec, dims_8b, hw, roofline, comm_backend):
    # 4:16 and 4:32 split each overlapped op into the same four partitions:
    # the partition on all SMs and the exposed AllGather chunk are priced
    # once per op and stage count; each setting prices its own
    # SM-restricted partition and ReduceScatter chunk.
    calls = Counter()
    kinds = Counter()
    for owner, name in ((overlap, "StageColumns"), (StageColumns, "plan")):
        fn = getattr(owner, name)

        def wrapped(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)
    estimate_columns = type(comm_backend).estimate_columns

    def counting_kinds(self, c):
        kinds[c.kind] += 1
        return estimate_columns(self, c)

    monkeypatch.setattr(type(comm_backend), "estimate_columns", counting_kinds)
    grid = {"batch": [1, 4], "isl": [512, 1024], "tp": [2, 4],
            "overlap": [None, "4:16", "4:32", "2:4"]}
    points = sweep(dense_spec, dims_8b, grid, hw, roofline, comm_backend)
    assert all(p.feasible for p in points)
    # Two overlapped ops (Output and Down Projection) at each tp.
    assert calls == {"StageColumns": 2 * 2 * 2, "plan": 2 * 2 * 3}
    assert kinds == {"AllReduce": 2 * 2, "AllGather": 2 * 2 * 2,
                     "ReduceScatter": 2 * 2 * 3}
