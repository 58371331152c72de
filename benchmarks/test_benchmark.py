"""Tests of the benchmark itself: generator, output checks, span self time,
layer wrappers. Run with ``python3 -m pytest benchmarks``."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
from llm_energy import cli, engine
from llm_energy.moe import RoutingTrace

BASE = ["--hw", "fixture:a100_sxm_80g.json",
        "--comm-cal", "fixture:comm_synthetic.csv"]
DENSE = ["--spec", "fixture:dense_fused.json", "--dims", "fixture:llama3_8b.json"]
MOE = ["--spec", "fixture:moe_fused.json", "--dims", "fixture:qwen3_30b_a3b.json"]


def _cli(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0


def _traced(*argvs):
    rec = tracing.SpanRecorder()
    tracer = tracing.Tracer(rec)
    for i, argv in enumerate(argvs):
        rec.call_id = i
        with tracer.active():
            _cli(argv)
    return tracing.layer_metrics(rec)


# -- generator ---------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    first = workloads.generate(name, 7)
    assert first.dumps() == workloads.generate(name, 7).dumps()
    assert first.dumps() != workloads.generate(name, 8).dumps()
    assert len(first.ops) % first.block == 0


def test_routing_traces_load_and_use_distinct_experts(tmp_path):
    wl = workloads.generate("moe-routing", 3)
    name, text = next(iter(wl.files.items()))
    (tmp_path / name).write_text(text)
    trace = RoutingTrace.load(tmp_path / name)
    assert trace.top_k == workloads.TOP_K
    assert 1024 <= len(trace.choices) <= 8192
    assert all(len(set(row)) == workloads.TOP_K for row in trace.choices)


# -- output checks -------------------------------------------------------------

@pytest.fixture
def decode_report(tmp_path):
    _cli(["estimate", *DENSE, *BASE, "--phase", "decode", "--decode-stride", "1",
          "--batch", "4", "--isl", "512", "--osl", "8", "--tp", "2",
          "--out", str(tmp_path)])
    return workloads.Op([], "estimate", 1, phases=("decode",)), tmp_path


def test_reference_check_rejects_perturbed_total(decode_report):
    op, out = decode_report
    summary, problems = checks.check(op, out, p_idle=80.0)
    assert problems == []
    perturbed = json.loads(json.dumps(summary))
    perturbed["decode"]["energy"] *= 1 + 1e-6
    assert not checks.matches(perturbed, summary)
    perturbed["decode"]["energy"] = summary["decode"]["energy"] * (1 + 1e-12)
    assert checks.matches(perturbed, summary)


def test_invariants_reject_perturbed_report_total(decode_report):
    op, out = decode_report
    path = out / "report_decode.json"
    report = json.loads(path.read_text())
    report["total_energy_j"] *= 1 + 1e-6
    path.write_text(json.dumps(report))
    _, problems = checks.check(op, out, p_idle=80.0)
    assert any("sum of categories" in p for p in problems)


def test_sweep_check_recomputes_frontier(tmp_path):
    grid = {"batch": [1, 8], "isl": [512, 1024], "tp": [1, 2],
            "overlap": ["none", "2:4"]}
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    _cli(["sweep", *DENSE, *BASE, "--grid", str(tmp_path / "grid.json"),
          "--heuristic", "max-overlap", "--out", str(tmp_path / "out")])
    op = workloads.Op([], "sweep", 16, grid=grid)
    summary, problems = checks.check(op, tmp_path / "out", p_idle=80.0)
    assert problems == [] and summary["frontier"]
    points = json.loads((tmp_path / "out" / "points.json").read_text())["points"]
    assert checks.non_dominated(points) == summary["frontier"]


def test_runner_counts_a_mismatch_as_failed(tmp_path):
    wl = workloads.generate("decode-long", 0)
    wl = workloads.Workload(wl.name, wl.seed, 1, wl.ops[:1], {})
    (tmp_path / "out").mkdir()
    runner = run.Runner(cli, wl, tmp_path, 80.0, refs=[{"decode": {"feasible": True}}])
    runner.call(0)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "differ from the reference" in runner.problems[0]


# -- spans ---------------------------------------------------------------------

def test_self_time_on_nested_spans():
    #        root [0, 10]
    #        |- a [1, 4]      |- grandchild [2, 3]
    #        |- b [3, 6]      (overlaps a: the union counts once)
    #        |- c [9, 12]     (clipped to the root's end)
    starts = [0.0, 1.0, 2.0, 3.0, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    assert tracing.self_times(starts, ends, parents) == pytest.approx(
        [10 - 5 - 1, 3 - 1, 1, 3, 3])


def test_self_time_ignores_span_order():
    starts = [9.0, 0.0, 1.0]
    ends = [12.0, 10.0, 4.0]
    parents = [1, -1, 1]
    assert tracing.self_times(starts, ends, parents) == pytest.approx([3, 6, 3])


def test_recorder_nests_spans():
    rec = tracing.SpanRecorder()
    outer = rec.open(rec.name_id("outer"))
    inner = rec.open(rec.name_id("inner"))
    rec.close(inner)
    rec.close(outer)
    assert list(rec.parent) == [-1, 0]
    assert rec.start[0] <= rec.start[1] <= rec.end[1] <= rec.end[0]


def test_tracer_restores_program_attributes():
    before = (engine.lower_model, engine.Estimator.__dict__["estimate"],
              RoutingTrace.__dict__["load"])
    tracer = tracing.Tracer(tracing.SpanRecorder())
    with tracer.active():
        assert engine.lower_model is not before[0]
    assert (engine.lower_model, engine.Estimator.__dict__["estimate"],
            RoutingTrace.__dict__["load"]) == before


# -- layer separation ------------------------------------------------------------

def test_dense_decode_bypasses_moe_overlap_and_explorer(tmp_path):
    argv = ["estimate", *DENSE, *BASE, "--phase", "decode", "--decode-stride",
            "1", "--batch", "2", "--isl", "256", "--osl", "5", "--tp", "2",
            "--out", str(tmp_path)]
    m = _traced(argv)
    assert m["moe.routing.calls"] == 0 and m["overlap.plan.calls"] == 0
    assert all(m[f"explorer.{k}.self_s"] == 0
               for k in ("sweep", "pareto", "heuristic", "insights"))
    assert m["engine.decode_steps"] == 5
    assert m["interpreter.lower.calls"] == 5
    assert m["engine.priced_kernels"] == m["interpreter.kernels"] > 0
    again = _traced(argv)
    assert all(again[k] == m[k] for k in tracing.COUNT_METRICS)


def test_prefill_sweep_never_decodes(tmp_path):
    (tmp_path / "grid.json").write_text(json.dumps(
        {"batch": [1, 4], "isl": [512], "tp": [2], "overlap": ["none", "2:4"]}))
    m = _traced(["sweep", *DENSE, *BASE, "--grid", str(tmp_path / "grid.json"),
                 "--heuristic", "max-overlap", "--out", str(tmp_path / "out")])
    assert m["engine.decode_steps"] == 0 and m["moe.routing.calls"] == 0
    assert m["overlap.plan.calls"] > 0 and m["engine.estimate.calls"] == 4
    assert m["explorer.sweep.self_s"] > 0


def test_moe_trace_routes_every_position(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("".join(f"{t},{t % 5},{5 + t % 3},9,10,11,12,13,14\n"
                             for t in range(40)))
    m = _traced(["estimate", *MOE, *BASE, "--phase", "both", "--decode-stride",
                 "1", "--batch", "2", "--isl", "256", "--osl", "3", "--ep", "4",
                 "--trace", str(trace), "--out", str(tmp_path / "out")])
    assert m["moe.routing.calls"] == 1 + 3
    assert m["moe.imbalanced_ratio"] == 1.0
    assert m["moe.trace_load_s"] > 0 and m["overlap.plan.calls"] == 0


# -- contract ----------------------------------------------------------------------

def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = set(tracing.layer_metrics(tracing.SpanRecorder())) | {
        "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
