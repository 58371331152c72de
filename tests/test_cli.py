"""CLI contract tests: commands, exit codes, file outputs, determinism."""

import json

import pytest

from llm_energy.cli import EXIT_OK, EXIT_VALIDATION, main
from llm_energy.fixtures import fixture_path


def _base_args(out, spec="dense_fused.json", dims="llama3_8b.json"):
    return ["--spec", f"fixture:{spec}", "--dims", f"fixture:{dims}",
            "--hw", "fixture:a100_sxm_80g.json",
            "--comm-cal", "fixture:comm_synthetic.csv", "--out", str(out)]


def test_estimate_writes_reports(tmp_path):
    code = main(["estimate", *_base_args(tmp_path), "--tp", "2",
                 "--batch", "2", "--isl", "512", "--phase", "prefill"])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report_prefill.json").read_text())
    assert report["feasible"]
    labels = {r["label"] for r in report["rows"]}
    assert {"QKV Projection", "Output Projection", "Down Projection"} <= labels
    comm_rows = [r for r in report["rows"] if r["category"] == "communication"]
    assert len(comm_rows) == 2  # AllReduce after Output and Down Projections
    assert "tool_version" in report["meta"]
    assert set(report["meta"]["input_digests"]) >= {"spec", "dims", "hw", "comm_cal"}
    csv_text = (tmp_path / "report_prefill.csv").read_text()
    assert csv_text.startswith("label,category,latency_s,energy_j")


def test_estimate_phase_both(tmp_path):
    code = main(["estimate", *_base_args(tmp_path), "--tp", "2",
                 "--batch", "1", "--isl", "256", "--osl", "16",
                 "--phase", "both"])
    assert code == EXIT_OK
    assert (tmp_path / "report_prefill.json").exists()
    assert (tmp_path / "report_decode.json").exists()


def test_estimate_infeasible_is_success(tmp_path):
    code = main(["estimate", *_base_args(tmp_path, dims="llama3_70b.json"),
                 "--tp", "2", "--batch", "64", "--isl", "131072"])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report_prefill.json").read_text())
    assert report["feasible"] is False
    assert report["infeasible_reason"]


def test_missing_file_is_validation_error(tmp_path):
    args = _base_args(tmp_path)
    args[args.index("fixture:comm_synthetic.csv")] = str(tmp_path / "nope.csv")
    code = main(["estimate", *args])
    assert code == EXIT_VALIDATION
    assert not (tmp_path / "report_prefill.json").exists()


def test_validate_clean_and_dirty(tmp_path):
    assert main(["validate", "--spec", "fixture:moe_fused.json",
                 "--dims", "fixture:qwen3_30b_a3b.json"]) == EXIT_OK
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ops": [{"eq": "bsm,mf->bsf", "parallel": "f",
                                        "overlap_stage": 2, "overlap_sm": 4,
                                        "overlap": "s"}]}))
    assert main(["validate", "--spec", str(bad)]) == EXIT_VALIDATION
    dup = tmp_path / "dup.csv"
    dup.write_text("kind,world,sm_count,bytes,latency_s,energy_j\n"
                   "AllReduce,2,16,1024,1e-5,1e-2\n"
                   "AllReduce,2,16,1024,1e-5,1e-2\n")
    assert main(["validate", "--comm-cal", str(dup)]) == EXIT_VALIDATION


def test_validate_divisibility(tmp_path):
    assert main(["validate", "--spec", "fixture:dense_fused.json",
                 "--dims", "fixture:llama3_8b.json", "--tp", "3"]) \
        == EXIT_VALIDATION


def test_fixtures_list(capsys):
    assert main(["fixtures", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dense_fused.json" in out
    assert "comm_synthetic.csv" in out


def test_sweep_outputs(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"batch": [1, 4], "isl": [512],
                                "tp": [2, 4], "overlap": ["none", "2:4"]}))
    out = tmp_path / "out"
    code = main(["sweep", *_base_args(out), "--grid", str(grid),
                 "--heuristic", "max-overlap"])
    assert code == EXIT_OK
    points = json.loads((out / "points.json").read_text())["points"]
    assert len(points) == 8
    frontier = json.loads((out / "frontier.json").read_text())
    assert frontier["frontier"]
    assert "heuristic" in frontier
    assert (out / "points.csv").read_text().count("\n") == 9  # header + 8 rows
    plot = (out / "plot_data.csv").read_text()
    assert plot.startswith("series,x_latency_s,y_energy_j,label")


def test_sweep_latency_budget(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"batch": [1, 16], "isl": [2048], "tp": [2, 8]}))
    out = tmp_path / "out"
    assert main(["sweep", *_base_args(out), "--grid", str(grid),
                 "--latency-budget", "1e-9"]) == EXIT_OK
    frontier = json.loads((out / "frontier.json").read_text())["frontier"]
    assert frontier == []  # nothing is that fast


def test_pareto_over_existing_points(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"batch": [1, 8], "isl": [512], "tp": [2, 8]}))
    out = tmp_path / "out"
    assert main(["sweep", *_base_args(out), "--grid", str(grid)]) == EXIT_OK
    out2 = tmp_path / "out2"
    assert main(["pareto", "--points", str(out / "points.json"),
                 "--out", str(out2)]) == EXIT_OK
    a = json.loads((out / "frontier.json").read_text())["frontier"]
    b = json.loads((out2 / "frontier.json").read_text())["frontier"]
    assert a == b


def test_overlap_flag(tmp_path):
    code = main(["estimate", *_base_args(tmp_path), "--tp", "2",
                 "--batch", "1", "--isl", "512", "--overlap", "4:16"])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report_prefill.json").read_text())
    assert report["category_energy_j"]["exposed-comm"] > 0

    assert main(["estimate", *_base_args(tmp_path), "--overlap", "banana"]) \
        == EXIT_VALIDATION


def test_repeat_runs_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["estimate", *_base_args(out), "--tp", "4",
                     "--batch", "2", "--isl", "1024"]) == EXIT_OK
    assert ((a / "report_prefill.json").read_bytes()
            == (b / "report_prefill.json").read_bytes())


def _estimate_with_edited(tmp_path, name, edit):
    """estimate argv with the fixture ``name`` swapped for an edited copy."""
    raw = json.loads(fixture_path(name).read_text())
    edit(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    args = _base_args(tmp_path)
    args[args.index(f"fixture:{name}")] = str(path)
    return ["estimate", *args]


def _malformed_dims(tmp_path):
    return _estimate_with_edited(tmp_path, "llama3_8b.json",
                                 lambda raw: raw.update(m="abc"))


def _hw_without_total_sm(tmp_path):
    return _estimate_with_edited(tmp_path, "a100_sxm_80g.json",
                                 lambda raw: raw.pop("total_sm"))


def _short_gemm_row(tmp_path):
    table = tmp_path / "gemm.csv"
    table.write_text("G,M,contraction,N,dtype_bytes,latency_s,power_w\n"
                     "1,16,8192\n")
    return ["estimate", *_base_args(tmp_path), "--gemm-cal", str(table)]


def _feasible_point_without_latency(tmp_path):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [
        {"phase": "prefill", "batch": 1, "isl": 512, "osl": 1, "tp": 1,
         "ep": 1, "cp": 1, "overlap": None, "feasible": True}]}))
    return ["pareto", "--points", str(points), "--out", str(tmp_path / "p")]


def _point_without_feasible(tmp_path):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [
        {"phase": "prefill", "batch": 1, "isl": 512, "osl": 1, "tp": 1,
         "ep": 1, "cp": 1, "overlap": None, "latency_s": 1.0,
         "energy_j": 1.0}]}))
    return ["pareto", "--points", str(points), "--out", str(tmp_path / "p")]


def _hw_with_text_total_sm(tmp_path):
    return _estimate_with_edited(tmp_path, "a100_sxm_80g.json",
                                 lambda raw: raw.update(total_sm="abc"))


def _comm_row_with_text_world(tmp_path):
    table = tmp_path / "comm.csv"
    table.write_text("kind,world,sm_count,bytes,latency_s,energy_j\n"
                     "AllReduce,two,1,1024,1e-5,1e-3\n")
    args = _base_args(tmp_path)
    args[args.index("fixture:comm_synthetic.csv")] = str(table)
    return ["estimate", *args]


def _gemm_row_with_text_m(tmp_path):
    table = tmp_path / "gemm.csv"
    table.write_text("G,M,contraction,N,dtype_bytes,latency_s,power_w\n"
                     "1,x,8192,8192,2,1e-3,300\n")
    return ["estimate", *_base_args(tmp_path), "--gemm-cal", str(table)]


def _sweep_over(tmp_path, grid_text):
    grid = tmp_path / "grid.json"
    grid.write_text(grid_text)
    return ["sweep", *_base_args(tmp_path / "out"), "--grid", str(grid)]


def _grid_overlap_without_colon(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"overlap": ["bad"]}))


def _grid_overlap_short_pair(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"overlap": [[2]]}))


def _grid_text_batch(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"batch": ["abc"]}))


def _grid_scalar_axis(tmp_path):
    return _sweep_over(tmp_path, json.dumps({"batch": 4}))


def _grid_list(tmp_path):
    return _sweep_over(tmp_path, json.dumps([1, 2]))


def _non_json_grid(tmp_path):
    return _sweep_over(tmp_path, "batch: [1, 2]\n")


def _with_non_json(tmp_path, name):
    path = tmp_path / name
    path.write_text("{not json")
    args = _base_args(tmp_path)
    args[args.index(f"fixture:{name}")] = str(path)
    return ["estimate", *args]


def _non_json_dims(tmp_path):
    return _with_non_json(tmp_path, "llama3_8b.json")


def _non_json_hw(tmp_path):
    return _with_non_json(tmp_path, "a100_sxm_80g.json")


def _non_json_points(tmp_path):
    points = tmp_path / "points.json"
    points.write_text("phase,batch\nprefill,1\n")
    return ["pareto", "--points", str(points), "--out", str(tmp_path / "p")]


@pytest.mark.parametrize("make_argv", [
    _malformed_dims, _hw_without_total_sm, _short_gemm_row,
    _feasible_point_without_latency, _point_without_feasible,
    _hw_with_text_total_sm, _comm_row_with_text_world, _gemm_row_with_text_m,
    _grid_overlap_without_colon, _grid_overlap_short_pair, _grid_text_batch,
    _grid_scalar_axis, _grid_list, _non_json_grid, _non_json_dims,
    _non_json_hw, _non_json_points])
def test_malformed_input_is_validation_error(tmp_path, make_argv, capsys):
    assert main(make_argv(tmp_path)) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err
