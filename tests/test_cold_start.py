"""Cold start: a fresh interpreter imports only the modules a command runs,
and the package's public names resolve on first use to the submodules'
objects."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import llm_energy
from llm_energy import cli, explorer, spec_lang

SRC = Path(llm_energy.__file__).resolve().parent.parent

# The names that ``llm_energy`` exported when its ``__init__`` imported every
# submodule, by the submodule that defines each.
_EXPORTED = {
    "comm": ("CommBackend", "CommCalibrationTable", "estimate_comm",
             "load_comm_calibration", "resolve_sm_curve", "synthetic_comm_table"),
    "compute": ("CostEstimate", "GemmCalibrationTable", "HardwareProfile",
                "RooflineBackend", "TableComputeBackend", "estimate_gemm",
                "estimate_memory_op", "load_hardware_profile"),
    "engine": ("Estimator",),
    "errors": ("BackendError", "SpecError", "ValidationError"),
    "explorer": ("ConfigPoint", "ParetoResult", "heuristic_compare",
                 "insight_queries", "pareto_front", "recovery_rate", "sweep"),
    "interpreter": ("CommDescriptor", "GemmDescriptor", "MemoryOpDescriptor",
                    "PhaseContext", "detect_all2all", "detect_allreduce",
                    "extract_gemm", "lower_model"),
    "metrics": ("MemoryModel", "PhaseReport", "build_memory_model", "check_memory",
                "epot", "etft"),
    "moe": ("RoutingStats", "RoutingTrace", "aggregate_moe", "stats_from_trace",
            "uniform_routing"),
    "overlap": ("OverlapPlan", "plan_overlap"),
    "spec_lang": ("DimensionBindings", "EinsumEquation", "ModelSpec", "OpSpec",
                  "load_bindings", "load_model_spec", "parse_equation",
                  "parse_model_spec", "validate_bindings"),
}
# What ``from llm_energy import *`` bound in a fresh interpreter then: the
# exported names and the submodules that ``__init__`` imported.
_STAR_NAMES = {name for names in _EXPORTED.values() for name in names} | set(_EXPORTED)

_INPUTS = ["--hw", "fixture:a100_sxm_80g.json", "--comm-cal", "fixture:comm_synthetic.csv"]
_DENSE = ["--spec", "fixture:dense_fused.json", "--dims", "fixture:llama3_8b.json",
          *_INPUTS]
_MOE = ["--spec", "fixture:moe_fused.json", "--dims", "fixture:qwen3_30b_a3b.json",
        *_INPUTS]
_TRACE = "".join(f"{t},{t % 5},{5 + t % 3},9,10,11,12,13,14\n" for t in range(40))
_GRID = {"batch": [1, 2], "isl": [256], "tp": [1, 2]}
_ESTIMATE_BOTH = ["estimate", *_DENSE, "--tp", "2", "--batch", "2", "--isl", "256",
                  "--osl", "8", "--phase", "both"]

# Runs ``llm_energy.cli`` as ``python -m`` does, with the arguments after
# the first (none: only import it), then writes the names in
# ``sys.modules`` to the file named first.
_CHILD = """
import json, runpy, sys
listing, argv = sys.argv[1], sys.argv[2:]
code = 0
if argv:
    sys.argv = ["llm-energy", *argv]
    try:
        runpy.run_module("llm_energy.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import llm_energy.cli
with open(listing, "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _modules_after(tmp_path, argv) -> set:
    """The modules loaded by a fresh interpreter that runs the CLI with
    ``argv``, which must exit 0."""
    listing = tmp_path / "modules.json"
    subprocess.run([sys.executable, "-c", _CHILD, str(listing), *argv],
                   env=_child_env(), cwd=tmp_path, check=True,
                   capture_output=True, timeout=120)
    result = json.loads(listing.read_text())
    assert result["code"] == 0
    return set(result["modules"])


def _files(root: Path) -> dict:
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_a_fresh_interpreter_estimates_the_bytes_of_an_in_process_call(tmp_path):
    child = subprocess.run(
        [sys.executable, "-m", "llm_energy.cli", *_ESTIMATE_BOTH,
         "--out", str(tmp_path / "child")],
        env=_child_env(), cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert cli.main([*_ESTIMATE_BOTH, "--out", str(tmp_path / "in_process")]) == 0
    written = _files(tmp_path / "child")
    assert sorted(map(str, written)) == ["report_decode.csv", "report_decode.json",
                                         "report_prefill.csv", "report_prefill.json"]
    assert written == _files(tmp_path / "in_process")


_SWEEP_ONLY = {"llm_energy.explorer", "llm_energy.overlap", "concurrent.futures"}


@pytest.mark.parametrize("argv", [
    [],
    _ESTIMATE_BOTH,
    ["estimate", *_MOE, "--trace", "@trace", "--ep", "4", "--batch", "2",
     "--isl", "64", "--osl", "4", "--phase", "both"],
    ["validate", *_MOE, "--trace", "@trace", "--ep", "4"],
], ids=["import", "estimate", "estimate-trace", "validate"])
def test_estimate_and_validate_import_no_sweep_module(tmp_path, argv):
    (tmp_path / "trace.csv").write_text(_TRACE)
    argv = [str(tmp_path / "trace.csv") if a == "@trace" else a for a in argv]
    if argv[:1] == ["estimate"]:
        argv += ["--out", str(tmp_path / "out")]
    modules = _modules_after(tmp_path, argv)
    assert "llm_energy.engine" in modules
    assert not modules & _SWEEP_ONLY


def test_an_overlapped_estimate_imports_overlap_not_explorer(tmp_path):
    modules = _modules_after(tmp_path, [
        "estimate", "--spec", "fixture:dense_fused.json",
        "--dims", "fixture:llama3_70b.json", *_INPUTS, "--tp", "8",
        "--overlap", "2:4", "--out", str(tmp_path / "out")])
    assert "llm_energy.overlap" in modules
    assert "llm_energy.explorer" not in modules


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_sweep_imports_no_thread_pool_at_any_jobs(tmp_path, jobs):
    # The points are evaluated in one loop, whatever --jobs says.
    (tmp_path / "grid.json").write_text(json.dumps(_GRID))
    modules = _modules_after(tmp_path, [
        "sweep", *_DENSE, "--grid", str(tmp_path / "grid.json"),
        "--jobs", str(jobs), "--out", str(tmp_path / "out")])
    assert "llm_energy.explorer" in modules
    assert "concurrent.futures" not in modules


def test_a_bare_package_import_loads_no_submodule_and_resolves_each(tmp_path):
    listing = tmp_path / "modules.json"
    code = ("import json, sys, llm_energy\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('llm_energy.'))\n"
            "resolved = [llm_energy.engine.__name__, llm_energy.overlap.__name__]\n"
            f"open({str(listing)!r}, 'w').write(json.dumps([loaded, resolved]))\n")
    subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=tmp_path,
                   check=True, timeout=120)
    loaded, resolved = json.loads(listing.read_text())
    assert loaded == []
    assert resolved == ["llm_energy.engine", "llm_energy.overlap"]


@pytest.mark.parametrize("module", sorted(_EXPORTED))
def test_each_exported_name_is_its_submodules_object(module):
    submodule = getattr(llm_energy, module)
    assert submodule.__name__ == f"llm_energy.{module}"
    for name in _EXPORTED[module]:
        assert getattr(llm_energy, name) is getattr(submodule, name), name


def test_all_and_dir_list_the_exported_names():
    assert set(llm_energy.__all__) == _STAR_NAMES
    assert _STAR_NAMES <= set(dir(llm_energy))
    assert "__version__" in vars(llm_energy)  # bound by the import itself


def test_star_import_binds_the_exported_names_and_submodules():
    namespace: dict = {}
    exec("from llm_energy import *", namespace)
    assert set(namespace) - {"__builtins__"} == _STAR_NAMES
    assert namespace["sweep"] is explorer.sweep


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError,
                       match=r"^module 'llm_energy' has no attribute 'no_such_name'$"):
        llm_energy.no_such_name  # noqa: B018


def test_explorer_reexports_the_overlap_setting_parsers():
    assert explorer.parse_overlap is spec_lang.parse_overlap
    assert explorer.format_overlap is spec_lang.format_overlap
