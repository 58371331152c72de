"""One lowering and pricing path: estimates and sweeps run on columns only.

The names that lower or price one evaluation (kernel descriptors, their
costs, the overlap plan, the imbalance fold) are façades over one-point
columns, kept for callers outside the program. Nothing in the program
reaches them, and each equals the independent reference.
"""

import contextlib
import io
import json
import sys

import pytest

from llm_energy import (
    CommBackend,
    CostEstimate,
    Estimator,
    GemmCalibrationTable,
    OverlapPlan,
    PhaseContext,
    RooflineBackend,
    TableComputeBackend,
    aggregate_moe,
    cli,
    comm,
    compute,
    estimate_comm,
    estimate_gemm,
    estimate_memory_op,
    interpreter,
    moe,
    overlap,
    plan_overlap,
)
from llm_energy.engine import Estimator as _Estimator
from llm_energy.fixtures import fixture_path
from llm_energy.interpreter import (
    PREFILL,
    CommDescriptor,
    GemmDescriptor,
    LayerPlan,
    LoweredColumns,
    MemoryOpDescriptor,
)
from llm_energy.moe import fold_imbalance

import reference

# One-evaluation functions, patched under every name a program module
# binds them to, and one-evaluation methods and record constructors.
_FUNCTIONS = (compute.estimate_gemm, compute.estimate_memory_op, compute.one_cost,
              comm.estimate_comm, overlap.plan_overlap, moe.fold_imbalance,
              moe.aggregate_moe, interpreter.lower_model, interpreter._descriptor)
_METHODS = ((LayerPlan, "lower"), (LoweredColumns, "one_point"),
            (_Estimator, "_price"),
            (RooflineBackend, "estimate_gemm"), (RooflineBackend, "estimate_memory_op"),
            (TableComputeBackend, "estimate_gemm"),
            (TableComputeBackend, "estimate_memory_op"),
            (GemmCalibrationTable, "estimate_gemm"), (CommBackend, "estimate"),
            (GemmDescriptor, "__init__"), (CommDescriptor, "__init__"),
            (MemoryOpDescriptor, "__init__"), (OverlapPlan, "__init__"),
            (CostEstimate, "__init__"))


def _unreachable(name):
    def raising(*args, **kwargs):
        raise AssertionError(f"{name} reached outside the one-evaluation façades")
    return raising


@pytest.fixture
def single_path(monkeypatch):
    modules = [m for name, m in sys.modules.items()
               if name == "llm_energy" or name.startswith("llm_energy.")]
    for module in modules:
        for name, value in list(vars(module).items()):
            if any(value is fn for fn in _FUNCTIONS):
                monkeypatch.setattr(module, name, _unreachable(f"{module.__name__}.{name}"))
    for owner, name in _METHODS:
        monkeypatch.setattr(owner, name, _unreachable(f"{owner.__name__}.{name}"))


_BASE = ["--hw", "fixture:a100_sxm_80g.json", "--comm-cal", "fixture:comm_synthetic.csv"]
_TRACE = "".join(f"{t},{t % 5},{5 + t % 3},9,10,11,12,13,14\n" for t in range(40))
_ALL = ("prefill", "decode", "both")
# (spec, dims, input files, estimate degrees, estimate phases, sweep grid
# axes, sweep phases)
_CASES = {
    "dense-fused": ("dense_fused", "llama3_8b", [], ["--tp", "2"], _ALL,
                    {"tp": [1, 2]}, ("prefill", "decode")),
    "dense-unfused": ("dense_unfused", "llama3_8b", [], ["--tp", "4"], _ALL,
                      {"tp": [2, 4]}, ("prefill", "decode")),
    "moe-imbalanced": ("moe_fused", "qwen3_30b_a3b", ["--trace", "@trace"],
                       ["--ep", "4"], _ALL, {"ep": [2, 4]}, ("prefill", "decode")),
    "cp-prefill": ("dense_fused_cp", "llama3_8b", [], ["--cp", "2"], ("prefill",),
                   {"cp": [1, 2]}, ("prefill",)),
    "overlap": ("dense_fused", "llama3_70b", [], ["--tp", "8", "--overlap", "2:4"],
                ("prefill",), {"tp": [4, 8], "overlap": ["none", "2:4", "4:16"]},
                ("prefill",)),
    "table": ("dense_fused", "llama3_8b", ["--gemm-cal", "fixture:gemm_synthetic.csv"],
              ["--tp", "2"], _ALL, {"tp": [1, 2], "overlap": ["none", "2:8"]},
              ("prefill", "decode")),
}


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, err.getvalue()


@pytest.mark.parametrize("case", list(_CASES))
def test_estimates_and_sweeps_reach_no_one_evaluation_facade(single_path, tmp_path,
                                                             case):
    spec, dims, files, degrees, phases, grid, sweep_phases = _CASES[case]
    (tmp_path / "trace").write_text(_TRACE)
    inputs = ["--spec", f"fixture:{spec}.json", "--dims", f"fixture:{dims}.json",
              *_BASE, *(str(tmp_path / "trace") if a == "@trace" else a for a in files)]
    for phase in phases:
        rc, err = _run(["estimate", *inputs, *degrees, "--phase", phase,
                        "--batch", "2", "--isl", "256", "--osl", "6",
                        "--out", str(tmp_path / phase)])
        assert (rc, "infeasible" in err) == (0, False), err
    (tmp_path / "grid.json").write_text(json.dumps(
        {"batch": [1, 4], "isl": [128, 256], "osl": [3], **grid}))
    for phase in sweep_phases:
        out = tmp_path / f"sweep-{phase}"
        rc, err = _run(["sweep", *inputs, "--phase", phase,
                        "--grid", str(tmp_path / "grid.json"), "--out", str(out)])
        assert rc == 0, err
        points = json.loads((out / "points.json").read_text())["points"]
        assert any(p["feasible"] for p in points)


# -- the façades equal the references -------------------------------------------

@pytest.mark.parametrize("backend", ["roofline", "table"])
def test_one_evaluation_facades_equal_references(dense_spec, moe_spec, dims_8b,
                                                 dims_moe, hw, comm_backend,
                                                 comm_table, backend):
    compute_backend = (RooflineBackend(hw) if backend == "roofline" else
                       TableComputeBackend(GemmCalibrationTable.load(
                           fixture_path("gemm_synthetic.csv")), hw))
    kernels = []
    for spec, dims, degrees, moe_te in ((dense_spec, dims_8b, {"tp": 2}, None),
                                        (moe_spec, dims_moe, {"tp": 2, "ep": 4},
                                         (24.0, 6.0))):
        degrees = dict({"tp": 1, "ep": 1, "cp": 1}, **degrees)
        ctx = PhaseContext(PREFILL, 2, 512)
        lowered = interpreter.lower_model(spec, dims, ctx, degrees, moe_te=moe_te)
        assert lowered == reference.reference_lower(spec, dims, ctx, degrees, moe_te)
        kernels += [k for op in lowered for k in op.kernels]
    est = Estimator(dense_spec, dims_8b, hw, compute_backend, comm_backend)
    for kernel in kernels:
        want = reference.price(kernel, compute_backend, comm_backend)
        assert est._price(kernel) == want
        if isinstance(kernel, GemmDescriptor):
            assert compute_backend.estimate_gemm(kernel) == want
            assert estimate_gemm(kernel, hw) == reference.roofline_gemm(kernel, hw)
        elif isinstance(kernel, MemoryOpDescriptor):
            assert compute_backend.estimate_memory_op(kernel) == want
            assert estimate_memory_op(kernel, hw) == want
        else:
            assert estimate_comm(kernel, comm_table) == want
    g = GemmDescriptor(1, 4096, 8192, 8192, dtype_bytes=2, label="x")
    for stages, sm_comm in ((1, 16), (2, 4), (4, 32)):
        args = (g, 4096 * 8192 * 2.0, 8, stages, sm_comm, 4096, compute_backend,
                comm_backend, hw.total_sm, "x")
        assert plan_overlap(*args) == reference.plan_overlap(*args)
    costs = [reference.price(k, compute_backend, comm_backend) for k in kernels]
    for avg, mx in zip(costs, costs[1:] + costs[:1]):
        assert fold_imbalance(avg, mx, hw.p_idle) == reference.fold_imbalance(
            avg, mx, hw.p_idle)
    assert aggregate_moe(costs, costs[::-1], hw.p_idle) == sum(
        (reference.fold_imbalance(a, m, hw.p_idle) for a, m in zip(costs, costs[::-1])),
        CostEstimate(0.0, 0.0))
