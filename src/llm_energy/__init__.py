"""Analytical energy/latency modeling for distributed LLM inference.

Predicts per-kernel and end-to-end energy and latency of dense and
mixture-of-experts transformer inference from a compact einsum-based
layer specification, with tensor/expert/context parallelism,
compute-communication overlap, and energy-latency Pareto exploration.
No GPU or execution traces required.

The public names below resolve on first use: ``llm_energy.sweep`` imports
:mod:`llm_energy.explorer` when it is first read, so a program imports only
the modules it runs.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

# The public names of each submodule that the package exports.
_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# The exported names and the submodules they come from, which is what
# ``from llm_energy import *`` has always bound.
__all__ = [*_MODULE_OF, *_EXPORTS]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(_import_module(f".{module}", __name__), name)
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
