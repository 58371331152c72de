"""Analytical energy/latency modeling for distributed LLM inference.

Predicts per-kernel and end-to-end energy and latency of dense and
mixture-of-experts transformer inference from a compact einsum-based
layer specification, with tensor/expert/context parallelism,
compute-communication overlap, and energy-latency Pareto exploration.
No GPU or execution traces required.
"""

__version__ = "0.1.0"

from .comm import (
    CommBackend,
    CommCalibrationTable,
    estimate_comm,
    load_comm_calibration,
    resolve_sm_curve,
    synthetic_comm_table,
)
from .compute import (
    CostEstimate,
    GemmCalibrationTable,
    HardwareProfile,
    RooflineBackend,
    TableComputeBackend,
    estimate_gemm,
    estimate_memory_op,
    load_hardware_profile,
)
from .engine import Estimator
from .errors import BackendError, SpecError, ValidationError
from .explorer import (
    ConfigPoint,
    ParetoResult,
    heuristic_compare,
    insight_queries,
    pareto_front,
    recovery_rate,
    sweep,
)
from .interpreter import (
    CommDescriptor,
    GemmDescriptor,
    MemoryOpDescriptor,
    PhaseContext,
    detect_all2all,
    detect_allreduce,
    extract_gemm,
    lower_model,
)
from .metrics import (
    MemoryModel,
    PhaseReport,
    build_memory_model,
    check_memory,
    epot,
    etft,
)
from .moe import (
    RoutingStats,
    RoutingTrace,
    aggregate_moe,
    stats_from_trace,
    uniform_routing,
)
from .overlap import OverlapPlan, plan_overlap
from .spec_lang import (
    DimensionBindings,
    EinsumEquation,
    ModelSpec,
    OpSpec,
    load_bindings,
    load_model_spec,
    parse_equation,
    parse_model_spec,
    validate_bindings,
)
