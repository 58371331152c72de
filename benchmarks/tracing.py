"""Span recorder and layer wrappers for the benchmark's traced run.

Tracing wraps each layer's public functions from outside: the wrappers
replace module and class attributes of ``llm_energy`` (for example
``llm_energy.engine.lower_model``) while a traced call runs and restore
them afterwards, so the program itself carries no tracing code. Each span
records its name, start, end, parent span and the id of the CLI call it
belongs to. Spans stay in memory until the run ends.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class SpanRecorder:
    """Spans in parallel arrays, in the order they were opened."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("l")
        self.parent = array("l")
        self.call = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.call_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self.call_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,call\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.names[self.name_of[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.call[i]}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping children
    are counted once.
    """
    covered = [0.0] * len(starts)
    reach = list(starts)  # per parent: end of the covered prefix so far
    for i in sorted(range(len(starts)), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


# -- layer wrappers ----------------------------------------------------------

def _lowered_kernels(counters, result, args):
    counters["interpreter.kernels"] += sum(len(op.kernels) for op in result)


def _memory_verdict(counters, result, args):
    counters["metrics.checks"] += 1
    counters["metrics.infeasible"] += not result.feasible


def _routing(counters, result, args):
    counters["moe.imbalanced"] += not result.balanced


def _comm_lookup(counters, result, args):
    desc, table = args
    counters["comm.alltoall_fallbacks"] += (
        desc.kind == "AllToAll" and not table.has_key("AllToAll", desc.world))


def _sm_curve(counters, result, args):
    counters["comm.sm_blends"] += len(result.curves) == 2


def _table_gemm(counters, result, args):
    counters["compute.table_gemms"] += 1
    counters["compute.table_fallbacks"] += args[1].sm_available is not None


def _decode_steps(counters, result, args):
    counters["engine.decode_steps"] += len(result)


def _priced(counters, result, args):
    counters["engine.priced_kernels"] += 1


def layer_points():
    """(owner, attribute, span name or None for counting only, hook)."""
    from llm_energy import cli, comm, compute, engine, explorer, moe
    return [
        (cli, "main", "cli", None),
        (cli, "load_model_spec", "spec_lang.load", None),
        (cli, "load_bindings", "spec_lang.load", None),
        (cli, "load_hardware_profile", "compute.load", None),
        (compute.GemmCalibrationTable, "load", "compute.load", None),
        (cli, "load_comm_calibration", "comm.load", None),
        (moe.RoutingTrace, "load", "moe.trace_load", None),
        (cli, "sweep", "explorer.sweep", None),
        (cli, "pareto_front", "explorer.pareto", None),
        (explorer, "pareto_front", "explorer.pareto", None),
        (cli, "heuristic_compare", "explorer.heuristic", None),
        (cli, "insight_queries", "explorer.insights", None),
        (engine.Estimator, "estimate", "engine.estimate", None),
        (engine, "validate_bindings", "spec_lang.validate", None),
        (engine, "build_memory_model", "metrics.memory", None),
        (engine, "check_memory", "metrics.memory", _memory_verdict),
        (engine, "lower_model", "interpreter.lower", _lowered_kernels),
        (engine, "plan_overlap", "overlap.plan", None),
        (engine, "stats_from_trace", "moe.routing", _routing),
        (engine, "uniform_routing", "moe.routing", _routing),
        (comm, "estimate_comm", "comm", _comm_lookup),
        (comm, "resolve_sm_curve", None, _sm_curve),
        (compute.RooflineBackend, "estimate_gemm", "compute.gemm", None),
        (compute.TableComputeBackend, "estimate_gemm", "compute.gemm", _table_gemm),
        (compute.RooflineBackend, "estimate_memory_op", "compute.memory_op", None),
        (compute.TableComputeBackend, "estimate_memory_op", "compute.memory_op", None),
        (engine, "decode_positions", None, _decode_steps),
        (engine.Estimator, "_price", None, _priced),
    ]


def _wrap(fn, rec: SpanRecorder, name_id, hook):
    if name_id is None:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(rec.counters, result, args)
            return result
        return counted

    def traced(*args, **kwargs):
        idx = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec.counters, result, args)
        return result
    return traced


class Tracer:
    """Installs the layer wrappers around one recorder while active."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._patches = []
        for owner, attr, name, hook in layer_points():
            raw = owner.__dict__[attr]
            name_id = None if name is None else rec.name_id(name)
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(raw.__func__, rec, name_id, hook))
            else:
                new = _wrap(raw, rec, name_id, hook)
            self._patches.append((owner, attr, raw, new))

    @contextmanager
    def active(self):
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        try:
            yield self.rec
        finally:
            for owner, attr, raw, _ in self._patches:
                setattr(owner, attr, raw)


# -- per-layer metrics ---------------------------------------------------------

CALL_LAYERS = ("interpreter.lower", "spec_lang.validate", "metrics.memory",
               "overlap.plan", "comm", "compute.gemm", "compute.memory_op",
               "engine.estimate", "moe.routing")
SELF_ONLY = ("explorer.sweep", "explorer.pareto", "explorer.heuristic",
             "explorer.insights", "cli")
LOADS = ("spec_lang.load", "comm.load", "compute.load", "moe.trace_load")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder) -> dict:
    """Per-layer values from the recorded spans and counters."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    calls, self_s = Counter(), Counter()
    for i, t in enumerate(selfs):
        name = rec.names[rec.name_of[i]]
        calls[name] += 1
        self_s[name] += t
    c = rec.counters
    out = {}
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for layer in SELF_ONLY:
        out[f"{layer}.self_s"] = self_s[layer]
    for layer in LOADS:
        out[f"{layer}_s"] = self_s[layer]
    out.update({
        "interpreter.kernels": c["interpreter.kernels"],
        "metrics.infeasible_ratio": _ratio(c["metrics.infeasible"],
                                           c["metrics.checks"]),
        "comm.sm_blend_ratio": _ratio(c["comm.sm_blends"], calls["comm"]),
        "comm.alltoall_fallbacks": c["comm.alltoall_fallbacks"],
        "compute.table_fallback_ratio": _ratio(c["compute.table_fallbacks"],
                                               c["compute.table_gemms"]),
        "engine.decode_steps": c["engine.decode_steps"],
        "engine.priced_kernels": c["engine.priced_kernels"],
        "moe.imbalanced_ratio": _ratio(c["moe.imbalanced"], calls["moe.routing"]),
    })
    return out


COUNT_METRICS = tuple(f"{layer}.calls" for layer in CALL_LAYERS) + (
    "interpreter.kernels", "engine.decode_steps", "engine.priced_kernels",
    "comm.alltoall_fallbacks")
