"""End-to-end estimation: lower, price, fold imbalance/overlap, aggregate.

Every evaluation is lowered and priced as columns over points: a single
prefill estimate is a column of one point, a decode estimate prices each
step once for the whole phase, as one point, in closed form over z or as
columns over the positions (see :meth:`Estimator.estimate`).
"""

from __future__ import annotations

from array import array
from typing import NamedTuple, Optional, Sequence

from .comm import CommBackend
from .compute import CostEstimate, HardwareProfile, one_cost
from .errors import SpecError, ValidationError
# The benchmark's tracer wraps these names here: decode_positions, which
# Estimator.estimate looks up in this module on each call, and lower_model
# and plan_overlap (below), one-evaluation façades the estimator does not
# call. lower_model is imported for the tracer alone
# (tests/test_source_imports.py allows it by name).
from .interpreter import (
    PREFILL,
    CommColumns,
    GemmColumns,
    GemmLine,
    LayerPlan,
    LoweredColumns,
    MemoryOpLine,
    MixedColumns,
    PhaseContext,
    as_columns,
    compile_layer,
    decode_positions,
    is_column,
    lower_model,
    _flatten_ops,
    _is_moe_op,
)
from .metrics import (
    CATEGORY_COMM,
    CATEGORY_COMPUTE,
    CATEGORY_EXPOSED,
    CATEGORY_MEMORY,
    MemoryModel,
    PhaseReport,
    ReportRow,
    build_memory_model,
    check_memory,
)
from .moe import (
    DEFAULT_TILE,
    RoutingStats,
    RoutingTrace,
    fold_imbalance_columns,
    stats_from_trace,
    uniform_routing,
)
from .spec_lang import DimensionBindings, ModelSpec, as_int, validate_bindings


# The overlap module is imported by the first overlapped estimate, not with
# the engine. This stand-in keeps the name here and looks the function up
# on each call, so a patched one is the one called.
def plan_overlap(*args, **kwargs):
    from . import overlap
    return overlap.plan_overlap(*args, **kwargs)


# (latency, energy, infeasible reason) of one point: the totals of its
# report, or None and None with the reason it is infeasible.
Priced = tuple[Optional[float], Optional[float], str]


def _kernel_category(kernel) -> str:
    """The report category of a kernel's columns or its line."""
    if isinstance(kernel, (GemmColumns, GemmLine)):
        return CATEGORY_COMPUTE
    if isinstance(kernel, CommColumns):
        return CATEGORY_COMM
    return CATEGORY_MEMORY


class _Failure(NamedTuple):
    """A memoized validation failure: the exception type and its message,
    not the exception, whose traceback would keep its frames alive."""

    kind: type
    message: str


def _has_moe(spec: ModelSpec) -> bool:
    return any(_is_moe_op(op) for op in _flatten_ops(spec))


def check_trace_experts(spec: ModelSpec, dims: DimensionBindings,
                        routing_trace: Optional[RoutingTrace],
                        has_moe: Optional[bool] = None) -> None:
    """A ValidationError, naming the trace's file, for an expert index of
    ``routing_trace`` outside the dims' ``E``, whatever the degrees. Only a
    spec with an MoE op and a bound ``E`` is checked; ``has_moe``, if
    given, says whether ``spec`` has one."""
    if (routing_trace is not None and "E" in dims.sizes
            and (_has_moe(spec) if has_moe is None else has_moe)):
        routing_trace.check_experts(dims.sizes["E"])


class Estimator:
    """Prices a model spec under given bindings, hardware, and backends.

    What an evaluation shares with others is computed once per estimator
    and reused: the validated degrees, the memory model and the compiled
    :class:`LayerPlan` per set of parallel degrees, one plan for both
    phases and every overlap setting. Validation failures are memoized as
    messages and raised again on each evaluation.

    That memo depends on the spec and dims alone, not on the hardware, the
    backends, the tile or the routing trace. ``memo``, if given, is the
    dict it is kept in, so estimators of one spec and dims can share it.
    """

    def __init__(self, spec: ModelSpec, dims: DimensionBindings,
                 hw: HardwareProfile, compute_backend, comm_backend: CommBackend,
                 *, tile: int = DEFAULT_TILE,
                 routing_trace: Optional[RoutingTrace] = None,
                 memo: Optional[dict] = None):
        if as_int(tile, "tile") < 1:
            raise ValidationError(f"tile must be >= 1, got {tile}")
        self.spec = spec
        self.dims = dims
        self.hw = hw
        self.compute_backend = compute_backend
        self.comm_backend = comm_backend
        self.tile = tile
        self.routing_trace = routing_trace
        self.has_moe = _has_moe(spec)
        # One expert out of range fails the estimator, not each evaluation.
        check_trace_experts(spec, dims, routing_trace, self.has_moe)
        self._memo: dict = {} if memo is None else memo

    def _memoized(self, key, build):
        entry = self._memo.get(key)
        if entry is None:
            try:
                entry = build()
            except (SpecError, ValidationError) as exc:
                entry = _Failure(type(exc), str(exc))
            self._memo[key] = entry
        if isinstance(entry, _Failure):
            raise entry.kind(entry.message)
        return entry

    # -- helpers -----------------------------------------------------------

    def layers(self) -> int:
        return self.dims.layers if self.dims.layers is not None else self.spec.layers

    def gpu_count(self, degrees: dict[str, int]) -> int:
        return max(degrees.get("tp", 1), degrees.get("ep", 1)) * degrees.get("cp", 1)

    def _validated(self, degrees: dict[str, int]) -> dict[str, int]:
        """``degrees`` checked against the spec and dims, every kind filled in.
        Keyed by type too: ``2.0 == 2`` and ``True == 1``, but only ints pass."""
        return self._memoized(
            ("degrees", *((kind, type(deg), deg) for kind, deg in degrees.items())),
            lambda: validate_bindings(self.spec, self.dims, degrees).degrees)

    def memory_model(self, degrees: dict[str, int]) -> MemoryModel:
        return self._memoized(
            ("memory", tuple(degrees.items())),
            lambda: build_memory_model(self.spec, self.dims, degrees, self.layers()))

    def _layer_plan(self, degrees: dict[str, int]) -> LayerPlan:
        """The layer compiled once per set of degrees."""
        return self._memoized(("plan", tuple(degrees.items())),
                              lambda: compile_layer(self.spec, self.dims, degrees))

    def routing_stats(self, ctx: PhaseContext,
                      degrees: dict[str, int]) -> Optional[RoutingStats]:
        """The MoE ops' routing statistics at ``ctx`` and ``degrees``, None
        for a dense spec. A trace's do not depend on ``ctx``: they are taken
        once per (E, ep, tile) and kept on the trace (:attr:`RoutingTrace.stats`);
        a failure is raised on every call, never kept."""
        if not self.has_moe:
            return None
        e_total = self.dims.size("E")
        ep = degrees.get("ep", 1)
        trace = self.routing_trace
        if trace is not None:
            key = (e_total, ep, self.tile)
            stats = trace.stats.get(key)
            if stats is None:
                stats = trace.stats[key] = stats_from_trace(trace, e_total, ep,
                                                            self.tile)
            return stats
        top_k = self.dims.size("A")
        return uniform_routing(ctx.batch, ctx.s, top_k, e_total, ep, self.tile)

    def _price(self, kernel) -> CostEstimate:
        """One kernel descriptor's cost: its one-point columns priced."""
        return one_cost(self._price_columns(as_columns(kernel)))

    def _price_columns(self, kernel) -> tuple[array, array]:
        if isinstance(kernel, GemmColumns):
            return self.compute_backend.estimate_gemm_columns(kernel)
        if isinstance(kernel, CommColumns):
            return self.comm_backend.estimate_columns(kernel)
        return self.compute_backend.estimate_memory_op_columns(kernel)

    def _price_sum(self, line, zs: range) -> tuple[float, float]:
        if isinstance(line, GemmLine):
            return self.compute_backend.estimate_gemm_sum(line, zs)
        return self.compute_backend.estimate_memory_op_sum(line, zs)

    def _priced(self, lowered: list[LoweredColumns],
                lowered_max: Optional[dict[int, LoweredColumns]], idx: int,
                k_idx: int) -> tuple[array, array]:
        """Kernel ``k_idx`` of op ``idx`` priced; an MoE kernel under the
        average (``lowered``) and, if given, the bottleneck GPU's routing
        (``lowered_max``, the MoE ops by stream index), folded by
        :func:`fold_imbalance_columns`."""
        op = lowered[idx]
        cost = self._price_columns(op.kernels[k_idx])
        if op.is_moe and lowered_max is not None:
            cost = fold_imbalance_columns(
                cost, self._price_columns(lowered_max[idx].kernels[k_idx]),
                self.hw.p_idle)
        return cost

    # -- phase estimation ----------------------------------------------------

    def estimate(self, ctx: PhaseContext, degrees: dict[str, int],
                 overlap: Optional[tuple[int, int]] = None) -> PhaseReport:
        """Price one phase at ``degrees``, with the overlap setting
        (stages, sm_comm) applied to every eligible op (see
        :meth:`~llm_energy.interpreter.LayerPlan.overlaps`)."""
        degrees = self._validated(degrees)
        plan = self._layer_plan(degrees)
        overlaps = plan.overlaps(overlap, ctx.phase)  # whatever the memory verdict
        layers = self.layers()
        gpus = self.gpu_count(degrees)
        report = PhaseReport(phase=ctx.phase, batch=ctx.batch, isl=ctx.isl,
                             osl=ctx.osl, gpu_count=gpus)
        report.meta = {
            "layers": layers,
            "degrees": dict(degrees),
            "tile": self.tile,
            # Every position is summed; the key keeps the report's bytes.
            "decode_stride": 1,
            "hardware": self.hw.name,
            "routing": ("trace" if self.routing_trace is not None else
                        ("uniform" if self.has_moe else "dense")),
        }

        verdict = check_memory(self.memory_model(degrees), ctx, self.hw)
        report.meta["max_seq_at_batch"] = verdict.max_seq_at_batch
        if not verdict.feasible:
            report.feasible = False
            report.infeasible_reason = verdict.reason
            return report

        if ctx.phase == PREFILL:
            # One point of the sweeps' column pricing, bound as plain sizes.
            stats = self.routing_stats(ctx, degrees)
            [(rows, errors)] = self._prefill_rows(
                plan, [overlaps], {"b": ctx.batch, "s": ctx.s, "z": ctx.s}, 1,
                stats.avg if stats else None,
                None if stats is None or stats.balanced else stats.max,
                float(gpus))
            if errors:
                raise errors[0]
            report.rows = [ReportRow(label, category, latency, energy)
                           for (label, category), ((latency,), (energy,)) in rows]
            return report

        report.rows = self._decode_rows(plan, ctx, decode_positions(ctx.osl),
                                        self.routing_stats(ctx, degrees), float(gpus))
        return report

    def _decode_rows(self, plan: LayerPlan, ctx: PhaseContext,
                     positions: range, stats: Optional[RoutingStats],
                     gpus: float) -> list[ReportRow]:
        """The report rows of the decode ``positions``, one per (label,
        category) in stream order. Each step is lowered once for all
        positions (:meth:`LayerPlan.lower_decode`; s = 1 makes the routing
        ``stats`` the same at each) and priced in stream order: a kernel
        that does not read the context once, weighted by the layers times
        the positions; a kernel line in closed form over their z, and any
        other kernel as columns summed over them, each sum weighted by the
        layers."""
        layers = float(self.layers())
        zs = range(ctx.isl + positions.start, ctx.isl + positions.stop)
        env = {"b": ctx.batch, "s": ctx.s}
        lowered = plan.lower_decode(env, zs, stats.avg if stats else None)
        lowered_max = None
        if (stats is not None and not stats.balanced
                and any(op.is_moe for op in lowered)):
            lowered_max = plan.lower_decode(env, zs, stats.max, moe_only=True)
        phase_weight = layers * len(positions)
        rows: dict[tuple[str, str], ReportRow] = {}
        for idx, op in enumerate(lowered):
            for k_idx, kernel in enumerate(op.kernels):
                category = _kernel_category(kernel)
                row = rows.setdefault((op.label, category),
                                      ReportRow(op.label, category))
                scale = 1.0 if category == CATEGORY_COMM else gpus
                if isinstance(kernel, (GemmLine, MemoryOpLine)):
                    latency, energy = self._price_sum(kernel, zs)
                    row.add(latency * layers, energy * scale * layers)
                    continue
                latencies, energies = self._priced(lowered, lowered_max, idx, k_idx)
                if not op.reads_context:
                    row.add(latencies[0] * phase_weight,
                            energies[0] * scale * phase_weight)
                    continue
                row.add(sum(latencies) * layers, sum(energies) * scale * layers)
        return list(rows.values())

    # -- prefill sweeps --------------------------------------------------------

    def estimate_prefill_settings(self, points: Sequence[tuple[int, int]],
                                  degrees: dict[str, int],
                                  settings: Sequence[Optional[tuple[int, int]]]
                                  ) -> list[list[Priced]]:
        """Price the prefill points (batch, isl) at ``degrees`` under each
        overlap setting of ``settings`` (None for no overlap): one list of
        results per setting, one result per point.

        The settings share all but the ops they overlap: the degrees are
        validated, the layer compiled, each point's memory checked and its
        routing statistics taken once; every op is lowered once as columns
        over the points, un-overlapped, and each kernel column of an op
        that a setting leaves un-overlapped is priced at most once, and
        each report row made only of such kernels is summed once. Per
        setting, only the ops it overlaps are planned
        (:meth:`~llm_energy.overlap.StageColumns.plan`; their terms that
        depend on the stages alone once per op and stage count), and its
        other rows and its totals assembled.

        A point's (latency, energy) are equal, bit for bit, to the totals
        of the report :meth:`estimate` gives for it under that setting,
        and an infeasible point's reason is the message of the report or
        ValidationError :meth:`estimate` gives, in the same precedence:
        validation, then the setting's overlap error (see
        :meth:`~llm_energy.interpreter.LayerPlan.overlaps`), then memory
        per point, then routing statistics, then lowering errors in stream
        order, then overlap checks op by op. Errors of other kinds
        propagate, as from :meth:`estimate`, when a point reaches them,
        settings in order.
        """
        out: list = [None] * len(settings)
        views, live_settings = [], []
        try:
            degrees = self._validated(degrees)
            plan = self._layer_plan(degrees)
        except ValidationError as exc:
            return [[(None, None, str(exc))] * len(points) for _ in settings]
        for j, setting in enumerate(settings):
            try:
                overlaps = plan.overlaps(setting, PREFILL)
                memory = self.memory_model(degrees)
            except ValidationError as exc:
                out[j] = [(None, None, str(exc))] * len(points)
                continue
            views.append(overlaps)
            live_settings.append(j)
        if not views:
            return out

        # Per point, only the memory test: check_memory is asked for the
        # reason of a point that fails it, and a context is made only for
        # such a point, an invalid one (to raise its error) or an MoE spec's
        # routing statistics.
        shared: list = [None] * len(points)
        live, stats = [], []
        fits, capacity, has_moe = memory.fits, self.hw.dram_capacity, self.has_moe
        for i, (batch, isl) in enumerate(points):
            if type(batch) is not int or type(isl) is not int or batch < 1 or isl < 1:
                PhaseContext(PREFILL, batch, isl)  # raises its ValidationError
            if not fits(batch, isl, capacity):
                shared[i] = (None, None, check_memory(
                    memory, PhaseContext(PREFILL, batch, isl), self.hw).reason)
                continue
            if has_moe:
                try:
                    stats.append(self.routing_stats(PhaseContext(PREFILL, batch, isl),
                                                    degrees))
                except ValidationError as exc:
                    shared[i] = (None, None, str(exc))
                    continue
            live.append(i)
        if not has_moe:
            stats = [None] * len(live)
        priced = self._prefill_columns(plan, views, degrees,
                                       [points[i] for i in live], stats)
        for j, per_point in zip(live_settings, priced):
            results = list(shared)
            for i, point in zip(live, per_point):
                results[i] = point
            out[j] = results
        return out

    def _prefill_columns(self, plan: LayerPlan, views: list[tuple],
                         degrees: dict[str, int], pairs: list[tuple[int, int]],
                         stats: list) -> list[list[Priced]]:
        """:meth:`estimate_prefill_settings` of (batch, isl) points that fit
        in memory, with their routing statistics (None for a dense spec),
        under each setting's overlaps in ``views`` (see
        :meth:`~llm_energy.interpreter.LayerPlan.overlaps`)."""
        n = len(pairs)
        if not n:
            return [[] for _ in views]
        env = {"b": array("q", [batch for batch, _ in pairs]),
               "s": array("q", [isl for _, isl in pairs])}
        env["z"] = env["s"]  # z = isl throughout prefill
        moe_avg = moe_max = None
        if stats[0] is not None:
            moe_avg = tuple(array("d", col) for col in zip(*(st.avg for st in stats)))
            if not all(st.balanced for st in stats):
                # Folding is exact for the balanced points: L' - L = 0.0.
                moe_max = tuple(array("d", col)
                                for col in zip(*(st.max for st in stats)))
        try:
            priced = self._prefill_rows(plan, views, env, n, moe_avg, moe_max,
                                        float(self.gpu_count(degrees)))
        except MixedColumns as mixed:
            # Some points lower a GEMM as a memory op, which changes their
            # rows: price each kind of point as its own group.
            split: list = [[None] * n for _ in views]
            for flag in (True, False):
                part = [i for i in range(n) if mixed.ones[i] == flag]
                priced = self._prefill_columns(plan, views, degrees,
                                               [pairs[i] for i in part],
                                               [stats[i] for i in part])
                for results, part_results in zip(split, priced):
                    for i, point in zip(part, part_results):
                        results[i] = point
            return split
        out = []
        for rows, errors in priced:
            # A report's totals: the builtin sum over its rows, in row order.
            latencies = [sum(point) for point in zip(*(row[0] for _, row in rows))]
            energies = [sum(point) for point in zip(*(row[1] for _, row in rows))]
            out.append([
                (None, None, str(errors[i])) if i in errors else
                (latencies[i], energies[i], "") for i in range(n)])
        return out

    def _prefill_rows(self, plan: LayerPlan, views: list[tuple],
                      env: dict, n: int,
                      moe_avg: Optional[tuple], moe_max: Optional[tuple],
                      gpus: float) -> list[tuple[list, dict]]:
        """Per setting's overlaps in ``views`` (see
        :meth:`~llm_energy.interpreter.LayerPlan.overlaps`), the report
        rows of ``n`` prefill points bound by ``env``, and the error of
        each point that fails: the rows as ((label, category), (latencies,
        energies)), in report order (none when every point fails), the
        errors by point index.

        ``moe_avg`` and ``moe_max`` bind the MoE ops' (T, E) under the
        average and, if any point is imbalanced, the bottleneck GPU's
        routing. Every op of ``plan`` is lowered once, un-overlapped, for
        all settings (each MoE op once more for the bottleneck GPU), and
        each kernel column of an op that a setting leaves un-overlapped is
        priced at most once; a row made only of such kernels is summed
        once. Errors of kinds other than ValidationError propagate. A GEMM
        whose N is 1 at some points only raises
        :class:`~llm_energy.interpreter.MixedColumns`.
        """
        errors: dict = {}
        failed_at: dict = {}
        lowered = plan.lower_columns(env, n, moe_avg, errors, failed_at)
        lowered_max = None
        if moe_max is not None and any(op.is_moe for op in lowered):
            # Its errors come after every error of the average lowering.
            lowered_max = plan.lower_columns(env, n, moe_max, errors, moe_only=True)
        costs: dict = {}

        def price(idx: int, k_idx: int) -> tuple[array, array]:
            # Each kernel column of an op left un-overlapped once, whichever
            # settings price it.
            cost = costs.get((idx, k_idx))
            if cost is None:
                cost = costs[(idx, k_idx)] = self._priced(lowered, lowered_max,
                                                          idx, k_idx)
            return cost

        weight = float(self.layers())
        shared_rows: dict = {}
        stages_memo: dict = {}
        out = []
        for overlaps in views:
            ops, point_errors = plan.overlapped(overlaps, lowered, errors,
                                                failed_at, n)
            for exc in point_errors.values():
                if not isinstance(exc, ValidationError):
                    raise exc  # before any pricing
            # (label, category, latencies, energies, source) of each entry
            # in stream order. The source is the (op, kernel) index of a
            # kernel column priced un-overlapped, the same under every
            # setting, or None for an overlapped op's entries.
            entries: list = []
            for idx, op in enumerate(ops):
                if len(point_errors) == n:
                    break  # no point prices this op, so none meets its errors
                if op.overlap is not None:
                    self._overlap_columns(idx, op, env, n, point_errors,
                                          stages_memo, entries)
                    continue
                for k_idx, kernel in enumerate(op.kernels):
                    entries.append((op.label, _kernel_category(kernel),
                                    *price(idx, k_idx), (idx, k_idx)))
            out.append(([] if len(point_errors) == n else
                        _accumulate_rows(entries, n, weight, gpus, shared_rows),
                        point_errors))
        return out

    def _overlap_columns(self, idx: int, op: LoweredColumns, env: dict, n: int,
                         errors: dict, stages_memo: dict, entries: list) -> None:
        """The entries of overlapped op ``idx`` over a column of ``n``
        points, appended to ``entries``: its compute and exposed terms (see
        :class:`~llm_energy.overlap.StageColumns`) after any kernels lowered
        ahead of its GEMM. A point that cannot be overlapped gets its error
        in ``errors``. The terms that depend on the stages alone are priced
        once per stage count and kept in ``stages_memo``."""
        live = [i for i in range(n) if i not in errors]
        stages, sm_comm, dim = op.overlap
        try:
            if op.gemm is None:
                raise ValidationError(
                    f"op {op.label!r}: overlap needs a GEMM + collective")
            dim_size = env.get(dim, self.dims.sizes.get(dim))
            if dim_size is None:
                raise ValidationError(f"op {op.label!r}: overlap dim {dim!r} unbound")
        except ValidationError as exc:
            for i in live:
                errors[i] = exc
            return
        from .overlap import StageColumns, check_overlap
        sizes = dim_size if is_column(dim_size) else [dim_size] * n
        for i in live:
            try:
                check_overlap(int(sizes[i]), stages, sm_comm, self.hw.total_sm)
            except ValidationError as exc:
                errors[i] = exc
        if len(errors) == n:
            return
        stage = stages_memo.get((idx, stages))
        if stage is None:
            stage = stages_memo[(idx, stages)] = StageColumns(
                op.gemm, op.collective.bytes, op.collective.world, stages,
                self.compute_backend, self.comm_backend, label=op.label)
        plan = stage.plan(sm_comm, self.hw.total_sm)
        # Any kernels lowered ahead of the GEMM (cp transitions) keep their
        # normal pricing.
        for kernel in op.kernels:
            if kernel is op.gemm:
                continue
            entries.append((op.label, _kernel_category(kernel),
                            *self._price_columns(kernel), None))
        entries.append((op.label, CATEGORY_COMPUTE, plan.compute_latency,
                        plan.compute_energy, None))
        entries.append((op.label, CATEGORY_EXPOSED, plan.t_exposed,
                        plan.exposed_energy, None))


def _accumulate_rows(entries: list, n: int, weight: float, gpus: float,
                     shared: dict) -> list[tuple[tuple, tuple[list, list]]]:
    """((label, category), (latencies, energies)) of each report row over
    ``n`` points, rows in first-seen order, each the sum of its entries
    weighted by ``weight`` (energies also by ``gpus``, comm excepted) from
    0.0 in stream order, point by point. A row whose entries all have a
    source is kept in ``shared`` under those sources, and taken from there
    by every later setting."""
    by_row: dict = {}
    for label, category, latencies, energies, source in entries:
        by_row.setdefault((label, category), []).append(
            (latencies, energies, source))
    rows = []
    for key, parts in by_row.items():
        sources = tuple([source for _, _, source in parts])
        row = shared.get(sources)  # never kept under a None source
        if row is None:
            scale = 1.0 if key[1] == CATEGORY_COMM else gpus
            (latencies, energies, _), *more = parts
            row_latencies = [0.0 + t * weight for t in latencies]
            row_energies = [0.0 + e * scale * weight for e in energies]
            for latencies, energies, _ in more:
                row_latencies = [a + t * weight
                                 for a, t in zip(row_latencies, latencies)]
                row_energies = [a + e * scale * weight
                                for a, e in zip(row_energies, energies)]
            row = (row_latencies, row_energies)
            if None not in sources:
                shared[sources] = row
        rows.append((key, row))
    return rows

