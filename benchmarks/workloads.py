"""Seeded workload generator for the host-time benchmark.

A workload is a closed loop of operations; each operation is one in-process
``llm_energy.cli.main(argv)`` call. Every input comes from
``random.Random(f"{workload}:{seed}")``, so one seed always gives the same
operation list and the same generated files, byte for byte.

The list is a fixed number of blocks. Every block follows the same slot
design (grid size, decode length, routing source, backend), and the seed
draws the values inside each slot. Every seed therefore carries the same
mix of work, which keeps run-to-run spread small, while the drawn batch
sizes, sequence lengths, degrees, grids and routing traces differ.

Generated files are returned as ``{name: text}``; arguments that name them
are written ``@name`` and resolved against the run's work directory.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

WORKLOADS = ("prefill-sweep", "decode-long", "moe-routing")

HW = "a100_sxm_80g.json"
COMM_CAL = "comm_synthetic.csv"
GEMM_CAL = "gemm_synthetic.csv"
COMMON = ["--hw", f"fixture:{HW}", "--comm-cal", f"fixture:{COMM_CAL}"]
TABLE = ["--gemm-cal", f"fixture:{GEMM_CAL}"]
DENSE_PAIRS = (("dense_fused", "llama3_8b"), ("dense_unfused", "llama3_70b"),
               ("dense_fused", "llama3_70b"))
MOE_PAIR = ("moe_fused", "qwen3_30b_a3b")
OVERLAPS = ("none", "2:4", "4:16", "4:32")

# Generator-side memory estimate, written independently of the program so
# that a change to the program's memory model cannot change the inputs.
# Per dims file: (weight bytes sharded by tp, weight bytes sharded by ep,
# KV bytes per token before tp sharding), from the fixture dimensions.
# Estimate and decode configurations must fit in HEADROOM of the fixture
# hardware's DRAM, so every one of them is feasible with a wide margin.
CAPACITY = 85899345920
HEADROOM = 0.75
MEMORY = {
    "llama3_8b": (13958643712, 0, 131072),
    "llama3_70b": (136902082560, 0, 327680),
    "qwen3_30b_a3b": (1837105152, 57982058496, 98304),
}


def fits(dims: str, tp: int, ep: int, batch: int, tokens: int) -> bool:
    w_tp, w_ep, kv = MEMORY[dims]
    need = w_tp / tp + w_ep / ep + kv / tp * batch * tokens
    return need <= HEADROOM * CAPACITY


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments, what it prices, and how to check it."""

    argv: list
    kind: str  # "sweep" or "estimate"
    configs: int  # configurations priced by the call
    phases: tuple = ()  # estimate: reports written
    grid: dict | None = None  # sweep: the grid file's axes


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    block: int  # operations per block
    ops: list
    files: dict

    def dumps(self) -> str:
        """Canonical text of the operation list and its files."""
        return json.dumps({"ops": [asdict(op) for op in self.ops],
                           "files": self.files}, sort_keys=True)

    def input_files(self) -> list:
        """Distinct (kind, reference) inputs the operations load."""
        seen = {}
        for op in self.ops:
            for flag, kind in (("--spec", "spec"), ("--dims", "dims"),
                               ("--hw", "hw"), ("--comm-cal", "comm"),
                               ("--gemm-cal", "gemm"), ("--trace", "trace"),
                               ("--grid", "grid")):
                if flag in op.argv:
                    ref = op.argv[op.argv.index(flag) + 1]
                    seen.setdefault(ref, kind)
        return [(kind, ref) for ref, kind in seen.items()]


# -- prefill-sweep ---------------------------------------------------------

# Slot design: (pair index into DENSE_PAIRS, batch values, isl values, tp
# values, overlap settings, GEMM table backend). Points per call: 256, 384,
# 768 and 1280. Shares of calls by size are 3/10, 4/10, 1/10 and 2/10, so the
# median falls inside the 384-point calls and the 90th percentile inside the
# 1280-point calls. The middle 384-point calls and both 1280-point calls
# share one design each, so those quantiles sit inside a group of calls of
# about equal cost.
SWEEP_SLOTS = (
    (0, 8, 8, 2, 2, True), (1, 8, 8, 2, 2, False), (2, 8, 8, 2, 2, False),
    (1, 6, 8, 2, 4, True), (0, 6, 8, 2, 4, False), (0, 6, 8, 2, 4, False),
    (0, 6, 8, 2, 4, False),
    (2, 8, 8, 4, 3, True),
    (1, 10, 8, 4, 4, False), (1, 10, 8, 4, 4, False),
)
SWEEP_BLOCKS = 4


def _strata(rng: random.Random, values, n: int) -> list:
    """One value from each of ``n`` equal runs of ``values``: every grid
    spans the whole range, so its feasible share varies little by seed."""
    cuts = [k * len(values) // n for k in range(n + 1)]
    return [rng.choice(values[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


def _prefill_sweep(rng: random.Random) -> tuple[list, dict]:
    ops, files = [], {}
    for _ in range(SWEEP_BLOCKS):
        for pair, nb, ni, nt, no, table in SWEEP_SLOTS:
            spec, dims = DENSE_PAIRS[pair]
            grid = {
                "batch": _strata(rng, range(1, 65), nb),
                "isl": _strata(rng, range(256, 8193, 256), ni),
                # tp 1 is always in, so every grid prices unsharded points.
                "tp": [1] + sorted(rng.sample([2, 4, 8], nt - 1)),
                # "none" plus at least one overlapped setting, so the
                # max-overlap heuristic always has a setting to fix.
                "overlap": ["none"] + sorted(rng.sample(OVERLAPS[1:], no - 1)),
            }
            name = f"grid_{len(ops):03d}.json"
            files[name] = json.dumps(grid, sort_keys=True) + "\n"
            argv = ["sweep", "--spec", f"fixture:{spec}.json",
                    "--dims", f"fixture:{dims}.json", *COMMON,
                    *(TABLE if table else []),
                    "--phase", "prefill", "--heuristic", "max-overlap",
                    "--grid", f"@{name}", "--out", "@out",
                    "--format", "json,csv,plot"]
            ops.append(Op(argv, "sweep", nb * ni * nt * no, grid=grid))
    return ops, files


# -- decode-long -----------------------------------------------------------

# Each slot prices one of three kernel sets: the fused spec unsharded
# (llama3_8b, tp 1), the unfused spec (llama3_70b), or the fused spec
# sharded. tp, and the sharded fused slot's dims, are drawn by the seed;
# they do not change the kernel count.
FUSED_TP1 = (("dense_fused", "llama3_8b", (1,)),)
UNFUSED = (("dense_unfused", "llama3_70b", (4, 8)),)
FUSED_SHARDED = (("dense_fused", "llama3_8b", (2, 4, 8)),
                 ("dense_fused", "llama3_70b", (4, 8)))
# Slot design: (osl, kernel set, GEMM table backend). Sorted by cost, the
# 20 slots run eight osl-256 calls, four sharded osl-1024 calls, the
# osl-1024 table call, three unsharded osl-2048 calls, three sharded
# osl-2048 calls and one osl-4096 call. The median falls inside the four
# sharded osl-1024 calls and the 90th percentile inside the three sharded
# osl-2048 calls, each a group of calls of about equal cost.
DECODE_SLOTS = (
    (256, FUSED_TP1, True), (256, FUSED_TP1, False), (256, FUSED_TP1, False),
    (256, UNFUSED, False), (256, UNFUSED, False), (256, UNFUSED, False),
    (256, FUSED_SHARDED, False), (256, FUSED_SHARDED, False),
    (1024, UNFUSED, False), (1024, UNFUSED, False),
    (1024, FUSED_SHARDED, False), (1024, FUSED_SHARDED, False),
    (1024, FUSED_TP1, True),
    (2048, FUSED_TP1, False), (2048, FUSED_TP1, False), (2048, FUSED_TP1, False),
    (2048, UNFUSED, False), (2048, FUSED_SHARDED, False),
    (2048, FUSED_SHARDED, False),
    (4096, FUSED_TP1, False),
)
DECODE_BLOCKS = 6


def _decode_long(rng: random.Random) -> tuple[list, dict]:
    ops = []
    for _ in range(DECODE_BLOCKS):
        slots = list(DECODE_SLOTS)
        rng.shuffle(slots)
        for osl, kernel_set, table in slots:
            spec, dims, tps = rng.choice(kernel_set)
            tp = rng.choice(tps)
            while True:
                batch = rng.randint(1, 64)
                isl = rng.randrange(512, 8193, 128)
                if fits(dims, tp, 1, batch, isl + osl):
                    break
            argv = ["estimate", "--spec", f"fixture:{spec}.json",
                    "--dims", f"fixture:{dims}.json", *COMMON,
                    *(TABLE if table else []),
                    "--phase", "decode", "--decode-stride", "1",
                    "--batch", str(batch), "--isl", str(isl),
                    "--osl", str(osl), "--tp", str(tp),
                    "--out", "@out", "--format", "json,csv"]
            ops.append(Op(argv, "estimate", 1, phases=("decode",)))
    return ops, {}


# -- moe-routing -----------------------------------------------------------

# Slot design: (osl range, routing-trace token range or None for uniform
# routing, tp choices, ep choices). Half the calls use a trace. Sorted by
# cost the slots run uniform-short, uniform-mid, trace-1k, two uniform-long,
# trace-2k and two trace-8k. The median falls inside the two uniform-long
# calls and the 90th percentile inside the two trace-8k calls, and each of
# those pairs shares one design. Traced slots use ep > 1, where routing can
# be imbalanced. tp 1 or tp > 1, and ep 1 or ep > 1 where it matters, are
# fixed per slot, because tp > 1 and ep > 1 each add AllReduce kernels.
SHARDED, ANY_EP, EP = (2, 4), (1, 2, 4, 8), (2, 4, 8)
MOE_SLOTS = (
    ((64, 128), None, (1,), ANY_EP), ((128, 256), None, SHARDED, ANY_EP),
    ((64, 96), (1024, 1152), (1,), EP),
    ((448, 512), None, SHARDED, EP), ((448, 512), None, SHARDED, EP),
    ((128, 160), (2048, 2304), (1,), EP),
    ((64, 72), (7680, 8192), SHARDED, EP), ((64, 72), (7680, 8192), SHARDED, EP),
)
MOE_BLOCKS = 16
TRACES_PER_SLOT = 4
EXPERTS, TOP_K = 128, 8


def routing_trace(rng: random.Random, tokens: int) -> str:
    """Zipf-skewed top-8-of-128 routing trace as the CLI's CSV format.

    Expert popularity falls as 1/rank**s with s drawn from [0.8, 1.2], and
    ranks are shuffled over expert indices so hot experts land on arbitrary
    expert-parallel ranks.
    """
    s = rng.uniform(0.8, 1.2)
    order = list(range(EXPERTS))
    rng.shuffle(order)
    cum, total = [], 0.0
    for rank in range(EXPERTS):
        total += 1.0 / (rank + 1) ** s
        cum.append(total)
    lines = [f"# zipf s={s!r}, {tokens} tokens, top-{TOP_K} of {EXPERTS}"]
    for token in range(tokens):
        picked: list[int] = []
        while len(picked) < TOP_K:
            for rank in rng.choices(range(EXPERTS), cum_weights=cum, k=TOP_K):
                expert = order[rank]
                if expert not in picked and len(picked) < TOP_K:
                    picked.append(expert)
        lines.append(f"{token}," + ",".join(map(str, picked)))
    return "\n".join(lines) + "\n"


def _moe_routing(rng: random.Random) -> tuple[list, dict]:
    files = {}
    for slot, (_, token_range, _, _) in enumerate(MOE_SLOTS):
        if token_range is None:
            continue
        for k in range(TRACES_PER_SLOT):
            files[f"trace_{slot}_{k}.csv"] = routing_trace(
                rng, rng.randint(*token_range))
    spec, dims = MOE_PAIR
    ops = []
    for block in range(MOE_BLOCKS):
        slots = list(enumerate(MOE_SLOTS))
        rng.shuffle(slots)
        for slot, (osl_range, token_range, tps, eps) in slots:
            osl = rng.randint(*osl_range)
            tile = rng.choice((1, 16, 64))
            while True:
                tp, ep = rng.choice(tps), rng.choice(eps)
                batch = rng.randint(1, 64)
                isl = rng.randrange(128, 2049, 128)
                if fits(dims, tp, ep, batch, isl + osl):
                    break
            trace = []
            if token_range is not None:
                trace = ["--trace", f"@trace_{slot}_{block % TRACES_PER_SLOT}.csv"]
            argv = ["estimate", "--spec", f"fixture:{spec}.json",
                    "--dims", f"fixture:{dims}.json", *COMMON,
                    "--phase", "both", "--decode-stride", "1",
                    "--batch", str(batch), "--isl", str(isl),
                    "--osl", str(osl), "--tp", str(tp), "--ep", str(ep),
                    "--tile", str(tile), *trace,
                    "--out", "@out", "--format", "json,csv"]
            ops.append(Op(argv, "estimate", 2, phases=("prefill", "decode")))
    return ops, files


_GENERATORS = {
    "prefill-sweep": (_prefill_sweep, len(SWEEP_SLOTS)),
    "decode-long": (_decode_long, len(DECODE_SLOTS)),
    "moe-routing": (_moe_routing, len(MOE_SLOTS)),
}


def generate(name: str, seed: int) -> Workload:
    make, block = _GENERATORS[name]
    ops, files = make(random.Random(f"{name}:{seed}"))
    return Workload(name, seed, block, ops, files)
