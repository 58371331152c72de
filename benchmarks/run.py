"""Host-time benchmark of llm-energy: how long the program itself takes.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload prefill-sweep --seed 0 --seconds 30 --trace 0

Each workload is a closed loop with one client, no think time, one process
and no threads: every operation is one in-process ``llm_energy.cli.main``
call, generated from ``--seed`` (see ``workloads.py``). Modelled latency and
energy are outputs the benchmark checks, not timings it reports; the model
is unvalidated against real hardware, so no accuracy figure is given.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the first
block of operations once untraced and once traced, interleaved, and reports
the per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn and prints each one's table.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs"
OUT = BENCH_DIR / "_out"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MIN_CALLS = 100  # at least ten calls beyond the 90th percentile
WARMUP_S = 3.0  # untimed calls first: the CPU clock settles under load
LOOP_CAP_S = 140.0  # the loop stops here even short of MIN_CALLS
SETUP_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("configs_per_s", "1/s"), ("call_s.p50", "s"),
              ("call_s.p90", "s"), ("peak_rss_mb", "MB"))

# Timed in a fresh interpreter: importing the CLI and loading each input once.
SETUP_SNIPPET = """
import json, sys, time
from speed import probe, to_reference
before = probe()
t0 = time.perf_counter()
from llm_energy import cli
from llm_energy.compute import GemmCalibrationTable
from llm_energy.moe import RoutingTrace
def grid(path):
    with open(path) as fh:
        return json.load(fh)
loaders = {"spec": cli.load_model_spec, "dims": cli.load_bindings,
           "hw": cli.load_hardware_profile, "comm": cli.load_comm_calibration,
           "gemm": GemmCalibrationTable.load, "trace": RoutingTrace.load,
           "grid": grid}
for kind, path in json.loads(sys.argv[1]):
    loaders[kind](path)
wall = time.perf_counter() - t0
print(repr(to_reference(wall, before, probe())))
"""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Runner:
    """Runs operations of one workload and checks every call's outputs."""

    def __init__(self, cli, wl, work: Path, p_idle: float, refs):
        self.cli = cli
        self.wl = wl
        self.work = work
        self.out = work / "out"
        self.p_idle = p_idle
        self.expected = list(refs) if refs is not None else [None] * len(wl.ops)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def argv(self, op) -> list:
        return [str(self.work / a[1:]) if a.startswith("@") else a for a in op.argv]

    def call(self, i: int, tracer=None) -> tuple[float, float, int]:
        """Run operation ``i`` of the cycle.

        Returns its time in reference seconds, in wall seconds, and the
        configurations it priced.
        """
        op = self.wl.ops[i % len(self.wl.ops)]
        for name in checks.output_files(op):
            (self.out / name).unlink(missing_ok=True)
        argv = self.argv(op)
        sink = io.StringIO()
        traced = tracer.active() if tracer else contextlib.nullcontext()
        error = None
        before = speed.probe()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), traced:
            t0 = perf_counter()
            try:
                rc = self.cli.main(argv)
            except (Exception, SystemExit):  # a crash is a failed call
                rc, error = None, traceback.format_exc(limit=3)
            wall = perf_counter() - t0
        seconds = speed.to_reference(wall, before, speed.probe())
        self.attempted += 1
        problems = []
        if rc != 0:
            problems.append(f"exit {rc}: {error or sink.getvalue()[-500:]}")
        else:
            try:
                summary, problems = checks.check(op, self.out, self.p_idle)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                summary, problems = None, [f"unreadable output: {exc!r}"]
            want = self.expected[i % len(self.expected)]
            if not problems:
                if want is None:
                    self.expected[i % len(self.expected)] = summary
                elif not checks.matches(summary, want):
                    problems.append("outputs differ from the reference")
        if problems:
            self.failed += 1
            self.problems.append(f"op {i % len(self.wl.ops)} {' '.join(argv)}: "
                                 + "; ".join(problems))
        return seconds, wall, op.configs


def measure_setup(wl) -> float:
    """Median time to import the CLI and load the inputs, in fresh interpreters."""
    from llm_energy.fixtures import fixture_path
    files = []
    for kind, ref in wl.input_files():
        if ref.startswith("fixture:"):
            path = fixture_path(ref.split(":", 1)[1])
        else:
            path = wl_dir(wl) / ref[1:]
        files.append((kind, str(path)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-c", SETUP_SNIPPET, json.dumps(files)]
    times = []
    for _ in range(SETUP_REPEATS + 1):  # the first run warms the bytecode cache
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def wl_dir(wl) -> Path:
    return BENCH_DIR / "_work" / f"{wl.name}-s{wl.seed}-p{os.getpid()}"


def ref_path(name: str, seed: int) -> Path:
    return REFS / f"{name}.s{seed}.json.gz"


def load_refs(wl):
    path = ref_path(wl.name, wl.seed)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        doc = json.load(fh)
    if len(doc["ops"]) != len(wl.ops):
        raise SystemExit(f"{path}: {len(doc['ops'])} references for "
                         f"{len(wl.ops)} operations")
    return doc["ops"]


def timed_run(runner, wl, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics in reference seconds, and the same in wall seconds."""
    start = perf_counter()
    i = 0
    while perf_counter() - start < WARMUP_S:
        runner.call(i)
        i += 1
    durations, walls, block_rates = [], [], []
    start = perf_counter()
    i = 0
    while True:
        spent, configs = 0.0, 0
        for _ in range(wl.block):
            elapsed, wall, n = runner.call(i)
            durations.append(elapsed)
            walls.append(wall)
            spent += elapsed
            configs += n
            i += 1
        block_rates.append(configs / spent)
        if (perf_counter() - start >= seconds and len(durations) >= MIN_CALLS
                or perf_counter() - start >= LOOP_CAP_S):
            break
    metrics = {
        "configs_per_s": statistics.median(block_rates),
        "call_s.p50": statistics.median(durations),
        "call_s.p90": statistics.quantiles(durations, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    wall = {"wall call_s.p50": statistics.median(walls),
            "wall call_s.p90": statistics.quantiles(walls, n=10)[8],
            "wall / reference": sum(walls) / sum(durations)}
    return metrics, wall


def traced_run(runner, wl) -> dict:
    """One block untraced and traced, interleaved; per-layer metrics."""
    import tracing
    rec = tracing.SpanRecorder()
    tracer = tracing.Tracer(rec)
    plain = traced = 0.0
    for i in range(wl.block):
        rec.call_id = i
        order = (False, True) if i % 2 == 0 else (True, False)
        for with_trace in order:
            elapsed, _, _ = runner.call(i, tracer if with_trace else None)
            if with_trace:
                traced += elapsed
            else:
                plain += elapsed
    metrics = tracing.layer_metrics(rec)
    metrics["trace.overhead_ratio"] = plain / traced
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{wl.name}-s{wl.seed}.csv"
    rec.write_csv(spans)
    print(f"{len(rec)} spans written to {spans.relative_to(ROOT)}", file=sys.stderr)
    return metrics


def write_refs(runner, wl) -> None:
    for i in range(len(wl.ops)):
        runner.call(i)
    if runner.failed:
        raise SystemExit("not writing references: " + runner.problems[0])
    REFS.mkdir(exist_ok=True)
    doc = {"workload": wl.name, "seed": wl.seed, "rtol": checks.RTOL,
           "ops": runner.expected}
    data = json.dumps(doc, sort_keys=True).encode()
    ref_path(wl.name, wl.seed).write_bytes(gzip.compress(data, mtime=0))
    print(f"wrote {ref_path(wl.name, wl.seed).relative_to(ROOT)}", file=sys.stderr)


def run_one(args) -> int:
    if not (SRC / "llm_energy" / "cli.py").is_file():
        print(f"error: no llm_energy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from llm_energy import cli
    if Path(cli.__file__).resolve().parent != SRC / "llm_energy":
        print(f"error: imported llm_energy from {cli.__file__}", file=sys.stderr)
        return 2
    with open(SRC / "llm_energy" / "fixtures" / workloads.HW) as fh:
        p_idle = float(json.load(fh)["p_idle"])

    wl = workloads.generate(args.workload, args.seed)
    work = wl_dir(wl)
    try:
        (work / "out").mkdir(parents=True)
        for name, text in wl.files.items():
            (work / name).write_text(text)
        runner = Runner(cli, wl, work, p_idle, None if args.write_refs else load_refs(wl))
        if args.write_refs:
            write_refs(runner, wl)
            return 0
        wall = {}
        if args.trace:
            metrics = traced_run(runner, wl)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, wall = timed_run(runner, wl, args.seconds)
            # Measured after the loop, while the CPU clock is settled.
            metrics = {"setup_s": measure_setup(wl), **metrics}
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in runner.problems[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# {wl.name} seed {wl.seed} trace {args.trace}: "
          f"{runner.attempted} calls, {runner.failed} failed")
    print(f"#   {'error_rate':32s} {runner.failed / runner.attempted:.6g} ratio")
    for name, value in metrics.items():
        print(f"#   {name:32s} {value:.6g} {units[name]}")
    for name, value in wall.items():
        print(f"#   ({name:30s} {value:.6g})")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", action="store_true",
                        help="record reference outputs for this seed")
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args)
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
