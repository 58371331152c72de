"""The benchmark's tracer patches attributes of llm_energy by name: each must
still exist where the tracer looks for it, or a traced run breaks."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in tracing.layer_points()
               if attr not in owner.__dict__]
    assert missing == []


def test_the_commands_call_the_names_the_tracer_wraps(monkeypatch, tmp_path):
    # The CLI imports the explorer on first use; its functions must still
    # be called through the CLI module's names, and reach a patched
    # explorer function, or a traced sweep loses its explorer spans.
    from llm_energy import cli, explorer

    calls = Counter()

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[f"{owner.__name__}.{name}"] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    for name in ("sweep", "pareto_front", "heuristic_compare", "insight_queries"):
        counting(cli, name)
    counting(explorer, "sweep")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"batch": [1, 2], "isl": [256], "tp": [2],
                                "overlap": [None, "2:4"]}))
    code = cli.main(["sweep", "--spec", "fixture:dense_fused.json",
                     "--dims", "fixture:llama3_8b.json",
                     "--hw", "fixture:a100_sxm_80g.json",
                     "--comm-cal", "fixture:comm_synthetic.csv",
                     "--grid", str(grid), "--heuristic", "max-overlap",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert calls == {"llm_energy.cli.sweep": 1, "llm_energy.explorer.sweep": 1,
                     "llm_energy.cli.pareto_front": 1,
                     "llm_energy.cli.heuristic_compare": 1,
                     "llm_energy.cli.insight_queries": 1}


def test_a_decode_estimate_calls_the_traced_decode_positions(monkeypatch, tmp_path):
    # The tracer counts decode steps by wrapping engine.decode_positions:
    # the estimator must look it up there, once per decode phase.
    from llm_energy import cli, engine

    results = []
    positions = engine.decode_positions

    def recording(osl):
        results.append(positions(osl))
        return results[-1]
    monkeypatch.setattr(engine, "decode_positions", recording)
    code = cli.main(["estimate", "--spec", "fixture:dense_fused.json",
                     "--dims", "fixture:llama3_8b.json",
                     "--hw", "fixture:a100_sxm_80g.json",
                     "--comm-cal", "fixture:comm_synthetic.csv",
                     "--phase", "both", "--osl", "5",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert [len(result) for result in results] == [5]


def test_routing_statistics_are_taken_through_the_traced_name(monkeypatch, tmp_path):
    # The tracer counts routing computations by wrapping
    # engine.stats_from_trace: the estimator must look it up there whenever
    # a trace has no statistics kept for the key, once per phase-both call.
    from llm_energy import cli, engine

    keys = []
    stats_from_trace = engine.stats_from_trace

    def recording(trace, *key):
        keys.append(key)
        return stats_from_trace(trace, *key)
    monkeypatch.setattr(engine, "stats_from_trace", recording)
    trace = tmp_path / "trace.csv"
    trace.write_text("".join(f"{t}," + ",".join(str((5 * t + j) % 40) for j in range(8))
                             + "\n" for t in range(32)))
    code = cli.main(["estimate", "--spec", "fixture:moe_fused.json",
                     "--dims", "fixture:qwen3_30b_a3b.json",
                     "--hw", "fixture:a100_sxm_80g.json",
                     "--comm-cal", "fixture:comm_synthetic.csv",
                     "--trace", str(trace), "--ep", "4", "--tile", "8",
                     "--phase", "both", "--osl", "5",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert keys == [(128, 4, 8)]
