"""The benchmark's tracer patches attributes of llm_energy by name: each must
still exist where the tracer looks for it, or a traced run breaks."""

import importlib.util
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
