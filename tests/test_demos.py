"""The demos run to completion in-process."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["demo_breakdown", "demo_overlap", "demo_pareto"])
def test_demo_main_completes(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        demo.main()
    assert out.getvalue().strip()
