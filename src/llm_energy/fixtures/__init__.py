"""Shipped fixture files: spec/dims/hardware/calibration examples.

All dimension files use public architecture constants; the hardware
profile and calibration tables are synthetic (generated by
``gen_calibration.py``), intended for examples and tests rather than as
measurements of any real device.
"""

from pathlib import Path

FIXTURE_DIR = Path(__file__).parent

_DESCRIPTIONS = {
    "dense_fused.json": "fused dense transformer layer (TP annotations)",
    "dense_unfused.json": "unfused dense transformer layer (TP annotations)",
    "dense_fused_cp.json": "fused dense layer with context parallelism",
    "moe_fused.json": "fused MoE layer (TP attention + EP experts)",
    "llama3_8b.json": "Llama3-8B-shaped dimensions",
    "llama3_70b.json": "Llama3-70B-shaped dimensions",
    "qwen3_30b_a3b.json": "Qwen3-30B-A3B-shaped dimensions (MoE)",
    "a100_sxm_80g.json": "A100-like hardware profile (synthetic)",
    "comm_synthetic.csv": "synthetic alpha-beta communication calibration",
    "gemm_synthetic.csv": "synthetic GEMM calibration table",
}


def fixture_path(name: str) -> Path:
    """The shipped fixture file ``name``, one of :func:`list_fixtures`."""
    if name not in _DESCRIPTIONS:
        raise FileNotFoundError(f"no fixture named {name!r}; "
                                f"known: {sorted(_DESCRIPTIONS)}")
    return FIXTURE_DIR / name


def list_fixtures() -> dict[str, str]:
    return dict(sorted(_DESCRIPTIONS.items()))
