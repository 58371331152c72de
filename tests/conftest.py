"""Shared fixtures: shipped spec/dims/hardware/calibration files."""

import dataclasses

import pytest

from llm_energy import (
    CommBackend,
    ModelSpec,
    RooflineBackend,
    load_bindings,
    load_comm_calibration,
    load_hardware_profile,
    load_model_spec,
)
from llm_energy.fixtures import fixture_path


@pytest.fixture(scope="session")
def dense_spec():
    return load_model_spec(fixture_path("dense_fused.json"))


@pytest.fixture(scope="session")
def unfused_spec():
    return load_model_spec(fixture_path("dense_unfused.json"))


@pytest.fixture(scope="session")
def cp_spec():
    return load_model_spec(fixture_path("dense_fused_cp.json"))


@pytest.fixture(scope="session")
def moe_spec():
    return load_model_spec(fixture_path("moe_fused.json"))


@pytest.fixture(scope="session")
def dims_8b():
    return load_bindings(fixture_path("llama3_8b.json"))


@pytest.fixture(scope="session")
def dims_70b():
    return load_bindings(fixture_path("llama3_70b.json"))


@pytest.fixture(scope="session")
def dims_moe():
    return load_bindings(fixture_path("qwen3_30b_a3b.json"))


@pytest.fixture(scope="session")
def hw():
    return load_hardware_profile(fixture_path("a100_sxm_80g.json"))


@pytest.fixture(scope="session")
def comm_table():
    return load_comm_calibration(fixture_path("comm_synthetic.csv"))


@pytest.fixture(scope="session")
def comm_backend(comm_table):
    return CommBackend(comm_table)


@pytest.fixture(scope="session")
def roofline(hw):
    return RooflineBackend(hw)


def _annotate_overlap(spec, stages, sm_comm):
    """Reference for an overlap setting: ``spec`` with (stages, sm_comm, "s")
    annotated on every top-level sharded contraction that has ``s``."""
    ops = []
    for op in spec.ops:
        if (not op.is_attention and op.parallel is not None
                and op.parallel in op.equation.summation_symbols
                and "s" in op.equation.all_symbols()):
            op = dataclasses.replace(op, overlap_stage=stages, overlap_sm=sm_comm,
                                     overlap_dim="s")
        ops.append(op)
    return ModelSpec(tuple(ops), spec.layers)


@pytest.fixture(scope="session")
def annotate_overlap():
    return _annotate_overlap
