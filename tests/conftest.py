"""Shared fixtures: shipped spec/dims/hardware/calibration files."""

import pytest

from llm_energy import (
    CommBackend,
    RooflineBackend,
    load_bindings,
    load_comm_calibration,
    load_hardware_profile,
    load_model_spec,
)
from llm_energy.fixtures import fixture_path

import reference


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


@pytest.fixture(scope="session")
def annotate_overlap():
    return reference.annotate_overlap
