"""Compute-communication overlap: what SM partitioning buys and costs.

Tensor-parallel layers end in an AllReduce that, run sequentially, leaves
the GPU idle. Overlapping splits the GEMM into stages and runs a
SM-restricted ReduceScatter alongside, leaving only an exposed AllGather
chunk. This demo prices the fused dense 70B layer stack at TP=8 without
overlap and across several (stages, sm_comm) settings, showing the
latency saved and the extra exposed-communication energy.

Run:  python3 demos/demo_overlap.py
"""

from llm_energy import (
    CommBackend,
    Estimator,
    PhaseContext,
    RooflineBackend,
    load_bindings,
    load_comm_calibration,
    load_hardware_profile,
    load_model_spec,
)
from llm_energy.fixtures import fixture_path


def main():
    spec = load_model_spec(fixture_path("dense_fused.json"))
    dims = load_bindings(fixture_path("llama3_70b.json"))
    hw = load_hardware_profile(fixture_path("a100_sxm_80g.json"))
    compute = RooflineBackend(hw)
    comm = CommBackend(load_comm_calibration(fixture_path("comm_synthetic.csv")))

    ctx = PhaseContext("prefill", batch=4, isl=4096)
    degrees = {"tp": 8}

    # One estimator prices every setting: it validates the degrees and builds
    # the memory model once, and compiles the layer once per setting.
    est = Estimator(spec, dims, hw, compute, comm)
    baseline = est.estimate(ctx, degrees)
    print(f"sequential baseline: {baseline.total_latency * 1e3:9.3f} ms  "
          f"{baseline.total_energy:9.1f} J")
    print(f"  communication energy: "
          f"{baseline.category_energy()['communication']:.1f} J\n")

    print(f"{'stages':>6} {'sm_comm':>8} {'latency':>12} {'energy':>10} "
          f"{'exposed':>9}")
    for stages, sm_comm in [(1, 16), (2, 4), (2, 16), (4, 16), (4, 32), (8, 16)]:
        report = est.estimate(ctx, degrees, overlap=(stages, sm_comm))
        exposed = report.category_energy()["exposed-comm"]
        print(f"{stages:>6} {sm_comm:>8} {report.total_latency * 1e3:>10.3f}ms "
              f"{report.total_energy:>9.1f}J {exposed:>8.1f}J")

    print("\nstages=1 reproduces the sequential critical path; larger stage")
    print("counts hide more of the ReduceScatter behind the partitioned GEMM,")
    print("trading SMs (slower GEMM) against exposed collective time.")


if __name__ == "__main__":
    main()
