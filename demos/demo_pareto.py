"""Energy-latency Pareto exploration over a serving configuration grid.

Sweeps batch size, input length, tensor-parallel degree, and overlap
settings for the dense 8B-shaped model, extracts the energy-latency
frontier, and compares the full prediction against the "always use the
most aggressive overlap" heuristic by frontier recovery rate.

Run:  python3 demos/demo_pareto.py
"""

from llm_energy import (
    CommBackend,
    RooflineBackend,
    heuristic_compare,
    insight_queries,
    load_bindings,
    load_comm_calibration,
    load_hardware_profile,
    load_model_spec,
    pareto_front,
    sweep,
)
from llm_energy.fixtures import fixture_path


def main():
    spec = load_model_spec(fixture_path("dense_fused.json"))
    dims = load_bindings(fixture_path("llama3_8b.json"))
    hw = load_hardware_profile(fixture_path("a100_sxm_80g.json"))
    compute = RooflineBackend(hw)
    comm = CommBackend(load_comm_calibration(fixture_path("comm_synthetic.csv")))

    grid = {
        "batch": [1, 4, 16],
        "isl": [1024, 4096],
        "tp": [2, 4, 8],
        "overlap": ["none", "2:4", "4:16", "4:32"],
    }
    points = sweep(spec, dims, grid, hw, compute, comm)
    feasible = [p for p in points if p.feasible]
    print(f"swept {len(points)} configurations ({len(feasible)} feasible)")

    frontier = pareto_front(points).frontier
    print(f"\nPareto frontier ({len(frontier)} points):")
    print(f"{'batch':>5} {'isl':>6} {'tp':>3} {'overlap':>8} "
          f"{'latency':>11} {'energy':>10}")
    for p in frontier:
        ov = f"{p.overlap[0]}:{p.overlap[1]}" if p.overlap else "-"
        print(f"{p.batch:>5} {p.isl:>6} {p.tp:>3} {ov:>8} "
              f"{p.latency * 1e3:>9.3f}ms {p.energy:>9.1f}J")

    scores = heuristic_compare(points, frontier)
    print(f"\nfrontier recovery: full prediction {scores['full_recovery']:.0%}, "
          f"max-overlap heuristic {scores['heuristic_recovery']:.0%}")

    insights = insight_queries(points)
    for row in insights.get("b4tp2_vs_b16tp8", []):
        print(f"\nisl={row['isl']}: ETFT b4/tp2 = {row['etft_b4_tp2']:.2f} J, "
              f"b16/tp8 = {row['etft_b16_tp8']:.2f} J")
    for note in insights.get("notes", []):
        print(f"note: {note}")


if __name__ == "__main__":
    main()
