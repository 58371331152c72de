"""CPU speed probe: a fixed pure-Python loop timed around every measurement.

On a shared machine the CPU clock a process gets can change by half while a
run is under way. On the shared 2-core machine this benchmark was tuned on, the
probe below took 4 ms in some stretches and 6.6 ms in others, switching
every few seconds to minutes, and llm-energy's own calls slowed by the same
factor. Timings are therefore reported in *reference seconds*: wall seconds
times ``REFERENCE_S`` over the probe's time measured around them. A change
to the program moves reference seconds as it moves wall seconds; a change
of the machine's clock does not.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.005  # the probe's nominal time


def probe() -> float:
    """Seconds the fixed loop takes now."""
    t0 = perf_counter()
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(20000):
        k = i % 64
        counts[k] = counts.get(k, 0) + 1
        acc += i * 0.5 / (k + 1)
    return perf_counter() - t0


def to_reference(wall_s: float, before: float, after: float) -> float:
    """Wall seconds measured between two probes, in reference seconds."""
    return wall_s * REFERENCE_S * 2 / (before + after)
