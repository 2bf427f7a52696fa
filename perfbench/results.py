"""Result digests, accuracy figures, peak RSS and percentiles shared by
the bench.

Imported by the parent (``run.py``) and by the fresh-interpreter
children (``grid_job.py``, ``service_job.py``); it imports nothing from
``repro`` at module level so the parent stays free of the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import numbers
import resource
import statistics
from typing import Iterable, Sequence

#: The paper's average SOE speedup over single thread per fairness
#: level (Fig. 6: +24%, +21%, +19%, +15% at F = 0, 1/4, 1/2, 1).
PAPER_SPEEDUP = {0.0: 0.24, 0.25: 0.21, 0.5: 0.19, 1.0: 0.15}

#: Levels whose Eq. 4 target the fairness shortfall is measured against.
ENFORCED_LEVELS = (0.25, 0.5, 1.0)


def canonical(value: object) -> object:
    """A repr-stable form of a result: every field, floats exact.

    Floats become their ``float.hex`` text and numpy scalars their
    Python equivalents, so two results digest equal exactly when every
    field is bit-identical, whichever backend produced them.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (field.name, canonical(getattr(value, field.name)))
                for field in dataclasses.fields(value)
            ),
        )
    if isinstance(value, dict):
        return tuple(
            sorted((canonical(key), canonical(item)) for key, item in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    raise TypeError(f"cannot digest a {type(value).__name__}")


def digest(value: object) -> str:
    """SHA-256 of :func:`canonical` (one ``PairResult`` or a list)."""
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()


def speedup_err_pp(results: Sequence) -> float:
    """Mean over F of |average SOE speedup - paper|, in percent points."""
    from repro.metrics.throughput import soe_speedup_over_single_thread

    errors = []
    for level, paper in PAPER_SPEEDUP.items():
        gains = [
            soe_speedup_over_single_thread(result.runs[level].total_ipc, result.ipc_st)
            - 1.0
            for result in results
        ]
        errors.append(abs(sum(gains) / len(gains) - paper) * 100.0)
    return sum(errors) / len(errors)


def fairness_shortfall(results: Sequence) -> float:
    """Mean over pairs x enforced F of max(0, F - achieved Eq. 4)."""
    shortfalls = [
        max(0.0, level - result.achieved_fairness(level))
        for result in results
        for level in ENFORCED_LEVELS
    ]
    return sum(shortfalls) / len(shortfalls)


def sim_totals(results: Iterable) -> tuple:
    """(simulated cycles, thread switches) summed over every SOE run."""
    cycles = 0.0
    switches = 0
    for result in results:
        for level in sorted(result.runs):
            run = result.runs[level]
            cycles += run.cycles
            switches += run.total_switches
    return cycles, switches


def summary(results: Iterable) -> dict:
    """Per-pair digests and the simulated figures, pairs in label order.

    The same record from any path -- scalar grid, parallel grid or
    service jobs -- over the same pairs and config is equal exactly.
    """
    ordered = sorted(results, key=lambda result: result.pair.label)
    cycles, switches = sim_totals(ordered)
    return {
        "digests": {result.pair.label: digest(result) for result in ordered},
        "speedup_err_pp": speedup_err_pp(ordered),
        "fairness_shortfall": fairness_shortfall(ordered),
        "sim_cycles": cycles,
        "switches": switches,
    }


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its reaped descendants, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: int) -> float:
    """Inclusive-method percentile ``pct`` (a multiple of 10) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    return float(statistics.quantiles(ordered, n=10, method="inclusive")[pct // 10 - 1])


def beyond(values: Sequence[float], pct: int) -> int:
    """How many samples lie strictly above the ``pct`` percentile."""
    cut = percentile(values, pct)
    return sum(1 for value in values if value > cut)
