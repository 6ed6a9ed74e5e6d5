"""The exact percentile behind ``/stats``' latency figures.

The serving counters themselves live in one place — the registry
instruments of :class:`repro.service.observability.ServiceObservability`,
which ``GET /metrics`` renders as Prometheus text and ``GET /stats`` as
JSON.  Percentiles are the one figure a bucketed histogram cannot give
exactly, so they are computed here over a bounded window of raw
latencies.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["percentile"]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (``fraction`` in [0, 1]).

    Matches ``statistics.quantiles(..., method="inclusive")`` at the
    corresponding cut points; returns 0.0 on empty input.
    """
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
