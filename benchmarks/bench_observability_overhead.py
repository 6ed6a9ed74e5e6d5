"""Observability overhead — the tracing/metrics layer must stay ~free.

Not a paper figure: ISSUE 6 threads trace spans, Prometheus-text
metrics, and a slow-query flight recorder through the whole request path
(service -> executor -> engine).  This benchmark is the CI gate keeping
that plumbing honest on the paper's headline workload (``singapore`` /
NetEDR, |Q| = 50 — the §2.2.3 setting every perf baseline uses):

- **baseline** — ``SubtrajectorySearch.query`` called directly, no
  serving layer, no tracing (the pre-observability cost of a query);
- **service_untraced** — the full :class:`QueryService` path with
  ``trace_sample_rate=0.0``: metrics counters fire, but no trace object
  is ever built.  This is production-default mode, gated at
  ``OFF_OVERHEAD_FLOOR`` (< 3%) over baseline;
- **service_traced** — ``trace_sample_rate=1.0``: every query builds a
  span tree, grafts engine stage spans, and files into the flight
  recorder.  Gated at ``ON_OVERHEAD_FLOOR`` (< 10%) over baseline.

Both gates carry an *absolute* slack floor (``ABS_SLACK_SECONDS``): on
the CI smoke scale (``REPRO_BENCH_SCALE=0.25``) a query costs only a few
milliseconds, so fixed serving costs that are invisible at production
scale (executor handoff, one result-cache probe) would otherwise
dominate the *relative* gate.  The slack is far below any real
regression: it admits at most ~0.4 ms of per-query overhead on a
workload where real tracing regressions (per-span allocation in the DP
loop, say) cost multiples of that.

The result-cache is disabled (``cache_size=0``) so every timed request
exercises the full compute path — a cache hit would measure dictionary
lookups, not tracing overhead.  The run also exports the flight
recorder's slowest trace to ``results/FLIGHT_slowest_trace.json``; CI
uploads it as a build artifact so every green build ships one fully
rendered example trace.
"""

import json
import time
from pathlib import Path

from _helpers import load_workload

from repro.bench.harness import SeriesTable, format_seconds
from repro.core.engine import SubtrajectorySearch
from repro.service import QueryService

PROFILE = "singapore"
FUNCTION = "NetEDR"
QUERY_LENGTH = 50
NUM_QUERIES = 3
TAU_RATIO = 0.4
REPEATS = 5
#: CI gate: production-default mode (sampling off) must stay < 3% over
#: the bare-engine baseline.
OFF_OVERHEAD_FLOOR = 0.03
#: CI gate: full tracing (sample rate 1.0) must stay < 10% over baseline.
ON_OVERHEAD_FLOOR = 0.10
#: Absolute per-query slack (seconds): the larger of the relative floor
#: and this bounds the gate, so millisecond-scale CI smoke cells do not
#: fail on fixed serving costs that vanish at production query cost.
ABS_SLACK_SECONDS = 0.0004


def _best_of(run_query, queries):
    """Min-of-``REPEATS`` per query (noise can only slow a run down),
    summed across the workload — identical aggregation for every config."""
    best = [float("inf")] * len(queries)
    for _ in range(REPEATS):
        for i, q in enumerate(queries):
            t0 = time.perf_counter()
            run_query(q)
            best[i] = min(best[i], time.perf_counter() - t0)
    return sum(best) / len(queries)


def _service(engine, sample_rate):
    return QueryService(
        engine,
        cache_size=0,  # every request must walk the full compute path
        trace_sample_rate=sample_rate,
        slow_query_seconds=None,
    )


def test_observability_overhead(recorder, bench_scale):
    _, dataset, costs, queries = load_workload(
        PROFILE,
        FUNCTION,
        scale=bench_scale,
        query_length=QUERY_LENGTH,
        num_queries=NUM_QUERIES,
    )
    engine = SubtrajectorySearch(dataset, costs)

    # Warm-up: cost-model caches and the warm-query TrieCache — every
    # config then measures identical steady serving state.
    expected = []
    for q in queries:
        result = engine.query(q, tau_ratio=TAU_RATIO)
        expected.append(
            [(m.trajectory_id, m.start, m.end, m.distance) for m in result.matches]
        )

    seconds = {}
    seconds["baseline"] = _best_of(
        lambda q: engine.query(q, tau_ratio=TAU_RATIO), queries
    )

    untraced = _service(engine, 0.0)
    try:
        seconds["service_untraced"] = _best_of(
            lambda q: untraced.query(q, tau_ratio=TAU_RATIO), queries
        )
    finally:
        untraced.close()

    traced = _service(engine, 1.0)
    try:
        seconds["service_traced"] = _best_of(
            lambda q: traced.query(q, tau_ratio=TAU_RATIO), queries
        )
        # Tracing must be observation-only: answers stay bit-identical.
        for q, want in zip(queries, expected):
            result = traced.query(q, tau_ratio=TAU_RATIO).result
            got = [
                (m.trajectory_id, m.start, m.end, m.distance)
                for m in result.matches
            ]
            assert got == want, "tracing changed query answers"
        slowest = traced.observability.recorder.slowest(1)
        recorded_total = traced.observability.recorder.stats()["recorded"]
    finally:
        traced.close()

    assert slowest, "flight recorder captured no traces at sample rate 1.0"
    flight_path = Path(__file__).resolve().parent.parent / "results"
    flight_path.mkdir(parents=True, exist_ok=True)
    flight_path = flight_path / "FLIGHT_slowest_trace.json"
    flight_path.write_text(
        json.dumps(slowest[0], indent=2, default=str) + "\n", encoding="utf-8"
    )

    overhead = {
        config: seconds[config] / seconds["baseline"] - 1.0
        for config in ("service_untraced", "service_traced")
    }
    slack = {
        config: max(
            floor, ABS_SLACK_SECONDS / seconds["baseline"]
        )
        for config, floor in (
            ("service_untraced", OFF_OVERHEAD_FLOOR),
            ("service_traced", ON_OVERHEAD_FLOOR),
        )
    }

    table = SeriesTable(
        "config",
        ["baseline", "service_untraced", "service_traced"],
        title=(
            f"Observability overhead ({PROFILE}/{FUNCTION}, |Q|={QUERY_LENGTH}, "
            f"tau_ratio={TAU_RATIO}, |T|={len(dataset)})"
        ),
    )
    table.add_row(
        "query seconds",
        [seconds[c] for c in ("baseline", "service_untraced", "service_traced")],
        formatter=format_seconds,
    )
    table.add_row(
        "overhead vs baseline",
        [0.0, overhead["service_untraced"], overhead["service_traced"]],
        formatter=lambda v: f"{v * 100:+.2f}%",
    )
    table.print()

    recorder.record(
        "BENCH_observability_overhead",
        {
            "profile": PROFILE,
            "function": FUNCTION,
            "query_length": QUERY_LENGTH,
            "tau_ratio": TAU_RATIO,
            "num_queries": NUM_QUERIES,
            "repeats": REPEATS,
            "bench_scale": bench_scale,
            "trajectories": len(dataset),
            "seconds": seconds,
            "overhead": overhead,
            "effective_gate": slack,
            "off_overhead_floor": OFF_OVERHEAD_FLOOR,
            "on_overhead_floor": ON_OVERHEAD_FLOOR,
            "abs_slack_seconds": ABS_SLACK_SECONDS,
            "flight_recorder_traces": recorded_total,
            "slowest_trace_file": flight_path.name,
        },
        expectation=(
            f"serving with sampling off costs < {OFF_OVERHEAD_FLOOR:.0%} over "
            f"the bare engine and full tracing < {ON_OVERHEAD_FLOOR:.0%} "
            f"(each with an absolute slack of {ABS_SLACK_SECONDS * 1e3:g} ms "
            "per query on the smoke scale); answers bit-identical traced or "
            "not; the slowest trace ships as a CI artifact"
        ),
    )

    for config in ("service_untraced", "service_traced"):
        assert overhead[config] < slack[config], (
            f"{config} overhead {overhead[config]:.2%} over baseline "
            f"(gate {slack[config]:.2%}: "
            f"max(relative floor, {ABS_SLACK_SECONDS * 1e3:g} ms absolute))"
        )
