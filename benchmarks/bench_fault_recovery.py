"""Fault recovery — availability and latency under a seeded kill-loop.

Not a paper figure: the paper assumes a healthy single process; this
benchmark measures the fault-tolerance layer built around the processes
backend (ISSUE 8).  A deterministic :class:`~repro.faultinject.FaultPlan`
kill-loop murders shard workers at seeded query ordinals while a serial
client replays a fixed workload, and we account for every request:

- *queries lost*: strict-mode queries that raised.  Respawn-and-retry
  happens inside the query path, so the expectation is **zero** — every
  kill is absorbed by the same request that trips over it.
- *recovery latency*: the extra wall-clock paid by exactly the queries
  that absorbed a kill (respawn + engine rebuild + journal replay +
  retry), vs the undisturbed median.
- *p99 under chaos*: the overall latency distribution shifts only in the
  tail — the non-victim queries must stay near the undisturbed baseline.

Answers stay element-for-element identical to an undisturbed engine, kills
included.
"""

import time

from _helpers import load_workload

from repro.bench.harness import SeriesTable
from repro.bench.workloads import sample_queries
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.faultinject import FaultPlan

TAU_RATIO = 0.3
QUERY_LENGTH = 12
NUM_QUERIES = 40
NUM_SHARDS = 4
KILLS = 6
KILL_EVERY = 4
SEED = 1234


def _match_keys(result):
    return [(m.trajectory_id, m.start, m.end) for m in result.matches]


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[idx]


def _replay(engine, requests):
    """Serial replay; per-query seconds, answers, and strict failures."""
    latencies, answers, lost = [], [], 0
    for q in requests:
        t0 = time.perf_counter()
        try:
            answers.append(_match_keys(engine.query(q, tau_ratio=TAU_RATIO)))
        except Exception:
            answers.append(None)
            lost += 1
        latencies.append(time.perf_counter() - t0)
    return latencies, answers, lost


def test_fault_recovery(benchmark, recorder, bench_scale):
    graph, dataset, costs, _ = load_workload("small", "EDR", scale=bench_scale)
    requests = sample_queries(dataset, NUM_QUERIES, QUERY_LENGTH, seed=SEED)
    plan = FaultPlan.kill_loop(
        seed=SEED, num_shards=NUM_SHARDS, kills=KILLS, every=KILL_EVERY
    )
    # Kill ordinals count a shard's *requests*, and each absorbed kill's
    # retry consumes one extra ordinal — so the i-th kill on a shard
    # (ordinal o, zero-based i) fires at global query index o - i.  The
    # victim request indices are therefore known up front.
    kill_queries = sorted(
        {
            o - i
            for s in range(NUM_SHARDS)
            for i, o in enumerate(sorted(plan.kill_ordinals(s)))
        }
    )
    assert len(plan.rules) == KILLS
    assert max(kill_queries) <= NUM_QUERIES, "workload shorter than the plan"

    with PartitionedSubtrajectorySearch(
        dataset, costs, num_shards=NUM_SHARDS, backend="processes"
    ) as undisturbed:
        base_lat, base_answers, base_lost = _replay(undisturbed, requests)
    assert base_lost == 0

    with PartitionedSubtrajectorySearch(
        dataset, costs, num_shards=NUM_SHARDS, backend="processes", fault_plan=plan
    ) as engine:
        chaos_lat, chaos_answers, chaos_lost = _replay(engine, requests)
        restarts = engine.status().restarts_total

    victim_lat = [chaos_lat[k - 1] for k in kill_queries]
    calm_lat = [
        s for i, s in enumerate(chaos_lat, start=1) if i not in kill_queries
    ]
    base_sorted = sorted(base_lat)
    chaos_sorted = sorted(chaos_lat)
    base_p50 = _quantile(base_sorted, 0.50)
    stats = {
        "base_p50_ms": 1e3 * base_p50,
        "base_p99_ms": 1e3 * _quantile(base_sorted, 0.99),
        "chaos_p50_ms": 1e3 * _quantile(chaos_sorted, 0.50),
        "chaos_p99_ms": 1e3 * _quantile(chaos_sorted, 0.99),
        "recovery_ms": [1e3 * s for s in victim_lat],
        "mean_recovery_ms": 1e3 * sum(victim_lat) / len(victim_lat),
    }

    table = SeriesTable(
        "series",
        ["p50", "p99"],
        title=(
            f"Fault recovery (small / EDR, {NUM_SHARDS} shards): latency "
            f"under a seeded {KILLS}-kill loop "
            f"(mean recovery {stats['mean_recovery_ms']:.1f} ms, "
            f"{chaos_lost} queries lost)"
        ),
    )
    table.add_row(
        "undisturbed ms",
        [stats["base_p50_ms"], stats["base_p99_ms"]],
        formatter=lambda v: f"{v:.2f}",
    )
    table.add_row(
        "kill-loop ms",
        [stats["chaos_p50_ms"], stats["chaos_p99_ms"]],
        formatter=lambda v: f"{v:.2f}",
    )
    table.print()

    # Availability: no request is ever lost — each kill is absorbed by
    # respawn-and-retry inside the request that hits it — and every
    # answer (victims included) is bit-identical to the undisturbed run.
    assert chaos_lost == 0
    assert chaos_answers == base_answers
    assert restarts == KILLS
    # Non-victim queries pay no chaos tax beyond jitter: their median
    # stays within 5x of the undisturbed median (generous — CI boxes are
    # noisy; the real signal is the victim/calm separation recorded).
    calm_p50 = _quantile(sorted(calm_lat), 0.50)
    assert calm_p50 <= 5.0 * base_p50 + 0.005

    recorder.record(
        "fault_recovery",
        {
            **stats,
            "queries": NUM_QUERIES,
            "kills": KILLS,
            "queries_lost": chaos_lost,
            "restarts": restarts,
            "shards": NUM_SHARDS,
            "seed": SEED,
            "scale": bench_scale,
        },
        expectation=(
            "0 queries lost under the kill-loop; answers bit-identical to "
            "the undisturbed run; one restart per scheduled kill"
        ),
    )
