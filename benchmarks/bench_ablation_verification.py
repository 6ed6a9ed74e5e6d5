"""Ablation — verification design choices (§5, Table 5 rationale).

Dissects OSF-BT into its ingredients: trie caching and early termination.
All variants must return identical results; the timings
quantify each ingredient's contribution (the paper justifies BT and early
termination via the UPR/CMR counters; this bench shows the wall-clock
effect directly).
"""

import time

from _helpers import load_workload, taus_for

from repro.bench.harness import SeriesTable, format_seconds
from repro.core.engine import SubtrajectorySearch

VARIANTS = [
    ("BT (trie+ET)", dict(verification="trie", early_termination=True)),
    ("local+ET (no trie)", dict(verification="local", early_termination=True)),
    ("trie, no ET", dict(verification="trie", early_termination=False)),
    ("local, no ET", dict(verification="local", early_termination=False)),
    ("SW oracle", dict(verification="sw")),
]
TAU_RATIOS = [0.1, 0.2, 0.3]


def test_ablation_verification_variants(benchmark, recorder, bench_scale):
    _, dataset, costs, queries = load_workload("beijing", "EDR", scale=bench_scale)
    table = SeriesTable(
        "variant",
        [f"tau={r}" for r in TAU_RATIOS],
        title="Ablation: verification variants (beijing / EDR)",
    )
    measured = {}
    reference_keys = None
    for name, kwargs in VARIANTS:
        engine = SubtrajectorySearch(dataset, costs, **kwargs)
        series = []
        all_keys = []
        for ratio in TAU_RATIOS:
            taus = taus_for(costs, queries, ratio)
            t0 = time.perf_counter()
            keys = [
                tuple(
                    (m.trajectory_id, m.start, m.end)
                    for m in engine.query(q, tau=t).matches
                )
                for q, t in zip(queries, taus)
            ]
            series.append((time.perf_counter() - t0) / len(queries))
            all_keys.append(keys)
        if reference_keys is None:
            reference_keys = all_keys
        else:
            assert all_keys == reference_keys, f"{name} changed the results"
        table.add_row(name, series, formatter=format_seconds)
        measured[name] = series
    table.print()

    # The full BT stack beats the SW oracle and the no-ET variants.
    assert measured["BT (trie+ET)"][-1] < measured["SW oracle"][-1]
    assert measured["BT (trie+ET)"][-1] < measured["local, no ET"][-1]

    recorder.record(
        "ablation_verification",
        {"tau_ratios": TAU_RATIOS, "seconds": measured, "scale": bench_scale},
        expectation="each ingredient (locality, ET, trie) contributes; "
        "results identical across variants",
    )

    engine = SubtrajectorySearch(dataset, costs)
    taus = taus_for(costs, queries, 0.2)
    benchmark(lambda: engine.query(queries[0], tau=taus[0]))
