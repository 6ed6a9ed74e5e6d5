"""``GET /stats``: the JSON view over the service's one set of instruments.

The service keeps its counters in the registry instruments of
:class:`~repro.service.observability.ServiceObservability`; ``/stats``
and ``/metrics`` are two renderings of those same numbers.  This suite
drives a real :class:`QueryService` and reads ``stats()``: exact
lifetime counters, latency percentiles exact over a bounded window,
per-type error counts, stage rollups only for engine-computed queries —
and, for one fixed request history, the full key set plus the equality
of every count with its ``repro_*`` sample.
"""

import json
import re
import threading
import time
import types

import pytest

from repro.core.engine import SubtrajectorySearch
from repro.exceptions import AdmissionError, DeadlineExceededError, QueryError
from repro.service import QueryService, percentile
from repro.service import observability as observability_module
from repro.service import service as service_module
from tests.conftest import samples_of


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == pytest.approx(2.5)

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


#: the ``/stats`` keys at the commit before the two metrics systems were
#: folded into one — clients (and ``perf/layers.py``) read these names.
STATS_KEYS = {
    "uptime_seconds", "queries", "errors", "errors_by_type", "rejected",
    "deadline_exceeded", "qps", "latency_p50", "latency_p95", "latency_p99",
    "latency_mean", "cache_hits", "cache_hit_rate", "coalesced",
    "coalesce_rate", "invalidations", "matches", "candidates",
    "stage_seconds", "computed_queries", "cache_size", "cache_capacity",
    "pending", "num_shards", "backend", "coalesced_retries",
    "substitution_cache", "trie_cache", "observability",
}


@pytest.fixture()
def service(private_dataset, edr_cost):
    engine = SubtrajectorySearch(private_dataset, edr_cost)
    with QueryService(engine, max_workers=2, max_pending=1, cache_size=16) as svc:
        yield svc


def prefix(dataset, tid, length=6):
    return list(dataset.symbols(tid))[:length]


class TestStats:
    def test_fixed_history_counts_and_keys(self, service, private_dataset, monkeypatch):
        """Range miss, range hit, top-k miss, top-k truncation hit, a
        coalesced pair, a shed, a deadline miss, an engine error, an
        insert — then every count, in both renderings."""
        dataset = private_dataset
        a, b, c = (prefix(dataset, tid) for tid in (0, 1, 2))
        answers = [
            service.query(a, tau_ratio=0.25),  # range miss
            service.query(a, tau_ratio=0.25),  # range hit
            service.topk(a, 5),  # top-k miss
            service.topk(a, 2),  # top-k hit by truncating the top-5
        ]
        assert [r.cached for r in answers] == [False, True, False, True]

        # A coalesced pair, and — while their flight holds the one
        # admission slot (max_pending=1) — a third, different request
        # that is shed.
        original = service.engine.query
        entered, release = threading.Event(), threading.Event()

        def held(*args, **kwargs):
            entered.set()
            assert release.wait(10)
            return original(*args, **kwargs)

        pair = []
        threads = [
            threading.Thread(
                target=lambda: pair.append(service.query(b, tau_ratio=0.25))
            )
            for _ in range(2)
        ]
        with monkeypatch.context() as patch:
            patch.setattr(service.engine, "query", held)
            threads[0].start()
            assert entered.wait(10)
        threads[1].start()
        give_up = time.monotonic() + 10
        while service.batcher.coalesced == 0 and time.monotonic() < give_up:
            time.sleep(0.001)
        # The leader sits inside the engine, on a pool thread, holding the
        # slot; its follower waits in the coalescer and needs none.
        with pytest.raises(AdmissionError):
            service.query(c, tau_ratio=0.25)
        release.set()
        for thread in threads:
            thread.join(10)
        assert sorted(r.coalesced for r in pair) == [False, True]
        answers += pair

        with pytest.raises(DeadlineExceededError):
            service.query(c, tau_ratio=0.25, deadline=1e-9)
        with pytest.raises(QueryError):
            service.query([], tau_ratio=0.25)  # engine-side refusal
        service.add_trajectory(dataset[0])  # drops the 3 cached answers

        stats = service.stats()
        assert set(stats) == STATS_KEYS
        json.dumps(stats)
        assert stats["queries"] == 6
        assert stats["computed_queries"] == 3
        assert stats["cache_hits"] == 2
        assert stats["coalesced"] == 1
        assert stats["cache_hit_rate"] == pytest.approx(2 / 6)
        assert stats["coalesce_rate"] == pytest.approx(1 / 6)
        assert stats["errors"] == 3
        assert stats["errors_by_type"] == {
            "AdmissionError": 1, "DeadlineExceededError": 1, "QueryError": 1,
        }
        assert stats["rejected"] == 1
        assert stats["deadline_exceeded"] == 1
        assert stats["invalidations"] == 3
        assert stats["matches"] == sum(len(r.result.matches) for r in answers)
        assert stats["candidates"] == sum(r.result.num_candidates for r in answers)
        computed = [r.result for r in answers if not (r.cached or r.coalesced)]
        for stage in ("mincand", "lookup", "verify"):
            assert stats["stage_seconds"][stage] == pytest.approx(
                sum(getattr(r, f"{stage}_seconds") for r in computed)
            )
        assert stats["qps"] > 0 and stats["uptime_seconds"] > 0
        assert 0 < stats["latency_p50"] <= stats["latency_p95"] <= stats["latency_p99"]
        assert stats["latency_mean"] == pytest.approx(
            sum(r.seconds for r in answers) / 6
        )
        assert (stats["cache_size"], stats["cache_capacity"]) == (0, 16)
        assert stats["pending"] == 0 and stats["coalesced_retries"] == 0

        # The other rendering of the same numbers.
        page = service.observability.registry.render()
        by_outcome = {"computed": 0, "cached": 0, "coalesced": 0}
        for family in ("repro_queries_total", "repro_topk_queries_total"):
            for labels, value in samples_of(page, family).items():
                by_outcome[re.search(r'outcome="(\w+)"', labels).group(1)] += value
        assert by_outcome == {
            "computed": stats["computed_queries"],
            "cached": stats["cache_hits"],
            "coalesced": stats["coalesced"],
        }
        assert sum(by_outcome.values()) == stats["queries"]
        assert sum(
            samples_of(page, "repro_query_latency_seconds_count").values()
        ) == stats["queries"]
        errors = samples_of(page, "repro_errors_total")
        assert errors == {
            f'{{type="{name}"}}': count
            for name, count in stats["errors_by_type"].items()
        }
        assert sum(errors.values()) == stats["errors"]
        assert errors['{type="AdmissionError"}'] == stats["rejected"]
        assert errors['{type="DeadlineExceededError"}'] == stats["deadline_exceeded"]
        for family, key in (
            ("repro_result_cache_invalidations_total", "invalidations"),
            ("repro_matches_served_total", "matches"),
            ("repro_candidates_served_total", "candidates"),
            ("repro_inflight_queries", "pending"),
            ("repro_result_cache_entries", "cache_size"),
            ("repro_result_cache_capacity", "cache_capacity"),
        ):
            assert samples_of(page, family) == {"": stats[key]}, family
        assert samples_of(page, "repro_stage_seconds_total") == {
            f'{{stage="{stage}"}}': seconds
            for stage, seconds in stats["stage_seconds"].items()
        }

    def test_stage_rollups_only_for_engine_computed_queries(self, service, private_dataset):
        query = prefix(private_dataset, 0)
        computed = service.query(query, tau_ratio=0.25).result
        assert service.query(query, tau_ratio=0.25).cached
        stages = service.stats()["stage_seconds"]
        # The hit carries the same QueryResult (same stage clocks) — they
        # are not added a second time.
        assert stages == {
            "mincand": computed.mincand_seconds,
            "lookup": computed.lookup_seconds,
            "verify": computed.verify_seconds,
        }

    def test_latency_percentiles_are_exact_over_a_bounded_window(
        self, private_dataset, edr_cost, monkeypatch
    ):
        monkeypatch.setattr(observability_module, "LATENCY_WINDOW", 8)
        # Ten requests taking exactly 1..10 ms on the service's clock.
        ticks = iter(
            t for ms in range(1, 11) for t in (100.0, 100.0 + ms / 1000.0)
        )
        monkeypatch.setattr(
            service_module,
            "time",
            types.SimpleNamespace(perf_counter=lambda: next(ticks)),
        )
        engine = SubtrajectorySearch(private_dataset, edr_cost)
        with QueryService(engine) as service:
            for _ in range(10):  # the first two fall out of the window
                service.query(prefix(private_dataset, 0), tau_ratio=0.25)
            stats = service.stats()
        assert stats["queries"] == 10  # counters stay exact past the window
        assert stats["latency_p50"] == pytest.approx(0.0065)
        assert stats["latency_p95"] == pytest.approx(0.00965)
        assert stats["latency_p99"] <= 0.010 + 1e-12
        assert stats["latency_mean"] == pytest.approx(0.0065)

    def test_default_window_is_4096_samples(self):
        # perf/layers.py derives http.overhead_ms from latency_p50 over
        # this window; a bucket-interpolated or resized one would move it.
        assert observability_module.LATENCY_WINDOW == 4096

    def test_errors_labelled_by_exception_type(self, service, private_dataset):
        """Per-type error counts alongside the aggregate (``errors``
        stays for /stats compatibility)."""
        query = prefix(private_dataset, 0)
        for bad in ([], []):
            with pytest.raises(QueryError):
                service.query(bad, tau_ratio=0.25)
        with pytest.raises(ValueError):
            service.query(query, tau_ratio=0.25, deadline=-1.0)
        with pytest.raises(DeadlineExceededError):
            service.topk(query, 3, deadline=1e-9)
        stats = service.stats()
        assert stats["errors"] == 4
        assert stats["deadline_exceeded"] == 1
        assert stats["rejected"] == 0
        assert stats["errors_by_type"] == {
            "QueryError": 2,
            "ValueError": 1,
            "DeadlineExceededError": 1,
        }
        json.dumps(stats)
