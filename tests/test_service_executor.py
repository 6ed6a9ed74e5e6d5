"""Executor + batching + service facade: exactness, deadlines, admission,
and coalescing."""

import threading
import time

import pytest

from repro.core.engine import SubtrajectorySearch
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.exceptions import AdmissionError, DeadlineExceededError, ServiceError
from repro.service import Batcher, Executor, QueryService
from tests.conftest import KINDS, ask, sample_query


def keys(matches):
    return [(m.trajectory_id, m.start, m.end) for m in matches]


class TestExecutor:
    def test_single_engine_matches_direct(self, vertex_dataset, edr_cost, rng):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        with Executor(engine, max_workers=2) as executor:
            for _ in range(3):
                q = sample_query(vertex_dataset, rng, 6)
                assert keys(executor.query(q, tau_ratio=0.25).matches) == keys(
                    engine.query(q, tau_ratio=0.25).matches
                )

    def test_partitioned_fan_out_matches_direct(self, vertex_dataset, edr_cost, rng):
        single = SubtrajectorySearch(vertex_dataset, edr_cost)
        sharded = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=4
        )
        with Executor(sharded, max_workers=4) as executor:
            for _ in range(3):
                q = sample_query(vertex_dataset, rng, 6)
                a = executor.query(q, tau_ratio=0.25)
                b = single.query(q, tau_ratio=0.25)
                assert keys(a.matches) == keys(b.matches)
                for ma, mb in zip(a.matches, b.matches):
                    assert ma.distance == pytest.approx(mb.distance)

    def test_deadline_exceeded(self, vertex_dataset, edr_cost, rng):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        with Executor(engine, max_workers=1) as executor:
            q = sample_query(vertex_dataset, rng, 6)
            with pytest.raises(DeadlineExceededError):
                executor.query(q, tau_ratio=0.25, deadline=1e-9)

    def test_deadline_is_a_service_error(self):
        assert issubclass(DeadlineExceededError, ServiceError)
        assert issubclass(AdmissionError, ServiceError)

    @pytest.mark.parametrize("kind", KINDS)
    def test_admission_rejects_beyond_max_pending(
        self, vertex_dataset, edr_cost, rng, kind
    ):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        release = threading.Event()
        entered = threading.Event()

        class SlowEngine:
            costs = edr_cost
            dataset = vertex_dataset

            def query(self, q, **kwargs):
                entered.set()
                release.wait(timeout=10)
                return engine.query(q, **kwargs)

        q = sample_query(vertex_dataset, rng, 6)
        executor = Executor(SlowEngine(), max_workers=1, max_pending=1)
        try:
            blocker = threading.Thread(target=lambda: ask(executor, kind, q))
            blocker.start()
            assert entered.wait(timeout=10)
            with pytest.raises(AdmissionError):
                ask(executor, kind, q)
            release.set()
            blocker.join(timeout=10)
            assert executor.pending == 0  # the shed request held no slot
        finally:
            release.set()
            executor.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_closed_executor_rejects(self, vertex_dataset, edr_cost, rng, kind):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        executor = Executor(engine, max_workers=1)
        executor.close()
        with pytest.raises(AdmissionError):
            ask(executor, kind, sample_query(vertex_dataset, rng, 6))

    @pytest.mark.parametrize("kind", KINDS)
    def test_pool_shutdown_after_admission_is_a_shed(
        self, vertex_dataset, edr_cost, rng, kind
    ):
        """Admitted concurrently with close(): the pool refuses the
        future with a RuntimeError, which must surface as the shed it is
        (HTTP 429), not a 500 — and must give its admission slot back."""
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        executor = Executor(engine, max_workers=1)
        executor._pool.shutdown(wait=True)  # the race, frozen
        try:
            with pytest.raises(AdmissionError, match="shutting down"):
                ask(executor, kind, sample_query(vertex_dataset, rng, 6))
            assert executor.pending == 0
        finally:
            executor.close()

    def test_invalid_configuration(self, vertex_dataset, edr_cost):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        with pytest.raises(ValueError):
            Executor(engine, max_workers=0)
        with pytest.raises(ValueError):
            Executor(engine, max_pending=0)
        with pytest.raises(ValueError):
            Executor(engine, default_deadline=0.0)


class TestBatcher:
    def test_concurrent_duplicates_coalesce(self):
        batcher = Batcher()
        gate = threading.Event()
        computed = []

        def compute():
            gate.wait(timeout=10)
            computed.append(1)
            return "answer"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(batcher.run("k", compute))
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        time.sleep(0.05)  # let every thread reach the flight
        gate.set()
        for t in threads:
            t.join(timeout=10)

        assert len(computed) == 1  # one engine pass served all four
        assert sorted(r[0] for r in results) == ["answer"] * 4
        assert sum(1 for r in results if r[1]) == 3  # three followers
        assert batcher.coalesced == 3
        assert batcher.in_flight() == 0

    def test_sequential_runs_do_not_coalesce(self):
        batcher = Batcher()
        assert batcher.run("k", lambda: 1) == (1, False)
        assert batcher.run("k", lambda: 2) == (2, False)
        assert batcher.coalesced == 0

    def test_follower_wait_timeout_expires(self):
        batcher = Batcher()
        gate = threading.Event()
        started = threading.Event()

        def slow_compute():
            started.set()
            gate.wait(timeout=10)
            return "late"

        leader = threading.Thread(target=lambda: batcher.run("k", slow_compute))
        leader.start()
        assert started.wait(timeout=10)
        with pytest.raises(TimeoutError):
            batcher.run("k", slow_compute, wait_timeout=0.05)
        gate.set()
        leader.join(timeout=10)

    def test_leader_error_propagates_to_followers(self):
        batcher = Batcher()
        gate = threading.Event()
        boom = RuntimeError("boom")

        def compute():
            gate.wait(timeout=10)
            raise boom

        errors = []

        def follower():
            try:
                batcher.run("k", compute)
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=follower) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        gate.set()
        for t in threads:
            t.join(timeout=10)
        assert errors == [boom] * 3


class TestQueryService:
    def test_answers_identical_to_direct_engine(self, vertex_dataset, edr_cost, rng):
        direct = SubtrajectorySearch(vertex_dataset, edr_cost)
        sharded = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=3
        )
        with QueryService(sharded, max_workers=3) as service:
            for _ in range(3):
                q = sample_query(vertex_dataset, rng, 6)
                expected = direct.query(q, tau_ratio=0.25)
                first = service.query(q, tau_ratio=0.25)
                second = service.query(q, tau_ratio=0.25)
                assert not first.cached and second.cached
                for response in (first, second):
                    assert keys(response.result.matches) == keys(expected.matches)

    @pytest.mark.parametrize("kind", KINDS)
    def test_concurrent_identical_requests_coalesce_or_hit(
        self, vertex_dataset, edr_cost, rng, kind
    ):
        sharded = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=2
        )
        q = sample_query(vertex_dataset, rng, 6)
        with QueryService(sharded, max_workers=4) as service:
            responses = []
            threads = [
                threading.Thread(
                    target=lambda: responses.append(ask(service, kind, q))
                )
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(responses) == 6
            answers = {tuple(keys(r.result.matches)) for r in responses}
            assert len(answers) == 1  # all six saw the same answer
            computed = [r for r in responses if not r.cached and not r.coalesced]
            assert len(computed) >= 1
            stats = service.stats()
            assert stats["queries"] == 6
            assert stats["computed_queries"] == len(computed)
            assert stats["cache_hits"] == sum(r.cached for r in responses)
            assert stats["coalesced"] == sum(r.coalesced for r in responses)

    def test_uncached_sequential_repeats_recompute_the_same_answer(
        self, vertex_dataset, edr_cost, rng
    ):
        # Coalescing only joins a flight still in the air: a repeat after
        # the first answer, with the cache off, is an engine pass of its own.
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        q = sample_query(vertex_dataset, rng, 6)
        with QueryService(engine, cache_size=0) as service:
            a = service.query(q, tau_ratio=0.25)
            b = service.query(q, tau_ratio=0.25)
            assert not (a.cached or a.coalesced or b.cached or b.coalesced)
            assert keys(a.result.matches) == keys(b.result.matches)
            assert service.stats()["computed_queries"] == 2

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejections_are_counted(self, vertex_dataset, edr_cost, rng, kind):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        service = QueryService(engine, max_workers=1)
        service.executor.close()
        with pytest.raises(AdmissionError):
            ask(service, kind, sample_query(vertex_dataset, rng, 6))
        assert service.stats()["rejected"] == 1
        assert service.stats()["errors"] == 1
