"""Fault-tolerant serving: supervision, replay, degradation, chaos (ISSUE 8).

Everything here is deterministic: worker deaths are injected by a seeded
:class:`repro.faultinject.FaultPlan` keyed to request ordinals (never by
racing ``kill`` against the scheduler), so a failing run replays
bit-identically.
"""

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import supervision
from repro.core import workers as workers_module
from repro.core.cancellation import CancelToken
from repro.core.engine import SubtrajectorySearch
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.supervision import (
    BREAKER_STATES,
    CircuitBreaker,
    RespawnBackoff,
)
from repro.core.workers import ShardWorkerPool
from repro.exceptions import (
    QueryCancelledError,
    QueryError,
    ShardUnavailableError,
    WorkerError,
)
from repro.faultinject import (
    FAULT_EXIT_CODE,
    FaultPlan,
    FaultRule,
    load_fault_plan,
)
from tests.conftest import KINDS, ask, kill_worker, sample_query, worker_process

pytestmark = pytest.mark.timeout(300)


def keys(result):
    return [(m.trajectory_id, m.start, m.end) for m in result.matches]


def make_engine(dataset, costs, *, num_shards=2, **kwargs):
    return PartitionedSubtrajectorySearch(
        dataset, costs, num_shards=num_shards, backend="processes", **kwargs
    )


#: a shard held permanently down: dies before every query, and the
#: supervisor's respawns are made to fail (effectively) forever.
def held_down(shard):
    return FaultPlan(
        rules=[
            FaultRule(shard=shard, op="kill_before", request=0),
            FaultRule(shard=shard, op="fail_respawn", count=10_000),
        ]
    )


# ---------------------------------------------------------------------------
# FaultPlan / FaultRule (pure, no processes)
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown fault op"):
            FaultRule(shard=0, op="set_on_fire")

    def test_malformed_rule_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(shard=-1, op="kill_before")
        with pytest.raises(ValueError):
            FaultRule(shard=0, op="delay_reply", seconds=-1.0)
        with pytest.raises(ValueError, match="'on'"):
            FaultRule(shard=0, op="kill_before", on="stats")

    def test_json_round_trip(self):
        plan = FaultPlan(
            rules=[
                FaultRule(shard=1, op="kill_after", request=3),
                FaultRule(shard=0, op="delay_reply", request=1, seconds=0.05),
                FaultRule(shard=2, op="fail_respawn", count=4),
            ],
            seed=11,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_kill_loop_is_a_pure_function_of_its_arguments(self):
        a = FaultPlan.kill_loop(seed=5, num_shards=3, kills=4, every=3)
        b = FaultPlan.kill_loop(seed=5, num_shards=3, kills=4, every=3)
        c = FaultPlan.kill_loop(seed=6, num_shards=3, kills=4, every=3)
        assert a == b
        assert a != c
        assert len(a.rules) == 4
        # Ordinals strictly advance per victim shard, so each rule fires.
        for shard in range(3):
            ordinals = [r.request for r in a.rules if r.shard == shard]
            assert ordinals == sorted(ordinals)
            assert len(set(ordinals)) == len(ordinals)

    def test_worker_faults_slices_per_shard(self):
        plan = FaultPlan(
            rules=[
                FaultRule(shard=0, op="kill_before", request=2),
                FaultRule(shard=1, op="fail_respawn", count=2),
            ]
        )
        assert plan.worker_faults(0) is not None
        # fail_respawn is parent-side: shard 1 has no worker-side table.
        assert plan.worker_faults(1) is None
        assert plan.respawn_failures(1) == 2
        assert plan.respawn_failures(0) == 0
        assert plan.kill_ordinals(0) == (2,)

    def test_load_fault_plan_inline_and_file(self, tmp_path):
        plan = FaultPlan(rules=[FaultRule(shard=0, op="drop_pipe", request=1)])
        assert load_fault_plan(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert load_fault_plan(str(path)) == plan
        assert load_fault_plan(None) is None


# ---------------------------------------------------------------------------
# Supervision policy objects (pure, fake clocks)
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = [0.0]
        b = CircuitBreaker(failure_threshold=3, cooldown=5.0, clock=lambda: clock[0])
        for _ in range(2):
            b.record_failure()
        assert b.state == "closed" and b.allow()
        b.record_failure()
        assert b.state == "open" and not b.allow()

    def test_success_resets_the_failure_count(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == "closed"

    def test_half_open_single_probe_then_close_or_reopen(self):
        clock = [0.0]
        b = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=lambda: clock[0])
        b.record_failure()
        assert b.state == "open"
        clock[0] = 6.0
        assert b.state == "half_open"
        assert b.allow()  # probe slot
        assert not b.allow()  # only ONE probe
        b.record_success()
        assert b.state == "closed"
        # And the failure path re-opens from half-open:
        b.record_failure()
        clock[0] = 12.0
        assert b.allow()
        b.record_failure()
        assert b.state == "open"

    def test_probe_abandoned_without_a_verdict_frees_the_slot(self):
        clock = [0.0]
        b = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=lambda: clock[0])
        b.record_failure()
        clock[0] = 6.0
        with pytest.raises(KeyError):
            with b.admission() as admitted:
                assert admitted  # this request is the probe
                assert not b.allow()  # ... and the only one
                raise KeyError("ended with neither success nor failure")
        assert b.state == "half_open"  # no verdict was invented
        assert b.allow()  # the next request may probe
        # A refused admission holds nothing, so it releases nothing.
        with b.admission() as admitted:
            assert not admitted
        assert not b.allow()

    def test_breaker_states_tuple_matches_metric_contract(self):
        assert BREAKER_STATES == ("closed", "half_open", "open")


class TestRespawnBackoff:
    def test_bounded_exponential_with_deterministic_jitter(self):
        a = RespawnBackoff(base=0.1, cap=1.0, seed=3)
        b = RespawnBackoff(base=0.1, cap=1.0, seed=3)
        delays = [a.delay(k) for k in range(8)]
        assert delays == [b.delay(k) for k in range(8)]
        # jitter is [0.5, 1.5) around min(cap, base * 2**k)
        for k, d in enumerate(delays):
            raw = min(1.0, 0.1 * 2**k)
            assert raw * 0.5 <= d < raw * 1.5
        assert max(delays) < 1.5  # cap * 1.5


# ---------------------------------------------------------------------------
# Crash semantics & recovery (processes backend)
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_injected_kill_recovers_bit_identically(
        self, vertex_dataset, edr_cost, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        with make_engine(vertex_dataset, edr_cost) as undisturbed:
            expected = undisturbed.query(query, tau_ratio=0.25)
        plan = FaultPlan(rules=[FaultRule(shard=1, op="kill_before", request=2)])
        with make_engine(vertex_dataset, edr_cost, fault_plan=plan) as engine:
            first = engine.query(query, tau_ratio=0.25)
            killed = engine.query(query, tau_ratio=0.25)  # shard 1 dies here
            after = engine.query(query, tau_ratio=0.25)
            for result in (first, killed, after):
                assert keys(result) == keys(expected)
                assert result.complete and result.degraded_shards == ()
            assert engine.status().restarts_total == 1

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        shard=st.integers(min_value=0, max_value=1),
        kill_request=st.integers(min_value=1, max_value=3),
        after=st.booleans(),
    )
    def test_any_kill_point_recovers_bit_identically(
        self, vertex_dataset, edr_cost, shard, kill_request, after
    ):
        # Property: wherever the worker dies — before or after any of the
        # first three requests, either shard — every query is answered
        # exactly as an undisturbed engine answers it.
        query = list(vertex_dataset.symbols(0))[:6]
        with make_engine(vertex_dataset, edr_cost) as undisturbed:
            expected = keys(undisturbed.query(query, tau_ratio=0.25))
        plan = FaultPlan(
            rules=[
                FaultRule(
                    shard=shard,
                    op="kill_after" if after else "kill_before",
                    request=kill_request,
                )
            ]
        )
        with make_engine(vertex_dataset, edr_cost, fault_plan=plan) as engine:
            for _ in range(4):
                result = engine.query(query, tau_ratio=0.25)
                assert keys(result) == expected
                assert result.complete

    def test_dropped_pipe_recovers_too(self, vertex_dataset, edr_cost, rng):
        query = sample_query(vertex_dataset, rng, 6)
        plan = FaultPlan(rules=[FaultRule(shard=0, op="drop_pipe", request=1)])
        with make_engine(vertex_dataset, edr_cost) as undisturbed:
            expected = keys(undisturbed.query(query, tau_ratio=0.25))
        with make_engine(vertex_dataset, edr_cost, fault_plan=plan) as engine:
            assert keys(engine.query(query, tau_ratio=0.25)) == expected
            assert engine.status().restarts_total == 1

    def test_journal_replay_covers_online_inserts(
        self, small_graph, edr_cost, trips
    ):
        from repro.trajectory.dataset import TrajectoryDataset

        ds = TrajectoryDataset(small_graph)
        for t in trips[:12]:
            ds.add(t)
        plan = FaultPlan(
            rules=[FaultRule(shard=0, op="kill_after", request=1, on="query")]
        )
        with make_engine(ds, edr_cost, fault_plan=plan) as engine:
            gid = engine.add_trajectory(trips[12])  # gid 12 -> shard 0
            assert gid == 12
            query = list(trips[12].path[:6])
            before = engine.query(query, tau_ratio=0.25)  # kills shard 0 after
            assert any(m.trajectory_id == gid for m in before.matches)
            # The respawned worker rebuilt + replayed: identical again.
            after = engine.query(query, tau_ratio=0.25)
            assert keys(after) == keys(before)
            assert engine.status().restarts_total == 1

    def test_insert_crash_between_add_and_ack_is_replayable(
        self, small_graph, edr_cost, trips
    ):
        from repro.trajectory.dataset import TrajectoryDataset

        ds = TrajectoryDataset(small_graph)
        for t in trips[:13]:
            ds.add(t)
        # Shard 1's worker dies on its first replicated add, before acking.
        plan = FaultPlan(
            rules=[FaultRule(shard=1, op="kill_before", request=1, on="add")]
        )
        with make_engine(ds, edr_cost, fault_plan=plan) as engine:
            # The shard revives and the insert is retried once, like a
            # query: it lands on the respawned worker with the same global
            # id and becomes queryable.
            gid = engine.add_trajectory(trips[13])  # gid 13 -> shard 1
            assert gid == 13
            assert engine.status().restarts_total == 1
            result = engine.query(list(trips[13].path[:6]), tau_ratio=0.25)
            assert any(m.trajectory_id == gid for m in result.matches)
            assert result.complete

    def test_insert_to_a_killed_worker_revives_and_lands(
        self, small_graph, edr_cost, trips, monkeypatch
    ):
        """An insert sent to a worker that died since its last request
        revives the shard and lands, as a query would: no failed insert,
        and no failure left on the breaker (three such inserts used to
        open it, turning the shard's queries into 503s while it was back
        up)."""
        from repro.trajectory.dataset import TrajectoryDataset

        monkeypatch.setattr(workers_module, "_SUPERVISOR_POLL", 3600.0)
        ds = TrajectoryDataset(small_graph)
        ds.extend(trips[:13])
        with make_engine(ds, edr_cost) as engine:
            target = len(engine) % 2
            kill_worker(engine.status().workers[target].pid)
            assert engine.add_trajectory(trips[13]) == 13
            status = engine.status()
            assert status.restarts_total == 1
            assert status.workers[target].breaker == "closed"
            assert status.workers[target].consecutive_failures == 0
            result = engine.query(list(trips[13].path[:6]), tau_ratio=0.25)
            assert any(m.trajectory_id == 13 for m in result.matches)


class TestGracefulDegradation:
    def test_strict_mode_fails_loudly_when_a_shard_stays_down(
        self, vertex_dataset, edr_cost, rng
    ):
        with make_engine(
            vertex_dataset, edr_cost, num_shards=3, fault_plan=held_down(1)
        ) as engine:
            with pytest.raises(WorkerError):
                engine.query(sample_query(vertex_dataset, rng, 6), tau_ratio=0.25)

    def test_allow_partial_serves_live_shards_flagged_incomplete(
        self, vertex_dataset, edr_cost, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        with make_engine(vertex_dataset, edr_cost, num_shards=3) as undisturbed:
            full = undisturbed.query(query, tau_ratio=0.25)
        with make_engine(
            vertex_dataset, edr_cost, num_shards=3, fault_plan=held_down(1)
        ) as engine:
            partial = engine.query(query, tau_ratio=0.25, allow_partial=True)
            assert not partial.complete
            assert partial.degraded_shards == (1,)
            # The live shards' matches are exactly the full answer minus
            # shard 1's trajectories (round-robin: gid % 3 == 1).
            expected = [m for m in full.matches if m.trajectory_id % 3 != 1]
            assert keys(partial) == [
                (m.trajectory_id, m.start, m.end) for m in expected
            ]

    def test_all_shards_down_raises_even_with_allow_partial(
        self, vertex_dataset, edr_cost, rng
    ):
        plan = FaultPlan(
            rules=[
                rule
                for shard in (0, 1)
                for rule in held_down(shard).rules
            ]
        )
        with make_engine(vertex_dataset, edr_cost, fault_plan=plan) as engine:
            with pytest.raises(ShardUnavailableError):
                engine.query(
                    sample_query(vertex_dataset, rng, 6),
                    tau_ratio=0.25,
                    allow_partial=True,
                )

    def test_merge_accepts_none_for_degraded_shards(
        self, vertex_dataset, edr_cost, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        with make_engine(vertex_dataset, edr_cost, num_shards=3) as engine:
            calls = engine.shard_query_callables(query, tau_ratio=0.25)
            results = [call() for call in calls]
            merged = engine.merge_shard_results([results[0], None, results[2]])
            assert not merged.complete
            assert merged.degraded_shards == (1,)
            with pytest.raises(ShardUnavailableError):
                engine.merge_shard_results([None, None, None])
            with pytest.raises(QueryError):
                engine.merge_shard_results(results[:2])

    def test_breaker_opens_and_fails_fast_then_recovers(
        self, vertex_dataset, edr_cost, rng, monkeypatch
    ):
        # Shard 1 is held down for 3 respawns; breaker (threshold 2,
        # cooldown 0.2 s) opens, then a half-open probe after recovery
        # closes it and the engine serves complete answers again.
        monkeypatch.setattr(supervision, "BREAKER_FAILURES", 2)
        monkeypatch.setattr(supervision, "BREAKER_COOLDOWN", 0.2)
        monkeypatch.setattr(supervision, "RESPAWN_BACKOFF", 0.01)
        monkeypatch.setattr(supervision, "RESPAWN_BACKOFF_CAP", 0.05)
        plan = FaultPlan(
            rules=[
                FaultRule(shard=1, op="kill_before", request=1),
                FaultRule(shard=1, op="fail_respawn", count=3),
            ]
        )
        query = sample_query(vertex_dataset, rng, 6)
        with make_engine(vertex_dataset, edr_cost, fault_plan=plan) as engine:
            partial = engine.query(query, tau_ratio=0.25, allow_partial=True)
            assert not partial.complete
            # Hammer until the breaker opens (each degraded pass may
            # record one more failure).
            deadline = time.monotonic() + 10.0
            while engine.status().workers[1].breaker != "open":
                engine.query(query, tau_ratio=0.25, allow_partial=True)
                assert time.monotonic() < deadline, "breaker never opened"
            # Once the respawn-failure budget drains, the supervisor
            # brings the worker back and a probe closes the breaker.
            deadline = time.monotonic() + 20.0
            while True:
                result = engine.query(query, tau_ratio=0.25, allow_partial=True)
                if result.complete:
                    break
                assert time.monotonic() < deadline, "shard never recovered"
                time.sleep(0.05)
            assert engine.status().workers[1].breaker == "closed"


class TestProbeOutcomes:
    """A half-open probe is an ordinary query; whatever its one reply is,
    the shard that sent it is healthy and must keep serving."""

    @pytest.fixture()
    def half_open(self, vertex_dataset, edr_cost, monkeypatch):
        monkeypatch.setattr(supervision, "BREAKER_FAILURES", 1)
        monkeypatch.setattr(supervision, "BREAKER_COOLDOWN", 0.05)
        with make_engine(vertex_dataset, edr_cost) as engine:
            engine._workers._workers[0].breaker.record_failure()
            assert engine.status().workers[0].breaker == "open"
            time.sleep(0.1)  # wait out the cooldown: the next query probes
            assert engine.status().workers[0].breaker == "half_open"
            yield engine

    def serves_like_a_single_engine(self, engine, dataset, costs, query):
        expected = keys(SubtrajectorySearch(dataset, costs).query(query, tau_ratio=0.2))
        for _ in range(2):
            assert keys(engine.query(query, tau_ratio=0.2)) == expected
        state = engine.status().workers[0]
        assert state.alive and state.breaker == "closed"
        assert state.consecutive_failures == 0

    def test_probe_refused_by_the_engine_leaves_the_shard_serving(
        self, half_open, vertex_dataset, edr_cost, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        with pytest.raises(QueryError):  # tau above the total insertion cost
            half_open.query(query, tau=1e9)
        self.serves_like_a_single_engine(half_open, vertex_dataset, edr_cost, query)

    def test_probe_whose_budget_ran_out_leaves_the_shard_serving(
        self, half_open, vertex_dataset, edr_cost, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        spent = CancelToken(0.001)
        time.sleep(0.01)
        with pytest.raises(QueryCancelledError):  # relayed by the worker
            half_open._workers.query_shard(0, query, {"tau_ratio": 0.2}, spent)
        self.serves_like_a_single_engine(half_open, vertex_dataset, edr_cost, query)


class TestPoolHardening:
    """Satellites: stop escalation, dead-worker try_call, guarded sends."""

    def test_try_call_on_dead_worker_raises_not_hangs(
        self, vertex_dataset, edr_cost, monkeypatch
    ):
        # A supervisor that never ticks leaves the dead worker dead.
        monkeypatch.setattr(workers_module, "_SUPERVISOR_POLL", 3600.0)
        pool = ShardWorkerPool([vertex_dataset], edr_cost, {})
        try:
            kill_worker(pool._workers[0].state().pid)
            t0 = time.monotonic()
            with pytest.raises(WorkerError):
                pool._workers[0].probe("stats")
            assert time.monotonic() - t0 < 2.0
            # status() degrades the dead worker to None counters instead
            # of failing the whole (healthz) probe — and says it is dead.
            (entry,) = pool.status()
            assert entry.trie is None and entry.index is None
            assert not entry.worker.alive
        finally:
            pool.close()

    def test_stop_escalates_to_sigkill_on_wedged_worker(
        self, vertex_dataset, edr_cost
    ):
        # wedge_stop: the worker ignores SIGTERM and "stop" requests —
        # only the final SIGKILL in the escalation chain can end it.
        plan = FaultPlan(rules=[FaultRule(shard=0, op="wedge_stop")])
        pool = ShardWorkerPool([vertex_dataset], edr_cost, {}, fault_plan=plan)
        worker = pool._workers[0]
        assert worker.alive
        process = worker_process(worker.pid)
        t0 = time.monotonic()
        worker.stop(timeout=0.5)
        elapsed = time.monotonic() - t0
        # join() after kill reaps the child: no zombie left behind.
        assert not worker.alive
        assert process.exitcode is not None, "zombie worker"
        assert process.exitcode < 0  # killed by signal
        assert elapsed < 10.0
        pool.close()

    def test_injected_faults_exit_with_the_fault_code(
        self, vertex_dataset, edr_cost, rng
    ):
        plan = FaultPlan(
            rules=[
                FaultRule(shard=0, op="kill_before", request=1),
                FaultRule(shard=0, op="fail_respawn", count=10_000),
            ]
        )
        pool = ShardWorkerPool([vertex_dataset], edr_cost, {}, fault_plan=plan)
        try:
            process = worker_process(pool._workers[0].state().pid)
            with pytest.raises(WorkerError):
                pool.query_shard(0, [0, 1, 2], {"tau": 2.0})
            process.join(5)
            assert process.exitcode == FAULT_EXIT_CODE
        finally:
            pool.close()

    def test_in_process_backends_report_synthetic_worker_states(
        self, vertex_dataset, edr_cost
    ):
        engine = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=2, backend="serial"
        )
        try:
            states = engine.status().workers
            assert all(s.alive and s.restarts == 0 for s in states)
            assert engine.status().restarts_total == 0
        finally:
            engine.close()

    def test_fault_plan_rejected_on_in_process_backends(
        self, vertex_dataset, edr_cost
    ):
        with pytest.raises(QueryError, match="fault_plan"):
            PartitionedSubtrajectorySearch(
                vertex_dataset,
                edr_cost,
                backend="serial",
                fault_plan=FaultPlan(),
            )


# ---------------------------------------------------------------------------
# Service + HTTP integration
# ---------------------------------------------------------------------------


@pytest.fixture()
def degraded_service(vertex_dataset, edr_cost):
    from repro.service import QueryService

    engine = make_engine(
        vertex_dataset, edr_cost, num_shards=3, fault_plan=held_down(1)
    )
    service = QueryService(engine, cache_size=64)
    yield service
    service.close(close_engine=True)


class TestServiceDegradation:
    @pytest.mark.parametrize("kind", KINDS)
    def test_partial_answers_are_never_cached_as_complete(
        self, degraded_service, vertex_dataset, rng, kind
    ):
        query = sample_query(vertex_dataset, rng, 6)
        response = ask(degraded_service, kind, query, allow_partial=True)
        assert not response.result.complete
        assert not response.cached
        assert len(degraded_service.cache) == 0
        # Nor does a repeat of the opted-in request find it cached.
        assert not ask(degraded_service, kind, query, allow_partial=True).cached
        # A strict follow-up of the same request must NOT be served the
        # partial answer: it recomputes and fails loudly.
        with pytest.raises(WorkerError):
            ask(degraded_service, kind, query)

    def test_degraded_query_counter_increments(
        self, degraded_service, vertex_dataset, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        degraded_service.query(query, tau_ratio=0.25, allow_partial=True)
        rendered = degraded_service.observability.registry.render()
        assert "repro_degraded_queries_total 1" in rendered

    def test_metrics_export_worker_and_breaker_state(
        self, degraded_service, vertex_dataset, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        degraded_service.query(query, tau_ratio=0.25, allow_partial=True)
        rendered = degraded_service.observability.registry.render()
        assert 'repro_worker_up{shard="1"} 0' in rendered
        assert 'repro_worker_up{shard="0"} 1' in rendered
        assert "repro_worker_restarts_total" in rendered
        assert "repro_shard_breaker_state" in rendered


class TestHTTPDegradation:
    def test_http_503_strict_200_partial_and_healthz_workers(
        self, degraded_service, vertex_dataset, rng
    ):
        import urllib.error
        import urllib.request

        from repro.service import ServiceServer

        query = sample_query(vertex_dataset, rng, 6)
        with ServiceServer(degraded_service, port=0).start() as server:
            def post(payload):
                req = urllib.request.Request(
                    server.url + "/query",
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(req, timeout=30) as resp:
                    return resp.status, json.loads(resp.read())

            # Default (strict): a downed shard is a 503, not a 500.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post({"path": query, "tau_ratio": 0.25})
            assert excinfo.value.code == 503

            # Opted in: 200 with the partial flag and the missing shards.
            status, body = post(
                {"path": query, "tau_ratio": 0.25, "allow_partial": True}
            )
            assert status == 200
            assert body["partial"] is True
            assert body["degraded_shards"] == [1]

            # /healthz: per-shard liveness, restart counts, degraded flag.
            with urllib.request.urlopen(
                server.url + "/healthz", timeout=30
            ) as resp:
                health = json.loads(resp.read())
            assert health["status"] == "degraded"
            workers = {w["shard"]: w for w in health["workers"]}
            assert workers[1]["alive"] is False
            assert workers[0]["alive"] is True
            assert "restarts" in workers[0]
            assert "restarts_total" in health

            # /metrics: the new families render.
            with urllib.request.urlopen(
                server.url + "/metrics", timeout=30
            ) as resp:
                metrics = resp.read().decode()
            assert "repro_worker_restarts_total" in metrics
            assert "repro_shard_breaker_state" in metrics
            assert "repro_degraded_queries_total" in metrics

    def test_503_body_names_degraded_shards_and_retry_after(
        self, degraded_service, vertex_dataset, rng
    ):
        import urllib.error
        import urllib.request

        from repro.service import ServiceServer

        query = sample_query(vertex_dataset, rng, 6)
        with ServiceServer(degraded_service, port=0).start() as server:
            req = urllib.request.Request(
                server.url + "/query",
                data=json.dumps({"path": query, "tau_ratio": 0.25}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=30)
            err = excinfo.value
            assert err.code == 503
            # The body tells the client *which* shards are down and when
            # to come back; the header says the same thing in HTTP.
            body = json.loads(err.read())
            assert body["degraded_shards"] == [1]
            assert body["retry_after"] >= 1
            retry_header = err.headers.get("Retry-After")
            assert retry_header is not None
            assert int(retry_header) == body["retry_after"]

    def test_healthy_server_payload_says_complete(
        self, vertex_dataset, edr_cost, rng
    ):
        from repro.service import QueryService
        from repro.service.http import response_payload

        engine = make_engine(vertex_dataset, edr_cost)
        service = QueryService(engine, cache_size=16)
        try:
            query = sample_query(vertex_dataset, rng, 6)
            response = service.query(query, tau_ratio=0.25)
            payload = response_payload(response)
            assert payload["partial"] is False
            assert "degraded_shards" not in payload
        finally:
            service.close(close_engine=True)


class TestCLIFaultPlan:
    def test_serve_rejects_fault_plan_without_processes_backend(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit, match="processes"):
            main(
                [
                    "serve",
                    "--self-test",
                    "--fault-plan",
                    FaultPlan().to_json(),
                ]
            )

    def test_serve_self_test_survives_a_kill_loop_fault_plan(self, capsys):
        from repro.cli import main

        plan = FaultPlan(
            rules=[FaultRule(shard=0, op="kill_before", request=1)]
        )
        code = main(
            [
                "serve",
                "--self-test",
                "--backend",
                "processes",
                "--shards",
                "2",
                "--fault-plan",
                plan.to_json(),
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["self_test"] == "ok"
