"""Cooperative cancellation: deadline-expired work stops burning CPU.

The contract under test (ISSUE 2): when a query's deadline expires, shard
tasks observe the cancellation token *inside* the verification loop and
return early — within one verification-loop iteration — instead of
running to completion after `Executor._gather` has abandoned them.

Plus the coalescing fairness rule (ISSUE 4): a Batcher follower that
inherits its leader's DeadlineExceededError while its own budget still
has time left is retried as a new leader instead of failing spuriously.
"""

import threading
import time

import pytest

from repro.core.cancellation import CancelToken
from repro.core.engine import SubtrajectorySearch
from repro.core.filtering import tau_from_ratio
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.results import MatchSet
from repro.core.verification import Verifier
from repro.core.workers import default_start_method
from repro.exceptions import DeadlineExceededError, QueryCancelledError
from repro.service import Executor, QueryService
from repro.service.batching import Batcher
from tests.conftest import KINDS, ask, force_walker, sample_query


class CountdownToken:
    """Duck-typed token that trips after a fixed number of polls."""

    def __init__(self, polls_before_trip: int) -> None:
        self.polls_left = polls_before_trip

    def cancelled(self) -> bool:
        self.polls_left -= 1
        return self.polls_left < 0


class TestCancelToken:
    def test_manual_cancel(self):
        token = CancelToken()
        assert not token.cancelled()
        token.cancel()
        assert token.cancelled()

    def test_deadline_expiry(self):
        token = CancelToken(0.01)
        time.sleep(0.02)
        assert token.cancelled()
        assert token.remaining() < 0

    def test_no_deadline_never_expires(self):
        token = CancelToken()
        assert token.expires is None
        assert token.remaining() is None
        assert not token.cancelled()

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            CancelToken(0.0)


class TestVerifierObservesToken:
    def test_stops_within_one_candidate(self, vertex_dataset, edr_cost, rng):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        tau = tau_from_ratio(query, edr_cost, 0.3)
        candidates = engine.candidates(query, tau=tau)
        assert len(candidates) >= 2, "fixture must yield several candidates"

        # Token trips on the poll before the second candidate: exactly one
        # candidate may be walked, then the loop must raise.  (python
        # backend — its verification loop is per candidate.)  The whole
        # first group is set up, bounded and counted before any walk, so
        # the proof is in the columns: the first group's
        # backward walk stops after its first candidate, and walking that
        # candidate alone again visits exactly as many columns.
        def verifier(cancel=None):
            return Verifier(
                vertex_dataset.symbols_array,
                query,
                edr_cost,
                tau,
                dp_backend="python",
                cancel=cancel,
            )

        tripped = verifier(CountdownToken(1))
        walks = []
        walk = tripped._cell_all_prefix_wed

        def recording(views, budgets, ctx):
            walks.append((views, budgets, ctx))
            return walk(views, budgets, ctx)

        tripped._cell_all_prefix_wed = recording
        with pytest.raises(QueryCancelledError):
            tripped.verify_all(candidates, MatchSet())
        ((views, budgets, ctx),) = walks
        assert len(views) >= 2
        visited = tripped.stats.visited_columns
        assert visited > 0
        walk(views[:1], budgets[:1], ctx)  # one candidate: no poll
        assert tripped.stats.visited_columns == 2 * visited
        full = verifier()
        full.verify_all(candidates, MatchSet())
        assert tripped.stats.visited_columns < full.stats.visited_columns

    def test_batched_backend_stops_within_one_group(
        self, vertex_dataset, edr_cost, rng
    ):
        """The numpy backend verifies candidates in anchor groups; a token
        tripping after one poll stops before the first group's trie walk —
        at most that group's candidates are started, none are extended."""
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        tau = tau_from_ratio(query, edr_cost, 0.3)
        candidates = engine.candidates(query, tau=tau)
        assert len(candidates) >= 2, "fixture must yield several candidates"

        verifier = Verifier(
            vertex_dataset.symbols,
            query,
            edr_cost,
            tau,
            dp_backend="numpy",
            cancel=CountdownToken(1),
        )
        with pytest.raises(QueryCancelledError):
            verifier.verify_all(candidates, MatchSet())
        first_group = {c[2] for c in candidates}
        started = verifier.stats.candidates + verifier.stats.bound_pruned
        assert started < len(set(candidates)) or len(first_group) == 1
        # The first group kept candidates past the count bound: the trip
        # landed inside a walk, not in a group the bound emptied.
        assert verifier.stats.candidates > 0
        # The trip fired before any DP column was computed for group two.
        assert verifier.stats.visited_columns == 0

    def test_already_cancelled_token_verifies_nothing(
        self, vertex_dataset, edr_cost, rng
    ):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        tau = tau_from_ratio(query, edr_cost, 0.3)
        candidates = engine.candidates(query, tau=tau)
        token = CancelToken()
        token.cancel()
        verifier = Verifier(vertex_dataset.symbols, query, edr_cost, tau, cancel=token)
        with pytest.raises(QueryCancelledError):
            verifier.verify_all(candidates, MatchSet())
        assert verifier.stats.candidates == 0

    def test_engine_query_with_tripped_token_raises(
        self, vertex_dataset, edr_cost, rng
    ):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            engine.query(
                sample_query(vertex_dataset, rng, 6), tau_ratio=0.25, cancel=token
            )


def _slow_verifier(monkeypatch, counter, delay=0.02):
    """Make every candidate verification take ``delay`` seconds, counting
    candidates actually verified — the slow-verifier fixture of ISSUE 2.

    The seam is ``_combine``, which the Python walker reaches once per
    candidate, so engines under this fixture run the Python walker (the
    rule, patched; the arena walker combines a whole anchor group after
    its walk and polls the token per round instead — deadline plumbing
    is identical either way)."""
    force_walker(monkeypatch, "python")
    original = Verifier._combine

    def slow(self, *args):
        counter["verified"] += 1
        time.sleep(delay)
        return original(self, *args)

    monkeypatch.setattr(Verifier, "_combine", slow)


class TestExecutorDeadlineStopsShardWork:
    def test_expired_shards_observe_token_and_return_early(
        self, vertex_dataset, edr_cost, rng, monkeypatch
    ):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        total = 0
        for _ in range(10):  # sample until the query is CPU-heavy enough
            query = sample_query(vertex_dataset, rng, 8)
            tau = tau_from_ratio(query, edr_cost, 0.6)
            total = len(engine.candidates(query, tau=tau))
            if total >= 12:
                break
        assert total >= 12, "need a CPU-heavy query for the deadline to bite"

        counter = {"verified": 0}
        _slow_verifier(monkeypatch, counter)
        sharded = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=2
        )
        with Executor(sharded, max_workers=2) as executor:
            with pytest.raises(DeadlineExceededError):
                executor.query(query, tau=tau, deadline=0.05)
            # Abandoned shard tasks must wind down via the token, not run
            # all `total` candidates to completion: closing the executor
            # waits for the pool, so everything still running has ended.
        assert counter["verified"] < total, (
            f"shard tasks verified all {total} candidates — the deadline "
            "token was never observed"
        )
        # ~0.05s budget at 0.02s/candidate across 2 shards admits a
        # handful of candidates before the token trips; anything close to
        # `total` means the loop ignored cancellation.
        assert counter["verified"] <= total // 2
        sharded.close()

    @pytest.mark.skipif(
        default_start_method() != "fork",
        reason="patched slow verifier reaches workers only via fork",
    )
    def test_processes_backend_deadline_does_not_desync_pipes(
        self, vertex_dataset, edr_cost, rng, monkeypatch
    ):
        counter = {"verified": 0}
        _slow_verifier(monkeypatch, counter, delay=0.01)
        # Construct AFTER patching: forked workers inherit the slow verifier.
        engine = PartitionedSubtrajectorySearch(
            vertex_dataset,
            edr_cost,
            num_shards=2,
            backend="processes",
        )
        single = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        try:
            with Executor(engine, max_workers=2) as executor:
                with pytest.raises(DeadlineExceededError):
                    executor.query(query, tau_ratio=0.4, deadline=0.05)
                # The abandoned request still got its (error) reply, so the
                # next query on the same pipes must answer correctly.
                result = executor.query(query, tau_ratio=0.25)
                expected = single.query(query, tau_ratio=0.25)
                assert [(m.trajectory_id, m.start, m.end) for m in result.matches] == [
                    (m.trajectory_id, m.start, m.end) for m in expected.matches
                ]
        finally:
            engine.close()

    def test_deadline_without_slow_work_still_succeeds(
        self, vertex_dataset, edr_cost, rng
    ):
        sharded = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=2
        )
        with Executor(sharded, max_workers=2) as executor:
            result = executor.query(
                sample_query(vertex_dataset, rng, 6), tau_ratio=0.25, deadline=30.0
            )
            assert result.tau > 0
        sharded.close()


class TestCoalescingFairness:
    """A follower must not fail on the leader's exhausted budget while its
    own budget has time left — it retries as a new leader (ISSUE 4)."""

    def test_batcher_follower_retries_retryable_leader_error(self):
        batcher = Batcher()
        leader_started = threading.Event()
        release_leader = threading.Event()
        calls = []
        lock = threading.Lock()

        def compute():
            with lock:
                calls.append(threading.current_thread().name)
                first = len(calls) == 1
            if first:
                leader_started.set()
                assert release_leader.wait(5.0)
                raise DeadlineExceededError("leader budget exhausted")
            return "fresh answer"

        outcomes = {}

        def leader():
            try:
                batcher.run("k", compute, follower_retry=_retry_deadline)
            except BaseException as exc:  # noqa: BLE001 - recorded for asserts
                outcomes["leader"] = exc

        def follower():
            try:
                outcomes["follower"] = batcher.run(
                    "k", compute, follower_retry=_retry_deadline
                )
            except BaseException as exc:  # noqa: BLE001 - recorded for asserts
                outcomes["follower"] = exc

        t_leader = threading.Thread(target=leader)
        t_leader.start()
        assert leader_started.wait(5.0)
        t_follower = threading.Thread(target=follower)
        t_follower.start()
        # The follower must have joined the leader's flight before the
        # leader is allowed to fail, else there is nothing to retry.
        deadline = time.monotonic() + 5.0
        while batcher.coalesced == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert batcher.coalesced == 1
        release_leader.set()
        t_leader.join(5.0)
        t_follower.join(5.0)
        # Leader observes its own deadline miss; the follower went around
        # as a new leader and got a real answer (coalesced=False: it paid
        # for its own computation).
        assert isinstance(outcomes["leader"], DeadlineExceededError)
        assert outcomes["follower"] == ("fresh answer", False)
        assert batcher.retried_followers == 1
        # The retried follower was NOT served by the leader's computation:
        # its coalesced count is taken back when it goes around.
        assert batcher.coalesced == 0
        assert len(calls) == 2

    def test_batcher_follower_with_spent_budget_inherits_error(self):
        """No budget left -> no retry: the old (pre-fix) propagation."""
        batcher = Batcher()
        release = threading.Event()

        def compute():
            assert release.wait(5.0)
            time.sleep(0.05)  # outlive the follower's wait budget
            raise DeadlineExceededError("leader budget exhausted")

        errors = {}

        def leader():
            try:
                batcher.run("k", compute, follower_retry=_retry_deadline)
            except BaseException as exc:  # noqa: BLE001
                errors["leader"] = exc

        def follower():
            try:
                batcher.run(
                    "k",
                    compute,
                    wait_timeout=0.04,
                    follower_retry=_retry_deadline,
                )
            except BaseException as exc:  # noqa: BLE001
                errors["follower"] = exc

        t_leader = threading.Thread(target=leader)
        t_leader.start()
        deadline = time.monotonic() + 5.0
        while batcher.in_flight() == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        t_follower = threading.Thread(target=follower)
        t_follower.start()
        while batcher.coalesced == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        t_leader.join(5.0)
        t_follower.join(5.0)
        # The follower's own budget expired while waiting: TimeoutError
        # (the service maps it to DeadlineExceededError), not a retry.
        assert isinstance(errors["follower"], TimeoutError)
        assert batcher.retried_followers == 0

    def test_batcher_non_retryable_error_still_shared(self):
        batcher = Batcher()
        release = threading.Event()

        def compute():
            assert release.wait(5.0)
            raise ValueError("bad query")

        errors = {}

        def runner(name):
            try:
                batcher.run("k", compute, follower_retry=_retry_deadline)
            except BaseException as exc:  # noqa: BLE001
                errors[name] = exc

        t_leader = threading.Thread(target=runner, args=("leader",))
        t_leader.start()
        deadline = time.monotonic() + 5.0
        while batcher.in_flight() == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        t_follower = threading.Thread(target=runner, args=("follower",))
        t_follower.start()
        while batcher.coalesced == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        t_leader.join(5.0)
        t_follower.join(5.0)
        assert isinstance(errors["follower"], ValueError)
        assert errors["follower"] is errors["leader"]
        assert batcher.retried_followers == 0

    def test_batcher_follower_deadline_expires_mid_retry(self):
        """ISSUE 5 regression: a follower whose OWN deadline expires
        *mid-retry* — after the leader's retryable failure woke it but
        before it could re-enter the flight table (here: the retry
        predicate itself outlives the budget, standing in for any
        scheduling delay) — must fail with its own budget verdict,
        TimeoutError, not inherit the leader's error it explicitly opted
        out of, and must not go around as a new leader with time it does
        not have."""
        batcher = Batcher()
        release = threading.Event()
        computes = []

        def compute():
            computes.append(1)
            assert release.wait(5.0)
            raise DeadlineExceededError("leader budget exhausted")

        def slow_retry_predicate(exc: BaseException) -> bool:
            # Retryable — but deciding so outlived the follower's budget.
            time.sleep(0.15)
            return isinstance(exc, DeadlineExceededError)

        errors = {}

        def leader():
            try:
                batcher.run("k", compute, follower_retry=_retry_deadline)
            except BaseException as exc:  # noqa: BLE001
                errors["leader"] = exc

        def follower():
            try:
                batcher.run(
                    "k",
                    compute,
                    wait_timeout=0.1,
                    follower_retry=slow_retry_predicate,
                )
            except BaseException as exc:  # noqa: BLE001
                errors["follower"] = exc

        t_leader = threading.Thread(target=leader)
        t_leader.start()
        deadline = time.monotonic() + 5.0
        while batcher.in_flight() == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        t_follower = threading.Thread(target=follower)
        t_follower.start()
        while batcher.coalesced == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        t_leader.join(5.0)
        t_follower.join(5.0)
        assert isinstance(errors["leader"], DeadlineExceededError)
        assert isinstance(errors["follower"], TimeoutError)
        assert errors["follower"] is not errors["leader"]
        # No retry happened: the single compute() was the leader's.
        assert batcher.retried_followers == 0
        assert len(computes) == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_service_follower_survives_leader_deadline(
        self, vertex_dataset, edr_cost, rng, monkeypatch, kind
    ):
        """End to end through QueryService: the leader misses its deadline,
        the coalesced follower recomputes and answers."""
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        service = QueryService(engine, cache_size=0)
        query = sample_query(vertex_dataset, rng, 6)
        leader_started = threading.Event()
        release_leader = threading.Event()
        method = "topk" if kind == "topk" else "query"
        original = getattr(Executor, method)
        calls = []
        lock = threading.Lock()

        def flaky_executor_call(self, *args, **kwargs):
            with lock:
                calls.append(1)
                first = len(calls) == 1
            if first:
                leader_started.set()
                assert release_leader.wait(5.0)
                raise DeadlineExceededError("leader ran out of budget")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Executor, method, flaky_executor_call)
        outcomes = {}

        def submit(name):
            try:
                outcomes[name] = ask(service, kind, query)
            except BaseException as exc:  # noqa: BLE001
                outcomes[name] = exc

        try:
            t_leader = threading.Thread(target=submit, args=("leader",))
            t_leader.start()
            assert leader_started.wait(5.0)
            t_follower = threading.Thread(target=submit, args=("follower",))
            t_follower.start()
            deadline = time.monotonic() + 5.0
            while service.batcher.coalesced == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert service.batcher.coalesced == 1
            release_leader.set()
            t_leader.join(10.0)
            t_follower.join(10.0)
            assert isinstance(outcomes["leader"], DeadlineExceededError)
            follower = outcomes["follower"]
            assert not isinstance(follower, BaseException), follower
            # It paid for its own computation: not a coalesced answer.
            assert not follower.coalesced
            with Executor(SubtrajectorySearch(vertex_dataset, edr_cost)) as direct:
                expected = ask(direct, kind, query)
            assert [
                (m.trajectory_id, m.start, m.end) for m in follower.result.matches
            ] == [(m.trajectory_id, m.start, m.end) for m in expected.matches]
            assert service.batcher.retried_followers == 1
            stats = service.stats()
            assert stats["coalesced_retries"] == 1
            assert stats["deadline_exceeded"] == 1 and stats["queries"] == 1
        finally:
            service.close()


def _retry_deadline(exc: BaseException) -> bool:
    return isinstance(exc, DeadlineExceededError)
