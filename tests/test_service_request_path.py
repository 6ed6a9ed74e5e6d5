"""The request-path contract, once, for both request kinds.

Range and top-k requests enter :class:`QueryService` through one path
(cache → coalesce → admit → execute → account); what that path promises
is pinned here parametrized over kind, so a behaviour cannot hold for
one and rot for the other.  Each test freezes one interleaving with a
gate on the executor call instead of hoping threads race the right way:

- hit / computed / coalesced accounting, in ``/stats`` and ``/metrics``;
- the generation guard after an online insert: an answer computed across
  the insert is never cached, and a post-insert request never joins a
  pre-insert flight;
- a partial answer is never shared with a follower that did not opt in;
- a request refused while its signature is built is counted like any
  other failure.

(Sibling behaviours that already had a test got ``kind`` as a parameter
where they live: admission and shutdown in ``test_service_executor.py``,
the leader-deadline follower retry in ``test_service_cancellation.py``,
partial-never-cached in ``test_fault_tolerance.py``, slow-query synthesis
and root-span attributes in ``test_obs_tracing.py``.)
"""

import dataclasses
import threading
import time

import pytest

from repro.core.engine import SubtrajectorySearch
from repro.exceptions import QueryError
from repro.service import Executor, QueryService
from tests.conftest import KINDS, ask, samples_of

pytestmark = pytest.mark.parametrize("kind", KINDS)


def keys(result):
    return [(m.trajectory_id, m.start, m.end, m.distance) for m in result.matches]


@pytest.fixture()
def dataset(private_dataset):
    return private_dataset  # these tests insert


@pytest.fixture()
def service(dataset, edr_cost):
    with QueryService(SubtrajectorySearch(dataset, edr_cost), cache_size=16) as svc:
        yield svc


@pytest.fixture()
def query(dataset):
    return list(dataset.symbols(0))[:6]


def hold_first_call(service, kind, monkeypatch, transform=lambda result: result):
    """Gate the service's executor call of ``kind``: the FIRST call
    computes its answer, then waits for ``release`` before returning
    ``transform(answer)``; later calls pass straight through.  Returns
    ``(entered, release, seen)`` — ``seen`` collects each call's
    ``allow_partial``."""
    method = "topk" if kind == "topk" else "query"
    original = getattr(service.executor, method)
    entered, release = threading.Event(), threading.Event()
    seen = []
    lock = threading.Lock()

    def held(*args, **kwargs):
        with lock:
            seen.append(kwargs["allow_partial"])
            first = len(seen) == 1
        result = original(*args, **kwargs)
        if not first:
            return result
        entered.set()
        assert release.wait(10)
        return transform(result)

    monkeypatch.setattr(service.executor, method, held)
    return entered, release, seen


def in_thread(service, kind, query, **kwargs):
    """Start one request on its own thread; ``join()`` returns its
    response (or raises what it raised)."""
    box = {}

    def run():
        try:
            box["response"] = ask(service, kind, query, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - re-raised by join
            box["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()

    def join():
        thread.join(10)
        assert not thread.is_alive()
        if "error" in box:
            raise box["error"]
        return box["response"]

    return join


def fresh_answer(dataset, costs, kind, query):
    with Executor(SubtrajectorySearch(dataset, costs)) as direct:
        return ask(direct, kind, query)


def test_hit_computed_and_coalesced_are_each_counted_once(
    service, query, kind, monkeypatch
):
    entered, release, _ = hold_first_call(service, kind, monkeypatch)
    leader = in_thread(service, kind, query)
    assert entered.wait(10)
    follower = in_thread(service, kind, query)
    give_up = time.monotonic() + 10
    while service.batcher.coalesced == 0 and time.monotonic() < give_up:
        time.sleep(0.001)
    release.set()
    led, followed = leader(), follower()
    hit = ask(service, kind, query)

    assert (led.cached, led.coalesced) == (False, False)
    assert (followed.cached, followed.coalesced) == (False, True)
    assert (hit.cached, hit.coalesced) == (True, False)
    assert keys(led.result) == keys(followed.result) == keys(hit.result)

    stats = service.stats()
    assert stats["queries"] == 3
    assert stats["computed_queries"] == 1
    assert stats["coalesced"] == 1 and stats["coalesce_rate"] == pytest.approx(1 / 3)
    assert stats["cache_hits"] == 1 and stats["cache_hit_rate"] == pytest.approx(1 / 3)
    assert stats["errors"] == 0
    # All three answers count toward what was served; only the computed
    # one moved the engine's stage clocks.
    assert stats["matches"] == 3 * len(led.result.matches)
    assert stats["candidates"] == 3 * led.result.num_candidates
    assert stats["stage_seconds"]["verify"] == led.result.verify_seconds

    rendered = service.observability.registry.render()
    family = "repro_topk_queries_total" if kind == "topk" else "repro_queries_total"
    other = "repro_queries_total" if kind == "topk" else "repro_topk_queries_total"
    once = {f'{{outcome="{o}"}}': 1 for o in ("computed", "coalesced", "cached")}
    assert samples_of(rendered, family) == once
    assert samples_of(rendered, other) == {}
    assert samples_of(rendered, "repro_query_latency_seconds_count") == once
    assert samples_of(rendered, "repro_query_candidates_count") == {"": 1}


def test_answer_computed_across_an_insert_is_not_cached(
    service, dataset, edr_cost, query, kind, monkeypatch
):
    entered, release, _ = hold_first_call(service, kind, monkeypatch)
    stale = in_thread(service, kind, query)
    assert entered.wait(10)  # answer computed against the pre-insert data
    service.add_trajectory(dataset[0])
    release.set()
    stale()  # the in-flight request still gets its (old) answer
    assert len(service.cache) == 0

    after = ask(service, kind, query)
    assert not after.cached
    assert keys(after.result) == keys(fresh_answer(dataset, edr_cost, kind, query))
    assert len(dataset) - 1 in {m.trajectory_id for m in after.result.matches}


def test_post_insert_request_does_not_join_a_pre_insert_flight(
    service, dataset, edr_cost, query, kind, monkeypatch
):
    entered, release, seen = hold_first_call(service, kind, monkeypatch)
    before = in_thread(service, kind, query)
    assert entered.wait(10)
    service.add_trajectory(dataset[0])
    # Same request, same deadline — but a new cache generation: it leads
    # its own flight (and so returns while the old one is still held).
    after = ask(service, kind, query)
    assert not after.coalesced and not after.cached
    assert len(seen) == 2
    assert keys(after.result) == keys(fresh_answer(dataset, edr_cost, kind, query))
    release.set()
    old = before()
    assert len(dataset) - 1 not in {m.trajectory_id for m in old.result.matches}
    assert service.batcher.coalesced == 0


def test_partial_answer_is_not_shared_with_a_strict_follower(
    service, query, kind, monkeypatch
):
    def degrade(result):
        return dataclasses.replace(result, complete=False, degraded_shards=(1,))

    entered, release, seen = hold_first_call(service, kind, monkeypatch, degrade)
    opted_in = in_thread(service, kind, query, allow_partial=True)
    assert entered.wait(10)
    # Identical request minus the opt-in: must not ride the partial flight.
    strict = ask(service, kind, query)
    assert strict.result.complete and not strict.coalesced
    assert seen == [True, False]
    release.set()
    partial = opted_in()
    assert not partial.result.complete and not partial.coalesced
    assert service.batcher.coalesced == 0
    # Only the complete answer was cached.
    assert ask(service, kind, query, allow_partial=True).result.complete
    rendered = service.observability.registry.render()
    assert samples_of(rendered, "repro_degraded_queries_total") == {"": 1}


def test_requests_refused_before_the_engine_are_counted(service, query, kind):
    """ISSUE 15 satellite: a request rejected while its signature is
    built used to raise before the guarded region — neither ``/stats``
    nor ``/metrics`` saw it."""
    refused = (
        [
            lambda: service.topk(query, 0),
            lambda: service.topk(query, -2),
        ]
        if kind == "topk"
        else [
            lambda: service.query(query),  # neither threshold
            lambda: service.query(query, tau=1.0, tau_ratio=0.1),  # both
        ]
    )
    for call in refused:
        with pytest.raises(QueryError):
            call()
    with pytest.raises(QueryError):
        ask(service, kind, [])  # refused by the engine: was always counted

    stats = service.stats()
    assert stats["errors"] == 3
    assert stats["errors_by_type"] == {"QueryError": 3}
    assert stats["queries"] == 0 and stats["pending"] == 0
    rendered = service.observability.registry.render()
    assert samples_of(rendered, "repro_errors_total") == {'{type="QueryError"}': 3}
