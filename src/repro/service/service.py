"""The serving facade: cache → coalesce → execute, every request recorded once.

:class:`QueryService` is the one object a frontend (HTTP handler, CLI,
benchmark driver) talks to.  Range requests (:meth:`QueryService.query`)
and top-k requests (:meth:`QueryService.topk`) are thin front doors onto
one request path, which per request:

1. normalizes the request into a signature
   (:func:`repro.core.engine.query_signature` /
   :func:`~repro.core.engine.topk_signature`);
2. consults the LRU :class:`~repro.service.cache.ResultCache`;
3. on a miss, coalesces with any identical in-flight request
   (:class:`~repro.service.batching.Batcher`);
4. as the flight leader, runs the query through the
   :class:`~repro.service.executor.Executor` (one pool task per query,
   deadline, admission control) and caches the answer;
5. records the outcome — hit, computed, coalesced or failed — once, in
   the instruments of
   :class:`~repro.service.observability.ServiceObservability`, which
   ``GET /metrics`` and ``GET /stats`` both render.

Every layer is exact: a cached or coalesced answer is element-for-element
the answer the engine would compute.  Online updates keep it that way —
:meth:`QueryService.add_trajectory` clears the cache after mutating the
engine, so no stale answer survives an insert (the invalidation hook
deletes will reuse).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from repro.core.engine import QueryResult, query_signature, topk_signature
from repro.core.temporal import TemporalMode, TimeInterval
from repro.exceptions import DeadlineExceededError, QueryError
from repro.service.batching import Batcher
from repro.service.cache import ResultCache
from repro.service.executor import Executor
from repro.service.observability import ServiceObservability

__all__ = ["QueryService", "ServiceResponse"]


@dataclass(frozen=True, slots=True)
class ServiceResponse:
    """One answered request: the engine result plus serving provenance.

    ``result`` is a :class:`~repro.core.engine.QueryResult` for range
    requests and a :class:`~repro.core.topk.TopKResult` for top-k
    requests (:meth:`QueryService.topk`)."""

    result: QueryResult
    signature: tuple
    cached: bool
    coalesced: bool
    seconds: float


class QueryService:
    """Multi-client query serving over one search engine.

    Parameters
    ----------
    engine:
        :class:`~repro.core.engine.SubtrajectorySearch` or
        :class:`~repro.core.partitioned.PartitionedSubtrajectorySearch`
        (which fans each query out over its shards itself) — anything
        exposing ``query``, ``add_trajectory``, ``costs``, ``dataset``,
        ``status``, ``close``.
    max_workers / max_pending / default_deadline:
        Forwarded to the :class:`Executor`.
    cache_size:
        LRU capacity; ``0`` disables result caching.  Concurrent
        duplicate requests always coalesce (single-flight).
    trace_sample_rate:
        Fraction of requests to trace end-to-end (0 = tracing off, the
        near-zero-overhead default; slow queries are recorded regardless).
    slow_query_seconds:
        Latency threshold over which a query logs a one-line JSON record
        on the ``repro.slowlog`` logger and is force-kept in the flight
        recorder (``None`` disables).
    """

    def __init__(
        self,
        engine,
        *,
        max_workers: int = 4,
        max_pending: int = 64,
        default_deadline: Optional[float] = None,
        cache_size: int = 1024,
        trace_sample_rate: float = 0.0,
        slow_query_seconds: Optional[float] = None,
    ) -> None:
        self._engine = engine
        self._costs = engine.costs
        self.executor = Executor(
            engine,
            max_workers=max_workers,
            max_pending=max_pending,
            default_deadline=default_deadline,
        )
        self.cache = ResultCache(cache_size)
        self.batcher = Batcher()
        self.observability = ServiceObservability(
            trace_sample_rate=trace_sample_rate,
            slow_query_seconds=slow_query_seconds,
        )
        self.observability.bind(self)

    @property
    def engine(self):
        """The wrapped search engine."""
        return self._engine

    def close(self, *, close_engine: bool = False) -> None:
        """Drain the executor pool and stop admitting queries (idempotent).

        ``close_engine=True`` also closes the engine itself — required to
        terminate shard worker processes when serving a
        ``backend="processes"`` engine this service owns."""
        self.executor.close(close_engine=close_engine)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request path -------------------------------------------------------

    def signature(
        self,
        query: Sequence[int],
        *,
        tau: Optional[float] = None,
        tau_ratio: Optional[float] = None,
        time_interval: Optional[TimeInterval] = None,
        temporal_mode: TemporalMode = "overlap",
    ) -> tuple:
        """The cache/coalescing key this service uses for a request."""
        return query_signature(
            query,
            self._costs,
            tau=tau,
            tau_ratio=tau_ratio,
            time_interval=time_interval,
            temporal_mode=temporal_mode,
        )

    def query(
        self,
        query: Sequence[int],
        *,
        tau: Optional[float] = None,
        tau_ratio: Optional[float] = None,
        time_interval: Optional[TimeInterval] = None,
        temporal_mode: TemporalMode = "overlap",
        deadline: Optional[float] = None,
        allow_partial: bool = False,
    ) -> ServiceResponse:
        """Answer one request through cache, coalescing, and executor.

        Semantics match the engine exactly; raises
        :class:`~repro.exceptions.AdmissionError` /
        :class:`~repro.exceptions.DeadlineExceededError` under overload.

        ``allow_partial`` opts this request into graceful degradation
        (processes-backend engines only — see
        :meth:`~repro.core.partitioned.PartitionedSubtrajectorySearch.query`):
        with shards down, the response carries ``result.complete=False``
        and ``result.degraded_shards`` instead of an error.  Partial
        answers are never cached (the shard could come back) and never
        shared with a coalesced follower that did not opt in — the flight
        key includes the flag.
        """
        request = dict(
            tau=tau,
            tau_ratio=tau_ratio,
            time_interval=time_interval,
            temporal_mode=temporal_mode,
        )
        return self._serve(
            "range",
            query,
            signature=lambda: self.signature(query, **request),
            lookup=self.cache.get,
            store=self.cache.put,
            execute=lambda **serving: self.executor.query(
                query, **request, **serving
            ),
            attributes={"tau": tau, "tau_ratio": tau_ratio},
            deadline=deadline,
            allow_partial=allow_partial,
        )

    def topk_signature(self, query: Sequence[int]) -> tuple:
        """The cache/coalescing key this service uses for a top-k
        request.  Deliberately k-independent (see
        :func:`repro.core.engine.topk_signature`): the cached answer's
        own ``k`` decides coverage."""
        return topk_signature(query, self._costs)

    def topk(
        self,
        query: Sequence[int],
        k: int,
        *,
        initial_tau_ratio: float = 0.05,
        growth: float = 2.0,
        deadline: Optional[float] = None,
        allow_partial: bool = False,
    ) -> ServiceResponse:
        """Answer one top-k request through cache, coalescing, executor.

        The cache applies the truncation reuse rule: an earlier answer
        computed at ``k' >= k`` (same query, same cost model — the
        k-independent :meth:`topk_signature`) serves this request without
        touching the engine, re-cut to ``k`` with its tie count
        recomputed; a computed answer never replaces a deeper cached one.
        Two concurrent requests coalesce only when the leader's answer is
        exactly the follower's (depth included — truncation reuse happens
        in the cache, not mid-flight).  Generation guards, partial
        answers and admission/deadline errors behave as in :meth:`query`.
        """

        def signature() -> tuple:
            if k <= 0:
                raise QueryError("k must be positive")
            return self.topk_signature(query)

        return self._serve(
            "topk",
            query,
            signature=signature,
            lookup=lambda sig: self.cache.get_topk(sig, k),
            store=self.cache.put_topk,
            execute=lambda **serving: self.executor.topk(
                query,
                k,
                initial_tau_ratio=initial_tau_ratio,
                growth=growth,
                **serving,
            ),
            attributes={"mode": "topk"},
            k=k,
            deadline=deadline,
            allow_partial=allow_partial,
        )

    def _serve(
        self,
        kind: str,
        query: Sequence[int],
        *,
        signature: Callable[[], tuple],
        lookup: Callable[[tuple], Any],
        store: Callable[..., None],
        execute: Callable[..., Any],
        attributes: Dict[str, Any],
        k: Optional[int] = None,
        deadline: Optional[float],
        allow_partial: bool,
    ) -> ServiceResponse:
        """The one request path: cache → coalesce → execute → account.

        A request kind is what its front door names: how the
        ``signature`` is built, the depth ``k`` in its flight key
        (``None`` for range), the cache cover rule (``lookup`` /
        ``store``), what ``execute`` submits to the pool (given the
        serving arguments every kind shares: ``deadline``, ``trace``,
        ``allow_partial``), and — via ``kind`` and the root-span
        ``attributes`` — which fields are reported.  Everything after
        the trace starts is inside the guarded region, so a request
        refused while its signature is built is counted like any other
        failure, and every request — hit, computed, coalesced or failed
        — is recorded exactly once on the way out.
        """
        obs = self.observability
        trace = obs.start_trace(query_length=len(query))
        root = None if trace is None else trace.root
        t0 = time.perf_counter()
        result, cached, coalesced, error = None, False, False, None
        try:
            sig = signature()
            if root is not None:
                described = {**attributes, "k": k, "deadline_seconds": deadline}
                for name, value in described.items():
                    if value is not None:  # plain scalars: traces end up as JSON
                        root.set(name, value if isinstance(value, (str, int)) else float(value))
            # Captured before the cache lookup: this generation also keys
            # the coalescing flight, so a request arriving after an
            # invalidation never joins a pre-invalidation flight
            # (read-your-writes for the inserter) and a computed result is
            # never re-cached across one.
            generation = self.cache.generation
            lookup_span = None if root is None else root.child("cache_lookup")
            result = lookup(sig)
            cached = result is not None
            if lookup_span is not None:
                lookup_span.set("hit", cached)
                lookup_span.finish()
            if not cached:

                def compute():
                    answer = execute(
                        deadline=deadline, trace=root, allow_partial=allow_partial
                    )
                    # Generation guard: ``store`` drops an answer computed
                    # across an online update (it is stale).  Partial
                    # answers are never cached at all: a later request
                    # must not be served yesterday's degradation as if it
                    # were complete.
                    if answer.complete:
                        store(sig, answer, generation=generation)
                    return answer

                # The flight key includes the deadline (a tightly-budgeted
                # leader's DeadlineExceededError must not propagate to a
                # follower that asked for more time), the cache generation
                # (a post-insert request must not share a pre-insert
                # computation) and the depth (a follower gets exactly the
                # leader's answer).  wait_timeout enforces the budget for
                # followers that joined a leader's flight late;
                # follower_retry is the fairness half of the same rule — a
                # follower that joined late has budget left when the
                # leader's deadline fires, so it goes around as a new
                # leader instead of inheriting a miss it did not earn.
                budget = deadline if deadline is not None else self.executor.default_deadline
                flight_span = None if root is None else root.child("coalesce")
                try:
                    result, coalesced = self.batcher.run(
                        (sig, k, deadline, generation, allow_partial),
                        compute,
                        wait_timeout=budget,
                        follower_retry=lambda exc: isinstance(exc, DeadlineExceededError),
                    )
                finally:
                    if flight_span is not None:
                        flight_span.set("coalesced", coalesced)
                        flight_span.finish()
        except TimeoutError as exc:
            # A follower's own budget ran out inside a leader's flight.
            error = DeadlineExceededError(str(exc))
        except Exception as exc:  # noqa: BLE001 - recorded below, then raised
            error = exc
        seconds = time.perf_counter() - t0
        outcome = dict(result=result, cached=cached, coalesced=coalesced, error=error)
        obs.observe(kind, seconds, **outcome)
        obs.finish_trace(trace, kind, seconds=seconds, **outcome)
        if error is not None:
            raise error
        return ServiceResponse(result, sig, cached, coalesced, seconds)

    # -- online updates -----------------------------------------------------

    def add_trajectory(self, trajectory, *, validate: bool = False) -> int:
        """Insert one trajectory online and invalidate every cached answer
        (any of them could now be stale — new matches may exist).

        Returns the new global trajectory id.
        """
        tid = self._engine.add_trajectory(trajectory, validate=validate)
        self.cache.clear()
        return tid

    def invalidate(self) -> int:
        """Explicit invalidation hook: drop every cached answer (for
        callers that mutate the engine directly).  Returns entries
        dropped."""
        return self.cache.clear()

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """The ``GET /stats`` payload: the instruments' request-path
        numbers (:meth:`ServiceObservability.snapshot
        <repro.service.observability.ServiceObservability.snapshot>`)
        enriched with cache and engine facts."""
        snap = self.observability.snapshot()
        snap["coalesced_retries"] = self.batcher.retried_followers
        # One snapshot: on the worker backends the links are polled once,
        # and a failing poll degrades the engine fields as in /healthz.
        # ``substitution_cache`` is an alias — the counters of the one
        # cache, in the shape the retired substitution LRU reported — kept
        # for perf/layers.py's ``submatrix_cache.hit_ratio`` until a
        # [benchmark] PR drops that metric.
        try:
            status = self._engine.status()
        except Exception as exc:  # noqa: BLE001
            snap["substitution_cache"] = snap["trie_cache"] = {"error": str(exc)}
        else:
            snap["num_shards"] = len(status.shards)
            snap["backend"] = status.backend
            trie = snap["trie_cache"] = status.trie
            alias = ("capacity", "size", "hits", "misses")
            snap["substitution_cache"] = {key: trie[key] for key in alias if key in trie}
        snap["observability"] = {
            "trace_sample_rate": self.observability.tracer.sample_rate,
            "slow_query_seconds": self.observability.slow_query_seconds,
            "flight_recorder": self.observability.recorder.stats(),
        }
        return snap
