"""The serving facade: cache → coalesce → execute, with metrics throughout.

:class:`QueryService` is the one object a frontend (HTTP handler, CLI,
benchmark driver) talks to.  Per request it:

1. normalizes the request into a query signature
   (:func:`repro.core.engine.query_signature`);
2. consults the LRU :class:`~repro.service.cache.ResultCache`;
3. on a miss, coalesces with any identical in-flight request
   (:class:`~repro.service.batching.Batcher`);
4. as the flight leader, runs the query through the
   :class:`~repro.service.executor.Executor` (thread-pool shard fan-out,
   deadline, admission control) and caches the answer;
5. records the outcome in :class:`~repro.service.metrics.Metrics`.

Every layer is exact: a cached or coalesced answer is element-for-element
the answer the engine would compute.  Online updates keep it that way —
:meth:`QueryService.add_trajectory` clears the cache after mutating the
engine, so no stale answer survives an insert (the invalidation hook
deletes will reuse).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.engine import QueryResult, query_signature, topk_signature
from repro.core.temporal import TemporalMode, TimeInterval
from repro.exceptions import AdmissionError, DeadlineExceededError, QueryError
from repro.service.batching import Batcher
from repro.service.cache import ResultCache
from repro.service.executor import Executor
from repro.service.metrics import Metrics
from repro.service.observability import ServiceObservability

__all__ = ["QueryService", "ServiceResponse"]


def _deadline_is_retryable(exc: BaseException) -> bool:
    """Coalescing fairness predicate: a leader's deadline miss (or the
    cancellation it decays to) is the leader's budget running out, not the
    follower's — the follower retries while its own budget holds."""
    return isinstance(exc, DeadlineExceededError)


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
        (the latter gets parallel per-shard fan-out).
    max_workers / max_pending / default_deadline:
        Forwarded to the :class:`Executor`.
    cache_size:
        LRU capacity; ``0`` disables result caching.
    batching:
        Coalesce concurrent duplicate requests (single-flight).
    observability:
        A prebuilt :class:`~repro.service.observability.ServiceObservability`
        to bind, or ``None`` to construct one from ``trace_sample_rate`` /
        ``slow_query_seconds`` (which are ignored when a prebuilt one is
        given — its own knobs win).
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
        batching: bool = True,
        metrics_window: int = 4096,
        observability: Optional[ServiceObservability] = None,
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
        self.batcher = Batcher() if batching else None
        self.metrics = Metrics(window=metrics_window)
        if observability is None:
            observability = ServiceObservability(
                trace_sample_rate=trace_sample_rate,
                slow_query_seconds=slow_query_seconds,
            )
        self.observability = observability
        observability.bind(self)

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
        sig = self.signature(
            query,
            tau=tau,
            tau_ratio=tau_ratio,
            time_interval=time_interval,
            temporal_mode=temporal_mode,
        )
        obs = self.observability
        trace = obs.start_trace(query_length=len(query))
        root = None if trace is None else trace.root
        if root is not None:
            if tau is not None:
                root.set("tau", float(tau))
            if tau_ratio is not None:
                root.set("tau_ratio", float(tau_ratio))
            if deadline is not None:
                root.set("deadline_seconds", float(deadline))
        t0 = time.perf_counter()
        # Captured before the cache lookup: this generation also keys the
        # coalescing flight, so a request arriving after an invalidation
        # never joins a pre-invalidation flight (read-your-writes for the
        # inserter) and a computed result is never re-cached across one.
        generation = self.cache.generation
        lookup_span = None if root is None else root.child("cache_lookup")
        hit = self.cache.get(sig)
        if lookup_span is not None:
            lookup_span.set("hit", hit is not None)
            lookup_span.finish()
        if hit is not None:
            seconds = time.perf_counter() - t0
            self.metrics.observe(seconds, cached=True, result=hit)
            obs.observe_response(seconds, cached=True, result=hit)
            obs.finish_trace(trace, seconds=seconds, result=hit, cached=True)
            return ServiceResponse(hit, sig, True, False, seconds)

        def compute() -> QueryResult:
            result = self.executor.query(
                query,
                tau=tau,
                tau_ratio=tau_ratio,
                time_interval=time_interval,
                temporal_mode=temporal_mode,
                deadline=deadline,
                trace=root,
                allow_partial=allow_partial,
            )
            # generation guard: if an online update invalidated the cache
            # while this was computing, the result is stale — don't re-cache.
            # Partial answers are never cached at all: a later request must
            # not be served yesterday's degradation as if it were complete.
            if result.complete:
                self.cache.put(sig, result, generation=generation)
            return result

        budget = (
            deadline if deadline is not None else self.executor.default_deadline
        )
        result, coalesced = None, False
        try:
            if self.batcher is not None:
                # The flight key includes the deadline (a tightly-budgeted
                # leader's DeadlineExceededError must not propagate to a
                # follower that asked for more time) and the cache
                # generation (a post-insert request must not share a
                # pre-insert computation).  wait_timeout enforces the
                # budget for followers that joined a leader's flight late;
                # follower_retry is the fairness half of the same rule — a
                # follower that joined late has budget left when the
                # leader's deadline fires, so it goes around as a new
                # leader instead of inheriting a miss it did not earn.
                flight_span = None if root is None else root.child("coalesce")
                try:
                    result, coalesced = self.batcher.run(
                        (sig, deadline, generation, allow_partial),
                        compute,
                        wait_timeout=budget,
                        follower_retry=_deadline_is_retryable,
                    )
                finally:
                    if flight_span is not None:
                        flight_span.set("coalesced", coalesced)
                        flight_span.finish()
            else:
                result, coalesced = compute(), False
        except AdmissionError as exc:
            self.metrics.observe_error("rejected", exc=exc)
            self._trace_error(trace, t0, exc)
            raise
        except DeadlineExceededError as exc:
            self.metrics.observe_error("deadline", exc=exc)
            self._trace_error(trace, t0, exc)
            raise
        except TimeoutError as exc:
            converted = DeadlineExceededError(str(exc))
            self.metrics.observe_error("deadline", exc=converted)
            self._trace_error(trace, t0, converted)
            raise converted from None
        except Exception as exc:
            self.metrics.observe_error(exc=exc)
            self._trace_error(trace, t0, exc)
            raise
        seconds = time.perf_counter() - t0
        self.metrics.observe(seconds, coalesced=coalesced, result=result)
        obs.observe_response(seconds, coalesced=coalesced, result=result)
        obs.finish_trace(
            trace, seconds=seconds, result=result, coalesced=coalesced
        )
        return ServiceResponse(result, sig, False, coalesced, seconds)

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
        recomputed.  Generation guards match range queries, so an online
        insert invalidates top-k answers identically.  Partial answers
        (``allow_partial`` with shards down) are never cached and never
        shared with followers that did not opt in — the flight key
        includes the flag.  Raises the same admission/deadline errors as
        :meth:`query`.
        """
        if k <= 0:
            raise QueryError("k must be positive")
        sig = self.topk_signature(query)
        obs = self.observability
        trace = obs.start_trace(query_length=len(query), mode="topk", k=int(k))
        root = None if trace is None else trace.root
        if root is not None and deadline is not None:
            root.set("deadline_seconds", float(deadline))
        t0 = time.perf_counter()
        # Same capture-before-lookup discipline as query(): the generation
        # keys the flight too, so post-insert requests never share a
        # pre-insert computation.
        generation = self.cache.generation
        lookup_span = None if root is None else root.child("cache_lookup")
        hit = self.cache.get_topk(sig, k)
        if lookup_span is not None:
            lookup_span.set("hit", hit is not None)
            lookup_span.finish()
        if hit is not None:
            seconds = time.perf_counter() - t0
            self.metrics.observe(seconds, cached=True, result=hit)
            obs.observe_topk(seconds, k=k, cached=True, result=hit)
            if root is not None:
                root.set("tau_rounds", hit.tau_rounds)
                root.set("ties_at_k", hit.ties_at_k)
            obs.finish_topk_trace(trace, seconds=seconds, result=hit, cached=True)
            return ServiceResponse(hit, sig, True, False, seconds)

        def compute():
            result = self.executor.topk(
                query,
                k,
                initial_tau_ratio=initial_tau_ratio,
                growth=growth,
                deadline=deadline,
                trace=root,
                allow_partial=allow_partial,
            )
            # Cache only complete answers (a degraded ranking could be
            # missing a shard's better match); put_topk additionally
            # refuses to replace a deeper cached answer with this one.
            if result.complete:
                self.cache.put_topk(sig, result, generation=generation)
            return result

        budget = (
            deadline if deadline is not None else self.executor.default_deadline
        )
        result, coalesced = None, False
        try:
            if self.batcher is not None:
                # Same flight-key discipline as query(), plus k: two
                # concurrent requests coalesce only when the leader's
                # answer is exactly the follower's (depth included —
                # truncation reuse happens in the cache, not mid-flight).
                flight_span = None if root is None else root.child("coalesce")
                try:
                    result, coalesced = self.batcher.run(
                        (sig, k, deadline, generation, allow_partial),
                        compute,
                        wait_timeout=budget,
                        follower_retry=_deadline_is_retryable,
                    )
                finally:
                    if flight_span is not None:
                        flight_span.set("coalesced", coalesced)
                        flight_span.finish()
            else:
                result, coalesced = compute(), False
        except AdmissionError as exc:
            self.metrics.observe_error("rejected", exc=exc)
            self._trace_topk_error(trace, t0, exc)
            raise
        except DeadlineExceededError as exc:
            self.metrics.observe_error("deadline", exc=exc)
            self._trace_topk_error(trace, t0, exc)
            raise
        except TimeoutError as exc:
            converted = DeadlineExceededError(str(exc))
            self.metrics.observe_error("deadline", exc=converted)
            self._trace_topk_error(trace, t0, converted)
            raise converted from None
        except Exception as exc:
            self.metrics.observe_error(exc=exc)
            self._trace_topk_error(trace, t0, exc)
            raise
        seconds = time.perf_counter() - t0
        self.metrics.observe(seconds, coalesced=coalesced, result=result)
        obs.observe_topk(seconds, k=k, coalesced=coalesced, result=result)
        if root is not None:
            root.set("tau_rounds", result.tau_rounds)
            root.set("ties_at_k", result.ties_at_k)
        obs.finish_topk_trace(
            trace, seconds=seconds, result=result, coalesced=coalesced
        )
        return ServiceResponse(result, sig, False, coalesced, seconds)

    def _trace_error(self, trace, t0: float, exc: BaseException) -> None:
        """Close out a failed request's trace and error instruments."""
        obs = self.observability
        obs.observe_error(exc)
        obs.finish_trace(trace, seconds=time.perf_counter() - t0, error=exc)

    def _trace_topk_error(self, trace, t0: float, exc: BaseException) -> None:
        """Close out a failed top-k request's trace and error
        instruments."""
        obs = self.observability
        obs.observe_error(exc)
        obs.finish_topk_trace(
            trace, seconds=time.perf_counter() - t0, error=exc
        )

    # -- online updates -----------------------------------------------------

    def add_trajectory(self, trajectory, *, validate: bool = False) -> int:
        """Insert one trajectory online and invalidate every cached answer
        (any of them could now be stale — new matches may exist).

        Returns the new global trajectory id.
        """
        tid = self._engine.add_trajectory(trajectory, validate=validate)
        self.metrics.observe_invalidation(self.cache.clear())
        return tid

    def invalidate(self) -> int:
        """Explicit invalidation hook: drop every cached answer (for
        callers that mutate the engine directly).  Returns entries
        dropped."""
        dropped = self.cache.clear()
        self.metrics.observe_invalidation(dropped)
        return dropped

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Metrics snapshot enriched with cache and engine facts."""
        snap = self.metrics.snapshot()
        snap["cache_size"] = len(self.cache)
        snap["cache_capacity"] = self.cache.capacity
        snap["pending"] = self.executor.pending
        num_shards = getattr(self._engine, "num_shards", 1)
        snap["num_shards"] = num_shards
        snap["backend"] = getattr(self._engine, "backend", "single")
        snap["dp_backend"] = getattr(self._engine, "dp_backend", "")
        snap["coalesced_retries"] = (
            self.batcher.retried_followers if self.batcher is not None else 0
        )
        # One combined snapshot: on the processes backend the worker
        # links are polled once, and both caches report the same moment.
        cache_stats = getattr(self._engine, "cache_stats", None)
        if cache_stats is not None:
            combined = cache_stats()
            snap["substitution_cache"] = combined["substitution"]
            snap["trie_cache"] = combined["trie"]
        snap["observability"] = {
            "trace_sample_rate": self.observability.tracer.sample_rate,
            "slow_query_seconds": self.observability.slow_query_seconds,
            "flight_recorder": self.observability.recorder.stats(),
        }
        return snap
