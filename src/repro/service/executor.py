"""Query execution on a thread pool, with deadlines and admission control.

:class:`Executor` owns the worker pool for one service instance.  Every
query — range or top-k, on a plain
:class:`~repro.core.engine.SubtrajectorySearch` or a
:class:`~repro.core.partitioned.PartitionedSubtrajectorySearch` — is one
deadline-bound pool task that calls the engine; the shard fan-out, on
whatever backend, is the engine's own (the pool thread runs in-process
shards itself, or waits while the engine's shard workers burn the CPU).
Two protections keep the pool healthy under overload:

- *admission control*: at most ``max_pending`` queries may be in flight;
  beyond that, new arrivals are shed immediately with
  :class:`~repro.exceptions.AdmissionError` (fail fast beats queueing
  into timeout);
- *deadlines*: a per-query budget (seconds) covers queueing *and*
  execution, carried by a :class:`~repro.core.cancellation.CancelToken`
  that is threaded into every shard's verification loop.  When the budget
  expires the caller gets
  :class:`~repro.exceptions.DeadlineExceededError`, a task that has not
  started is cancelled, and — via the token — a running one stops
  cooperatively within one verification-loop iteration instead of
  running to completion (this works across the process boundary as well:
  workers rebuild the deadline locally and poll their link's cancel
  watermark).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence, Tuple

from repro.core.cancellation import CancelToken
from repro.core.engine import QueryResult
from repro.core.temporal import TemporalMode, TimeInterval
from repro.core.topk import topk_search
from repro.exceptions import (
    AdmissionError,
    DeadlineExceededError,
    QueryCancelledError,
)

__all__ = ["Executor"]


class Executor:
    """Run engine queries on a bounded thread pool.

    Parameters
    ----------
    engine:
        A :class:`SubtrajectorySearch` or
        :class:`PartitionedSubtrajectorySearch` (anything exposing
        ``query``, ``add_trajectory``, ``costs``, ``dataset``, ``status``,
        ``close``).
    max_workers:
        Pool size: one pool thread per query executing at once.
    max_pending:
        Admission limit on concurrently in-flight queries.
    default_deadline:
        Per-query budget in seconds applied when the caller passes none
        (``None`` = unbounded).
    """

    def __init__(
        self,
        engine,
        *,
        max_workers: int = 4,
        max_pending: int = 64,
        default_deadline: Optional[float] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be positive")
        self._engine = engine
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._max_pending = max_pending
        self._default_deadline = default_deadline
        self._lock = threading.Lock()
        self._pending = 0
        self._closed = False

    @property
    def engine(self):
        """The wrapped search engine."""
        return self._engine

    @property
    def default_deadline(self) -> Optional[float]:
        """The per-query budget applied when a caller passes none."""
        return self._default_deadline

    @property
    def pending(self) -> int:
        """Queries currently admitted and not yet finished."""
        with self._lock:
            return self._pending

    def close(self, *, close_engine: bool = False) -> None:
        """Stop admitting queries and drain the pool (idempotent).

        ``close_engine=True`` additionally closes the wrapped engine —
        for partitioned engines that terminates the worker processes and
        the shard threads that wait on them.  Off by default because the
        engine is caller-owned and may outlive this executor (e.g. one
        engine served by successive executors in benchmarks)."""
        with self._lock:
            already = self._closed
            self._closed = True
        if not already:
            self._pool.shutdown(wait=True)
        if close_engine:
            self._engine.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- query path ---------------------------------------------------------

    def query(
        self,
        query: Sequence[int],
        *,
        tau: Optional[float] = None,
        tau_ratio: Optional[float] = None,
        time_interval: Optional[TimeInterval] = None,
        temporal_mode: TemporalMode = "overlap",
        deadline: Optional[float] = None,
        trace=None,
        allow_partial: bool = False,
    ) -> QueryResult:
        """Execute one query on the pool and return its merged result.

        Raises :class:`AdmissionError` when shed and
        :class:`DeadlineExceededError` when the budget (``deadline``
        seconds from now, defaulting to ``default_deadline``) expires.
        ``trace`` (a :class:`repro.obs.tracing.Span`, or None) collects
        ``admission`` and ``execute`` child spans; the engine hangs its
        per-shard and per-stage spans under ``execute``.

        ``allow_partial`` opts the query into graceful degradation and is
        forwarded to the engine (meaningful on the worker backends, where
        a shard can die independently; in-process engines never degrade,
        so elsewhere it is inert).
        """
        kwargs = dict(
            tau=tau,
            tau_ratio=tau_ratio,
            time_interval=time_interval,
            temporal_mode=temporal_mode,
        )
        with self._admitted(deadline, trace) as (token, span):
            if span is not None:
                kwargs["trace"] = span
            if allow_partial:
                kwargs["allow_partial"] = True
            future = self._submit(self._engine.query, query, cancel=token, **kwargs)
            return self._gather(future, token)

    def topk(
        self,
        query: Sequence[int],
        k: int,
        *,
        initial_tau_ratio: float = 0.05,
        growth: float = 2.0,
        deadline: Optional[float] = None,
        trace=None,
        allow_partial: bool = False,
    ):
        """Execute one top-k query on the pool; same admission control and
        deadline semantics as :meth:`query`.

        The whole tau-doubling loop runs as one pool task (each round is
        one ``engine.query``).  The deadline token is threaded through
        every probe round *and* the exhaustion sweep, so an expired
        budget stops within one verification iteration or one swept
        trajectory.
        """
        with self._admitted(deadline, trace, mode="topk") as (token, span):
            future = self._submit(
                topk_search,
                self._engine,
                query,
                k,
                initial_tau_ratio=initial_tau_ratio,
                growth=growth,
                cancel=token,
                allow_partial=allow_partial,
                trace=span,
            )
            result = self._gather(future, token)
            if span is not None:
                span.set("matches", len(result.matches))
                span.set("tau_rounds", result.tau_rounds)
            return result

    # -- internals ----------------------------------------------------------

    @contextmanager
    def _admitted(
        self, deadline: Optional[float], trace, **span_attributes
    ) -> Iterator[Tuple[CancelToken, Any]]:
        """The scope every query kind executes in: admit (or shed), start
        the deadline token, open the ``execute`` span, and on the way out
        annotate the span with any failure and release the admission
        slot.  Yields ``(token, execute_span)``; the body only decides
        what goes to the pool."""
        if deadline is not None and deadline <= 0:
            # A malformed request, not a missed deadline: report it as
            # such instead of polluting the deadline-miss metric.
            raise ValueError("deadline must be positive")
        admission = (
            None if trace is None
            else trace.child("admission", pending=self.pending)
        )
        try:
            with self._lock:
                if self._closed:
                    raise AdmissionError("service is shutting down")
                if self._pending >= self._max_pending:
                    raise AdmissionError(
                        f"too many in-flight queries (limit {self._max_pending})"
                    )
                self._pending += 1
        except AdmissionError as exc:
            if admission is not None:
                admission.set("error", type(exc).__name__)
            raise
        finally:
            if admission is not None:
                admission.finish()
        try:
            token = CancelToken(
                deadline if deadline is not None else self._default_deadline
            )
            span = (
                None if trace is None
                else trace.child("execute", **span_attributes)
            )
            try:
                yield token, span
            except BaseException as exc:
                if span is not None:
                    span.set("error", type(exc).__name__)
                raise
            finally:
                if span is not None:
                    span.finish()
        finally:
            with self._lock:
                self._pending -= 1

    def _submit(self, fn, *args, **kwargs) -> Future:
        """``fn`` on the pool.  Only the pool's own refusal (a query
        admitted concurrently with :meth:`close`) is a shed, HTTP 429; an
        engine error, whatever its text, reaches the caller as itself."""
        try:
            return self._pool.submit(fn, *args, **kwargs)
        except RuntimeError:
            raise AdmissionError("service is shutting down") from None

    @staticmethod
    def _gather(future: Future, token: CancelToken):
        """The pool task's result, honouring the deadline.

        On expiry the token is tripped first — the running query observes
        it inside its verification loops and stops within one iteration —
        then an unstarted task is cancelled and the caller gets
        :class:`DeadlineExceededError`.  A query that noticed its own
        deadline first (raising :class:`QueryCancelledError`) is folded
        into the same outcome."""
        remaining = token.remaining()
        try:
            if remaining is not None and remaining <= 0:
                raise _FutureTimeout()
            return future.result(timeout=remaining)
        except (_FutureTimeout, TimeoutError, QueryCancelledError):
            token.cancel()  # stop the in-flight work cooperatively
            future.cancel()
            raise DeadlineExceededError("query missed its deadline") from None
