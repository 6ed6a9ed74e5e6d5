"""Partitioned (shared-nothing) subtrajectory search.

The paper leaves distribution to future work, noting that the whole-
matching partitioners (first/last point [41, 64]) do not apply to
subtrajectory search (§2.1).  The key observation here: subtrajectory
search decomposes *perfectly by trajectory* — a match lives entirely
inside one trajectory — so hash-partitioning trajectories over shards
gives exact answers with no cross-shard coordination beyond a union.

:class:`PartitionedSubtrajectorySearch` simulates such a deployment on a
single machine.  A query is the same three steps on every backend — one
call per shard (:meth:`~PartitionedSubtrajectorySearch.
shard_query_callables`), run them, merge (:meth:`~
PartitionedSubtrajectorySearch.merge_shard_results`) — and the backend
only decides where a shard's engine lives and who runs its call:

- ``"serial"`` — shard engines live in the parent and are queried one
  after another in the caller's thread (the default: verification holds
  the GIL, so threads here would only add hand-offs);
- ``"processes"`` — each shard's engine lives in a long-lived worker
  process (:class:`~repro.core.workers.ShardWorkerPool`) and a shard's
  call is one blocking round trip to it (pickled query descriptor over a
  framed socketpair), made from the engine's shard threads.  CPU-bound
  verification then genuinely parallelizes: a single query uses up to
  one core per shard while the parent's threads merely wait;
- ``"remote"`` — each shard's engine lives in a standalone worker node
  (``repro worker --listen``; :mod:`repro.core.remote`) addressed by a
  JSON shard map.  The same handle, protocol, supervision (heartbeats,
  per-call deadlines, reopen-with-backoff), journal replay, retry and
  injectable link faults as ``processes`` — only the link is opened
  over TCP instead of to a child.

Whatever the backend, the merge is deterministic (shard order, then
sorted by global ``(id, start, end)``) and answers are element-for-
element identical to a single-node engine.  The first shard to fail
cancels its siblings (within one verification iteration in-process, one
cancel frame across a link) and every request sent still collects its
one reply, so a failed query leaves the links in sync.  The per-shard
calls are public so a harness can time them one by one.  Temporal
constraints, cooperative cancellation tokens, and all engine options
pass straight through.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.core.cancellation import raise_if_cancelled
from repro.core.engine import QueryResult, SubtrajectorySearch, check_index_options
from repro.core.frozen import round_robin_shards, shard_index_path
from repro.core.results import Match
from repro.core.trie import TrieCache
from repro.core.temporal import TemporalMode, TimeInterval
from repro.core.verification import VerificationStats
from repro.core.supervision import EngineStatus, ShardStatus, WorkerState
from repro.core.workers import ShardWorkerPool
from repro.exceptions import (
    QueryCancelledError,
    QueryError,
    ShardUnavailableError,
    WorkerError,
)
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["PartitionedSubtrajectorySearch"]

_BACKENDS = ("serial", "processes", "remote")
#: backends whose shard engines live in another process: workers build
#: their own engines, caches cannot be shared, faults can be injected.
_OUT_OF_PROCESS = ("processes", "remote")


class _GlobalDatasetView:
    """Read-only view of the partitioned corpus in *global* id order.

    The parent keeps a per-shard dataset mirror on every backend (shard
    engines alias it in-process; worker inserts are mirrored after the
    authoritative replica acks), and round-robin assignment makes the
    global↔local mapping arithmetic: global id ``g`` is local id
    ``g // num_shards`` on shard ``g % num_shards``.  That is all a
    whole-corpus consumer — e.g. the top-k exhaustion sweep — needs, so
    this view exposes the single-node dataset surface it reads
    (``len()`` + ``symbols``) without materializing a merged copy.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "PartitionedSubtrajectorySearch") -> None:
        self._owner = owner

    def __len__(self) -> int:
        return len(self._owner)

    def symbols(self, tid: int):
        n = self._owner.num_shards
        return self._owner._shards[tid % n].symbols(tid // n)


class _QueryToken:
    """What the shards of one query poll: the caller's token (deadline,
    client gone) or the engine's own trip — by the first shard to fail,
    so its siblings stop, and by :meth:`~PartitionedSubtrajectorySearch.
    close`.  The caller's token is read, never tripped."""

    __slots__ = ("_caller", "_tripped")

    def __init__(self, caller) -> None:
        self._caller = caller
        self._tripped = False

    def cancel(self) -> None:
        self._tripped = True

    def cancelled(self) -> bool:
        return self._tripped or (
            self._caller is not None and self._caller.cancelled()
        )

    def remaining(self) -> Optional[float]:
        """The caller's deadline budget — what a worker link ships."""
        remaining = getattr(self._caller, "remaining", None)
        return None if remaining is None else remaining()


class PartitionedSubtrajectorySearch:
    """Exact search over trajectory shards.

    ``num_shards`` engines are built over disjoint trajectory subsets
    (round-robin assignment, which balances shard sizes).  Engine keyword
    arguments are forwarded verbatim to each shard's
    :class:`~repro.core.engine.SubtrajectorySearch` (in-process or inside
    its worker process).

    The warm-query cache is the one exception to shard-local state: a
    query's substitution rows and trie columns are dataset-independent
    (a row is a function of query and model, a column is keyed by
    data-symbol path, never by trajectory), so on ``serial`` all shard
    engines share **one** :class:`~repro.core.trie.TrieCache` — shard A's
    verification warms shard B's, and a fan-out query's shards share one
    entry per query, each walking it for one anchor group at a time under
    the entry's lock.  ``trie_cache_size`` / ``trie_cache_bytes`` size
    that shared cache, or pass a prebuilt ``trie_cache``.  The worker
    backends cannot share memory across workers, so there the knobs size
    one cache *per worker* and :meth:`status` sums them.

    ``index_backend="frozen"`` with an ``index_path`` *stem* resolves one
    frozen index file per shard (``<stem>.shard<k>-of-<N>`` as written by
    ``repro index build --shards N``, or the stem itself for one shard)
    and forwards it to the owning shard engine along with the expected
    shard provenance, so a mismatched file fails loudly at construction.
    On the ``processes`` backend this is the whole point: each worker
    mmaps its shard's file in O(1) instead of rebuilding (or unpickling)
    postings, and the OS page cache shares the bytes across workers.

    ``backend`` selects where shard engines live (see the module
    docstring); it defaults to ``"serial"``.  With several worker shards
    the engine owns one shard thread per shard, only to overlap the
    blocking round trips to the workers.  All backends produce identical
    results: the merge collects shard results in shard order regardless
    of completion order.

    The worker backends hold OS resources (shard threads, worker
    processes, sockets); call :meth:`close` when done — it also cancels
    the queries still in flight.  Unclosed engines are cleaned up at
    interpreter exit, and the class works as a context manager.
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        costs,
        *,
        num_shards: int = 4,
        backend: str = "serial",
        start_method: Optional[str] = None,
        fault_plan=None,
        shard_map: Optional[Sequence[str]] = None,
        connect_timeout: float = 5.0,
        remote_call_timeout: Optional[float] = None,
        **engine_kwargs,
    ) -> None:
        if num_shards < 1:
            raise QueryError("num_shards must be >= 1")
        if len(dataset) == 0:
            raise QueryError("cannot shard an empty dataset")
        if backend not in _BACKENDS:
            raise QueryError(
                f"unknown backend {backend!r} (expected one of {_BACKENDS})"
            )
        if backend not in _OUT_OF_PROCESS and fault_plan is not None:
            # In-process shards cannot die independently of the parent —
            # there is nothing for a fault plan to act on.
            raise QueryError(
                f"backend={backend!r} does not take a fault_plan (fault "
                "injection targets out-of-process shard workers)"
            )
        if backend == "remote":
            if shard_map is None:
                raise QueryError(
                    "backend='remote' needs a shard_map: one 'host:port' "
                    "worker-node address per shard"
                )
            # The shard map IS the shard layout: one node, one shard.
            num_shards = len(shard_map)
            if num_shards > len(dataset):
                raise QueryError(
                    f"shard map has {num_shards} nodes but the dataset has "
                    f"only {len(dataset)} trajectories (a node would own an "
                    "empty shard)"
                )
        elif shard_map is not None:
            raise QueryError(
                f"backend={backend!r} does not take a shard_map (node "
                "addresses drive the remote backend)"
            )
        num_shards = min(num_shards, len(dataset))
        index_path = engine_kwargs.pop("index_path", None)
        check_index_options(engine_kwargs.get("index_backend", "dict"), index_path)
        # Per-shard engine kwargs: shard k opens its own frozen file and
        # must find its own shard provenance in the header.
        per_shard_kwargs: Optional[List[Dict[str, Any]]] = None
        if index_path is not None:
            per_shard_kwargs = [
                {
                    "index_path": shard_index_path(index_path, i, num_shards),
                    "index_expected_shard": (
                        None if num_shards == 1 else (i, num_shards)
                    ),
                }
                for i in range(num_shards)
            ]
        self._backend = backend
        self._trie_cache: Optional[TrieCache] = None
        if backend in _OUT_OF_PROCESS and "trie_cache" in engine_kwargs:
            # Fail here with the real reason, not deep in the worker
            # spawn as an opaque "cannot pickle thread lock".
            raise QueryError(
                f"backend={backend!r} cannot share a prebuilt trie_cache "
                "across worker processes; pass trie_cache_size / "
                "trie_cache_bytes to size each worker's own cache"
            )
        self._shards = round_robin_shards(dataset, num_shards)
        self._global_ids: List[List[int]] = [
            list(range(k, len(dataset), num_shards)) for k in range(num_shards)
        ]
        self._costs = costs
        self._update_lock = threading.Lock()
        self._closed = False
        #: tokens of the queries in flight, for close() to trip; the lock
        #: also orders a query's submissions against close().
        self._in_flight: set = set()
        self._flight_lock = threading.Lock()
        self._engines: List[SubtrajectorySearch] = []
        self._workers: Optional[ShardWorkerPool] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        if backend in _OUT_OF_PROCESS:
            # Engines are built inside the workers — index memory and
            # build time live there, once, not in the parent too.  With a
            # frozen index_path the workers ship only the *path*: each
            # opens its shard's file by mmap instead of rebuilding.  On
            # "remote" the workers are standalone nodes from shard_map
            # and a respawn is a reconnect.
            self._workers = ShardWorkerPool(
                self._shards,
                costs,
                engine_kwargs,
                start_method=start_method,
                per_shard_kwargs=per_shard_kwargs,
                fault_plan=fault_plan,
                shard_map=list(shard_map) if backend == "remote" else None,
                connect_timeout=connect_timeout,
                call_timeout=remote_call_timeout,
            )
            if num_shards > 1:
                # One thread per shard overlaps the blocking round trips.
                self._pool = ThreadPoolExecutor(
                    max_workers=num_shards, thread_name_prefix="repro-shard"
                )
        else:
            # One shared cross-query cache for all in-process shard
            # engines (entries are dataset-independent — see the class
            # docstring): shard 0's engine builds it from the cache knobs
            # (or takes the prebuilt ``trie_cache``) and every later
            # shard is handed it.  Workers keep per-process caches.
            for i, shard in enumerate(self._shards):
                per_shard = {} if per_shard_kwargs is None else per_shard_kwargs[i]
                engine = SubtrajectorySearch(
                    shard, costs, **{**engine_kwargs, **per_shard}
                )
                self._engines.append(engine)
                self._trie_cache = engine_kwargs["trie_cache"] = engine._trie_cache

    @property
    def num_shards(self) -> int:
        """Number of shards actually built."""
        return len(self._global_ids)

    @property
    def backend(self) -> str:
        """The fan-out backend: ``serial``, ``processes`` or ``remote``."""
        return self._backend

    @property
    def costs(self):
        """The cost model shared by every shard engine."""
        return self._costs

    @property
    def dataset(self):
        """The whole corpus as a read-only global-id-ordered view (the
        surface :func:`repro.core.topk.topk_search` scans; backed by the
        per-shard mirrors, so it is current on every backend)."""
        return _GlobalDatasetView(self)

    def status(self) -> EngineStatus:
        """One snapshot of the engine, from ONE poll of its shards — what
        ``/healthz``, ``/stats``, ``/metrics`` and the 503 body are
        projections of.  Worker shards report their supervised state and
        their worker's counters (:meth:`ShardWorkerPool.status
        <repro.core.workers.ShardWorkerPool.status>`: never blocking);
        in-process shards share the parent's fate (always-alive states)
        and **one** cache, reported once as ``shared_trie``."""
        self._check_open()
        if self._workers is not None:
            shards, shared = self._workers.status(), None
        else:
            shards = [
                ShardStatus(WorkerState(i), None, engine.index.stats())
                for i, engine in enumerate(self._engines)
            ]
            shared = self._trie_cache.stats()
        return EngineStatus(self._backend, len(self), shards, shared)

    def __len__(self) -> int:
        return sum(len(ids) for ids in self._global_ids)

    def close(self) -> None:
        """Release fan-out resources (worker links and their shard threads).

        Idempotent, and safe on any backend.  Queries still in flight are
        cancelled (they raise a typed error, never hang).  Process workers
        still alive at interpreter exit are terminated by an ``atexit``
        hook, but an explicit (or context-manager) close is the orderly
        path.
        """
        with self._flight_lock:
            if self._closed:
                return
            self._closed = True
            in_flight = list(self._in_flight)
        for token in in_flight:
            token.cancel()
        # Workers first: stopping them bounds the wait on a wedged one, so
        # the shard threads below are never joined behind a hung link.
        if self._workers is not None:
            self._workers.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def _check_open(self) -> None:
        # Uniform across backends: a closed engine fails loudly instead of
        # silently degrading (in-process shards would answer on).
        if self._closed:
            raise QueryError("engine is closed")

    def __enter__(self) -> "PartitionedSubtrajectorySearch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- online updates -----------------------------------------------------

    def add_trajectory(self, trajectory, *, validate: bool = False) -> int:
        """Append one trajectory, continuing the round-robin assignment
        (global id ``g`` lives on shard ``g % num_shards``, exactly as at
        construction).  Returns the new global trajectory id.

        Serialized against concurrent inserts so global ids stay dense and
        unique when called from server threads.  On the processes backend
        the insert is *replicated* to the owning worker with the expected
        shard-local id attached; the worker acknowledges synchronously
        (read-your-writes) and raises
        :class:`~repro.exceptions.WorkerError` if its replica disagrees."""
        self._check_open()
        with self._update_lock:
            gid = len(self)
            shard = gid % self.num_shards
            # Reserve the global id *before* the shard engine can match the
            # new trajectory: a concurrent query that sees the trajectory
            # must find its id in the map (the reverse order would let the
            # merge hit an unmapped shard-local id).  An id mapped early is
            # harmless — no match can reference it until the engine insert
            # lands.
            self._global_ids[shard].append(gid)
            try:
                if self._workers is not None:
                    local_id = len(self._shards[shard])
                    self._workers.replicate_add(
                        shard, local_id, trajectory, validate=validate
                    )
                    # The worker (the authoritative replica) committed and
                    # agreed on the id; mirror into the parent's copy so a
                    # later rebuild/export sees the same shard contents.
                    self._shards[shard].add(trajectory)
                else:
                    self._engines[shard].add_trajectory(
                        trajectory, validate=validate
                    )
            except BaseException:
                self._global_ids[shard].pop()
                raise
            return gid

    # -- shard fan-out ------------------------------------------------------

    def shard_query_callables(
        self,
        query: Sequence[int],
        *,
        tau: Optional[float] = None,
        tau_ratio: Optional[float] = None,
        time_interval: Optional[TimeInterval] = None,
        temporal_mode: TemporalMode = "overlap",
        cancel=None,
        trace=None,
        allow_partial: bool = False,
    ) -> List[Callable[[], Optional[QueryResult]]]:
        """One zero-argument callable per shard, each returning that shard's
        :class:`QueryResult` (shard-local trajectory ids) — the shard
        engine's own query in-process, one blocking round trip to the
        shard's worker otherwise.

        The callables are independent and thread-safe to run concurrently
        (or one by one, from any thread); pass their results *in shard
        order* to :meth:`merge_shard_results`.  ``cancel`` (a cooperative
        cancellation token) is threaded into every shard query — tripping
        it stops all shards' verification loops within one iteration, on
        every backend.  ``trace`` (a :class:`repro.obs.tracing.Span`, or
        None) makes each callable open a per-shard child span covering its
        own execution window, annotated with how it ended (``error``, and
        on worker backends the ``fault`` decision taken: ``retried`` /
        ``breaker_open`` / ``degraded``).  With ``allow_partial`` a worker
        shard that stays down returns ``None`` instead of raising.
        """
        self._check_open()
        kwargs = dict(
            tau=tau,
            tau_ratio=tau_ratio,
            time_interval=time_interval,
            temporal_mode=temporal_mode,
        )
        symbols = list(query)
        return [
            partial(
                self._shard_query,
                shard, symbols, kwargs, cancel, trace, allow_partial,
            )
            for shard in range(self.num_shards)
        ]

    def _shard_query(
        self, shard, query, kwargs, cancel, trace, allow_partial
    ) -> Optional[QueryResult]:
        span = (
            None
            if trace is None
            else trace.child("shard", shard=shard, backend=self._backend)
        )
        try:
            if self._workers is None:
                return self._engines[shard].query(
                    query, cancel=cancel, trace=span, **kwargs
                )
            if span is None:
                return self._workers.query_shard(shard, query, kwargs, cancel)
            result, exported = self._workers.query_shard(
                shard,
                query,
                kwargs,
                cancel,
                trace_ctx=span.context(),
                on_event=partial(span.set, "fault"),
            )
            span.graft(exported)
            return result
        except BaseException as exc:
            # A worker shard that stayed down — breaker open, or failed
            # again after the pool's respawn-and-retry — is the one thing
            # allow_partial degrades; deadlines, cancellations and engine
            # errors doom the query on every mode.
            if allow_partial and isinstance(exc, WorkerError):
                if span is not None:
                    span.set("fault", "degraded")
                return None
            if span is not None:
                span.set("error", type(exc).__name__)
            raise
        finally:
            if span is not None:
                span.finish()

    def _run(self, calls: Sequence[Callable], token: _QueryToken) -> List:
        """Run one query's shard calls and return their results in shard
        order: inline, or — with several worker shards — on the shard
        threads, whose one reason to exist is to overlap those blocking
        round trips.

        The first shard to fail trips ``token`` so its siblings stop, and
        every call is waited for (a request sent still collects its one
        reply).  What propagates is the lowest-numbered shard's own
        failure, not a cancellation that failure caused."""

        def guarded(call):
            try:
                raise_if_cancelled(token, "shard query")
                return call()
            except BaseException:
                token.cancel()
                raise

        futures: Optional[List[Future]] = None
        with self._flight_lock:
            self._check_open()
            self._in_flight.add(token)
            if self._pool is not None:
                futures = [self._pool.submit(guarded, call) for call in calls]
        try:
            if futures is None:
                return [call() for call in calls]
            wait(futures)
            failures = [
                exc for exc in (f.exception() for f in futures) if exc is not None
            ]
            own = [e for e in failures if not isinstance(e, QueryCancelledError)]
            if failures:
                raise (own or failures)[0]
            return [future.result() for future in futures]
        finally:
            with self._flight_lock:
                self._in_flight.discard(token)

    def merge_shard_results(
        self, results: Sequence[Optional[QueryResult]]
    ) -> QueryResult:
        """Union shard results (given in shard order) into one global
        :class:`QueryResult`: ids mapped back to the global space, matches
        sorted by ``(id, start, end)``, timings and counters summed.

        A ``None`` entry is a *degraded* shard (its worker stayed down and
        the caller opted into ``allow_partial``): its matches are simply
        missing, the merged result carries ``complete=False`` and the
        shard's index in ``degraded_shards``.  All ``None`` raises
        :class:`~repro.exceptions.ShardUnavailableError` — there is
        nothing to serve a partial answer from."""
        if len(results) != self.num_shards:
            raise QueryError(
                f"expected {self.num_shards} shard results, got {len(results)}"
            )
        degraded = tuple(
            shard for shard, result in enumerate(results) if result is None
        )
        if len(degraded) == self.num_shards:
            raise ShardUnavailableError(
                "every shard is unavailable (nothing to serve a partial "
                "result from)"
            )
        matches: List[Match] = []
        tau_used = 0.0
        candidates = 0
        mincand = lookup = verify = 0.0
        dp_rounds = 0
        backends: Set[str] = set()
        trie_statuses: Set[str] = set()
        for result, id_map in zip(results, self._global_ids):
            if result is None:
                continue
            tau_used = result.tau
            candidates += result.num_candidates
            mincand += result.mincand_seconds
            lookup += result.lookup_seconds
            verify += result.verify_seconds
            dp_rounds += result.dp_rounds
            backends.add(result.dp_backend_used)
            trie_statuses.add(result.trie_cache_status)
            matches.extend(
                Match(id_map[m.trajectory_id], m.start, m.end, m.distance)
                for m in result.matches
            )
        matches.sort(key=lambda m: (m.trajectory_id, m.start, m.end))
        return QueryResult(
            matches=matches,
            tau=tau_used,
            subsequence=[],
            num_candidates=candidates,
            mincand_seconds=mincand,
            lookup_seconds=lookup,
            verify_seconds=verify,
            verification=VerificationStats.sum(
                result.verification for result in results if result is not None
            ),
            dp_backend_used="+".join(sorted(backends - {""})),
            trie_cache_status="+".join(sorted(trie_statuses - {""})),
            dp_rounds=dp_rounds,
            complete=not degraded,
            degraded_shards=degraded,
        )

    def query(
        self,
        query: Sequence[int],
        *,
        tau: Optional[float] = None,
        tau_ratio: Optional[float] = None,
        time_interval: Optional[TimeInterval] = None,
        temporal_mode: TemporalMode = "overlap",
        cancel=None,
        trace=None,
        allow_partial: bool = False,
    ) -> QueryResult:
        """Fan out to every shard and merge (exact, same semantics as the
        single-node engine): :meth:`shard_query_callables`, run, then
        :meth:`merge_shard_results`, on every backend.  ``cancel``
        optionally carries a deadline / cancellation token through to
        every shard's verification loop.  ``trace`` (a
        :class:`repro.obs.tracing.Span`, or None) collects one child span
        per shard — on the worker backends the workers' own engine-stage
        spans are stitched underneath them.

        ``allow_partial`` opts into graceful degradation on the worker
        backends: a shard whose worker stays down (even after the pool's
        respawn-and-retry) yields no matches instead of failing the whole
        query, and the merged result says so (``complete=False`` +
        ``degraded_shards``).  In-process shards share the parent's fate
        and cannot independently fail, so the flag is accepted but inert
        on the other backends."""
        raise_if_cancelled(cancel, "query")
        token = _QueryToken(cancel)
        calls = self.shard_query_callables(
            query,
            tau=tau,
            tau_ratio=tau_ratio,
            time_interval=time_interval,
            temporal_mode=temporal_mode,
            cancel=token,
            trace=trace,
            allow_partial=allow_partial,
        )
        merged = self.merge_shard_results(self._run(calls, token))
        if trace is not None:
            trace.set("shards", self.num_shards)
            trace.set("matches", len(merged.matches))
            trace.set("candidates", merged.num_candidates)
        return merged

    def topk(
        self,
        query: Sequence[int],
        k: int,
        *,
        initial_tau_ratio: float = 0.05,
        growth: float = 2.0,
        cancel=None,
        allow_partial: bool = False,
        trace=None,
    ):
        """The ``k`` most similar subtrajectories across all shards —
        :func:`repro.core.topk.topk_search` run with this engine as the
        probe target.  The tau-doubling loop sits *above* the shard
        fan-out: every probe round is one ordinary :meth:`query` (worker
        worker-link RPC, supervision, retry-once, journal replay all
        unchanged), and ``allow_partial`` degrades probe rounds exactly
        like range queries (the result is then ``complete=False``)."""
        from repro.core.topk import topk_search  # circular at import time

        self._check_open()
        return topk_search(
            self,
            query,
            k,
            initial_tau_ratio=initial_tau_ratio,
            growth=growth,
            cancel=cancel,
            allow_partial=allow_partial,
            trace=trace,
        )
