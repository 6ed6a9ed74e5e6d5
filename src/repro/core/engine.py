"""The subtrajectory similarity search engine (Algorithm 2).

:class:`SubtrajectorySearch` indexes a :class:`TrajectoryDataset` once and
answers queries ``(Q, wed, tau)`` exactly:

1. *filter* — profile the query (``B(q)``, ``c(q)``, ``N_q``), pick a
   tau-subsequence with the configured selector (greedy 2-approximation by
   default — Algorithm 1), and collect candidates ``(id, j, iq)`` from the
   postings lists of all substitution neighbors;
2. *verify* — run bidirectional local verification with trie caching
   (Algorithms 3–6), or per-trajectory Smith–Waterman when configured as
   the OSF-SW ablation.

The result carries per-stage wall-clock timings (Table 4), the candidate
count (Fig. 11) and the verification counters (Table 5), so the benchmark
harness reads everything from one object.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Literal, Optional, Sequence, Tuple

from repro.core.cancellation import raise_if_cancelled
from repro.core.filtering import (
    QueryElement,
    check_alphabet,
    query_profile,
    tau_from_ratio,
)
from repro.core.frozen import DeltaOverlayIndex, FrozenInvertedIndex
from repro.core.invindex import InvertedIndex
from repro.core.mincand import (
    mincand_all,
    mincand_exact,
    mincand_greedy,
    mincand_prefix,
)
from repro.core.results import Match, MatchSet
from repro.core.supervision import EngineStatus, ShardStatus, WorkerState
from repro.core.temporal import (
    TemporalMode,
    TimeInterval,
    filter_candidates,
    match_satisfies,
)
from repro.core.trie import TrieCache, TrieCacheEntry
from repro.core.verification import (
    Candidate,
    VerificationStats,
    Verifier,
    choose_dp_backend,
)
from repro.distance.smith_waterman import all_matches
from repro.exceptions import QueryError
from repro.trajectory.dataset import TrajectoryDataset

__all__ = [
    "QueryResult",
    "SubtrajectorySearch",
    "cost_model_id",
    "query_signature",
    "topk_signature",
]

logger = logging.getLogger(__name__)

Selector = Literal["greedy", "exact", "prefix", "all"]
VerificationMode = Literal["trie", "local", "sw"]
INDEX_BACKENDS = ("dict", "frozen")

#: default capacity (entries) of the engine-level TrieCache — a repeated
#: query's substitution rows and DP columns, warm.  Sized for the serving
#: layer's zipf repeat traffic (the hot head of the query distribution);
#: row tables and trie arenas keep growing while cached, so the binding
#: limit under heavy traffic is usually DEFAULT_TRIE_CACHE_BYTES, not
#: the entry count.
DEFAULT_TRIE_CACHE = 32

#: default byte budget across everything the cached entries pin (per
#: engine/shard group).  Each verification re-accounts its own entry;
#: LRU entries are shed until the total fits (see TrieCache.reconcile).
DEFAULT_TRIE_CACHE_BYTES = 256 * 1024 * 1024

_SELECTORS: Dict[str, Callable] = {
    "greedy": mincand_greedy,
    "exact": mincand_exact,
    "prefix": mincand_prefix,
    "all": mincand_all,
}


@dataclass(slots=True)
class QueryResult:
    """Answer plus instrumentation for one query."""

    matches: List[Match]
    tau: float
    subsequence: List[QueryElement]
    num_candidates: int
    mincand_seconds: float
    lookup_seconds: float
    verify_seconds: float
    verification: VerificationStats
    used_fallback: bool = False
    #: DP backend the verification stage actually ran ("python"/"numpy";
    #: empty for the SW mode and the scan fallback, which run no column
    #: DP) — how the per-query ``choose_dp_backend`` verdict is observed
    #: end to end.
    dp_backend_used: str = ""
    #: ndarrays materialized on the verification hot path (see
    #: :attr:`repro.core.verification.Verifier.dp_array_allocations`);
    #: deliberately outside VerificationStats, which is walker-identical.
    dp_array_allocations: int = 0
    #: what the cross-query TrieCache did for this query: ``"hit"`` (warm
    #: rows and columns reused), ``"miss"`` (verified cold, warmed the
    #: cache), ``"off"`` (cache disabled), or ``""`` when the cache was
    #: not consulted at all (sw mode, scan fallback).
    #: Merged shard results join the distinct per-shard statuses with ``+``.
    trie_cache_status: str = ""
    #: DP kernel launches during verification (one per resolve round; 0
    #: for the python backend and a fully-warm rewalk) — like
    #: dp_array_allocations, outside VerificationStats.
    dp_rounds: int = 0
    #: False when this is a *partial* answer: one or more shards were
    #: unavailable and the caller opted into graceful degradation
    #: (``allow_partial``), so matches from the shards listed in
    #: :attr:`degraded_shards` are missing.  Partial answers are never
    #: cached as complete by the serving layer.
    complete: bool = True
    #: shard indices whose results are missing from a partial answer.
    degraded_shards: Tuple[int, ...] = ()

    @property
    def total_seconds(self) -> float:
        """End-to-end query latency across the three stages."""
        return self.mincand_seconds + self.lookup_seconds + self.verify_seconds

    def __len__(self) -> int:
        return len(self.matches)


def check_index_options(index_backend: str, index_path: Optional[str]) -> None:
    """The one validation of the ``index_backend`` / ``index_path`` pair
    (the partitioned engine runs it before it spawns a worker)."""
    if index_backend not in INDEX_BACKENDS:
        raise QueryError(f"unknown index_backend {index_backend!r}")
    if index_path is not None and index_backend != "frozen":
        raise QueryError("index_path requires index_backend='frozen'")


def cost_model_id(costs) -> str:
    """A stable, human-readable identifier for a cost-model configuration.

    Combines the class name with every public *scalar* attribute (epsilon,
    eta, g_del, representation, ...).  Non-scalar state — the underlying
    graph, a custom ERP reference point — is NOT captured, so two models
    differing only in such state collide; a cache keyed on this id must
    therefore be scoped to one engine/cost-model instance (which is how
    :class:`repro.service.QueryService` uses it).  Used as the cost-model
    component of :func:`query_signature`.
    """
    params = [
        f"{key}={value!r}"
        for key, value in sorted(vars(costs).items())
        if not key.startswith("_") and isinstance(value, (bool, int, float, str))
    ]
    return f"{type(costs).__name__}({', '.join(params)})"


def query_signature(
    query: Sequence[int],
    costs,
    *,
    tau: Optional[float] = None,
    tau_ratio: Optional[float] = None,
    time_interval: Optional[TimeInterval] = None,
    temporal_mode: TemporalMode = "overlap",
) -> tuple:
    """A hashable, normalized key identifying one query's *answer*.

    Two invocations with the same signature against the same engine are
    guaranteed the same result set on an unchanged dataset, which is what
    the serving layer's result cache and request coalescing key on (the
    cost-model component only covers scalar configuration — see
    :func:`cost_model_id` — so signatures are comparable within one
    engine/cost-model scope, not across arbitrary models).  The signature
    covers the query
    path, the cost-model configuration, the threshold parameterization
    (``tau`` and ``tau_ratio`` are kept distinct — the ratio resolves
    against the query, not the dataset) and the temporal constraint.  The
    ``temporal_filter`` evaluation strategy (§4.3) is deliberately
    excluded: TF vs no-TF changes timing, never answers.
    """
    if (tau is None) == (tau_ratio is None):
        raise QueryError("exactly one of tau / tau_ratio must be given")
    threshold = (
        ("tau", float(tau)) if tau is not None else ("tau_ratio", float(tau_ratio))
    )
    constraint = (
        None
        if time_interval is None
        else (float(time_interval.start), float(time_interval.end), str(temporal_mode))
    )
    return (
        "q1",
        tuple(int(s) for s in query),
        cost_model_id(costs),
        threshold,
        constraint,
    )


def topk_signature(query: Sequence[int], costs) -> tuple:
    """A hashable key identifying one top-k query's *ranking*.

    Deliberately excludes ``k`` and the tau-expansion parameters
    (``initial_tau_ratio`` / ``growth``): the full per-trajectory ranking
    depends only on the query path and the cost model, so a cached top-k'
    answer at ``k' >= k`` serves ``k`` by truncation — the serving
    layer's reuse rule keys on this signature and compares ``k`` inside
    the cache entry.  The same :func:`cost_model_id` scoping caveat as
    :func:`query_signature` applies.
    """
    return ("topk1", tuple(int(s) for s in query), cost_model_id(costs))


class SubtrajectorySearch:
    """Exact subtrajectory similarity search under any WED cost model.

    Parameters
    ----------
    dataset:
        Trajectories to index; its representation (vertex/edge) must match
        the cost model's.
    costs:
        Any :class:`~repro.distance.costs.CostModel`.  Switching similarity
        functions needs no algorithmic changes — the paper's headline
        property.
    selector:
        tau-subsequence strategy: ``"greedy"`` (Algorithm 1, default),
        ``"exact"`` (brute force), ``"prefix"`` (DISON-style), ``"all"``
        (Torch-style).
    verification:
        ``"trie"`` = bidirectional tries (OSF-BT), ``"local"`` = local
        verification without caching, ``"sw"`` = per-trajectory
        Smith–Waterman oracle (OSF-SW).  The first two run on the walker
        :func:`~repro.core.verification.choose_dp_backend` picks for each
        query (reported as ``QueryResult.dp_backend_used``).
    early_termination:
        Apply the Eq. 11 lower-bound cutoff during local verification,
        and the count bound that skips candidates before any DP column
        (see :mod:`repro.core.verification`).
    sort_by_departure:
        Order postings by trajectory departure time to accelerate
        temporal-constrained queries (§4.3).  ``None`` (default) means
        what the ``index_path`` file says, and ``False`` for an index
        built in memory; an explicit value the file contradicts raises.
    trie_cache_size / trie_cache_bytes:
        Capacity (entries) and byte budget of the engine-level
        :class:`~repro.core.trie.TrieCache`, the one cross-query cache:
        one :class:`~repro.core.trie.TrieCacheEntry` per query, keyed on
        the query-and-model prefix of :func:`query_signature` — the
        query's whole warm state: its substitution rows and, per anchor
        position and direction, the row table and the verification trie.
        Repeated queries (the serving layer's zipf traffic) skip
        substitution-row computation and start verification with every
        previously computed DP column *warm* — either walker runs
        through cached columns in a scalar loop and computes columns only
        at the cold frontier — across tau and time-window variations, and
        needing no invalidation on online inserts (rows depend on the
        query and the model, columns are keyed by data-symbol path, not
        by trajectory, so both are dataset-independent).
        ``verification="local"`` keeps the rows and row tables and
        builds no trie.  Each verification re-accounts the bytes of its
        own entry (rows, row tables and trie arenas) and sheds LRU
        entries past the budget.  ``trie_cache_size=0`` disables
        cross-query reuse of any kind (each query gets a fresh entry,
        the pre-cache behaviour).  Warmth changes which rows and columns
        are *recomputed*, never any emitted float: warm and cold answers
        are bit-identical.
    trie_cache:
        A prebuilt :class:`~repro.core.trie.TrieCache` to use instead of
        constructing one — how
        :class:`~repro.core.partitioned.PartitionedSubtrajectorySearch`
        shares a single cache across its in-process shard engines (safe
        because entries are dataset-independent).  Overrides
        ``trie_cache_size`` / ``trie_cache_bytes``.
    index_backend:
        ``"dict"`` (default) builds the mutable
        :class:`~repro.core.invindex.InvertedIndex` in-process.
        ``"frozen"`` uses the array-packed
        :class:`~repro.core.frozen.FrozenInvertedIndex` as an immutable
        base behind a :class:`~repro.core.frozen.DeltaOverlayIndex` —
        opened from ``index_path`` when given (O(1) mmap; the OS page
        cache shares the file across every process mapping it), else
        frozen from the dataset in memory.  The overlay's mutable front
        is an ``InvertedIndex`` too, so both backends answer queries
        bit-identically and report the same ``index.stats()`` keys.
    index_path:
        Path to a frozen index file built by ``repro index build`` (or
        :meth:`FrozenInvertedIndex.save`).  Requires
        ``index_backend="frozen"``.  The file's header is validated
        against the dataset (representation, trajectory count, and the
        departure-sort flag when ``sort_by_departure`` is given);
        trajectories appended to the dataset after the freeze are
        indexed into the overlay's front at construction, departure
        keys included when the file is sorted.
    index_expected_shard:
        ``(shard_index, num_shards)`` provenance the opened file must
        declare — how
        :class:`~repro.core.partitioned.PartitionedSubtrajectorySearch`
        guards against feeding shard ``k``'s engine a file frozen for a
        different shard or shard count.  ``None`` (default) requires an
        *unsharded* file.
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        costs,
        *,
        selector: Selector = "greedy",
        verification: VerificationMode = "trie",
        early_termination: bool = True,
        sort_by_departure: Optional[bool] = None,
        trie_cache_size: int = DEFAULT_TRIE_CACHE,
        trie_cache_bytes: Optional[int] = DEFAULT_TRIE_CACHE_BYTES,
        trie_cache: Optional[TrieCache] = None,
        index_backend: str = "dict",
        index_path: Optional[str] = None,
        index_expected_shard: Optional[tuple] = None,
    ) -> None:
        if costs.representation != dataset.representation:
            raise QueryError(
                f"cost model works on {costs.representation!r} symbols but the "
                f"dataset uses {dataset.representation!r} representation"
            )
        if selector not in _SELECTORS:
            raise QueryError(f"unknown selector {selector!r}")
        if verification not in ("trie", "local", "sw"):
            raise QueryError(f"unknown verification mode {verification!r}")
        if trie_cache_size < 0:
            raise QueryError("trie_cache_size must be >= 0")
        if trie_cache_bytes is not None and trie_cache_bytes < 0:
            raise QueryError("trie_cache_bytes must be >= 0")
        check_index_options(index_backend, index_path)
        self._dataset = dataset
        self._costs = costs
        self._selector = _SELECTORS[selector]
        self._verification: VerificationMode = verification
        self._early_termination = early_termination
        self._trie_cache = (
            trie_cache
            if trie_cache is not None
            else TrieCache(trie_cache_size, trie_cache_bytes)
        )
        # Memoized: the model is fixed for this engine's lifetime, and
        # cost_model_id walks vars() — not something to redo per query.
        self._model_id = cost_model_id(costs)
        self._update_lock = threading.Lock()
        if index_backend == "dict":
            self.index = InvertedIndex(
                dataset, sort_by_departure=bool(sort_by_departure)
            )
        else:
            self.index = self._build_frozen_index(
                dataset, sort_by_departure, index_path, index_expected_shard
            )

    @staticmethod
    def _build_frozen_index(
        dataset: TrajectoryDataset,
        sort_by_departure: Optional[bool],
        index_path: Optional[str],
        expected_shard: Optional[tuple],
    ) -> DeltaOverlayIndex:
        """Freeze the immutable base in memory — or open it and validate
        its header against the dataset — then put the mutable front on it."""
        if index_path is None:
            base = FrozenInvertedIndex.freeze(
                dataset, sort_by_departure=bool(sort_by_departure)
            )
            return DeltaOverlayIndex(base, dataset)
        base = FrozenInvertedIndex.open(index_path)
        got = base.shard and (int(base.shard["index"]), int(base.shard["of"]))
        want = expected_shard and (int(expected_shard[0]), int(expected_shard[1]))
        problem = None
        if base.representation != dataset.representation:
            problem = (
                f"holds {base.representation!r} symbols but the dataset uses "
                f"{dataset.representation!r} representation"
            )
        elif sort_by_departure not in (None, base.sorted_by_departure):
            problem = (
                f"was built with sort_by_departure={base.sorted_by_departure}; "
                f"the engine asked for {sort_by_departure}"
            )
        elif base.num_trajectories > len(dataset):
            problem = (
                f"covers {base.num_trajectories} trajectories but the dataset "
                f"holds only {len(dataset)}"
            )
        elif got != want:
            problem = (
                f"is shard {got[0]} of {got[1]}; this engine expects an unsharded index"
                if want is None
                else f"declares shard {got}; this engine expects shard {want}"
            )
        if problem is not None:
            raise QueryError(f"frozen index {index_path} {problem}")
        return DeltaOverlayIndex(base, dataset)

    # -- public API --------------------------------------------------------

    @property
    def costs(self):
        """The cost model this engine searches under."""
        return self._costs

    @property
    def dataset(self) -> TrajectoryDataset:
        """The indexed trajectory dataset."""
        return self._dataset

    def status(self) -> EngineStatus:
        """One snapshot of this engine — what ``/healthz``, ``/stats`` and
        ``/metrics`` are projections of.  A bare engine is its own one
        shard, in-process and so always alive."""
        shard = ShardStatus(WorkerState(0), self._trie_cache.stats(), self.index.stats())
        return EngineStatus("single", len(self._dataset), [shard])

    def close(self) -> None:
        """Nothing to release (the partitioned engine's counterpart stops
        threads and workers); here so callers close either engine alike."""

    def __enter__(self) -> "SubtrajectorySearch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def add_trajectory(self, trajectory, *, validate: bool = False) -> int:
        """Append one trajectory to the dataset and index it online (§4.1:
        postings lists grow by appending records).

        Returns the new trajectory id.  Not available on departure-sorted
        indexes, which are built once over a closed dataset.

        Inserts are serialized against each other (safe from concurrent
        server threads).  Concurrent *queries* are safe on both index
        backends, because the append is the same
        :meth:`~repro.core.invindex.InvertedIndex.append_trajectory` on
        both (the frozen backend never touches its mmap'd base): postings
        lists are replaced as immutable tuples and published atomically
        per *trajectory*, so a query racing the insert sees either none
        of the new trajectory's postings or all of them — never a prefix
        that would miss matches anchored on the unpublished rest.
        """
        with self._update_lock:
            if self.index.sorted_by_departure:
                # Fail before the dataset commits: the index would reject
                # the append afterwards, stranding an orphan trajectory.
                raise ValueError("cannot append to a departure-sorted index")
            edges = None
            if self._dataset.representation == "edge":
                # Force the edge conversion *before* mutating anything: on a
                # non-walk it raises here, where no rollback is needed,
                # instead of inside index.append_trajectory after the
                # dataset has already committed the trajectory.
                edges = tuple(trajectory.edge_representation(self._dataset.graph))
            tid = self._dataset.add(trajectory, validate=validate)
            if edges is not None:
                # Seed the lazy symbol cache so the conversion runs once.
                self._dataset.prime_edge_cache(tid, edges)
            self.index.append_trajectory(tid)
            return tid

    def query(
        self,
        query: Sequence[int],
        *,
        tau: Optional[float] = None,
        tau_ratio: Optional[float] = None,
        time_interval: Optional[TimeInterval] = None,
        temporal_filter: bool = True,
        temporal_mode: TemporalMode = "overlap",
        cancel=None,
        trace=None,
        allow_partial: bool = False,
    ) -> QueryResult:
        """All subtrajectories within WED ``tau`` of ``query``
        (Definition 3: strict inequality).

        Exactly one of ``tau`` / ``tau_ratio`` must be given; ``tau_ratio``
        uses the paper's parameterization ``tau = ratio * sum c(q)``.

        ``cancel`` is an optional cooperative cancellation token (see
        :mod:`repro.core.cancellation`): it is polled at stage boundaries
        and inside the verification loops, and a tripped token raises
        :class:`~repro.exceptions.QueryCancelledError` instead of wasting
        CPU on an answer nobody is waiting for.

        ``trace`` is an optional parent :class:`~repro.obs.tracing.Span`:
        the engine attaches one child span per stage (mincand / lookup /
        verify), replayed from the stage clocks it measures anyway — zero
        extra timing calls — and annotated with the stage counters
        (candidates, DP columns/rounds/backend, trie-cache status).

        ``allow_partial`` is accepted for signature parity with the
        partitioned engine and is inert: one engine has no shard to lose.
        """
        tau = self._resolve_tau(query, tau, tau_ratio)
        if tau <= 0:
            if trace is not None:
                trace.set("tau", float(tau))
                trace.set("degenerate", "tau<=0")
            return QueryResult([], tau, [], 0, 0.0, 0.0, 0.0, VerificationStats())
        self._check_assumption(query, tau)
        raise_if_cancelled(cancel, "query")

        # Stage 1: MinCand — choose the tau-subsequence.  B(q) and c(q)
        # come from the query's warm entry, which verification walks too.
        t0 = time.perf_counter()
        trie_entry, trie_status = None, ""
        if self._verification != "sw":
            trie_entry, trie_status = self._warm_state(query)
        try:
            neighborhoods = None
            if trie_entry is not None:
                with trie_entry.lock:
                    neighborhoods = trie_entry.neighborhoods()
            profile = query_profile(query, self._costs, self.index, neighborhoods)
            try:
                subsequence = self._selector(profile, tau)
            except QueryError:
                # No tau-subsequence exists (c(Q) < tau, possible for
                # continuous costs with tiny eta — §3.1): scan the dataset.
                return self._scan_fallback(
                    query, tau, t0, time_interval, temporal_mode, cancel, trace
                )
            t1 = time.perf_counter()

            # Stage 2: index lookup — gather candidates.  Sorted-postings
            # pruning is part of the TF strategy (§4.3), so the no-TF
            # ablation must not benefit from it.
            raise_if_cancelled(cancel, "query")
            candidates = self._collect_candidates(
                subsequence, time_interval if temporal_filter else None
            )
            if time_interval is not None and temporal_filter:
                candidates = filter_candidates(
                    self._dataset, candidates, time_interval
                )
            t2 = time.perf_counter()

            # Stage 3: verification.
            matches = MatchSet()
            stats = VerificationStats()
            backend_used = ""
            allocations = 0
            dp_rounds = 0
            if trie_entry is None:
                stats = self._verify_sw(candidates, query, tau, matches, cancel)
            else:
                backend_used = choose_dp_backend(len(query), self._costs)
                verifier = Verifier(
                    self._dataset.symbols_array,
                    query,
                    self._costs,
                    tau,
                    use_trie=self._verification == "trie",
                    early_termination=self._early_termination,
                    dp_backend=backend_used,
                    trie_entry=trie_entry,
                    cancel=cancel,
                )
                verifier.verify_all(candidates, matches)
                stats = verifier.stats
                allocations = verifier.dp_array_allocations
                dp_rounds = verifier.dp_rounds
        finally:
            # The entry gained neighborhoods, rows, row tables and arenas
            # on every exit (a scan fallback, a cancellation, an error
            # included): re-account its bytes and shed LRU entries past
            # the byte budget.
            if trie_entry is not None:
                self._trie_cache.reconcile(trie_entry)
        t3 = time.perf_counter()

        result = matches.to_list()
        if time_interval is not None:
            result = [
                m
                for m in result
                if match_satisfies(self._dataset, m, time_interval, temporal_mode)
            ]
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "query |Q|=%d tau=%.4g: |Q'|=%d, %d candidates, %d matches "
                "(mincand %.2fms, lookup %.2fms, verify %.2fms)",
                len(query),
                tau,
                len(subsequence),
                len(candidates),
                len(result),
                (t1 - t0) * 1e3,
                (t2 - t1) * 1e3,
                (t3 - t2) * 1e3,
            )
        if trace is not None:
            # Stage spans replayed from the clocks above — the trace adds
            # record-keeping, never a fourth perf_counter read pair.
            trace.set("tau", float(tau))
            trace.set("query_length", len(query))
            trace.set("matches", len(result))
            trace.add("mincand", t0, t1, subsequence=len(subsequence))
            trace.add("lookup", t1, t2, candidates=len(candidates))
            trace.add(
                "verify",
                t2,
                t3,
                candidates=stats.candidates,
                visited_columns=stats.visited_columns,
                computed_columns=stats.computed_columns,
                emitted=stats.emitted,
                bound_pruned=stats.bound_pruned,
                dp_backend=backend_used or self._verification,
                dp_rounds=dp_rounds,
                dp_array_allocations=allocations,
                trie_cache=trie_status or "n/a",
            )
        return QueryResult(
            matches=result,
            tau=tau,
            subsequence=subsequence,
            num_candidates=len(candidates),
            mincand_seconds=t1 - t0,
            lookup_seconds=t2 - t1,
            verify_seconds=t3 - t2,
            verification=stats,
            dp_backend_used=backend_used,
            dp_array_allocations=allocations,
            trie_cache_status=trie_status,
            dp_rounds=dp_rounds,
        )

    def topk(
        self,
        query: Sequence[int],
        k: int,
        *,
        initial_tau_ratio: float = 0.05,
        growth: float = 2.0,
        cancel=None,
        trace=None,
    ):
        """The ``k`` most similar subtrajectories, one per trajectory —
        :func:`repro.core.topk.topk_search` run against this engine (see
        there for the threshold-doubling scheme and the result type)."""
        from repro.core.topk import topk_search  # circular at import time

        return topk_search(
            self,
            query,
            k,
            initial_tau_ratio=initial_tau_ratio,
            growth=growth,
            cancel=cancel,
            trace=trace,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubtrajectorySearch({len(self._dataset)} trajectories, "
            f"costs={type(self._costs).__name__}, "
            f"verification={self._verification!r})"
        )

    def candidates(
        self, query: Sequence[int], *, tau: Optional[float] = None,
        tau_ratio: Optional[float] = None,
    ) -> List[Candidate]:
        """The candidate set alone (filter-power experiments, Fig. 11)."""
        tau = self._resolve_tau(query, tau, tau_ratio)
        profile = query_profile(query, self._costs, self.index)
        subsequence = self._selector(profile, tau)
        return self._collect_candidates(subsequence, None)

    # -- internals ------------------------------------------------------------

    def _warm_state(self, query: Sequence[int]):
        """This query's ``(TrieCacheEntry, lookup status)`` — one lookup
        in the cross-query TrieCache, for every trie or local
        verification on either walker; with the cache ``"off"``, a fresh
        entry that lives for this query only.

        Looked up before MinCand: the entry's
        :class:`~repro.core.filtering.QueryNeighborhoods` feed both the
        query profile and the verifier's count bound, so a query that
        ends in the scan fallback (no tau-subsequence) keeps one too: its
        repeat's MinCand reads them warm.  On a ``"hit"`` the
        neighborhoods, the substitution rows, the per-direction row
        tables and the tries are all reused — the row-computation stage
        of verification disappears for repeated queries and the walk
        starts warm, whichever walker built the tries.  Rows are
        computed on first touch only, so a query whose temporal filter
        dropped candidates never pays for their anchors' rows.  Concurrent missers of one key get one entry.

        The key is the query-and-cost-model *prefix* of
        :func:`query_signature`: rows and columns depend on neither the
        threshold nor the temporal constraint (only where the
        early-termination *frontier* lies — never a float), so requests
        varying tau or the time window share one entry — and they depend
        on nothing in the dataset, so entries stay valid across online
        inserts too.
        """
        key = tuple(int(s) for s in query)
        return self._trie_cache.lookup(
            (key, self._model_id), lambda: TrieCacheEntry(self._costs, key)
        )

    def _resolve_tau(
        self,
        query: Sequence[int],
        tau: Optional[float],
        tau_ratio: Optional[float],
    ) -> float:
        if len(query) == 0:
            raise QueryError("empty query")
        check_alphabet(query, self._costs)
        if (tau is None) == (tau_ratio is None):
            raise QueryError("exactly one of tau / tau_ratio must be given")
        if tau_ratio is not None:
            return tau_from_ratio(query, self._costs, tau_ratio)
        if not math.isfinite(tau):
            # NaN passes every ``tau <= 0`` / ``total < tau`` guard below
            # and would come back as an empty answer.
            raise QueryError(f"tau must be a finite number, got {tau}")
        return tau

    def _check_assumption(self, query: Sequence[int], tau: float) -> None:
        # §2.3: sum of insertion costs must reach tau, otherwise the empty
        # subtrajectory "matches" and the problem is degenerate.
        total_ins = sum(self._costs.ins(q) for q in query)
        if total_ins < tau:
            raise QueryError(
                f"degenerate query: sum of insertion costs {total_ins:.6g} < "
                f"tau={tau:.6g} (the empty string would match)"
            )

    def _collect_candidates(
        self,
        subsequence: Sequence[QueryElement],
        interval: Optional[TimeInterval],
    ) -> List[Candidate]:
        out: List[Candidate] = []
        index = self.index
        use_sorted = interval is not None and index.sorted_by_departure
        for element in subsequence:
            iq = element.position
            for b in element.neighborhood:
                postings = (
                    index.postings_departing_before(b, interval.end)  # type: ignore[union-attr]
                    if use_sorted
                    else index.postings(b)
                )
                for tid, j in postings:
                    out.append((tid, j, iq))
        return out

    def _verify_sw(
        self,
        candidates: Sequence[Candidate],
        query: Sequence[int],
        tau: float,
        matches: MatchSet,
        cancel=None,
    ) -> VerificationStats:
        """OSF-SW: run the Smith–Waterman oracle once per candidate
        trajectory (finds the same matches, without locality or caching)."""
        stats = VerificationStats()
        seen: set = set()
        for tid, _, _ in candidates:
            if tid in seen:
                continue
            raise_if_cancelled(cancel, "verification")
            seen.add(tid)
            data = self._dataset.symbols(tid)
            stats.candidates += 1
            stats.sw_columns += len(data)
            stats.visited_columns += len(data)
            stats.computed_columns += len(data)
            for s, t, d in all_matches(data, query, self._costs, tau):
                matches.add(tid, s, t, d)
                stats.emitted += 1
        return stats

    def _scan_fallback(
        self,
        query: Sequence[int],
        tau: float,
        t0: float,
        interval: Optional[TimeInterval],
        temporal_mode: TemporalMode,
        cancel=None,
        trace=None,
    ) -> QueryResult:
        """Exact full scan used when no tau-subsequence exists."""
        t1 = time.perf_counter()
        matches = MatchSet()
        stats = VerificationStats()
        for tid in range(len(self._dataset)):
            raise_if_cancelled(cancel, "scan fallback")
            data = self._dataset.symbols(tid)
            stats.candidates += 1
            stats.sw_columns += len(data)
            for s, t, d in all_matches(data, query, self._costs, tau):
                matches.add(tid, s, t, d)
                stats.emitted += 1
        t2 = time.perf_counter()
        result = matches.to_list()
        if interval is not None:
            result = [
                m
                for m in result
                if match_satisfies(self._dataset, m, interval, temporal_mode)
            ]
        if trace is not None:
            trace.set("tau", float(tau))
            trace.set("matches", len(result))
            trace.set("fallback", "scan")
            trace.add("mincand", t0, t1)
            trace.add(
                "scan", t1, t2, candidates=stats.candidates, emitted=stats.emitted
            )
        return QueryResult(
            matches=result,
            tau=tau,
            subsequence=[],
            num_candidates=len(self._dataset),
            mincand_seconds=t1 - t0,
            lookup_seconds=0.0,
            verify_seconds=t2 - t1,
            verification=stats,
            used_fallback=True,
        )
