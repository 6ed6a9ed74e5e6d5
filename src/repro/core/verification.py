"""Candidate verification (§5, Algorithms 3–6).

Given a candidate ``(id, j, iq)`` — trajectory ``id`` contains, at position
``j``, a substitution neighbor of the query symbol at position ``iq`` — we
must report every subtrajectory ``P[s..t]`` with ``s <= j <= t`` and
``wed(P[s..t], Q) < tau``.  Lemma 1 licenses the decomposition

    wed(P[s..t], Q) = wed(P[s..j-1], Q[0..iq-1])   (backward part)
                    + sub(P[j], Q[iq])             (anchor)
                    + wed(P[j+1..t], Q[iq+1..])    (forward part)

for at least one candidate of every true match, so verifying all candidates
bidirectionally finds all matches; for the remaining candidates the sum is
an upper bound on the true WED, hence no false positives either.

Contract: Lemma 1 presupposes that the candidates come from a valid
tau-subsequence (``c(Q') >= tau``).  Only then is the minimum decomposition
over anchors *equal* to the true WED for every match; with an arbitrary
candidate set the reported distances are sound upper bounds.  The engine
never verifies outside this contract — when no tau-subsequence exists it
falls back to an exact scan.

Three optimizations, individually switchable for ablation:

- *local verification*: DP runs outward from ``j`` only while the running
  prefix lower bound (Eq. 11 — the column minimum) stays below the budget;
- *bidirectional tries*: DP columns are cached per (direction, ``iq``)
  across candidates sharing data prefixes (§5.2);
- the anchor tightens the budget to ``tau' = tau - sub(Q[iq], P[j])``.

One seam — :class:`Verifier` — with exactly two AllPrefixWED
implementations behind it, both evaluating the repo-wide prefix-min
insert chain (see :mod:`repro.distance.wed`) so their floats are
bit-identical:

- ``dp_backend="numpy"`` is the **arena walker**: candidates are deduped
  and grouped by anchor position ``iq``, and each group's states advance
  together over one *slot-native* trie per direction
  (:class:`~repro.core.trie.VerificationTrie`: columns as rows of one
  growable matrix, structure in one ``(parent_slot, symbol) ->
  child_slot`` dict, the per-column min / last as plain floats).  Rounds
  alternate a *walk* — every live state runs through cached columns to
  its first miss in a scalar loop; on a *warm* trie (served across
  queries by the engine's :class:`~repro.core.trie.TrieCache`) that is
  the entire verification, a fully cached query never launches a DP
  kernel — and a *resolve*: states park per ``(slot, symbol)`` miss
  (rendezvous-deduplicated) and the round's distinct misses become one
  :func:`step_dp_batch` call writing straight into freshly reserved
  arena rows.  A state that was the *sole* waiter on its miss has
  provably diverged from every other state and advances as a
  slot-indexed **virgin chain** — no rendezvous, no walker round-trip —
  batched into the same kernel calls.  Everything else is a
  configuration of this walker: :meth:`Verifier.verify_candidate` is a
  group of one, and ``use_trie=False`` runs it on a private per-call
  arena that seeds every state as a virgin chain and publishes no edges,
  so every visit recomputes its column and the arena dies with the call.
- ``dp_backend="python"`` is the **per-cell Python walker**: one
  candidate at a time over a :class:`~repro.core.trie.TrieNode` graph,
  one pure-Python loop iteration per DP cell.  It is the reference the
  parity suites hold the arena walker to *and* the faster path for short
  queries over cheap substitution rows
  (``benchmarks/bench_verification_hotpath.py`` tracks the gap both
  ways).

The engine runs every query on the walker :func:`choose_dp_backend`
picks: the Python walker for short queries over models with vectorizable
(hence cheap) substitution rows — the one regime where kernel-launch
overhead loses to plain Python — and the arena walker everywhere else.
Safe precisely because the two are bit-identical.

Batching, virgin routing, and cross-query trie warmth all preserve the
sequential semantics exactly: which columns get computed *by this query*,
every column's floats, each candidate's early-termination point, and the
UPR/CMR counters are order- and schedule-independent — the two walkers,
groups of many vs. groups of one, and cold vs. warm caches agree on
results bit for bit (warm caches lower ``computed_columns`` and
nothing else: a cached column has the same floats it would be recomputed
with).

Shared tries (the cross-query cache, and shard engines sharing one cache)
are walked by concurrent server threads: readers are lock-free, and each
round of misses is resolved under the trie's writer lock with
publish-after-write ordering (see :mod:`repro.core.trie`), re-checking
parked misses against edges another thread may have published meanwhile —
so concurrent walks never tear a column and at worst recount a column one
thread computed as the other thread's cache hit.

The :class:`VerificationStats` counters implement the §6.4 metrics: UPR
(columns surviving early termination vs. a full Smith–Waterman pass) and
CMR (columns actually computed vs. columns visited).  They are
walker-identical by design; the ndarray-materialization count, which is
*not* (the Python walker allocates none), is reported separately via
:attr:`Verifier.dp_array_allocations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cancellation import raise_if_cancelled
from repro.core.results import MatchSet
from repro.core.trie import TrieCacheEntry, TrieNode, VerificationTrie
from repro.distance.costs import CostModel, SubstitutionMatrix
from repro.exceptions import QueryError

__all__ = [
    "AUTO_PYTHON_MAX_QUERY",
    "Candidate",
    "VerificationStats",
    "Verifier",
    "choose_dp_backend",
    "step_dp_batch",
]

#: longest query the auto backend still routes to the Python walker (only
#: on cost models with vectorizable rows).  The committed evidence is
#: ``BENCH_verification.json``: its EDR |Q|=10 cells have ``verify_speedup``
#: below 1 (Python wins cold), its |Q|=50 cells well above.
AUTO_PYTHON_MAX_QUERY = 15


def choose_dp_backend(query_length: int, costs: CostModel) -> str:
    """The walker one query runs on: the engine's only selection rule.

    Picks ``"python"`` for short queries (``<= AUTO_PYTHON_MAX_QUERY``)
    over models whose substitution rows are vectorizable — i.e. cheap —
    so the arena walker's per-round kernel launches cannot amortize; the
    EDR |Q|=10 cells of ``BENCH_verification.json`` (``verify_speedup`` <
    1, ``auto_backend`` "python") are the committed measurement.
    Everything else (long queries, or expensive rows that the arena
    walker computes once per symbol instead of once per column — the
    NetEDR cells) goes to ``"numpy"``.  Both walkers are bit-identical,
    so the choice changes throughput, never answers.
    """
    if query_length <= AUTO_PYTHON_MAX_QUERY and costs.vectorized_rows():
        return "python"
    return "numpy"


def step_dp_batch(
    sub_rows: np.ndarray,
    delete_costs: np.ndarray,
    ins_prefix: np.ndarray,
    prev_columns: np.ndarray,
    out: Optional[np.ndarray] = None,
    work: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Vectorized StepDP (Algorithm 6) over ``L`` independent columns, in
    the prefix-min convention.

    ``prev_columns`` is ``(L, n+1)``, ``sub_rows`` ``(L, n)``,
    ``delete_costs`` ``(L,)``; returns the ``(L, n+1)`` next columns.  Per
    row, ``C[j] = min(prev[j-1] + sub[j-1], prev[j] + del)`` (``C[0] =
    prev[0] + del``) vectorizes directly; the insert chain is evaluated
    as ``B[j] = min(C[j], P[j] + min over i < j of (C[i] - P[i]))`` with
    one ``minimum.accumulate`` pass — the exact evaluation order every DP
    step in this repo uses (see :mod:`repro.distance.wed`), so the result
    is *bit-identical* to the Python walker's ``_step_dp``, not merely
    close: the strict ``< tau`` match semantics see the same floats
    everywhere, and batching (``L = 1`` included) changes throughput,
    never values.

    Inputs may be non-contiguous views and are never mutated.  ``out``,
    when given, receives the columns — the arena walker passes a
    contiguous range of freshly reserved trie rows, so a whole round of
    cache misses is computed without allocating a single column array —
    and ``work`` (an ``(L, n)`` and an ``(L, n+1)`` scratch buffer,
    contiguous, aliasing nothing) absorbs the kernel's intermediate
    results, making the whole call buffer-allocation-free.  Neither
    changes the operation sequence, hence no float.
    """
    if out is None:
        c = prev_columns + delete_costs[:, None]
    else:
        c = np.add(prev_columns, delete_costs[:, None], out=out)
    if work is None:
        np.minimum(c[:, 1:], prev_columns[:, :-1] + sub_rows, out=c[:, 1:])
        d = c - ins_prefix
        np.minimum.accumulate(d, axis=1, out=d)
        np.minimum(c[:, 1:], ins_prefix[1:] + d[:, :-1], out=c[:, 1:])
        return c
    work_sums, work_d = work
    sums = np.add(prev_columns[:, :-1], sub_rows, out=work_sums)
    np.minimum(c[:, 1:], sums, out=c[:, 1:])
    d = np.subtract(c, ins_prefix, out=work_d)
    np.minimum.accumulate(d, axis=1, out=d)
    # work_sums' first use is fully consumed by the minimum above, so it
    # is free to hold the insert-chain sums; the operation sequence
    # (hence every float) is identical to the allocating branch.
    chain = np.add(ins_prefix[1:], d[:, :-1], out=work_sums)
    np.minimum(c[:, 1:], chain, out=c[:, 1:])
    return c


Candidate = Tuple[int, int, int]  # (trajectory id, position j, query position iq)

#: symbols materialized per tolist() chunk by the arena walker — small
#: enough that an immediately-terminated candidate on a long trajectory
#: wastes almost nothing, large enough to amortize the slice machinery.
_SYMBOL_CHUNK = 64

#: ndarray buffers one batched StepDP resolution materializes per round:
#: the index arrays behind the parent-row and substitution-row/delete
#: gathers (np.take converts the slot lists).  Counted (not avoided)
#: because they are per *round*, not per column; the kernel itself runs
#: buffer-allocation-free via the context's work/mins scratch.
_GROUP_TEMP_ARRAYS = 3


@dataclass(slots=True)
class VerificationStats:
    """Counters backing the UPR / CMR / TUR metrics of §6.4."""

    candidates: int = 0
    #: columns a full SW pass would compute: |P| per candidate (denominator of UPR)
    sw_columns: int = 0
    #: columns visited before early termination fired (numerator of UPR)
    visited_columns: int = 0
    #: columns actually computed by StepDP, i.e. trie cache misses
    computed_columns: int = 0
    #: matches emitted (pre-deduplication)
    emitted: int = 0
    #: exact (id, j, iq) repeats dropped by ``verify_all`` before verification
    duplicate_candidates: int = 0

    @property
    def unpruned_position_rate(self) -> float:
        """UPR: fraction of SW's DP columns that local verification visits."""
        return self.visited_columns / self.sw_columns if self.sw_columns else 0.0

    @property
    def cache_miss_rate(self) -> float:
        """CMR: fraction of visited columns that needed a StepDP call."""
        return (
            self.computed_columns / self.visited_columns
            if self.visited_columns
            else 0.0
        )

    @property
    def total_unpruned_rate(self) -> float:
        """TUR = UPR x CMR: StepDP calls relative to a full SW pass."""
        return self.computed_columns / self.sw_columns if self.sw_columns else 0.0


class _DirectionContext:
    """The arena walker's per-direction query data, shared by all
    candidates with the same anchor position ``iq``.

    ``ins_prefix`` is the cumulative insertion-cost prefix of the query
    part — the trie's root column and the ``P`` of the prefix-min DP
    convention (summed left-to-right like the Python walker's list, so
    both hold the same floats; a *warm* trie served by the engine's
    TrieCache holds the bit-identical root column because the
    computation is deterministic).  ``rows`` is the matrix-owned
    :class:`~repro.distance.costs.DirectionRows` cache mapping a data
    symbol to this direction's contiguous substitution-row slice and its
    deletion cost; because it lives inside the SubstitutionMatrix, which
    the engine keeps in the query's TrieCache entry, repeated queries
    reuse the copies across verifier instances.  ``row_slice`` maps a
    *full-query* row to this direction's part: ``slice(iq+1, None)``
    forward, ``slice(iq-1, None, -1)`` backward (the reversed prefix —
    WED is invariant under simultaneous reversal because costs are
    position-independent).

    The context is per-verifier (it owns the walker's scratch buffers —
    parent columns, substitution rows, deletion costs — grown
    geometrically and reused round after round); only the *trie* and
    ``rows`` may be shared: with a :class:`~repro.core.trie.
    TrieCacheEntry` the direction's trie comes warm from the same
    cross-query cache entry the matrix came from, otherwise a fresh one
    is built.  ``use_trie=False`` (the ablation) keeps no trie here at
    all — the walker builds a private arena per call, since nothing is
    cached.
    """

    __slots__ = (
        "ins_prefix",
        "row_slice",
        "rows",
        "trie",
        "width",
        "scratch_allocations",
        "trie_growth",
        "_parents",
        "_subs",
        "_dels",
        "_work_a",
        "_work_b",
        "_mins",
    )

    def __init__(
        self,
        iq: int,
        direction: str,
        ins_vec: np.ndarray,
        matrix: SubstitutionMatrix,
        *,
        use_trie: bool,
        entry: Optional[TrieCacheEntry],
    ) -> None:
        if direction == "b":
            self.row_slice = slice(iq - 1, None, -1) if iq > 0 else slice(0, 0)
        else:
            self.row_slice = slice(iq + 1, None)
        ins_part = ins_vec[self.row_slice]
        self.width = len(ins_part) + 1
        prefix = np.empty(self.width, dtype=np.float64)
        prefix[0] = 0.0
        np.cumsum(ins_part, out=prefix[1:])
        self.ins_prefix = prefix
        self.rows = matrix.direction_rows((iq, direction), self.row_slice)
        self.scratch_allocations = 1  # the prefix itself
        #: arena ndarray (re)allocations THIS context performed — trie
        #: creation plus reserve-driven growth inside our own locked
        #: rounds.  Accumulated locally rather than read off the (maybe
        #: shared) trie, so concurrent verifiers growing the same warm
        #: trie never double-count each other's work.
        self.trie_growth = 0
        self._parents: Optional[np.ndarray] = None
        self._subs: Optional[np.ndarray] = None
        self._dels: Optional[np.ndarray] = None
        self._work_a: Optional[np.ndarray] = None
        self._work_b: Optional[np.ndarray] = None
        self._mins: Optional[np.ndarray] = None
        self.trie: Optional[VerificationTrie] = None
        if use_trie and entry is None:
            self.trie = self.new_trie()
        elif use_trie:
            self.trie = entry.trie((iq, direction), self.new_trie)

    def new_trie(self) -> VerificationTrie:
        """A fresh arena rooted at this direction's insertion prefix,
        charged to this context.  As a :meth:`TrieCacheEntry.trie
        <repro.core.trie.TrieCacheEntry.trie>` factory it runs at most
        once per entry — concurrent first-touchers converge on one
        instance — so creation is charged to the creating query only."""
        trie = VerificationTrie(self.ins_prefix)
        self.trie_growth += trie.allocations
        return trie

    def scratch(
        self, count: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Reusable batch buffers, first ``count`` rows each (grown
        geometrically, never shrunk): parent columns, substitution rows,
        deletion costs, the two kernel work buffers, and the per-column
        minimum vector."""
        parents = self._parents
        if parents is None or parents.shape[0] < count:
            capacity = 16 if parents is None else parents.shape[0]
            while capacity < count:
                capacity *= 2
            self._parents = parents = np.empty(
                (capacity, self.width), dtype=np.float64
            )
            self._subs = np.empty((capacity, self.width - 1), dtype=np.float64)
            self._dels = np.empty(capacity, dtype=np.float64)
            self._work_a = np.empty((capacity, self.width - 1), dtype=np.float64)
            self._work_b = np.empty((capacity, self.width), dtype=np.float64)
            self._mins = np.empty(capacity, dtype=np.float64)
            self.scratch_allocations += 6
        return (
            parents[:count],
            self._subs[:count],
            self._dels[:count],
            self._work_a[:count],
            self._work_b[:count],
            self._mins[:count],
        )

    @property
    def arena_allocations(self) -> int:
        """Arena + scratch ndarray allocations this context has made (a
        warm shared trie's pre-existing allocations — and any growth a
        *concurrent* verifier performs on it — are excluded)."""
        return self.scratch_allocations + self.trie_growth


class Verifier:
    """Verifies candidates for one query, accumulating matches and stats.

    Parameters
    ----------
    symbols_of:
        Callable mapping a trajectory id to its symbol string (the dataset's
        ``symbols`` method).
    query / costs / tau:
        The query string, cost model, and similarity threshold.
    use_trie:
        Cache DP columns in bidirectional tries (§5.2).  Disabling recomputes
        every column (OSF-BT -> OSF with plain local verification).
    early_termination:
        Stop extending a direction once the column minimum reaches the
        budget (§5.1).  Disabling scans to the trajectory ends.
    dp_backend:
        ``"auto"`` (resolved per query via :func:`choose_dp_backend`),
        ``"numpy"`` — the arena walker: anchor-grouped batch verification
        over slot-native tries and the array-native column kernel; or
        ``"python"`` — the per-cell Python walker.  Results are
        bit-identical.
    symbols_array_of:
        Callable mapping a trajectory id to its ``np.int32`` symbol array
        (the dataset's ``symbols_array``).  Used by the arena walker only;
        when omitted, arrays are converted from ``symbols_of`` and memoized
        per verifier.
    anchors:
        Symbols that can appear at candidate anchor positions (the union of
        the tau-subsequence's substitution neighborhoods).  Their
        substitution rows are precomputed densely when this verifier builds
        its own :class:`~repro.distance.costs.SubstitutionMatrix`; ignored
        when ``matrix`` is supplied.
    matrix:
        A prebuilt :class:`~repro.distance.costs.SubstitutionMatrix` for
        this exact query — the engine passes the one its TrieCache entry
        holds so repeated queries skip substitution-row computation
        entirely.  Must have been built for the same query string.
    trie_entry:
        A :class:`~repro.core.trie.TrieCacheEntry` holding this query's
        shared direction tries — the engine passes the entry ``matrix``
        came from so repeated queries (tau and time-window variations
        included) start verification with warm columns.  Arena walker with
        ``use_trie=True`` only; the tries may be walked by concurrent
        verifiers (see the module docstring's concurrency notes).
    cancel:
        Optional cooperative cancellation token (anything with a
        ``cancelled() -> bool`` method, e.g.
        :class:`~repro.core.cancellation.CancelToken`).  Polled between
        anchor groups, and inside a group once per candidate (Python
        walker) or per walk round (arena walker), so expired work stops
        within one verification-loop iteration instead of running to
        completion.
    """

    def __init__(
        self,
        symbols_of,
        query: Sequence[int],
        costs: CostModel,
        tau: float,
        *,
        use_trie: bool = True,
        early_termination: bool = True,
        dp_backend: str = "auto",
        symbols_array_of=None,
        anchors: Optional[Sequence[int]] = None,
        matrix: Optional[SubstitutionMatrix] = None,
        trie_entry: Optional[TrieCacheEntry] = None,
        cancel=None,
    ) -> None:
        if dp_backend not in ("python", "numpy", "auto"):
            raise QueryError(f"unknown dp_backend {dp_backend!r}")
        if dp_backend == "auto":
            dp_backend = choose_dp_backend(len(query), costs)
        self._symbols_of = symbols_of
        self._query = tuple(query)
        self._costs = costs
        self._tau = tau
        self._use_trie = use_trie
        self._early_termination = early_termination
        self._cancel = cancel
        self._numpy = dp_backend == "numpy"
        self.dp_backend = dp_backend
        self._matrix: Optional[SubstitutionMatrix] = None
        self._ins_vec: Optional[np.ndarray] = None
        self._trie_entry = trie_entry if use_trie else None
        #: ndarrays materialized on the verification path (arena/scratch
        #: growths plus per-round kernel temporaries) — deliberately NOT a
        #: VerificationStats field, because the Python walker allocates
        #: none and the stats are pinned walker-identical.
        self._allocs = 0
        #: DP kernel launches (one per resolve round) — the "how many
        #: times did we enter numpy" trace attribute.  Like ``_allocs``,
        #: kept out of VerificationStats: the Python walker launches no
        #: kernels.
        self._dp_rounds = 0
        if self._numpy:
            if matrix is not None:
                if matrix.query != self._query:
                    raise QueryError(
                        "substitution matrix was built for a different query"
                    )
                self._matrix = matrix
            else:
                self._matrix = costs.sub_matrix(self._query, anchors=anchors)
                self._allocs += 1 + (1 if anchors else 0)
            self._ins_vec = costs.ins_vector(self._query)
            self._allocs += 1
            if symbols_array_of is None:
                symbols_array_of = self._converting_array_accessor()
        self._symbols_array_of = symbols_array_of
        # Per (query position, direction), built lazily since only
        # tau-subsequence positions are anchors (2|Q'| tries, §5.2): the
        # arena walker's contexts, and the Python walker's
        # (query part, trie root) pairs.
        self._contexts: Dict[Tuple[int, str], _DirectionContext] = {}
        self._roots: Dict[Tuple[int, str], Tuple[Tuple[int, ...], TrieNode]] = {}
        self.stats = VerificationStats()

    def _converting_array_accessor(self):
        """Fallback ``symbols_array_of``: convert + memoize per verifier."""
        cache: Dict[int, np.ndarray] = {}
        symbols_of = self._symbols_of

        def accessor(tid: int) -> np.ndarray:
            arr = cache.get(tid)
            if arr is None:
                arr = np.asarray(symbols_of(tid), dtype=np.int32)
                cache[tid] = arr
            return arr

        return accessor

    @property
    def dp_array_allocations(self) -> int:
        """ndarrays materialized verifying so far: per-query setup, arena
        and scratch (re)allocations, and per-round kernel temporaries.

        A one-ndarray-per-column layout would allocate at least one more
        per *computed column* on top of the same per-round temporaries,
        so the benchmark's allocation-reduction metric compares
        ``computed_columns + dp_array_allocations`` (that cost) against
        ``dp_array_allocations`` (this one).  With a warm shared trie
        only this query's growth is counted, not the cached history."""
        total = self._allocs
        for ctx in self._contexts.values():
            total += ctx.arena_allocations
        return total

    @property
    def dp_rounds(self) -> int:
        """DP kernel launches so far: one per resolve round.  A
        fully-warm rewalk launches zero; the engine copies the count into
        ``QueryResult.dp_rounds`` as a trace attribute.  Kept out of
        :class:`VerificationStats` (walker-identical by contract): the
        Python walker launches no kernels."""
        return self._dp_rounds

    # -- Algorithm 3: drive all candidates ---------------------------------

    def verify_all(self, candidates: Sequence[Candidate], matches: MatchSet) -> None:
        """Algorithm 3: verify every candidate into ``matches``.

        Exact ``(id, j, iq)`` repeats (possible when repeated query symbols
        or an external caller supply overlapping candidate sets) are
        verified once and counted in ``stats.duplicate_candidates``; the
        survivors are ordered by anchor position ``iq``, then trajectory,
        and verified one ``iq`` group at a time, so the candidates of a
        group share direction tries and symbol arrays.  Neither
        transformation changes the result set or the column counters —
        trie cache contents and per-candidate visit counts are
        order-independent.

        Polls the cancellation token between groups (and
        :meth:`_verify_group` polls inside them), so a cancelled or
        deadline-expired query raises
        :class:`~repro.exceptions.QueryCancelledError` within one loop
        iteration instead of verifying the remaining candidates.
        """
        seen = set()
        unique: List[Candidate] = []
        for cand in candidates:
            if cand in seen:
                self.stats.duplicate_candidates += 1
            else:
                seen.add(cand)
                unique.append(cand)
        unique.sort(key=lambda c: (c[2], c[0], c[1]))
        total = len(unique)
        start = 0
        while start < total:
            raise_if_cancelled(self._cancel, "verification")
            iq = unique[start][2]
            end = start
            while end < total and unique[end][2] == iq:
                end += 1
            self._verify_group(iq, unique[start:end], matches)
            start = end

    # -- Algorithm 4 --------------------------------------------------------

    def verify_candidate(self, candidate: Candidate, matches: MatchSet) -> None:
        """Emit every match of Definition 3 anchored at this candidate —
        a group of one."""
        self._verify_group(candidate[2], [candidate], matches)

    def _verify_group(
        self, iq: int, group: Sequence[Candidate], matches: MatchSet
    ) -> None:
        """Algorithm 4 for the candidates sharing anchor position ``iq``
        — and the one dispatch between the two walkers: the arena walker
        advances the whole group together, once per direction; the Python
        walker takes the candidates one at a time (polling the
        cancellation token between them)."""
        stats = self.stats
        tau = self._tau
        if self._numpy:
            matrix = self._matrix
            items: List[Tuple[int, int, float, float]] = []
            views_b: List[np.ndarray] = []
            views_f: List[np.ndarray] = []
            budgets: List[float] = []
            for tid, j, _ in group:
                data = self._symbols_array_of(tid)
                stats.candidates += 1
                stats.sw_columns += len(data)
                # The anchor cost is the iq-th entry of the symbol's cached
                # full-query substitution row (sub is symmetric — §2.2.1).
                anchor_cost = float(matrix.row(data.item(j))[iq])
                budget = tau - anchor_cost
                if budget <= 0:
                    continue
                items.append((tid, j, anchor_cost, budget))
                views_b.append(data[:j][::-1])
                views_f.append(data[j + 1 :])
                budgets.append(budget)
            if not items:
                return
            ebs = self._arena_all_prefix_wed(views_b, budgets, self._context(iq, "b"))
            efs = self._arena_all_prefix_wed(views_f, budgets, self._context(iq, "f"))
            for (tid, j, anchor_cost, budget), eb, ef in zip(items, ebs, efs):
                self._combine(tid, j, anchor_cost, budget, eb, ef, matches)
            return
        query_symbol = self._query[iq]
        for n, (tid, j, _) in enumerate(group):
            if n:
                raise_if_cancelled(self._cancel, "verification")
            data = self._symbols_of(tid)
            stats.candidates += 1
            stats.sw_columns += len(data)
            anchor_cost = self._costs.sub(query_symbol, data[j])
            budget = tau - anchor_cost
            if budget <= 0:
                continue
            eb = self._all_prefix_wed(_Reversed(data, j), self._root(iq, "b"), budget)
            ef = self._all_prefix_wed(_Suffix(data, j + 1), self._root(iq, "f"), budget)
            self._combine(tid, j, anchor_cost, budget, eb, ef, matches)

    def _combine(
        self,
        tid: int,
        j: int,
        anchor_cost: float,
        budget: float,
        eb: List[float],
        ef: List[float],
        matches: MatchSet,
    ) -> None:
        """Combine: match P[j-kb .. j+kf] for every pair under budget."""
        emitted = 0
        add = matches.add
        for kb, cost_b in enumerate(eb):
            remaining = budget - cost_b
            if remaining <= 0:
                continue
            base = anchor_cost + cost_b
            start = j - kb
            for kf, cost_f in enumerate(ef):
                if cost_f < remaining:
                    add(tid, start, j + kf, base + cost_f)
                    emitted += 1
        self.stats.emitted += emitted

    # -- Algorithm 5: AllPrefixWED, arena walker -----------------------------

    def _arena_all_prefix_wed(
        self,
        views: List[np.ndarray],
        budgets: List[float],
        ctx: _DirectionContext,
    ) -> List[List[float]]:
        """AllPrefixWED for many candidates over one slot-native trie:
        ``E[k] = wed(view[:k], query part)`` for growing ``k``, per view.

        Rounds alternate two phases until every state terminates:

        1. **walk** (:meth:`_walk_cached`): every live state runs through
           cached columns to its first miss.  On a warm (cross-query
           cached) trie this phase is the entire verification: no kernel
           ever launches.  A state whose edge is absent parks at the cold
           frontier, rendezvous-deduplicated per distinct
           ``(slot, symbol)`` miss;
        2. **resolve** (:meth:`_resolve_round`): the round's distinct
           misses — walker entries and virgin-chain steps together —
           become one :func:`step_dp_batch` call writing into freshly
           reserved arena rows, published under the trie's writer lock.

        A state that was the *sole* waiter on its miss has provably
        diverged from every other state in this walk — states sharing a
        prefix walk an identical frozen-trie path each round and
        therefore meet at the same first miss as co-waiters — so its
        future steps are guaranteed unshared misses: it advances as a
        slot-indexed **virgin chain**, skipping the walker and rendezvous
        entirely, batched into the same kernel calls.  Emitted E values,
        termination points, and every counter are identical to walking
        the candidates one at a time; batching, virgin routing, and cache
        warmth only change where time (not arithmetic) is spent — except
        that warm cache hits are, by definition, not recounted in
        ``computed_columns``.

        Without the trie (the ablation) the walk runs on a private arena
        that lives for this call only: every state starts as a virgin
        chain off the root and no edge is ever published, so every visit
        recomputes its column — matching sequential local verification
        column for column — and nothing outlives the call.
        """
        shared = self._use_trie
        trie = ctx.trie if shared else ctx.new_trie()
        root_last = trie.lasts_list[0]
        root_min = trie.mins_list[0]
        outs: List[List[float]] = [[root_last] for _ in views]
        early = self._early_termination
        # One walk state per candidate still extending:
        # [slot, symbol list, out list, budget, k, len(view), view array].
        # Symbols are materialized into plain int lists *chunk by chunk*
        # (C-speed tolist of the zero-copy view, indexed per visit) so an
        # early-terminated candidate on a very long trajectory never pays
        # for symbols it will not reach.
        runnable: List[list] = []
        for view, budget, out in zip(views, budgets, outs):
            if early and root_min >= budget:
                continue
            n = len(view)
            if n:
                runnable.append(
                    [0, view[:_SYMBOL_CHUNK].tolist(), out, budget, 0, n, view]
                )
        computed = 0
        # Parked misses.  The rendezvous for duplicate (slot, symbol)
        # misses within a round is ``pend_index`` — a round-local dict, so
        # the shared trie never sees half-born entries: ``edges`` gains a
        # key only when its column is already in the arena (and fully
        # written), which also means a failing batch (e.g. a cost model
        # raising mid-row) leaves the trie fully consistent with no
        # cleanup pass.
        pend_index: Dict[Tuple[int, int], int] = {}
        pend_pslots: List[int] = []
        pend_syms: List[int] = []
        pend_rowslots: List[int] = []
        pend_waiters: List[List[list]] = []
        # Virgin chains: parallel lists of (state, parent arena slot,
        # next symbol, substitution-row slot).
        v_states: List[list] = []
        v_pslots: List[int] = []
        v_syms: List[int] = []
        v_rowslots: List[int] = []
        if not shared:
            v_states, runnable = runnable, []
            v_pslots = [0] * len(v_states)
            v_syms = [st[1][0] for st in v_states]
            v_rowslots = [ctx.rows.slot(symbol) for symbol in v_syms]
        try:
            while runnable or v_states:
                raise_if_cancelled(self._cancel, "verification")
                if runnable:
                    self._walk_cached(
                        trie,
                        ctx.rows,
                        runnable,
                        pend_index,
                        pend_pslots,
                        pend_syms,
                        pend_rowslots,
                        pend_waiters,
                    )
                    runnable = []
                if pend_pslots or v_states:
                    nxt_v: Tuple[list, list, list, list] = ([], [], [], [])
                    done, runnable = self._resolve_round(
                        ctx,
                        trie,
                        pend_pslots,
                        pend_syms,
                        pend_rowslots,
                        pend_waiters,
                        v_states,
                        v_pslots,
                        v_syms,
                        v_rowslots,
                        nxt_v,
                    )
                    computed += done
                    v_states, v_pslots, v_syms, v_rowslots = nxt_v
                    pend_index.clear()
                    pend_pslots = []
                    pend_syms = []
                    pend_rowslots = []
                    pend_waiters = []
        finally:
            # Visited-column accounting is derived, not incremented: every
            # visit appends exactly one E value to its state's out list
            # (hits immediately, misses when their batch resolves), so the
            # visit count is the total out-list growth — one subtraction
            # per state instead of one counter bump per visited column.
            self.stats.visited_columns += sum(len(o) for o in outs) - len(outs)
            self.stats.computed_columns += computed
        return outs

    def _walk_cached(
        self,
        trie: VerificationTrie,
        rows,
        states: List[list],
        pend_index: Dict[Tuple[int, int], int],
        pend_pslots: List[int],
        pend_syms: List[int],
        pend_rowslots: List[int],
        pend_waiters: List[List[list]],
    ) -> None:
        """Run each of ``states`` through cached columns until it has
        terminated or parked at a cache miss.

        The trie is frozen during a walk phase (this thread publishes
        only in :meth:`_resolve_round`), so the order states are walked
        in is unobservable.  Misses rendezvous per distinct
        ``(slot, symbol)`` in ``pend_index``.
        """
        edges_get = trie.edges.get
        mins_list = trie.mins_list
        lasts_list = trie.lasts_list
        rows_index_get = rows.index.get
        rows_slot = rows.slot
        early = self._early_termination
        inf = float("inf")
        for st in states:
            slot = st[0]
            view = st[1]
            k = st[4]
            n = st[5]
            append = st[2].append
            filled = len(view)
            # ``limit`` folds the early-termination flag out of the
            # per-visit condition (inf never fires).
            limit = st[3] if early else inf
            while True:
                if k == filled:
                    view.extend(st[6][filled : 2 * filled + 16].tolist())
                    filled = len(view)
                symbol = view[k]
                edge = (slot, symbol)
                child = edges_get(edge)
                if child is None:
                    st[0] = slot
                    st[4] = k
                    idx = pend_index.get(edge)
                    if idx is None:
                        pend_index[edge] = len(pend_pslots)
                        pend_pslots.append(slot)
                        pend_syms.append(symbol)
                        # Dense substitution-row slot, resolved here (one
                        # inline dict hit per distinct miss) so
                        # resolution can bulk-gather.
                        sslot = rows_index_get(symbol)
                        if sslot is None:
                            sslot = rows_slot(symbol)
                        pend_rowslots.append(sslot)
                        pend_waiters.append([st])
                    else:
                        pend_waiters[idx].append(st)
                    break
                append(lasts_list[child])
                k += 1
                if mins_list[child] >= limit or k == n:
                    break
                slot = child

    def _resolve_round(
        self,
        ctx: _DirectionContext,
        trie: VerificationTrie,
        pend_pslots: List[int],
        pend_syms: List[int],
        pend_rowslots: List[int],
        pend_waiters: List[List[list]],
        v_states: List[list],
        v_pslots: List[int],
        v_syms: List[int],
        v_rowslots: List[int],
        nxt_v: Tuple[list, list, list, list],
    ) -> Tuple[int, List[list]]:
        """Resolve one round of misses — walker entries and virgin chains
        together — into the arena with a single batched kernel call.

        Slots are global to the trie (every level has the same column
        width), so the whole round is one batch regardless of depth:
        parents gathered with one ``np.take`` from the matrix,
        substitution rows and deletes bulk-gathered by their dense
        :class:`~repro.distance.costs.DirectionRows` slots, and the
        kernel writing into freshly reserved rows — walker misses first,
        virgin chain steps behind them.  The trie's writer lock is held
        across reserve + write + publish (the module-docstring ordering),
        and parked misses are re-checked against ``edges`` first: on a
        *shared* trie another thread may have published some of them
        since this walk parked (those waiters are served as hits, and the
        column is not re-counted as computed).  Single-threaded the
        re-check never fires — walks see a frozen trie between park and
        resolve — so counters stay bit-identical to the Python walker.

        Returns ``(columns computed, states returning to the walker)``;
        ``nxt_v`` receives the virgin chains still alive.  A surviving
        *sole-waiter* walker entry becomes a virgin chain (see
        :meth:`_arena_all_prefix_wed` for the divergence proof);
        multi-waiter survivors may still converge on shared symbols, so
        they return to the walker, whose rendezvous dict dedupes them.
        """
        rows = ctx.rows
        prefix = ctx.ins_prefix
        early = self._early_termination
        runnable: List[list] = []
        wn = len(pend_pslots)
        vn = len(v_states)
        lock = trie.lock
        edges = trie.edges
        mins_list = trie.mins_list
        lasts_list = trie.lasts_list
        with lock:
            # Cross-thread re-check (no-op single-threaded, see docstring).
            hit = [
                i
                for i in range(wn)
                if (pend_pslots[i], pend_syms[i]) in edges
            ]
            v_hit = (
                [i for i in range(vn) if (v_pslots[i], v_syms[i]) in edges]
                if vn
                else []
            )
            if hit or v_hit:
                wn, vn = self._absorb_published(
                    trie, hit, v_hit, pend_pslots, pend_syms, pend_rowslots,
                    pend_waiters, v_states, v_pslots, v_syms, v_rowslots,
                    runnable,
                )
                if not (wn or vn):
                    return 0, runnable
            count = wn + vn
            parents, subs, dels, work_a, work_b, mins_buf = ctx.scratch(count)
            pslots = pend_pslots + v_pslots if vn else pend_pslots
            rowslots = pend_rowslots + v_rowslots if vn else pend_rowslots
            # Parents are gathered into scratch BEFORE reserving: reserve
            # may grow (swap) the matrix, and the out= slice below must
            # come from the post-growth matrix.
            np.take(trie.matrix, pslots, axis=0, out=parents)
            np.take(rows.rows, rowslots, axis=0, out=subs)
            np.take(rows.deletes, rowslots, axis=0, out=dels)
            # Growth only happens inside reserve, and only under this
            # lock we hold — so the delta is exactly OUR growth, even on
            # a trie shared with concurrent verifiers.
            before_growth = trie.allocations
            start = trie.reserve(count)
            ctx.trie_growth += trie.allocations - before_growth
            out = trie.matrix[start : start + count]
            step_dp_batch(
                subs, dels, prefix, parents, out=out, work=(work_a, work_b)
            )
            # Direct ufunc reduce: same floats as out.min(axis=1), minus
            # the np.min wrapper dispatch paid once per round.
            np.minimum.reduce(out, axis=1, out=mins_buf)
            mins = mins_buf.tolist()
            lasts = out[:, -1].tolist()
            mins_list.extend(mins)
            lasts_list.extend(lasts)
            # Publish the edges last: a lock-free reader that sees one is
            # guaranteed a fully written column and scalars.  A private
            # (tries-off) arena publishes none: nothing may be found again.
            if self._use_trie:
                slot = start
                for i in range(wn):
                    edges[(pend_pslots[i], pend_syms[i])] = slot
                    slot += 1
                for i in range(vn):
                    edges[(v_pslots[i], v_syms[i])] = slot
                    slot += 1
        self._allocs += _GROUP_TEMP_ARRAYS
        self._dp_rounds += 1
        nv_states, nv_pslots, nv_syms, nv_rowslots = nxt_v
        rows_index_get = rows.index.get
        rows_slot = rows.slot
        runnable_append = runnable.append
        slot = start
        for i in range(wn):
            cmin = mins[i]
            last = lasts[i]
            wlist = pend_waiters[i]
            if len(wlist) == 1:
                st = wlist[0]
                st[2].append(last)
                k = st[4] + 1
                if (not early or cmin < st[3]) and k != st[5]:
                    # Sole waiter whose walk continues: divergence point —
                    # the state becomes a virgin chain from this slot.
                    st[4] = k
                    view = st[1]
                    if k == len(view):
                        view.extend(st[6][k : 2 * k + 16].tolist())
                    symbol2 = view[k]
                    sslot = rows_index_get(symbol2)
                    if sslot is None:
                        sslot = rows_slot(symbol2)
                    nv_states.append(st)
                    nv_pslots.append(slot)
                    nv_syms.append(symbol2)
                    nv_rowslots.append(sslot)
                slot += 1
                continue
            for st in wlist:
                st[2].append(last)
                k = st[4] + 1
                if (early and cmin >= st[3]) or k == st[5]:
                    continue
                st[0] = slot
                st[4] = k
                runnable_append(st)
            slot += 1
        # Virgin section: no waiter lists — the chain advances by arena
        # slot, terminating exactly where the sequential walk would.
        for i in range(vn):
            st = v_states[i]
            row = wn + i
            last = lasts[row]
            st[2].append(last)
            cmin = mins[row]
            k = st[4] + 1
            if (early and cmin >= st[3]) or k == st[5]:
                continue
            st[4] = k
            view = st[1]
            if k == len(view):
                view.extend(st[6][k : 2 * k + 16].tolist())
            symbol2 = view[k]
            sslot = rows_index_get(symbol2)
            if sslot is None:
                sslot = rows_slot(symbol2)
            nv_states.append(st)
            nv_pslots.append(start + row)
            nv_syms.append(symbol2)
            nv_rowslots.append(sslot)
        return count, runnable

    def _absorb_published(
        self,
        trie: VerificationTrie,
        hit: List[int],
        v_hit: List[int],
        pend_pslots: List[int],
        pend_syms: List[int],
        pend_rowslots: List[int],
        pend_waiters: List[List[list]],
        v_states: List[list],
        v_pslots: List[int],
        v_syms: List[int],
        v_rowslots: List[int],
        runnable: List[list],
    ) -> Tuple[int, int]:
        """Serve parked misses that a *concurrent* walk resolved first
        (their edges appeared between park and resolve) as cache hits,
        compacting the pending lists in place.  Only reachable on shared
        tries under concurrency; survivors — virgin chains included,
        since a cross-thread publication breaks the chain's sole-owner
        guarantee — return to the walker.  Caller holds the trie lock.
        Returns the compacted ``(walker, virgin)`` pending counts."""
        edges = trie.edges
        mins_list = trie.mins_list
        lasts_list = trie.lasts_list
        early = self._early_termination
        hit_set = set(hit)
        for i in hit:
            slot = edges[(pend_pslots[i], pend_syms[i])]
            cmin = mins_list[slot]
            last = lasts_list[slot]
            for st in pend_waiters[i]:
                st[2].append(last)
                k = st[4] + 1
                if (early and cmin >= st[3]) or k == st[5]:
                    continue
                st[0] = slot
                st[4] = k
                runnable.append(st)
        keep = [i for i in range(len(pend_pslots)) if i not in hit_set]
        pend_pslots[:] = [pend_pslots[i] for i in keep]
        pend_syms[:] = [pend_syms[i] for i in keep]
        pend_rowslots[:] = [pend_rowslots[i] for i in keep]
        pend_waiters[:] = [pend_waiters[i] for i in keep]
        if v_hit:
            v_hit_set = set(v_hit)
            for i in v_hit:
                st = v_states[i]
                slot = edges[(v_pslots[i], v_syms[i])]
                cmin = mins_list[slot]
                last = lasts_list[slot]
                st[2].append(last)
                k = st[4] + 1
                if (early and cmin >= st[3]) or k == st[5]:
                    continue
                st[0] = slot
                st[4] = k
                runnable.append(st)
            keep = [i for i in range(len(v_states)) if i not in v_hit_set]
            v_states[:] = [v_states[i] for i in keep]
            v_pslots[:] = [v_pslots[i] for i in keep]
            v_syms[:] = [v_syms[i] for i in keep]
            v_rowslots[:] = [v_rowslots[i] for i in keep]
        return len(pend_pslots), len(v_states)

    def _context(self, iq: int, direction: str) -> _DirectionContext:
        key = (iq, direction)
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = self._contexts[key] = _DirectionContext(
                iq,
                direction,
                self._ins_vec,
                self._matrix,
                use_trie=self._use_trie,
                entry=self._trie_entry,
            )
        return ctx

    # -- Algorithm 5: AllPrefixWED, Python walker ----------------------------

    def _root(self, iq: int, direction: str) -> Tuple[Tuple[int, ...], TrieNode]:
        """One direction's ``(query part, trie root)`` for the Python
        walker.  The backward part is the reversed prefix (WED is
        invariant under simultaneous reversal because costs are
        position-independent); the root column ``wed(eps, part prefix)``
        is the cumulative insertion cost of the part."""
        key = (iq, direction)
        pair = self._roots.get(key)
        if pair is None:
            if direction == "b":
                part = tuple(reversed(self._query[:iq]))
            else:
                part = self._query[iq + 1 :]
            prefix: List[float] = [0.0]
            for q in part:
                prefix.append(prefix[-1] + self._costs.ins(q))
            pair = self._roots[key] = (part, TrieNode(prefix))
        return pair

    def _all_prefix_wed(
        self,
        data_part: Sequence[int],
        root: Tuple[Tuple[int, ...], TrieNode],
        budget: float,
    ) -> List[float]:
        """``E[k] = wed(data_part[:k], query part)`` for growing ``k``.

        Stops early once the column minimum reaches ``budget`` (the stopped
        column's E value could only be >= budget, so nothing is lost).
        ``E[0]`` is the cost of inserting the whole query part.
        """
        query_part, node = root
        out: List[float] = [node.column_last]
        if self._early_termination and node.column_min >= budget:
            return out
        ins_prefix = node.column
        nq = len(query_part)
        for k in range(len(data_part)):
            symbol = data_part[k]
            self.stats.visited_columns += 1
            child = node.find_child(symbol) if self._use_trie else None
            if child is None:
                column = self._step_dp(symbol, query_part, ins_prefix, node.column, nq)
                self.stats.computed_columns += 1
                if self._use_trie:
                    child = node.create_child(symbol, column)
                else:
                    child = TrieNode(column)
            node = child
            out.append(node.column_last)
            if self._early_termination and node.column_min >= budget:
                break
        return out

    # -- Algorithm 6: StepDP -------------------------------------------------

    def _step_dp(
        self,
        symbol: int,
        query_part: Sequence[int],
        ins_prefix: Sequence[float],
        prev: Sequence[float],
        nq: int,
    ) -> List[float]:
        # Prefix-min insert chain — the same evaluation order as
        # step_dp_batch, cell for cell (see repro.distance.wed), so the
        # two walkers return identical floats.
        costs = self._costs
        sub_row = costs.sub_row(symbol, query_part)
        dele = costs.delete(symbol)
        first = prev[0] + dele
        column = [first]
        m = first - ins_prefix[0]
        for j in range(nq):
            c = prev[j] + sub_row[j]
            via_del = prev[j + 1] + dele
            if via_del < c:
                c = via_del
            chain = ins_prefix[j + 1] + m
            column.append(c if c <= chain else chain)
            d = c - ins_prefix[j + 1]
            if d < m:
                m = d
        return column

    def trie_node_count(self) -> int:
        """Total cached columns across all live tries (a tries-off arena
        context counts its root alone — nothing else survives a walk
        there)."""
        total = sum(root.node_count() for _, root in self._roots.values())
        for ctx in self._contexts.values():
            total += 1 if ctx.trie is None else ctx.trie.node_count()
        return total


class _Reversed:
    """Lazy reversed view of ``seq[:end]`` (avoids copying long prefixes)."""

    __slots__ = ("_seq", "_end")

    def __init__(self, seq: Sequence[int], end: int) -> None:
        self._seq = seq
        self._end = end  # number of elements, reading backwards from end-1

    def __len__(self) -> int:
        return self._end

    def __getitem__(self, k: int) -> int:
        return self._seq[self._end - 1 - k]


class _Suffix:
    """Lazy view of ``seq[start:]``."""

    __slots__ = ("_seq", "_start")

    def __init__(self, seq: Sequence[int], start: int) -> None:
        self._seq = seq
        self._start = start

    def __len__(self) -> int:
        return len(self._seq) - self._start

    def __getitem__(self, k: int) -> int:
        return self._seq[self._start + k]
