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

Four optimizations, individually switchable for ablation:

- *local verification*: DP runs outward from ``j`` only while the running
  prefix lower bound (Eq. 11 — the column minimum) stays below the budget;
- *bidirectional tries*: DP columns are cached per (direction, ``iq``)
  across candidates sharing data prefixes (§5.2);
- the anchor tightens the budget to ``tau' = tau - sub(Q[iq], P[j])``;
- the *count bound* skips a candidate before any DP column when no match
  through it can stay under ``tau``.  Not in the paper: Theorem 1 admits
  a candidate on a single neighbor hit; the bound counts the misses.

The count bound, for a candidate with anchor cost ``a`` and budget
``b = tau - a``.  Let ``δ`` be the model's
:meth:`~repro.distance.costs.CostModel.deletion_floor`.  A backward part
``P[s..j-1]`` aligned within ``b`` against ``Q[:iq]`` substitutes at
most ``iq`` data symbols and deletes fewer than ``b / δ``, so it lies
inside the *backward reach* ``P[j - iq - floor(b/δ) .. j-1]``; the
forward reach is ``P[j+1 .. j + |Q| - iq - 1 + floor(b/δ)]``; with
``δ = 0`` a reach is its whole side.  Every query element is inserted
(cost ``ins(q) >= c(q)``) or substituted by a data symbol inside the
reach, which costs at least ``c(q)`` unless that symbol is in ``B(q)``
(Eq. 7).  The elements' operations are distinct, so every match through
the candidate costs at least ``LB = a + sum of c(q)`` over the ``q`` of
``Q[:iq]`` with no ``B(q)`` symbol in the backward reach, plus the same
over ``Q[iq+1:]`` and the forward reach.  The candidate is skipped when
``LB >= tau (1 + 1e-9)``: the relative margin, also applied to the
reach, covers float rounding in the real-valued models.  A skipped
candidate can emit nothing, so answers do not change.  The bound is
early termination at the candidate level and runs exactly when
``early_termination`` is on, so the "no ET" ablation stays the paper's
unpruned algorithm.  ``B(q)`` and ``c(q)`` come from the query's entry
(:class:`~repro.core.filtering.QueryNeighborhoods`, shared with
MinCand), and one anchor group is evaluated in a handful of numpy calls.

One seam — :class:`Verifier` — with exactly two AllPrefixWED
implementations behind it, both evaluating the repo-wide prefix-min
insert chain (see :mod:`repro.distance.wed`) so their floats are
bit-identical, and both walking one trie layout: per direction, the
*slot-native* :class:`~repro.core.trie.VerificationTrie` of the query's
:class:`~repro.core.trie.TrieCacheEntry` (columns as rows of one
growable matrix, structure in one ``(parent_slot, symbol) ->
child_slot`` dict, the per-column min / last as plain floats).  The
entry holds everything warm — the anchor costs' full substitution rows,
and per ``(iq, direction)`` the query part, its insertion prefix, the
slot-indexed row table and the trie — and the engine keeps it across
queries (or builds it fresh per query with the cache off); the verifier
itself keeps only scratch buffers and allocation counts.  Candidates are
deduped and grouped by anchor position ``iq``, and both walkers share
one per-candidate setup: the trajectory's int array, the anchor cost and
budget, and both direction views materialized once as plain int lists.
Only AllPrefixWED differs — how a cache miss is computed:

- ``dp_backend="numpy"`` is the **arena walker**: each group's states
  advance together over the direction's trie.  Rounds
  alternate a *walk* — every live state runs through cached columns to
  its first miss in a scalar loop; on a *warm* trie (served across
  queries by the engine's :class:`~repro.core.trie.TrieCache`) that is
  the entire verification, a fully cached query never launches a DP
  kernel — and a *resolve*: the round's **pending list** of distinct
  ``(slot, symbol)`` misses, each with its waiting states, becomes one
  :func:`step_dp_batch` call writing straight into freshly reserved
  arena rows.  A state that was the *sole* waiter on its miss has
  provably diverged from every other state, so its next miss stays in
  the pending list as a one-waiter entry that never enters the walk's
  rendezvous dict — no walker round-trip.  Everything else is a
  configuration of this walker: :meth:`Verifier.verify_candidate` is a
  group of one, and ``use_trie=False`` runs it on a private per-call
  arena that seeds every state as a one-waiter entry and publishes no
  edges, so every visit recomputes its column and the arena dies with
  the call.
- ``dp_backend="python"`` is the **per-cell Python walker**: one
  candidate at a time over the same trie, following cached edges to its
  first miss and computing the uncached suffix one pure-Python loop
  iteration per DP cell (:func:`~repro.distance.wed.wed_step_min`),
  published as one block of arena rows.  It is the reference the parity
  suites hold the arena walker to *and* the faster path for short
  queries over cheap substitution rows
  (``benchmarks/bench_verification_hotpath.py`` tracks the gap both
  ways).  A trie either walker built is walked warm by the other.

The engine runs every query on the walker :func:`choose_dp_backend`
picks: the Python walker for short queries over models with vectorizable
(hence cheap) substitution rows — the one regime where kernel-launch
overhead loses to plain Python — and the arena walker everywhere else.
Safe precisely because the two are bit-identical.

Batching, sole-waiter entries, and cross-query trie warmth all preserve the
sequential semantics exactly: which columns get computed *by this query*,
every column's floats, each candidate's early-termination point, and the
UPR/CMR counters are order- and schedule-independent — the two walkers,
groups of many vs. groups of one, and cold vs. warm caches agree on
results bit for bit (warm caches lower ``computed_columns`` and
nothing else: a cached column has the same floats it would be recomputed
with).

Entries are shared (the cross-query cache, and shard engines sharing one
cache) under one rule: **an entry is walked by one verifier at a time.**
Either walker holds the entry's :attr:`~repro.core.trie.TrieCacheEntry.lock`
for each anchor group — the anchor-cost reads, both direction walks and
the combine — so a concurrent verifier of the same query waits for at
most one group and then finds that group's columns as cache hits.  Each
column is therefore computed, and counted, exactly once.

The :class:`VerificationStats` counters implement the §6.4 metrics: UPR
(columns surviving early termination vs. a full Smith–Waterman pass) and
CMR (columns actually computed vs. columns visited).  They cover the
candidates actually walked; ``bound_pruned`` counts the ones the count
bound skipped.  They are walker-identical by design; the
ndarray-materialization count, which is *not* (the Python walker runs no
kernel and allocates no scratch), is reported separately via
:attr:`Verifier.dp_array_allocations`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cancellation import raise_if_cancelled
from repro.core.results import MatchSet
from repro.core.trie import DirectionState, TrieCacheEntry, VerificationTrie
from repro.distance.costs import CostModel
from repro.distance.wed import wed_step_min
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
    is *bit-identical* to the Python walker's
    :func:`~repro.distance.wed.wed_step_min`, not merely
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

#: relative margin of the count bound, on both the reach and the skip
#: test: real-valued DP sums of a few hundred terms are off by ~1e-14,
#: and a model's deletion floor may sit an ulp above some ``delete()``.
_BOUND_MARGIN = 1e-9


def _mask_words(mask: int, words: int) -> np.ndarray:
    """The bitmask ``mask`` as ``words`` little-endian uint64 words."""
    return np.frombuffer(mask.to_bytes(8 * words, "little"), dtype="<u8")

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
    #: candidates the count bound skipped before any DP column; every
    #: other counter above covers only the candidates actually walked
    bound_pruned: int = 0

    @classmethod
    def sum(cls, parts: Iterable["VerificationStats"]) -> "VerificationStats":
        """Field-by-field sum (shard merges), over every field."""
        total = cls()
        for part in parts:
            for field in fields(cls):
                name = field.name
                setattr(total, name, getattr(total, name) + getattr(part, name))
        return total

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
    """A verifier's view of one shared
    :class:`~repro.core.trie.DirectionState`: the arena walker's private
    scratch buffers — parent columns, substitution rows, deletion costs,
    the two kernel work buffers and the per-column minima, grown
    geometrically and reused round after round — and the ndarray
    allocations this verifier is charged for on that direction (see
    :attr:`Verifier.dp_array_allocations`).  Everything warm — the query
    part, the insertion prefix, the row table, the trie — lives on the
    state, in the query's :class:`~repro.core.trie.TrieCacheEntry`.
    """

    __slots__ = (
        "state",
        "width",
        "allocations",
        "_parents",
        "_subs",
        "_dels",
        "_work_a",
        "_work_b",
        "_mins",
    )

    def __init__(self, state: DirectionState) -> None:
        self.state = state
        self.width = len(state.ins_prefix)
        #: ndarray (re)allocations charged to this verifier here: entry
        #: state its first touch created, scratch growth, and arena
        #: growth in its own rounds.
        self.allocations = 0
        self._parents: Optional[np.ndarray] = None
        self._subs: Optional[np.ndarray] = None
        self._dels: Optional[np.ndarray] = None
        self._work_a: Optional[np.ndarray] = None
        self._work_b: Optional[np.ndarray] = None
        self._mins: Optional[np.ndarray] = None

    def reserve(self, trie: VerificationTrie, count: int) -> int:
        """``trie.reserve(count)``, charging any arena growth here."""
        before = trie.allocations
        start = trie.reserve(count)
        self.allocations += trie.allocations - before
        return start

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
            self.allocations += 6
        return (
            parents[:count],
            self._subs[:count],
            self._dels[:count],
            self._work_a[:count],
            self._work_b[:count],
            self._mins[:count],
        )


class Verifier:
    """Verifies candidates for one query, accumulating matches and stats.

    Parameters
    ----------
    symbols_of:
        Callable mapping a trajectory id to its symbols as an int ndarray
        (the dataset's ``symbols_array`` method); any other int sequence
        is converted per candidate.
    query / costs / tau:
        The query string, cost model, and similarity threshold.
    use_trie:
        Cache DP columns in bidirectional tries (§5.2).  Disabling recomputes
        every column (OSF-BT -> OSF with plain local verification).
    early_termination:
        Stop extending a direction once the column minimum reaches the
        budget (§5.1), and skip candidates the count bound rules out
        before any column.  Disabling scans to the trajectory ends.
    dp_backend:
        ``"auto"`` (resolved per query via :func:`choose_dp_backend`),
        ``"numpy"`` — the arena walker: anchor-grouped batch verification
        over slot-native tries and the array-native column kernel; or
        ``"python"`` — the per-cell Python walker.  Results are
        bit-identical.
    trie_entry:
        The :class:`~repro.core.trie.TrieCacheEntry` for this exact query
        — its substitution rows, row tables and direction tries.  The
        engine passes the one its TrieCache holds, so repeated queries
        (tau and time-window variations included) compute no row again
        and start verification with warm columns; ``None`` builds a
        fresh, private entry.  Read by either walker under the entry's
        lock, one anchor group at a time (see the module docstring).
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
        if trie_entry is None:
            trie_entry = TrieCacheEntry(costs, self._query)
        elif trie_entry.query != self._query:
            raise QueryError("cache entry was built for a different query")
        self._entry = trie_entry
        #: per-round kernel temporaries materialized so far (the rest of
        #: dp_array_allocations is counted per direction context) —
        #: deliberately NOT a VerificationStats field, because the Python
        #: walker runs no kernel and the stats are pinned walker-identical.
        self._allocs = 0
        #: DP kernel launches (one per resolve round) — the "how many
        #: times did we enter numpy" trace attribute.  Like ``_allocs``,
        #: kept out of VerificationStats: the Python walker launches no
        #: kernels.
        self._dp_rounds = 0
        # Built lazily, since only tau-subsequence positions are anchors
        # (2|Q'| tries, §5.2): this verifier's view of each entry
        # direction state it walks.
        self._contexts: Dict[DirectionState, _DirectionContext] = {}
        # floor(budget * _reach_scale) deletions fit in a budget; with
        # δ = 0 nothing limits them (inf: the whole side).
        delta = costs.deletion_floor()
        self._reach_scale = (1.0 + _BOUND_MARGIN) / delta if delta > 0 else np.inf
        self.stats = VerificationStats()

    @property
    def dp_array_allocations(self) -> int:
        """ndarrays materialized verifying so far: the entry state this
        verifier's first touch created (a direction's insertion prefix
        and row tables, a trie's first arena), scratch and arena
        (re)allocations, and per-round kernel temporaries.

        A one-ndarray-per-column layout would allocate at least one more
        per *computed column* on top of the same per-round temporaries,
        so the benchmark's allocation-reduction metric compares
        ``computed_columns + dp_array_allocations`` (that cost) against
        ``dp_array_allocations`` (this one).  With a warm shared trie
        only this query's growth is counted, not the cached history."""
        return self._allocs + sum(ctx.allocations for ctx in self._contexts.values())

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
            # One group per hold: a waiter for the entry waits one group.
            with self._entry.lock:
                self._verify_group(iq, unique[start:end], matches)
            start = end

    # -- Algorithm 4 --------------------------------------------------------

    def verify_candidate(self, candidate: Candidate, matches: MatchSet) -> None:
        """Emit every match of Definition 3 anchored at this candidate —
        a group of one."""
        with self._entry.lock:
            self._verify_group(candidate[2], [candidate], matches)

    def _verify_group(
        self, iq: int, group: Sequence[Candidate], matches: MatchSet
    ) -> None:
        """Algorithm 4 for the candidates sharing anchor position ``iq``.

        One setup serves both walkers: per candidate, the trajectory's
        int array, the anchor cost and the budget
        ``tau' = tau - sub(Q[iq], P[j])``; then, with early termination
        on, the count bound (:meth:`_count_bound`) over the whole group;
        then, per candidate still standing, the UPR counters and both
        direction views as int lists (the backward one reversed — WED is
        invariant under simultaneous reversal).  Only AllPrefixWED
        differs, behind one shape — ``(views, budgets, context) -> E
        lists``, once per direction: the arena walker advances the whole
        group together; the per-cell walker takes the candidates one at a
        time, polling the cancellation token between them.

        The caller holds the entry's lock across the call: setup, both
        walks and the combine."""
        stats = self.stats
        tau = self._tau
        numpy = self._numpy
        row = self._entry.rows.row
        sub = self._costs.sub
        query_symbol = self._query[iq]
        items: List[Tuple[int, int, float, float, np.ndarray]] = []
        for tid, j, _ in group:
            data = self._symbols_of(tid)
            if not isinstance(data, np.ndarray):
                data = np.asarray(data, dtype=np.int64)
            symbol = data.item(j)
            # The arena walker reads the anchor cost off the symbol's cached
            # full-query substitution row (sub is symmetric — §2.2.1); the
            # per-cell walker's one sub call is cheaper than a full row.
            anchor_cost = float(row(symbol)[iq]) if numpy else sub(query_symbol, symbol)
            budget = tau - anchor_cost
            if budget > 0:
                items.append((tid, j, anchor_cost, budget, data))
            else:
                stats.candidates += 1
                stats.sw_columns += len(data)
        if items and self._early_termination:
            items = self._count_bound(iq, items)
        if not items:
            return
        backs: List[List[int]] = []
        fwds: List[List[int]] = []
        for _, j, _, _, data in items:
            stats.candidates += 1
            stats.sw_columns += len(data)
            backs.append(data[:j][::-1].tolist())
            fwds.append(data[j + 1 :].tolist())
        walk = self._arena_all_prefix_wed if numpy else self._cell_all_prefix_wed
        budgets = [item[3] for item in items]
        ebs = walk(backs, budgets, self._context(iq, "b"))
        efs = walk(fwds, budgets, self._context(iq, "f"))
        for (tid, j, anchor_cost, budget, _), eb, ef in zip(items, ebs, efs):
            self._combine(tid, j, anchor_cost, budget, eb, ef, matches)

    def _count_bound(
        self, iq: int, items: List[Tuple[int, int, float, float, np.ndarray]]
    ) -> List[Tuple[int, int, float, float, np.ndarray]]:
        """The count bound: the ``items`` whose lower bound ``LB`` stays
        below ``tau``; the rest are counted in ``stats.bound_pruned``.

        A candidate's backward reach is the ``|Q[:iq]| + floor(b / δ)``
        data symbols before ``j`` and its forward reach the
        ``|Q[iq+1:]| + floor(b / δ)`` after it (clipped to the
        trajectory; the whole side when ``δ = 0``).  ``LB`` is the anchor
        cost plus ``c(q)`` for every ``q`` of ``Q[:iq]`` whose ``B(q)``
        the backward reach misses, and the same over ``Q[iq+1:]`` and the
        forward reach.  Evaluated for the whole group at once: the
        candidates' symbols are looked up in the query's
        :class:`~repro.core.filtering.QueryNeighborhoods` in one
        concatenated array, every reach is OR-reduced by one
        ``reduceat``, and the missed positions' ``c(q)`` are summed by one
        matrix product."""
        hoods = self._entry.neighborhoods()
        length = len(self._query)
        _, js, anchors, budgets, datas = zip(*items)
        js = np.array(js, dtype=np.int64)
        lens = np.fromiter(map(len, datas), dtype=np.int64, count=len(datas))
        ends = np.cumsum(lens)
        starts = ends - lens
        # Deletions cost >= δ each and stay under the budget on each side;
        # np.minimum before the cast, since δ = 0 makes the quotient inf.
        extra = np.minimum(np.floor(np.array(budgets) * self._reach_scale), lens)
        extra = extra.astype(np.int64)
        anchor = starts + js
        # Per candidate, [backward start, anchor) and [anchor + 1, forward
        # end) in the concatenated symbols: reduceat over the four
        # indices reduces both reaches at the even slots.
        cuts = np.stack(
            (
                np.maximum(anchor - iq - extra, starts),
                anchor,
                anchor + 1,
                np.minimum(anchor + (length - iq) + extra, ends),
            ),
            axis=1,
        ).ravel()
        reach = np.bitwise_or.reduceat(hoods.hits(np.concatenate(datas)), cuts, axis=0)
        reach = reach[0::2]
        # An empty reach reads its first symbol instead of nothing.
        reach[cuts[0::2] == cuts[1::2]] = 0
        # The query positions before iq and after it, as mask words.
        words = reach.shape[1]
        before = _mask_words((1 << iq) - 1, words)
        after = _mask_words((1 << length) - (1 << (iq + 1)), words)
        missed = (before & ~reach[0::2]) | (after & ~reach[1::2])
        bits = np.unpackbits(
            missed.view(np.uint8), axis=1, count=length, bitorder="little"
        )
        bounds = np.array(anchors) + bits @ hoods.filter_costs
        keep = np.flatnonzero(bounds < self._tau * (1.0 + _BOUND_MARGIN)).tolist()
        self.stats.bound_pruned += len(items) - len(keep)
        return [items[i] for i in keep]

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
        views: List[List[int]],
        budgets: List[float],
        ctx: _DirectionContext,
    ) -> List[List[float]]:
        """AllPrefixWED for many candidates over one slot-native trie:
        ``E[k] = wed(view[:k], query part)`` for growing ``k``, per view.

        Rounds alternate two phases until every state terminates:

        1. **walk** (:meth:`_walk_cached`): every runnable state runs
           through cached columns to its first miss.  On a warm
           (cross-query cached) trie this phase is the entire
           verification: no kernel ever launches.  A state whose edge is
           absent parks in the **pending list** — one entry per distinct
           ``(slot, symbol)`` miss with its waiting states, deduplicated
           by the walk's rendezvous dict;
        2. **resolve** (:meth:`_resolve_round`): every pending entry
           becomes one row of a single :func:`step_dp_batch` call writing
           into freshly reserved arena rows.

        A state that was the *sole* waiter on its entry has provably
        diverged from every other state in this walk — states sharing a
        prefix walk an identical frozen-trie path each round and
        therefore meet at the same first miss as co-waiters — so the miss
        at the column just computed for it can be nobody else's: it stays
        pending as a one-waiter entry that never enters the rendezvous
        dict and skips the walker, batched into the same kernel calls.
        Multi-waiter survivors return to the walker, whose rendezvous
        dedupes them again.  Emitted E values, termination points, and
        every counter are identical to walking the candidates one at a
        time; batching, sole-waiter entries, and cache warmth only change
        where time (not arithmetic) is spent — except that warm cache
        hits are, by definition, not recounted in ``computed_columns``.

        Without the trie (the ablation) the walk runs on a private arena
        that lives for this call only: every state starts as a one-waiter
        entry off the root and no edge is ever published, so every visit
        recomputes its column — matching sequential local verification
        column for column — and nothing outlives the call.
        """
        state = ctx.state
        if self._use_trie:
            trie = state.trie
        else:
            trie = VerificationTrie(state.ins_prefix)
            ctx.allocations += trie.allocations
        root_min = trie.mins_list[0]
        outs: List[List[float]] = [[trie.lasts_list[0]] for _ in views]
        early = self._early_termination
        # One walk state per candidate still extending:
        # [slot, symbols, out list, budget, k, len(symbols)].
        runnable: List[list] = [
            [0, view, out, budget, 0, len(view)]
            for view, budget, out in zip(views, budgets, outs)
            if view and not (early and root_min >= budget)
        ]
        # The pending list, as parallel lists: parent slot, symbol,
        # substitution-row slot and waiting states per parked miss.  It is
        # per walk, so the trie never sees half-born entries: ``edges``
        # gains a key only when its column is already written, and a
        # failing batch (e.g. a cost model raising mid-row) leaves the
        # trie consistent with no cleanup pass.
        pslots: List[int] = []
        syms: List[int] = []
        rowslots: List[int] = []
        waiters: List[List[list]] = []
        if not self._use_trie:
            # Nothing is cached, so the walker has nothing to find: every
            # state starts pending, a one-waiter entry off the root.
            for st in runnable:
                pslots.append(0)
                syms.append(st[1][0])
                rowslots.append(state.rows.slot(st[1][0]))
                waiters.append([st])
            runnable = []
        computed = 0
        try:
            while runnable or pslots:
                raise_if_cancelled(self._cancel, "verification")
                if runnable:
                    self._walk_cached(
                        trie, state.rows, runnable, pslots, syms, rowslots, waiters
                    )
                    runnable = []
                if pslots:
                    done, runnable, pending = self._resolve_round(
                        ctx, trie, pslots, syms, rowslots, waiters
                    )
                    computed += done
                    pslots, syms, rowslots, waiters = pending
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
        pslots: List[int],
        syms: List[int],
        rowslots: List[int],
        waiters: List[List[list]],
    ) -> None:
        """Run each of ``states`` through cached columns until it has
        terminated or parked at a cache miss in the pending list.

        The trie is frozen during a walk phase (edges are added only in
        :meth:`_resolve_round`), so the order states are walked in is
        unobservable.  Misses rendezvous per distinct
        ``(slot, symbol)`` in a dict local to this walk; the one-waiter
        entries already pending never enter it (see
        :meth:`_arena_all_prefix_wed` for why none can collide).
        """
        edges_get = trie.edges.get
        mins_list = trie.mins_list
        lasts_list = trie.lasts_list
        rows_index_get = rows.index.get
        rows_slot = rows.slot
        early = self._early_termination
        inf = float("inf")
        rendezvous: Dict[Tuple[int, int], int] = {}
        for st in states:
            slot = st[0]
            symbols = st[1]
            k = st[4]
            n = st[5]
            append = st[2].append
            # ``limit`` folds the early-termination flag out of the
            # per-visit condition (inf never fires).
            limit = st[3] if early else inf
            while True:
                symbol = symbols[k]
                edge = (slot, symbol)
                child = edges_get(edge)
                if child is None:
                    st[0] = slot
                    st[4] = k
                    idx = rendezvous.get(edge)
                    if idx is None:
                        rendezvous[edge] = len(pslots)
                        pslots.append(slot)
                        syms.append(symbol)
                        # Dense substitution-row slot, resolved here (one
                        # inline dict hit per distinct miss) so
                        # resolution can bulk-gather.
                        sslot = rows_index_get(symbol)
                        if sslot is None:
                            sslot = rows_slot(symbol)
                        rowslots.append(sslot)
                        waiters.append([st])
                    else:
                        waiters[idx].append(st)
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
        pslots: List[int],
        syms: List[int],
        rowslots: List[int],
        waiters: List[List[list]],
    ) -> Tuple[int, List[list], Tuple[list, list, list, list]]:
        """Resolve one round's pending list into the arena with a single
        batched kernel call.

        Slots are global to the trie (every level has the same column
        width), so the whole round is one batch regardless of depth:
        parents gathered with one ``np.take`` from the matrix,
        substitution rows and deletes bulk-gathered by their dense
        :class:`~repro.core.trie.DirectionRows` slots, and the
        kernel writing into freshly reserved rows in pending-list order.
        Every pending entry is still a miss: the caller holds the entry,
        so no edge appears between park and resolve, and the counters
        stay bit-identical to the Python walker's.

        Returns ``(columns computed, states returning to the walker,
        next round's pending list)``.  A surviving *sole* waiter's next
        miss is a one-waiter entry of the next pending list (see
        :meth:`_arena_all_prefix_wed` for the divergence proof);
        multi-waiter survivors may still converge on shared symbols, so
        they return to the walker, whose rendezvous dict dedupes them.
        """
        rows = ctx.state.rows
        early = self._early_termination
        runnable: List[list] = []
        count = len(pslots)
        parents, subs, dels, work_a, work_b, mins_buf = ctx.scratch(count)
        # Parents are gathered into scratch BEFORE reserving: reserve
        # may grow (swap) the matrix, and the out= slice below must
        # come from the post-growth matrix.
        np.take(trie.matrix, pslots, axis=0, out=parents)
        np.take(rows.rows, rowslots, axis=0, out=subs)
        np.take(rows.deletes, rowslots, axis=0, out=dels)
        start = ctx.reserve(trie, count)
        out = trie.matrix[start : start + count]
        step_dp_batch(
            subs, dels, ctx.state.ins_prefix, parents, out=out, work=(work_a, work_b)
        )
        # Direct ufunc reduce: same floats as out.min(axis=1), minus
        # the np.min wrapper dispatch paid once per round.
        np.minimum.reduce(out, axis=1, out=mins_buf)
        mins = mins_buf.tolist()
        lasts = out[:, -1].tolist()
        # A private (tries-off) arena publishes no edge: nothing may be
        # found again.
        trie.publish(start, mins, lasts, zip(pslots, syms) if self._use_trie else ())
        self._allocs += _GROUP_TEMP_ARRAYS
        self._dp_rounds += 1
        next_pslots: List[int] = []
        next_syms: List[int] = []
        next_rowslots: List[int] = []
        next_waiters: List[List[list]] = []
        rows_index_get = rows.index.get
        rows_slot = rows.slot
        for i, wlist in enumerate(waiters):
            cmin = mins[i]
            last = lasts[i]
            sole = len(wlist) == 1
            for st in wlist:
                st[2].append(last)
                k = st[4] + 1
                if (early and cmin >= st[3]) or k == st[5]:
                    continue
                st[4] = k
                if sole:
                    # Divergence point: the next miss, at the column just
                    # computed, is this state's alone.
                    symbol = st[1][k]
                    sslot = rows_index_get(symbol)
                    if sslot is None:
                        sslot = rows_slot(symbol)
                    next_pslots.append(start + i)
                    next_syms.append(symbol)
                    next_rowslots.append(sslot)
                    next_waiters.append(wlist)
                else:
                    st[0] = start + i
                    runnable.append(st)
        return count, runnable, (next_pslots, next_syms, next_rowslots, next_waiters)

    def _context(self, iq: int, direction: str) -> _DirectionContext:
        """This verifier's scratch for the entry's ``(iq, direction)``
        state, charged with whatever entry state the lookup created."""
        state, allocated = self._entry.direction(iq, direction, self._use_trie)
        ctx = self._contexts.get(state)
        if ctx is None:
            ctx = self._contexts[state] = _DirectionContext(state)
        ctx.allocations += allocated
        return ctx

    # -- Algorithm 5: AllPrefixWED, per-cell walker ---------------------------

    def _cell_all_prefix_wed(
        self,
        views: List[List[int]],
        budgets: List[float],
        ctx: _DirectionContext,
    ) -> List[List[float]]:
        """AllPrefixWED for many candidates, one at a time and one
        pure-Python loop iteration per DP cell:
        ``E[k] = wed(view[:k], query part)`` for growing ``k``, per view.

        Each candidate follows the direction trie's cached edges to its
        first miss.  Past it every column is new — a fresh slot has no
        children — so the walker computes that uncached suffix with
        :func:`~repro.distance.wed.wed_step_min`, seeded from the miss's
        parent row, and publishes it as one block of arena rows before
        the next candidate walks: later candidates and later queries,
        on either walker, find it cached.  Without the trie (the
        ablation) nothing is found or published, and every visit
        computes its column.  A candidate stops once its column minimum
        reaches its budget (the stopped column's E value could only be
        >= budget, so nothing is lost); ``E[0]`` is the cost of
        inserting the whole query part.
        """
        state = ctx.state
        trie = state.trie if self._use_trie else None
        costs = self._costs
        part = state.part
        ins_prefix = state.ins_prefix.tolist()
        root_min = min(ins_prefix)
        if trie is not None:
            edges_get = trie.edges.get
            mins_list = trie.mins_list
            lasts_list = trie.lasts_list
        early = self._early_termination
        inf = float("inf")
        outs: List[List[float]] = []
        try:
            for n, (view, budget) in enumerate(zip(views, budgets)):
                if n:
                    raise_if_cancelled(self._cancel, "verification")
                out = [ins_prefix[-1]]
                outs.append(out)
                limit = budget if early else inf
                if root_min >= limit:
                    continue
                slot = 0
                # The previous column's floats, once past the first miss.
                column = None if trie is not None else ins_prefix
                columns: List[List[float]] = []
                mins: List[float] = []
                syms: List[int] = []
                for symbol in view:
                    if column is None:
                        child = edges_get((slot, symbol))
                        if child is not None:
                            slot = child
                            out.append(lasts_list[child])
                            if mins_list[child] >= limit:
                                break
                            continue
                        column = trie.row(slot).tolist()
                    column, column_min = wed_step_min(
                        costs, part, symbol, column, ins_prefix=ins_prefix
                    )
                    out.append(column[-1])
                    columns.append(column)
                    mins.append(column_min)
                    syms.append(symbol)
                    if column_min >= limit:
                        break
                count = len(columns)
                self.stats.computed_columns += count
                if count and trie is not None:
                    # The suffix is a chain: its first column hangs off
                    # the miss's parent, every later one off the row
                    # before it.
                    start = ctx.reserve(trie, count)
                    trie.matrix[start : start + count] = columns
                    parents = [slot, *range(start, start + count - 1)]
                    trie.publish(start, mins, out[-count:], zip(parents, syms))
        finally:
            self.stats.visited_columns += sum(len(o) for o in outs) - len(outs)
        return outs
