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

Theorem 1 in floats.  Every DP runs the one recurrence of
:mod:`repro.distance.wed`, and ``x -> fl(x + c)`` is monotone, so a DP
value is the minimum, over alignment paths, of the path's costs added
left to right in floats.  Float addition is monotone in each operand, so
a path that substitutes no ``q`` of ``Q'`` by a symbol of ``B(q)`` sums
to at least the left-to-right float sum of ``c(q)`` over ``Q'`` in query
order: each such ``q`` is inserted (``ins(q) >= c(q)``) or substituted
outside ``B(q)`` (``>= c(q)`` as floats; ERP's is pinned in
tests/test_count_bound.py), and every other cost is ``>= 0``.  MinCand
tests exactly that sum against ``tau``, so in floats too every match has
a candidate on the oracle's optimal path.  The verifier adds that path's
costs as ``anchor + eb + ef``, with ``eb`` summed from the anchor
outward, and emits a pair when this sum — the distance it reports — is
``< tau``; the oracle adds them left to right.  The two sums differ by
rounding alone, a few ulps, so engine and oracle agree on every match
that does not cost ``tau`` give or take a few ulps.  Such a match can
fall on either side (one is pinned in tests/test_count_bound.py), and
early termination, which compares column minima with ``tau - anchor``,
has the same few-ulp slack.

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

One seam — :class:`Verifier` — with one AllPrefixWED walker behind it,
over one trie layout: per direction, the *slot-native*
:class:`~repro.core.trie.VerificationTrie` of the query's
:class:`~repro.core.trie.TrieCacheEntry` (columns as rows of one
growable matrix, structure in one ``(parent_slot, symbol) ->
child_slot`` dict, the per-column min / last as plain floats).  The
entry holds everything warm — the query's one substitution-row matrix
(one row per data symbol of an uncached suffix's view, against the
whole query) and per ``(iq, direction)`` the query part, its offset and
step into a row, its insertion costs and prefix and the trie — and the
engine keeps it across queries (or builds it fresh per query with the
cache off); the verifier itself keeps no warm state.
Candidates are deduped and grouped by anchor position ``iq``, and each
group shares one setup: per candidate the trajectory's int array, the
anchor cost and budget, and both direction views materialized once as
plain int lists.  A view is the count bound's reach plus one column:
``P[j - iq - floor(b/δ) - 1 .. j-1]`` reversed and
``P[j+1 .. j + |Q| - iq + floor(b/δ)]``.  That last column aligns
``floor(b/δ) + 1`` more data symbols than the part has query symbols,
so it deletes at least that many, and its minimum is
``>= (floor(b/δ) + 1) δ > b``: early termination stops the walk there
at the latest — the bound's own premise and margin.  With early
termination off, or ``δ = 0``, a view is its whole side.

The walker takes the candidates one at a time.  Each follows the
direction trie's cached edges to its first miss; past it every column
is new.  The walker computes the row of every symbol of that uncached
suffix it lacks, then one kernel call (:mod:`repro.core.wedkernel`)
computes the suffix's columns, which are published as one block of
arena rows before the next candidate walks.  The kernel is a C function
loaded with :class:`ctypes.PyDLL`, which keeps the GIL through calls
that last microseconds; it evaluates the recurrence of
:mod:`repro.distance.wed` in its one order, so its columns are
:func:`~repro.distance.wed.wed_step_min`'s bit for bit, and where it
cannot be built the Python kernel, ``wed_step_min`` per column, runs
over the same matrix.  A row is computed once per symbol per query and
a column once per trie path, so a warm entry (served across queries by
the engine's :class:`~repro.core.trie.TrieCache`) costs a repeated
query neither.  ``use_trie=False`` (local verification) finds and
publishes nothing: every visit computes its column, from the same
rows.

Grouping and cross-query trie warmth preserve the sequential semantics
exactly: which columns get computed *by this query*, every column's
floats, each candidate's early-termination point, and the UPR/CMR
counters are order-independent — groups of many vs. groups of one, and
cold vs. warm caches agree on results bit for bit (warm caches lower
``computed_columns`` and nothing else: a cached column has the same
floats it would be recomputed with).

Entries are shared (the cross-query cache, and shard engines sharing one
cache) under one rule: **an entry is walked by one verifier at a time.**
The verifier holds the entry's :attr:`~repro.core.trie.TrieCacheEntry.lock`
for each anchor group — both direction walks and the combine — so a
concurrent verifier of the same query waits for at most one group and
then finds that group's columns as cache hits.  Each column is
therefore computed, and counted, exactly once.

The :class:`VerificationStats` counters implement the §6.4 metrics: UPR
(columns surviving early termination vs. a full Smith–Waterman pass) and
CMR (columns actually computed vs. columns visited).  They cover the
candidates actually walked; ``bound_pruned`` counts the ones the count
bound skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cancellation import raise_if_cancelled
from repro.core.results import MatchSet
from repro.core.trie import DirectionState, TrieCacheEntry
from repro.core.wedkernel import new_kernel
from repro.distance.costs import CostModel
from repro.exceptions import QueryError

__all__ = [
    "Candidate",
    "VerificationStats",
    "Verifier",
]

Candidate = Tuple[int, int, int]  # (trajectory id, position j, query position iq)

#: relative margin of the count bound, on both the reach and the skip
#: test: real-valued DP sums of a few hundred terms are off by ~1e-14,
#: and a model's deletion floor may sit an ulp above some ``delete()``.
_BOUND_MARGIN = 1e-9


def _mask_words(mask: int, words: int) -> np.ndarray:
    """The bitmask ``mask`` as ``words`` little-endian uint64 words."""
    return np.frombuffer(mask.to_bytes(8 * words, "little"), dtype="<u8")


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
    trie_entry:
        The :class:`~repro.core.trie.TrieCacheEntry` for this exact query
        — its substitution rows and tries.  The engine
        passes the one its TrieCache holds, so repeated queries (tau and
        time-window variations included) compute no row again and start
        verification with warm columns; ``None`` builds a fresh, private
        entry.  Walked under the entry's lock, one anchor group at a time
        (see the module docstring).
    cancel:
        Optional cooperative cancellation token (anything with a
        ``cancelled() -> bool`` method, e.g.
        :class:`~repro.core.cancellation.CancelToken`).  Polled between
        anchor groups, and inside a group once per candidate, so expired
        work stops within one verification-loop iteration instead of
        running to completion.
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
        trie_entry: Optional[TrieCacheEntry] = None,
        cancel=None,
    ) -> None:
        self._symbols_of = symbols_of
        self._query = tuple(query)
        self._costs = costs
        self._tau = tau
        self._use_trie = use_trie
        self._early_termination = early_termination
        self._cancel = cancel
        if trie_entry is None:
            trie_entry = TrieCacheEntry(costs, self._query)
        elif trie_entry.query != self._query:
            raise QueryError("cache entry was built for a different query")
        self._entry = trie_entry
        self._kernel = new_kernel(costs, trie_entry)
        # floor(budget * _reach_scale) deletions fit in a budget; with
        # δ = 0 nothing limits them (inf: the whole side).
        delta = costs.deletion_floor()
        self._reach_scale = (1.0 + _BOUND_MARGIN) / delta if delta > 0 else np.inf
        self.stats = VerificationStats()

    @property
    def dp_backend(self) -> str:
        """The kernel computing this verifier's columns: ``"native"`` or
        ``"python"`` (:mod:`repro.core.wedkernel`)."""
        return self._kernel.name

    @property
    def dp_rounds(self) -> int:
        """Uncached suffixes computed so far: one kernel call each."""
        return self._kernel.calls

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

        Per candidate: the trajectory's int array, the anchor cost and
        the budget ``tau' = tau - sub(Q[iq], P[j])``; then, with early
        termination on, the count bound (:meth:`_count_bound`) over the
        whole group; then, per candidate still standing, the UPR counters
        and both direction views as int lists (the backward one reversed
        — WED is invariant under simultaneous reversal), one
        AllPrefixWED per direction, and the combine.

        The caller holds the entry's lock across the call: setup, both
        walks and the combine."""
        stats = self.stats
        tau = self._tau
        sub = self._costs.sub
        query_symbol = self._query[iq]
        items: List[Tuple[int, int, float, float, np.ndarray]] = []
        for tid, j, _ in group:
            data = self._symbols_of(tid)
            if not isinstance(data, np.ndarray):
                data = np.asarray(data, dtype=np.int64)
            anchor_cost = sub(query_symbol, data.item(j))
            budget = tau - anchor_cost
            if budget > 0:
                items.append((tid, j, anchor_cost, budget, data))
            else:
                stats.candidates += 1
                stats.sw_columns += len(data)
        if not items:
            return
        if self._early_termination:
            items, extras = self._count_bound(iq, items)
            if not items:
                return
        else:
            extras = [len(item[4]) for item in items]
        # Each view is its reach plus the one column past it: that
        # column deletes at least extra + 1 symbols, each >= δ, so its
        # minimum exceeds the budget and early termination stops there
        # at the latest.
        length = len(self._query)
        backs: List[List[int]] = []
        fwds: List[List[int]] = []
        for (_, j, _, _, data), extra in zip(items, extras):
            stats.candidates += 1
            stats.sw_columns += len(data)
            backs.append(data[max(0, j - iq - extra - 1) : j][::-1].tolist())
            fwds.append(data[j + 1 : j + length - iq + extra + 1].tolist())
        budgets = [item[3] for item in items]
        use_trie = self._use_trie
        entry = self._entry
        ebs = self._all_prefix_wed(backs, budgets, entry.direction(iq, "b", use_trie))
        efs = self._all_prefix_wed(fwds, budgets, entry.direction(iq, "f", use_trie))
        for (tid, j, anchor_cost, _, _), eb, ef in zip(items, ebs, efs):
            self._combine(tid, j, anchor_cost, eb, ef, matches)

    def _count_bound(
        self, iq: int, items: List[Tuple[int, int, float, float, np.ndarray]]
    ) -> Tuple[List[Tuple[int, int, float, float, np.ndarray]], List[int]]:
        """The count bound: the ``items`` whose lower bound ``LB`` stays
        below ``tau``, and each one's ``floor(b / δ)`` (clipped to the
        trajectory's length), which bounds its walks too; the rest are
        counted in ``stats.bound_pruned``.

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
        keep = np.flatnonzero(bounds < self._tau * (1.0 + _BOUND_MARGIN))
        self.stats.bound_pruned += len(items) - len(keep)
        return [items[i] for i in keep.tolist()], extra[keep].tolist()

    def _combine(
        self,
        tid: int,
        j: int,
        anchor_cost: float,
        eb: List[float],
        ef: List[float],
        matches: MatchSet,
    ) -> None:
        """Combine: match P[j-kb .. j+kf] for every pair whose distance
        ``anchor + eb + ef`` — the one reported — is under ``tau``."""
        tau = self._tau
        emitted = 0
        add = matches.add
        for kb, cost_b in enumerate(eb):
            base = anchor_cost + cost_b
            if base >= tau:
                continue
            start = j - kb
            for kf, cost_f in enumerate(ef):
                distance = base + cost_f
                if distance < tau:
                    add(tid, start, j + kf, distance)
                    emitted += 1
        self.stats.emitted += emitted

    # -- Algorithm 5: AllPrefixWED ----------------------------------------------

    def _all_prefix_wed(
        self,
        views: List[List[int]],
        budgets: List[float],
        state: DirectionState,
    ) -> List[List[float]]:
        """AllPrefixWED for many candidates, one at a time:
        ``E[k] = wed(view[:k], query part)`` for growing ``k``, per view.

        Each candidate follows the direction trie's cached edges to its
        first miss.  Past it every column is new — a fresh slot has no
        children — so the walker resolves the row slot of every symbol of
        that uncached suffix, hands the suffix to the kernel
        (:mod:`repro.core.wedkernel`) in one call, seeded from the miss's
        parent row, and publishes the kernel's columns as one block of
        arena rows before the next candidate walks: later candidates and
        later queries find them cached.  Without the trie (local
        verification) nothing is found or published, and every visit
        computes its column, from the root.  A candidate stops once its column minimum
        reaches its budget (the stopped column's E value could only be >=
        budget, so nothing is lost); ``E[0]`` is the cost of inserting
        the whole query part.  The cancellation token is polled between
        candidates.
        """
        trie = state.trie if self._use_trie else None
        kernel = self._kernel
        kernel.direction(state)
        row_slot = self._entry.row_slot
        ins_prefix = state.ins_prefix
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
                if root_min >= limit or not view:
                    continue
                slot = 0
                if trie is not None:
                    for symbol in view:
                        child = edges_get((slot, symbol))
                        if child is None:
                            break
                        slot = child
                        out.append(lasts_list[child])
                        if mins_list[child] >= limit:
                            break
                    first = len(out) - 1
                    if first == len(view) or mins_list[slot] >= limit:
                        continue
                    parents = trie.matrix
                else:
                    first = 0
                    parents = state.root
                suffix = view[first:]
                slots = [row_slot(symbol) for symbol in suffix]
                count = kernel.suffix(parents, slot, suffix, slots, limit)
                self.stats.computed_columns += count
                lasts = kernel.lasts(count)
                out.extend(lasts)
                if trie is not None:
                    # The suffix is a chain: its first column hangs off
                    # the miss's parent, every later one off the row
                    # before it.
                    start = trie.reserve(count)
                    trie.matrix[start : start + count] = kernel.columns(count)
                    parents_slots = [slot, *range(start, start + count - 1)]
                    trie.publish(
                        start,
                        kernel.mins(count),
                        lasts,
                        zip(parents_slots, suffix[:count]),
                    )
        finally:
            # Every visit appends exactly one E value to its candidate's
            # out list, so the visit count is the total out-list growth.
            self.stats.visited_columns += sum(len(o) for o in outs) - len(outs)
        return outs
