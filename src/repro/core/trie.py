"""DP-column tries for verification caching (§5.2).

Each trie caches the dynamic-programming columns produced while verifying
candidates in one direction (forward or backward) for one anchor position
``iq`` of the query.  A path from the root spells a sequence of data
symbols; the column reached at its end is the DP column ``A(x)`` for that
data prefix against the fixed query part ``Q^d``.  Because trajectories in
a road network share prefixes (out-degree is tiny), later candidates walk
cached columns instead of recomputing them — the cache-miss rate is the
CMR metric of §6.4.

Two layouts, one per verification walker
(:mod:`repro.core.verification`):

- :class:`VerificationTrie` — the arena walker's **slot-native** trie, no
  node objects at all.  Every level has the same column width
  (``|Q^d| + 1``), so all columns live as rows of **one** growable
  ``(capacity, width)`` float64 matrix, with slot 0 holding the root
  column.  Structure lives in one ``edges`` dict mapping
  ``(parent_slot, symbol) -> child_slot``, and the two scalars the walk
  reads per visit (``min(column)`` — the Eq. 11 early-termination bound —
  and ``column[-1]`` — the emitted E value) live once, as plain floats in
  the slot-indexed ``mins_list`` / ``lasts_list``, so the walk loop never
  touches a numpy scalar.  This is what makes the trie *portable across
  queries*: a :class:`TrieCache` entry is just the trie objects beside
  the query's substitution matrix, and a repeated query walks them warm
  with no per-node object graph to rebuild or traverse.
- :class:`TrieNode` — the per-cell Python walker's one-column-per-node
  graph, private to one verifier (the walker holds its root directly).

Concurrency contract (shared tries are walked by concurrent server
threads): readers are lock-free; writers serialize on :attr:`
VerificationTrie.lock` and must publish in the order *grow matrix → write
column → append min/last → publish edge*.  A reader that observes an edge
is therefore guaranteed fully-written backing entries in whatever matrix
reference it fetches afterwards (CPython's GIL orders the stores), and a
grown matrix always contains every previously published slot — no torn
columns.  Rows are never mutated after their edge is published.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.distance.costs import SubstitutionMatrix

__all__ = ["TrieCache", "TrieCacheEntry", "TrieNode", "VerificationTrie"]

#: rows a fresh arena starts with; growth doubles.
_INITIAL_ROWS = 32

# Per-column python-object bytes beyond the column matrix, *measured* on
# this interpreter (a fixed guess drifts on wide alphabets, where the
# edges dict dominates).  Each published column costs one edges entry — a
# 2-tuple key plus two boxed ints (slots and symbols exceed the small-int
# intern range on real graphs, so the boxes are real) and the boxed
# child-slot value — and two boxed floats appended to the scalar lists.
# The containers' own tables (dict hash table, list cells) are NOT folded
# in here: ``nbytes`` reads them exactly via ``sys.getsizeof`` at
# accounting time, which is O(1) per container and tracks hash-table
# growth for free.
_EDGE_OBJECT_BYTES = (
    sys.getsizeof((1 << 20, 1 << 20)) + 3 * sys.getsizeof(1 << 20)
)
_FLOAT_OBJECT_BYTES = sys.getsizeof(0.5)


class TrieNode:
    """One cached DP column of the per-cell Python walker's trie.

    ``column_min`` caches ``min(column)``, the early-termination lower
    bound ``LB`` of Eq. 11, and ``column_last`` caches ``column[-1]`` (the
    E value read once per visit), so the walk reads two attributes per
    visit instead of scanning the column.
    """

    __slots__ = ("children", "column", "column_min", "column_last")

    def __init__(self, column: Sequence[float]) -> None:
        self.children: dict = {}
        self.column: Sequence[float] = column
        self.column_min: float = float(min(column))
        self.column_last: float = float(column[-1])

    def find_child(self, symbol: int) -> Optional["TrieNode"]:
        """The cached child for ``symbol``, or None (a cache miss)."""
        return self.children.get(symbol)

    def create_child(self, symbol: int, column: Sequence[float]) -> "TrieNode":
        """Cache ``column`` as the child for ``symbol`` and return it."""
        child = TrieNode(column)
        self.children[symbol] = child
        return child

    def node_count(self) -> int:
        """Cached columns in the subtree rooted here (this node included)."""
        count = 0
        stack: List[TrieNode] = [self]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count


class VerificationTrie:
    """A slot-native trie rooted at the empty data prefix.

    The root column is ``wed(eps, Q^d_{1:j})`` for all ``j`` — the
    cumulative insertion costs of the query part.  One growable
    ``(capacity, width)`` matrix holds every column (slot 0 = root), the
    ``edges`` dict holds the structure, and ``mins_list``/``lasts_list``
    hold the per-column scalars as plain floats.  Writers must hold
    :attr:`lock` and follow the publication order in the module
    docstring.
    """

    __slots__ = (
        "width",
        "matrix",
        "mins_list",
        "lasts_list",
        "edges",
        "used",
        "allocations",
        "lock",
        "__weakref__",
    )

    def __init__(self, root_column: Sequence[float]) -> None:
        self.width = len(root_column)
        self.matrix = np.empty((_INITIAL_ROWS, self.width), dtype=np.float64)
        self.matrix[0] = root_column
        self.mins_list: List[float] = [float(min(root_column))]
        self.lasts_list: List[float] = [float(root_column[-1])]
        #: (parent_slot, symbol) -> child_slot; slot 0 is the root.
        self.edges: Dict[Tuple[int, int], int] = {}
        self.used = 1
        #: ndarray (re)allocations so far — the materialization cost of
        #: every column this trie stores (feeds the benchmark's
        #: allocation-reduction metric).
        self.allocations = 1
        #: serializes writer rounds (reserve + column write + edge
        #: publication); readers stay lock-free.
        self.lock = threading.Lock()

    def reserve(self, count: int) -> int:
        """Reserve ``count`` contiguous rows; returns the first slot.

        Caller must hold :attr:`lock`.  Growth publishes the grown
        ``matrix`` (old rows copied) *before* returning, so lock-free
        readers holding either generation see every previously published
        slot.
        """
        start = self.used
        needed = start + count
        matrix = self.matrix
        capacity = matrix.shape[0]
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            grown = np.empty((capacity, self.width), dtype=np.float64)
            grown[:start] = matrix[:start]
            # Publish the grown matrix before any new row is written: a
            # reader can only learn of a new slot through an edge, which
            # is published after the row — so any matrix reference it
            # fetches after seeing the edge contains the slot.
            self.matrix = grown
            self.allocations += 1
        self.used = needed
        return start

    def row(self, slot: int) -> np.ndarray:
        """The column stored at ``slot``."""
        return self.matrix[slot]

    def node_count(self) -> int:
        """Number of cached columns (root included) — a cache-size metric."""
        return self.used

    @property
    def nbytes(self) -> int:
        """Resident bytes, measured: the column matrix exactly
        (``ndarray.nbytes``), the bookkeeping containers exactly
        (``sys.getsizeof`` on the edges dict and the two scalar lists —
        O(1) each, capturing hash-table/list growth as it happens), plus
        the measured per-object cost of the boxed keys, slots, and
        scalar floats each published column pins (see
        ``_EDGE_OBJECT_BYTES`` / ``_FLOAT_OBJECT_BYTES``)."""
        # used - 1 edges: every column except the root was published
        # through exactly one edges entry.
        return (
            self.matrix.nbytes
            + sys.getsizeof(self.edges)
            + sys.getsizeof(self.mins_list)
            + sys.getsizeof(self.lasts_list)
            + max(0, self.used - 1) * _EDGE_OBJECT_BYTES
            + 2 * self.used * _FLOAT_OBJECT_BYTES
        )


class TrieCacheEntry:
    """One query's warm state: everything a ``(query, cost model)`` pair
    keeps across queries.

    ``matrix`` is the query's :class:`~repro.distance.costs.
    SubstitutionMatrix` (with the per-direction row tables hanging off
    it) and ``tries`` maps ``(iq, direction)`` to the shared
    :class:`VerificationTrie` — one pair of tries per anchor position the
    query's verifications have touched.  ``verification="local"`` fills
    only the matrix.  Entries are handed to concurrent verifiers;
    :meth:`substitution_matrix` and :meth:`trie` make first-touch
    creation converge on one instance.
    """

    __slots__ = ("tries", "matrix", "lock", "__weakref__")

    def __init__(self) -> None:
        self.tries: Dict[Tuple[int, str], VerificationTrie] = {}
        self.matrix: Optional[SubstitutionMatrix] = None
        self.lock = threading.Lock()

    def substitution_matrix(
        self, factory: Callable[[], SubstitutionMatrix]
    ) -> SubstitutionMatrix:
        """The query's shared matrix, built on first touch (atomically:
        concurrent missers wait for, and get, one instance).  Called once
        per query, so it simply takes the lock."""
        with self.lock:
            if self.matrix is None:
                self.matrix = factory()
            return self.matrix

    def trie(
        self, key: Tuple[int, str], factory: Callable[[], VerificationTrie]
    ) -> VerificationTrie:
        """The shared trie for one ``(iq, direction)``, built on first
        touch (atomically: concurrent first callers get one instance)."""
        trie = self.tries.get(key)
        if trie is None:
            with self.lock:
                trie = self.tries.get(key)
                if trie is None:
                    trie = factory()
                    self.tries[key] = trie
        return trie

    @property
    def nbytes(self) -> int:
        """Approximate bytes this entry pins: its tries plus its matrix."""
        matrix = self.matrix
        return sum(trie.nbytes for trie in list(self.tries.values())) + (
            0 if matrix is None else matrix.nbytes
        )

    def column_count(self) -> int:
        """Total cached columns across this entry's tries."""
        return sum(trie.node_count() for trie in list(self.tries.values()))


class TrieCache:
    """The engine's one cross-query cache: an LRU of
    :class:`TrieCacheEntry` objects — a repeated query's substitution
    rows and DP columns, warm.

    Neither half depends on the threshold, the time window, or the
    dataset (a substitution row is a function of the query and the cost
    model; a column is keyed by its symbol *path*, not by which
    trajectory produced it).  So the serving layer's repeated (zipf)
    queries — including tau and time-window variations — skip
    substitution-row computation and start verification with every
    previously computed column warm, and online inserts need **no
    invalidation**: a new trajectory can only add new paths, and any
    shared prefix it has with cached paths maps to the exact same
    columns.

    Keys are the query-and-model prefix of the engine's normalized
    :func:`~repro.core.engine.query_signature`, so one cache is valid for
    exactly one engine/cost-model scope (or one group of shard engines
    over the same model: the in-process shard engines of a partitioned
    deployment share a single instance).

    Eviction is LRU, bounded two ways: ``capacity`` entries, and — since
    arenas and row tables keep growing *after* insertion as later
    queries extend them — a ``max_bytes`` budget enforced by
    :meth:`reconcile`, which the engine calls after each verification to
    re-account the bytes and shed LRU entries until the total fits.
    ``capacity == 0`` disables cross-query reuse entirely (``lookup``
    returns no entry without counting).  Thread-safe; evicting an entry
    that a running verifier still holds is safe — the verifier keeps its
    reference, the arrays are released when the last reference drops.
    """

    def __init__(self, capacity: int, max_bytes: Optional[int] = None) -> None:
        if capacity < 0:
            raise ValueError("trie cache capacity must be >= 0")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("trie cache byte budget must be >= 0")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: bytes across live entries as of the last :meth:`reconcile`.
        self.bytes = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, TrieCacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, key: Hashable) -> Optional[TrieCacheEntry]:
        """The (created-if-absent) entry for ``key``, LRU-refreshed; None
        when the cache is disabled.  Creation counts as a miss."""
        return self.lookup(key)[0]

    def lookup(self, key: Hashable) -> Tuple[Optional[TrieCacheEntry], str]:
        """Like :meth:`entry`, but also reports what happened:
        ``"hit"`` (warm entry reused), ``"miss"`` (fresh entry created —
        this query verifies cold and warms the cache), or ``"off"``
        (cache disabled).  The status feeds trace span attributes, so an
        operator can see warm vs. cold verification per query."""
        if self.capacity == 0:
            return None, "off"
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry, "hit"
            self.misses += 1
            entry = TrieCacheEntry()
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return entry, "miss"

    def peek(self, key: Hashable) -> Optional[TrieCacheEntry]:
        """The entry for ``key`` without counting or refreshing (tests /
        diagnostics)."""
        with self._lock:
            return self._entries.get(key)

    def keys(self) -> List[Hashable]:
        """Keys in LRU order, least recent first (tests / diagnostics)."""
        with self._lock:
            return list(self._entries)

    def reconcile(self) -> int:
        """Re-account entry bytes and evict LRU entries past ``max_bytes``.

        Returns the post-eviction byte total.  Called by the engine after
        each cached verification, because arenas and row tables grow
        while entries sit in the cache — insertion-time accounting alone
        would undercount.  An oversized *single* entry is evicted too —
        one whose matrix alone exceeds the budget included (the budget is
        a hard cap); the query that produced it simply stays cold.
        """
        with self._lock:
            sizes = [(key, entry.nbytes) for key, entry in self._entries.items()]
            total = sum(size for _, size in sizes)
            if self.max_bytes is not None:
                for key, size in sizes:  # sizes is in LRU order
                    if total <= self.max_bytes:
                        break
                    if self._entries.pop(key, None) is not None:
                        self.evictions += 1
                        total -= size
            self.bytes = total
            return total

    def stats(self) -> Dict[str, int]:
        """Observable counters (served via ``/healthz`` and service stats)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "bytes": self.bytes,
                "max_bytes": -1 if self.max_bytes is None else self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
