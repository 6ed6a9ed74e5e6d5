"""Verification trie data structures: the slot-native trie the verifier
walks, the per-query warm state and the cross-query cache."""

import sys
import threading

import numpy as np
import pytest

from repro.core.trie import TrieCache, TrieCacheEntry, VerificationTrie
from repro.distance.costs import LevenshteinCost

lev = LevenshteinCost()


def new_entry():
    return TrieCacheEntry(lev, (1, 2, 3, 4))


class TestVerificationTrie:
    """The slot-native layout: one matrix, one edges dict, scalar lists."""

    def test_root_lives_at_slot_zero(self):
        trie = VerificationTrie(np.asarray([0.0, 1.0, 2.0]))
        assert trie.used == 1
        assert trie.row(0).tolist() == [0.0, 1.0, 2.0]
        assert trie.mins_list == [0.0]
        assert trie.lasts_list == [2.0]
        assert trie.node_count() == 1

    def test_reserve_contiguous_and_growth_preserves_rows(self):
        trie = VerificationTrie(np.asarray([1.0, 2.0, 3.0]))
        first = trie.reserve(2)
        assert first == 1  # root occupies slot 0
        trie.matrix[first] = [4.0, 5.0, 6.0]
        before = trie.matrix.shape[0]
        grown = trie.reserve(200)  # forces growth, slots stay dense
        assert grown == 3
        assert trie.used == 203
        assert trie.matrix.shape[0] > before
        assert trie.matrix[first].tolist() == [4.0, 5.0, 6.0]
        assert trie.row(0).tolist() == [1.0, 2.0, 3.0]
        assert trie.matrix.shape[0] >= trie.used

    def test_growth_is_geometric(self):
        trie = VerificationTrie(np.zeros(2))
        shapes = set()
        for _ in range(300):
            trie.reserve(1)
            shapes.add(trie.matrix.shape[0])
        # 301 rows, doubling from 32: 4 reallocations of the one matrix,
        # not ~300.
        assert sorted(shapes) == [32, 64, 128, 256, 512]

    def test_edges_address_columns(self):
        trie = VerificationTrie(np.asarray([0.0, 1.0]))
        slot = trie.reserve(1)
        trie.matrix[slot] = [0.5, 1.5]
        trie.mins_list.append(0.5)
        trie.lasts_list.append(1.5)
        trie.edges[(0, 7)] = slot
        assert trie.edges.get((0, 7)) == slot
        assert trie.edges.get((0, 8)) is None
        assert trie.node_count() == 2

    def test_nbytes_tracks_growth(self):
        trie = VerificationTrie(np.zeros(4))
        before = trie.nbytes
        assert before > trie.matrix.nbytes
        trie.reserve(500)
        assert trie.nbytes > before


class _CountingLev(LevenshteinCost):
    """Counts the substitution rows it computes."""

    calls = 0

    def sub_row(self, p, seq):
        self.calls += 1
        return super().sub_row(p, seq)


class TestTrieCacheEntry:
    def test_first_touch_converges_on_one_instance(self):
        """More threads than cores, switching as often as the interpreter
        allows, all touching the same fresh entry under its lock (as the
        verifier does): one state, one trie, one row per symbol in the
        entry's one row matrix."""
        costs = _CountingLev()
        entry = TrieCacheEntry(costs, (1, 2, 3, 4))
        barrier = threading.Barrier(8)
        got, rows = [], []

        def touch():
            barrier.wait()
            with entry.lock:
                state = entry.direction(1, "f", True)
                got.append(state)
                rows.append([entry.row_slot(s) for s in range(50)])

        threads = [threading.Thread(target=touch) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len({id(state) for state in got}) == 1
        assert costs.calls == 50
        assert all(seen == list(range(50)) for seen in rows)
        assert len(entry.slots) == 50
        a = got[0]
        assert entry.direction(1, "f", True) is a
        c = entry.direction(1, "b", False)
        assert c is not a and c.trie is None
        assert list(entry.directions) == [(1, "f"), (1, "b")]
        # The parts, and root columns that are their insertion prefixes.
        assert (a.part, c.part) == ((3, 4), (1,))
        # Each part reads the query's row from its offset with its step.
        row = entry.rows[entry.row_slot(3)].tolist()
        assert row == [1.0, 1.0, 0.0, 1.0]
        assert row[a.offset :: a.step] == [0.0, 1.0]
        assert row[c.offset :: c.step] == [1.0]
        assert a.ins_prefix == [0.0, 1.0, 2.0]
        assert c.ins_prefix == [0.0, 1.0]
        assert a.trie.row(0).tolist() == a.ins_prefix
        # Bytes: the one row store and the one trie.
        store = entry.rows.nbytes + entry.dels.nbytes
        assert entry.nbytes > a.trie.nbytes + store
        assert (a.nbytes, c.nbytes) == (a.trie.nbytes, 0)
        assert a.trie.node_count() == 1  # the root

    def test_row_cache_is_counted_and_shed(self):
        """Each new row grows the entry's ``nbytes`` by at least its
        floats once the store has grown past it, with no trie in play,
        and ``reconcile`` sheds the entry once its rows pass the byte
        budget."""
        cache = TrieCache(4, max_bytes=8000)
        entry, _ = cache.lookup("k", lambda: TrieCacheEntry(lev, range(32)))
        assert entry.nbytes == 0
        sizes = [entry.nbytes]
        for symbol in range(3):
            entry.row_slot(symbol)
            sizes.append(entry.nbytes)
        # The first row allocates the store; later ones fill it and add a
        # key each.
        assert sizes[1] >= entry.rows.nbytes > 16 * 31 * 8
        assert all(b > a for a, b in zip(sizes, sizes[1:]))
        assert cache.reconcile(entry) == entry.nbytes < 8000
        while entry.nbytes <= 8000:
            entry.row_slot(len(entry.slots))
        assert all(state.trie is None for state in entry.directions.values())
        assert cache.reconcile(entry) == 0
        assert len(cache) == 0 and cache.stats()["evictions"] == 1


class TestTrieCache:
    def _entry_with_bytes(self, cache, key, rows):
        entry, _ = cache.lookup(key, new_entry)
        trie = entry.direction(0, "f", True).trie
        trie.reserve(rows)
        return entry

    def test_lru_entry_capacity(self):
        cache = TrieCache(2)
        cache.lookup("a", new_entry)
        cache.lookup("b", new_entry)
        cache.lookup("a", new_entry)  # refresh: b is now LRU
        cache.lookup("c", new_entry)  # evicts b
        assert cache.keys() == ["a", "c"]
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 3

    def test_zero_capacity_disables(self):
        cache = TrieCache(0)
        # Off: every lookup hands out a fresh, unshared entry.
        a, status = cache.lookup("a", new_entry)
        b, _ = cache.lookup("a", new_entry)
        assert status == "off" and a is not b
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == stats["misses"] == stats["size"] == 0

    def test_byte_budget_evicts_lru_first(self):
        cache = TrieCache(16, max_bytes=150_000)
        a = self._entry_with_bytes(cache, "a", 400)
        cache.reconcile(a)
        b = self._entry_with_bytes(cache, "b", 400)
        assert cache.reconcile(b) <= 150_000
        # One ~100KB entry fits; two do not. "a" (LRU) must have gone.
        assert cache.keys() == ["b"]
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["bytes"] <= 150_000

    def test_reconcile_accounts_growth_after_insertion(self):
        cache = TrieCache(16, max_bytes=50_000)
        entry = self._entry_with_bytes(cache, "a", 4)
        assert cache.reconcile(entry) < 50_000
        assert cache.keys() == ["a"]
        # The cached entry keeps growing while cached — the budget must
        # catch it at the next reconcile, even as the only entry.
        trie = entry.directions[(0, "f")].trie
        trie.reserve(4000)
        cache.reconcile(entry)
        assert cache.keys() == []
        assert cache.stats()["bytes"] == 0

    def test_capacity_eviction_releases_bytes(self):
        """An entry a lookup evicts for capacity takes its counted bytes
        with it at once, and reconciling it afterwards changes nothing."""
        cache = TrieCache(2)
        a = self._entry_with_bytes(cache, "a", 400)
        cache.reconcile(a)
        b = self._entry_with_bytes(cache, "b", 4)
        cache.reconcile(b)
        assert cache.stats()["bytes"] == a.nbytes + b.nbytes
        cache.lookup("c", new_entry)  # capacity 2: evicts "a"
        cached = [cache.peek(key) for key in cache.keys()]
        assert cache.stats()["bytes"] == sum(entry.nbytes for entry in cached)
        assert cache.reconcile(a) == b.nbytes
        assert cache.stats()["evictions"] == 1

    def test_reconcile_reads_only_its_entry(self):
        """Re-accounting measures the entry the query walked, never the
        rest of the cache: another entry's growth waits for its own
        reconcile."""
        cache = TrieCache(4)
        a = self._entry_with_bytes(cache, "a", 4)
        b = self._entry_with_bytes(cache, "b", 4)
        cache.reconcile(a)
        assert cache.stats()["bytes"] == a.nbytes
        cache.reconcile(b)
        assert cache.stats()["bytes"] == a.nbytes + b.nbytes

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            TrieCache(-1)
        with pytest.raises(ValueError):
            TrieCache(4, max_bytes=-1)
