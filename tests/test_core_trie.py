"""Verification trie data structures: the slot-native trie both walkers
walk, the per-query warm state and the cross-query cache."""

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
        before = trie.allocations
        grown = trie.reserve(200)  # forces growth, slots stay dense
        assert grown == 3
        assert trie.used == 203
        assert trie.allocations > before
        assert trie.matrix[first].tolist() == [4.0, 5.0, 6.0]
        assert trie.row(0).tolist() == [1.0, 2.0, 3.0]
        assert trie.matrix.shape[0] >= trie.used

    def test_growth_is_geometric(self):
        trie = VerificationTrie(np.zeros(2))
        for _ in range(300):
            trie.reserve(1)
        # 300 rows, doubling from 32: 4 reallocations of the one matrix,
        # not ~300.
        assert trie.allocations == 1 + 4

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

    def sub_row_array(self, p, seq):
        self.calls += 1
        return super().sub_row_array(p, seq)


class TestTrieCacheEntry:
    def test_first_touch_converges_on_one_instance(self):
        """More threads than cores, switching as often as the interpreter
        allows, all touching the same fresh entry under its lock (as the
        arena walker does): one state, one trie, one row per symbol, and
        the creation charged once."""
        costs = _CountingLev()
        entry = TrieCacheEntry(costs, (1, 2, 3, 4))
        barrier = threading.Barrier(8)
        got, rows = [], []

        def touch():
            barrier.wait()
            with entry.lock:
                got.append(entry.direction(1, "f", True))
                rows.append([entry.rows.row(s) for s in range(50)])

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
        assert len({id(state) for state, _ in got}) == 1
        assert sorted(charged for _, charged in got) == [0] * 7 + [4]
        assert costs.calls == 50
        assert all(row is first for seen in rows for row, first in zip(seen, rows[0]))
        a, _ = got[0]
        assert entry.direction(1, "f", True) == (a, 0)
        c, charged = entry.direction(1, "b", False)
        assert c is not a and c.trie is None and charged == 3
        assert list(entry.directions) == [(1, "f"), (1, "b")]
        # Root columns are the parts' insertion prefixes.
        assert a.ins_prefix.tolist() == [0.0, 1.0, 2.0]
        assert c.ins_prefix.tolist() == [0.0, 1.0]
        assert a.trie.row(0).tolist() == a.ins_prefix.tolist()
        # Bytes: the 50 rows, the row tables and the one trie.
        assert entry.nbytes == (
            50 * 4 * 8 + a.rows.nbytes + c.rows.nbytes + a.trie.nbytes
        )
        assert a.trie.node_count() == 1  # the root


class TestTrieCache:
    def _entry_with_bytes(self, cache, key, rows):
        entry, _ = cache.lookup(key, new_entry)
        trie = entry.direction(0, "f", True)[0].trie
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
