"""Verification trie data structures: the Python walker's node graph and
the arena walker's slot-native trie."""

import numpy as np
import pytest

from repro.core.trie import TrieCache, TrieCacheEntry, TrieNode, VerificationTrie


class TestTrieNode:
    def test_column_min_cached(self):
        node = TrieNode([3.0, 1.0, 2.0])
        assert node.column_min == 1.0
        assert node.column_last == 2.0

    def test_find_and_create_child(self):
        node = TrieNode([0.0])
        assert node.find_child(5) is None
        child = node.create_child(5, [1.0])
        assert node.find_child(5) is child
        assert child.column == [1.0]

    def test_children_independent(self):
        node = TrieNode([0.0])
        a = node.create_child(1, [1.0])
        b = node.create_child(2, [2.0])
        assert node.find_child(1) is a
        assert node.find_child(2) is b

    def test_node_count(self):
        root = TrieNode([0.0])
        assert root.node_count() == 1
        a = root.create_child(1, [1.0])
        a.create_child(2, [2.0])
        root.create_child(3, [3.0])
        assert root.node_count() == 4
        assert a.node_count() == 2


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
        with trie.lock:
            first = trie.reserve(2)
        assert first == 1  # root occupies slot 0
        trie.matrix[first] = [4.0, 5.0, 6.0]
        before = trie.allocations
        with trie.lock:
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
            with trie.lock:
                trie.reserve(1)
        # 300 rows, doubling from 32: 4 reallocations of the one matrix,
        # not ~300.
        assert trie.allocations == 1 + 4

    def test_edges_address_columns(self):
        trie = VerificationTrie(np.asarray([0.0, 1.0]))
        with trie.lock:
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
        with trie.lock:
            trie.reserve(500)
        assert trie.nbytes > before


class TestTrieCacheEntry:
    def test_first_touch_converges_on_one_instance(self):
        entry = TrieCacheEntry()
        built = []

        def factory():
            trie = VerificationTrie(np.zeros(3))
            built.append(trie)
            return trie

        a = entry.trie((0, "f"), factory)
        b = entry.trie((0, "f"), factory)
        c = entry.trie((0, "b"), factory)
        assert a is b
        assert a is not c
        assert len(built) == 2
        assert entry.nbytes == a.nbytes + c.nbytes
        assert entry.column_count() == 2  # two roots


class TestTrieCache:
    def _entry_with_bytes(self, cache, key, rows):
        entry = cache.entry(key)
        trie = entry.trie((0, "f"), lambda: VerificationTrie(np.zeros(8)))
        with trie.lock:
            trie.reserve(rows)
        return entry

    def test_lru_entry_capacity(self):
        cache = TrieCache(2)
        cache.entry("a")
        cache.entry("b")
        cache.entry("a")  # refresh: b is now LRU
        cache.entry("c")  # evicts b
        assert cache.keys() == ["a", "c"]
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 3

    def test_zero_capacity_disables(self):
        cache = TrieCache(0)
        assert cache.entry("a") is None
        assert cache.entry("a") is None
        stats = cache.stats()
        assert stats["hits"] == stats["misses"] == stats["size"] == 0

    def test_byte_budget_evicts_lru_first(self):
        cache = TrieCache(16, max_bytes=150_000)
        self._entry_with_bytes(cache, "a", 400)
        self._entry_with_bytes(cache, "b", 400)
        assert cache.reconcile() <= 150_000
        # One ~100KB entry fits; two do not. "a" (LRU) must have gone.
        assert cache.keys() == ["b"]
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["bytes"] <= 150_000

    def test_reconcile_accounts_growth_after_insertion(self):
        cache = TrieCache(16, max_bytes=50_000)
        entry = self._entry_with_bytes(cache, "a", 4)
        assert cache.reconcile() < 50_000
        assert cache.keys() == ["a"]
        # The cached entry keeps growing while cached — the budget must
        # catch it at the next reconcile, even as the only entry.
        trie = entry.tries[(0, "f")]
        with trie.lock:
            trie.reserve(4000)
        cache.reconcile()
        assert cache.keys() == []
        assert cache.stats()["bytes"] == 0

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            TrieCache(-1)
        with pytest.raises(ValueError):
            TrieCache(4, max_bytes=-1)
