"""The cross-query warm-query cache (ISSUEs 5, 21): warm == cold, bit
for bit.

The engine-level :class:`~repro.core.trie.TrieCache` persists a query's
warm state — its substitution rows and per-direction verification tries,
one :class:`~repro.core.trie.TrieCacheEntry` — across queries sharing
the query-and-cost-model signature prefix, so repeated queries skip row
computation and walk warm columns instead of recomputing them.  Warmth is
a pure scheduling change — a cached column holds the exact floats its
recomputation would produce — so this suite pins, via hypothesis over
synthetic workloads and non-representable (0.3-multiple) costs:

- results (match keys AND distances) bit-identical warm vs cold, and
  tau variations sharing one cache entry;
- every VerificationStats counter identical warm vs cold except
  ``computed_columns``, which may only *drop* on a warm walk (and drops
  to exactly 0 on an exact repeat — the whole frontier is cached), on
  every cost model;
- the cache being merely *enabled* changes nothing: a first (cold-start)
  query through the cache matches the cache-disabled run in results and
  stats exactly;
- concurrency: one verifier walks an entry at a time — a second one
  waits for the first one's anchor group and finds its columns as hits,
  concurrent verifiers at distinct thresholds answer exactly and compute
  each column once, and shard engines sharing one TrieCache under
  simultaneous queries and an online insert answer exactly;
- tries off: local verification builds no trie, and the engine's cache
  entry keeps the rows and no tries;
- eviction: LRU order under the byte budget (row bytes included), the
  evicted entry released by reference counting alone, size-0 disable,
  and stats summing across shards (processes backend included);
- one cache on every backend: a repeat is a hit that computes no
  substitution row, concurrent missers share one entry's rows, and a
  time-window query computes no row for the anchors the filter dropped.
"""

import gc
import json
import os
import sys
import threading
import time
import urllib.request
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.core.engine import (
    DEFAULT_TRIE_CACHE,
    DEFAULT_TRIE_CACHE_BYTES,
    SubtrajectorySearch,
)
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.results import MatchSet
from repro.core.filtering import tau_from_ratio
from repro.core.temporal import TimeInterval, filter_candidates
from repro.core.trie import TrieCache, TrieCacheEntry
from repro.core.verification import Verifier
from repro.distance.costs import (
    CostModel,
    EDRCost,
    ERPCost,
    LevenshteinCost,
    NetEDRCost,
    NetERPCost,
    SURSCost,
)
from repro.exceptions import QueryError
from repro.network.generators import grid_city
from repro.service import QueryService
from repro.service.http import ServiceServer
from repro.trajectory.dataset import TrajectoryDataset
from tests.conftest import oracle_range, python_kernel, sample_query


class WeightedCost(CostModel):
    """Non-representable 0.3-multiple costs: bit-identity stress."""

    name = "w03"

    def sub(self, a: int, b: int) -> float:
        return 0.3 * abs(a - b)

    def ins(self, a: int) -> float:
        return 0.7 + 0.1 * (a % 3)


class RowLedgerCost(CostModel):
    """Unit costs that log every substitution row they compute as one
    byte appended to ``ledger`` — a count that survives the process
    boundary (worker engines run a pickled or forked copy)."""

    name = "row-ledger"

    def __init__(self, ledger) -> None:
        self.ledger = str(ledger)

    def sub(self, a: int, b: int) -> float:
        return 0.0 if a == b else 1.0

    def ins(self, a: int) -> float:
        return 1.0

    def sub_row(self, p, seq):
        with open(self.ledger, "ab") as out:
            out.write(b".")
        return super().sub_row(p, seq)

    def rows_computed(self) -> int:
        return os.path.getsize(self.ledger) if os.path.exists(self.ledger) else 0


lev = LevenshteinCost()
w03 = WeightedCost()

#: every cost model of ``repro.distance.costs`` on one small grid, whose
#: first vertices (and, for SURS, edges) are the symbols drawn below.
_GRID = grid_city(8, 8, seed=42)
MODELS = {
    "lev": lev,
    "edr": EDRCost(_GRID, epsilon=60.0),
    "erp": ERPCost(_GRID, eta=25.0),
    "netedr": NetEDRCost(_GRID),
    "neterp": NetERPCost(_GRID, g_del=250.0),
    "surs": SURSCost(_GRID),
}


def candidates_for(data_strings, query):
    """All (id, j, iq) anchors within substitution distance 1 symbol."""
    out = []
    for tid, data in enumerate(data_strings):
        for j, sym in enumerate(data):
            for iq, q in enumerate(query):
                if abs(sym - q) <= 1:
                    out.append((tid, j, iq))
    return out


def run_verifier(data, query, costs, tau, entry, use_trie=True):
    v = Verifier(
        lambda tid: data[tid],
        query,
        costs,
        tau,
        use_trie=use_trie,
        trie_entry=entry,
    )
    ms = MatchSet()
    v.verify_all(candidates_for(data, query), ms)
    matches = sorted(
        (m.trajectory_id, m.start, m.end, m.distance) for m in ms.to_list()
    )
    return matches, v.stats


symbols = st.integers(min_value=0, max_value=5)
strings = st.lists(symbols, min_size=1, max_size=10)


class TestWarmColdBitIdentity:
    """Hypothesis pinning of the warm walker against cold verification."""

    @given(
        data=st.lists(strings, min_size=1, max_size=3),
        query=st.lists(symbols, min_size=1, max_size=5),
        taus=st.lists(
            st.floats(min_value=0.4, max_value=4.0), min_size=1, max_size=3
        ),
    )
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("costs", [lev, w03], ids=["lev", "w03"])
    def test_tau_variations_share_one_entry(self, costs, data, query, taus):
        """One shared TrieCacheEntry across tau variations: results and
        all answer-relevant counters bit-identical to fresh-trie runs;
        computed_columns only ever drops."""
        entry = TrieCacheEntry(costs, query)
        for tau in taus:
            warm = run_verifier(data, query, costs, tau, entry)
            cold = run_verifier(data, query, costs, tau, None)
            assert warm[0] == cold[0]  # keys AND distances, exact ==
            ws, cs = warm[1], cold[1]
            assert ws.candidates == cs.candidates
            assert ws.sw_columns == cs.sw_columns
            assert ws.visited_columns == cs.visited_columns
            assert ws.emitted == cs.emitted
            assert ws.duplicate_candidates == cs.duplicate_candidates
            # Warmth can only save recomputation, never add it.
            assert ws.computed_columns <= cs.computed_columns
        # An exact repeat finds its whole frontier cached: the walk is
        # nothing but cached-column visits.
        repeat = run_verifier(data, query, costs, taus[-1], entry)
        assert repeat[0] == warm[0]
        assert repeat[1].computed_columns == 0
        assert repeat[1].visited_columns == warm[1].visited_columns

    @given(
        data=st.lists(strings, min_size=1, max_size=3),
        query=st.lists(symbols, min_size=1, max_size=5),
        tau=st.floats(min_value=0.4, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("costs", [lev, w03], ids=["lev", "w03"])
    def test_warm_walk_matches_python_backend(self, costs, data, query, tau):
        """A *warm* trie walk equals a cold local verification (no trie,
        every column recomputed one DP cell at a time) bit for bit —
        results and every counter except computed_columns, which the warm
        walk reuses.  Local verification over the warmed entry reads its
        rows and computes every column again."""
        entry = TrieCacheEntry(costs, query)
        run_verifier(data, query, costs, tau, entry)  # warm up
        warm = run_verifier(data, query, costs, tau, entry)
        local = run_verifier(data, query, costs, tau, None, use_trie=False)
        assert warm[0] == local[0]
        assert warm[1].visited_columns == local[1].visited_columns
        assert warm[1].emitted == local[1].emitted
        assert warm[1].computed_columns == 0
        with_entry = run_verifier(data, query, costs, tau, entry, use_trie=False)
        assert with_entry == local

    @given(
        data=st.lists(strings, min_size=1, max_size=3),
        query=st.lists(symbols, min_size=1, max_size=5),
        tau=st.floats(min_value=0.4, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_cache_enabled_cold_start_is_invisible(self, data, query, tau):
        """Routing a first-touch query through a (cold) cache entry is a
        no-op: results and the full VerificationStats match the
        cache-disabled run exactly."""
        through_cache = run_verifier(data, query, w03, tau, TrieCacheEntry(w03, query))
        no_cache = run_verifier(data, query, w03, tau, None)
        assert through_cache == no_cache


class TestEveryModel:
    """On every cost model, a warmed entry is walked again with no
    column computed and the same answer bit for bit."""

    @given(
        data=st.lists(strings, min_size=1, max_size=3),
        query=st.lists(symbols, min_size=1, max_size=5),
        tau_ratio=st.floats(min_value=0.1, max_value=0.7),
    )
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_warm_entry_walks_without_computing(self, name, data, query, tau_ratio):
        costs = MODELS[name]
        tau = tau_from_ratio(query, costs, tau_ratio)
        entry = TrieCacheEntry(costs, query)
        built = run_verifier(data, query, costs, tau, entry)
        cold = run_verifier(data, query, costs, tau, None)
        assert cold == built
        walked = run_verifier(data, query, costs, tau, entry)
        assert walked[0] == built[0]  # keys AND distances, exact ==
        assert walked[1].computed_columns == 0
        assert walked[1].visited_columns == built[1].visited_columns


class TestPythonKernel:
    """The Python DP kernel forced, on every cost model: the same
    answers, counters and trie columns as the native kernel, bit for
    bit, cold, warm and without tries."""

    @given(
        data=st.lists(strings, min_size=1, max_size=3),
        query=st.lists(symbols, min_size=1, max_size=5),
        tau_ratio=st.floats(min_value=0.1, max_value=0.7),
    )
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_python_kernel_walks_the_same_columns(self, name, data, query, tau_ratio):
        costs = MODELS[name]
        tau = tau_from_ratio(query, costs, tau_ratio)
        native_entry = TrieCacheEntry(costs, query)
        native = run_verifier(data, query, costs, tau, native_entry)
        native_local = run_verifier(data, query, costs, tau, None, use_trie=False)
        entry = TrieCacheEntry(costs, query)
        with python_kernel():
            cold = run_verifier(data, query, costs, tau, entry)
            warm = run_verifier(data, query, costs, tau, entry)
            local = run_verifier(data, query, costs, tau, None, use_trie=False)
        assert cold == native  # keys AND distances, every counter
        assert local == native_local
        assert warm[0] == native[0] and warm[1].computed_columns == 0
        assert entry.slots == native_entry.slots
        assert entry.directions.keys() == native_entry.directions.keys()
        for key, state in entry.directions.items():
            trie, other = state.trie, native_entry.directions[key].trie
            assert trie.edges == other.edges
            assert trie.matrix[: trie.used].tobytes() == other.matrix[: other.used].tobytes()
            assert (trie.mins_list, trie.lasts_list) == (other.mins_list, other.lasts_list)


def _result_key(result):
    return [(m.trajectory_id, m.start, m.end, m.distance) for m in result.matches]


class TestEngineWarmPath:
    """Engine-level integration: cache key sharing, backends, inserts."""

    def test_warm_engine_matches_cold_engine(self, vertex_dataset, netedr_cost, rng):
        from tests.conftest import sample_query

        warm_engine = SubtrajectorySearch(vertex_dataset, netedr_cost, trie_cache_size=8)
        cold_engine = SubtrajectorySearch(vertex_dataset, netedr_cost, trie_cache_size=0)
        query = sample_query(vertex_dataset, rng, 8)
        seen = set()
        for tau_ratio in (0.3, 0.45, 0.3, 0.2):
            warm = warm_engine.query(query, tau_ratio=tau_ratio)
            cold = cold_engine.query(query, tau_ratio=tau_ratio)
            assert _result_key(warm) == _result_key(cold)
            assert warm.verification.visited_columns == cold.verification.visited_columns
            assert warm.verification.computed_columns <= cold.verification.computed_columns
            if tau_ratio in seen:
                # An exact repeat finds its whole frontier cached.
                assert warm.verification.computed_columns == 0
            seen.add(tau_ratio)
        stats = warm_engine.status().trie
        # All four tau variations share ONE entry: a single miss.
        assert stats["misses"] == 1
        assert stats["hits"] == 3
        assert stats["size"] == 1
        assert cold_engine.status().trie["capacity"] == 0

    def test_online_insert_needs_no_invalidation(self, small_graph, trips, netedr_cost):
        """Why inserts never invalidate the trie cache: a cached column is
        keyed by its data-symbol *path* (plus the fixed query part and
        cost model) — ``wed(path, Q^d)`` does not mention the dataset.  A
        new trajectory only adds new paths; wherever it shares a prefix
        with already-cached paths, the correct columns for that prefix
        are *by definition* the cached ones.  So the warm engine must
        answer post-insert queries exactly like a cold engine built on
        the post-insert dataset, with its pre-insert entries intact."""
        dataset = TrajectoryDataset(small_graph, "vertex")
        dataset.extend(trips[:20])
        engine = SubtrajectorySearch(dataset, netedr_cost, trie_cache_size=8)
        query = list(dataset.symbols(0))[:8]
        before = engine.query(query, tau_ratio=0.4)
        assert engine.status().trie["size"] == 1
        engine.add_trajectory(trips[20])
        after = engine.query(query, tau_ratio=0.4)
        # Entry survived the insert (no invalidation) and was reused.
        stats = engine.status().trie
        assert stats["size"] == 1
        assert stats["hits"] == 1
        assert stats["evictions"] == 0
        # ... and the warm answer equals a from-scratch engine's.
        reference = TrajectoryDataset(small_graph, "vertex")
        reference.extend(trips[:21])
        fresh = SubtrajectorySearch(reference, netedr_cost, trie_cache_size=0)
        assert _result_key(after) == _result_key(fresh.query(query, tau_ratio=0.4))
        # The new trajectory's matches are found warm: the insert's new
        # paths are cold frontier, everything shared stays cached.
        assert len(after.matches) >= len(before.matches)


class TestSharedCacheConcurrency:
    def test_serial_shards_share_one_cache_under_insert(
        self, small_graph, trips, netedr_cost
    ):
        """Two serial-backend shards + concurrent clients + an online
        insert, all over ONE shared TrieCache.

        Safe because (a) trie columns are dataset-independent — shard A's
        walk caches columns shard B would compute identically, and an
        insert adds paths without changing any existing column (see
        test_online_insert_needs_no_invalidation) — and (b) one
        verifier walks an entry at a time (the entry's lock, held per
        anchor group).  Torn or wrong columns would surface here as
        wrong distances vs. the cold references.
        """
        dataset = TrajectoryDataset(small_graph, "vertex")
        dataset.extend(trips[:20])
        engine = PartitionedSubtrajectorySearch(
            dataset,
            netedr_cost,
            num_shards=2,
            backend="serial",
            trie_cache_size=8,
        )
        queries = [list(dataset.symbols(t))[:8] for t in (0, 1)]
        pre = {
            i: _result_key(engine.query(q, tau_ratio=0.4))
            for i, q in enumerate(queries)
        }
        n_pre = len(dataset)
        reference = TrajectoryDataset(small_graph, "vertex")
        reference.extend(trips[:21])
        post_engine = SubtrajectorySearch(reference, netedr_cost, trie_cache_size=0)
        post = {
            i: _result_key(post_engine.query(q, tau_ratio=0.4))
            for i, q in enumerate(queries)
        }
        errors = []
        inserted = threading.Event()

        def client(worker_id):
            try:
                for lap in range(8):
                    i = (worker_id + lap) % len(queries)
                    got = _result_key(engine.query(queries[i], tau_ratio=0.4))
                    # A query racing the insert may see the new trajectory
                    # partially indexed (documented engine window), so
                    # only the settled-trajectory part is exact; columns
                    # themselves must be correct either way.
                    old = [m for m in got if m[0] < n_pre]
                    new = [m for m in got if m[0] >= n_pre]
                    assert old == pre[i], f"torn/wrong result for query {i}"
                    assert set(new) <= set(post[i]) - set(pre[i])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def mutator():
            try:
                inserted.wait(5.0)
                engine.add_trajectory(trips[20])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=mutator))
        for t in threads:
            t.start()
        inserted.set()
        for t in threads:
            t.join(30.0)
        assert not errors, errors
        # Settled state: warm answers equal the post-insert cold engine.
        for i, q in enumerate(queries):
            assert _result_key(engine.query(q, tau_ratio=0.4)) == post[i]
        stats = engine.status().trie
        # One shared cache: one miss per distinct signature, no matter
        # how many shards and client threads walked it; everything else hit.
        assert stats["misses"] == len(queries)
        assert stats["hits"] >= 4 * 8 - len(queries)
        assert stats["evictions"] == 0
        assert stats["shards"] == stats["shards_reporting"] == 2
        engine.close()


class TestOneVerifierPerEntry:
    """The rule: a :class:`TrieCacheEntry` is walked by one verifier at a
    time — the verifier holds the entry's lock for each anchor group,
    so a second verifier of the same query waits for the group and then
    walks its columns as cache hits."""

    DATA = [
        [1, 2, 3, 4, 5, 0, 1, 2, 3, 4],
        [1, 2, 3, 4, 5, 0, 2, 2, 1, 0],
        [5, 4, 3, 4, 5, 0, 1, 1],
        [0, 1, 2, 3, 4, 5, 5, 5, 5],
    ]
    QUERY = [3, 4, 5]
    TAU = 4.0

    def _verifier(self, entry):
        return Verifier(
            lambda tid: self.DATA[tid],
            self.QUERY,
            w03,
            self.TAU,
            trie_entry=entry,
        )

    @staticmethod
    def _run(v, candidates):
        ms = MatchSet()
        v.verify_all(candidates, ms)
        return sorted((m.trajectory_id, m.start, m.end, m.distance) for m in ms)

    def test_second_verifier_waits_for_the_group(self):
        candidates = candidates_for(self.DATA, self.QUERY)
        alone = self._verifier(None)
        want = self._run(alone, candidates)
        assert want and alone.stats.computed_columns > 0

        entry = TrieCacheEntry(w03, self.QUERY)
        a, b = self._verifier(entry), self._verifier(entry)
        got_b, errors = [], []

        def run_b():
            try:
                got_b.append(self._run(b, candidates))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=run_b)
        walk = a._all_prefix_wed

        def hooked_walk(*args):
            if thread.ident is None:
                # A is inside its first group: B starts on the same entry
                # and gets ample time to finish — it must not.
                thread.start()
                thread.join(0.3)
                assert thread.is_alive(), "B walked the entry while A held it"
            return walk(*args)

        a._all_prefix_wed = hooked_walk
        got_a = self._run(a, candidates)
        thread.join(30.0)
        assert not errors, errors
        assert thread.ident is not None and not thread.is_alive()
        assert got_a == got_b[0] == want
        # B found every column A computed as a hit, and vice versa after
        # A's first group: each column was computed once, by one of them.
        assert (
            a.stats.computed_columns + b.stats.computed_columns
            == alone.stats.computed_columns
        )


#: the stress class runs briefly in tier-1 and deep under
#: ``--hypothesis-profile=history`` (tests/conftest.py).
STRESS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    **(
        {}
        if settings.get_current_profile_name() == "history"
        else {"max_examples": 30}
    ),
)


class TestConcurrentVerifiersStress:
    """2-6 threads, switching as often as the interpreter allows, verify
    one query at distinct thresholds over one fresh shared entry."""

    @given(
        data=st.lists(strings, min_size=1, max_size=4),
        query=st.lists(symbols, min_size=1, max_size=5),
        taus=st.lists(
            st.floats(min_value=0.5, max_value=4.5), min_size=2, max_size=6, unique=True
        ),
    )
    @STRESS
    def test_every_answer_exact_and_every_column_computed_once(self, data, query, taus):
        entry = TrieCacheEntry(lev, query)
        # Every (id, j, iq) is a candidate, so verification is complete:
        # on unit costs the answers must equal the oracle's exactly.
        candidates = [
            (tid, j, iq)
            for tid, string in enumerate(data)
            for j in range(len(string))
            for iq in range(len(query))
        ]
        barrier = threading.Barrier(len(taus))
        answers, computed, errors = {}, [], []

        def verify(tau):
            try:
                v = Verifier(lambda tid: data[tid], query, lev, tau, trie_entry=entry)
                ms = MatchSet()
                barrier.wait()
                v.verify_all(candidates, ms)
                answers[tau] = {(m.trajectory_id, m.start, m.end) for m in ms}
                computed.append(v.stats.computed_columns)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=verify, args=(tau,)) for tau in taus]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert not any(t.is_alive() for t in threads)
        for tau in taus:
            assert answers[tau] == oracle_range(data, query, lev, tau)
        tries = [s.trie for s in entry.directions.values() if s.trie is not None]
        assert sum(computed) == sum(trie.node_count() - 1 for trie in tries)


class TestTriesOff:
    """``use_trie=False``: no trie built, nothing shared but rows."""

    def test_local_walk_builds_no_trie(self):
        data = TestOneVerifierPerEntry.DATA
        query = TestOneVerifierPerEntry.QUERY
        entry = TrieCacheEntry(w03, query)
        v = Verifier(lambda tid: data[tid], query, w03, 4.0, use_trie=False, trie_entry=entry)
        v.verify_all(candidates_for(data, query), MatchSet())
        assert v.stats.computed_columns == v.stats.visited_columns > 0
        assert len(entry.directions) > 2
        assert all(state.trie is None for state in entry.directions.values())
        # One row per distinct walked symbol, in the entry's one store.
        walked = {s for tid, j, iq in candidates_for(data, query) for s in data[tid]}
        assert entry.slots and set(entry.slots) <= walked
        assert sorted(entry.slots.values()) == list(range(len(entry.slots)))

    def test_local_verification_reuses_the_matrix_and_builds_no_tries(
        self, vertex_dataset, netedr_cost
    ):
        engine = SubtrajectorySearch(
            vertex_dataset,
            netedr_cost,
            verification="local",
            trie_cache_size=8,
        )
        reference = SubtrajectorySearch(vertex_dataset, netedr_cost, trie_cache_size=0)
        cache = engine._trie_cache
        statuses = []
        for tid in (0, 1, 0):
            query = list(vertex_dataset.symbols(tid))[:8]
            result = engine.query(query, tau_ratio=0.3)
            assert _result_key(result) == _result_key(
                reference.query(query, tau_ratio=0.3)
            )
            statuses.append(result.trie_cache_status)
        assert statuses == ["miss", "miss", "hit"]
        assert len(cache) == 2
        for key in cache.keys():
            entry = cache.peek(key)
            assert entry.slots and len(entry.rows) >= len(entry.slots)
            assert all(state.trie is None for state in entry.directions.values())
        stats = engine.status().trie
        assert (stats["hits"], stats["misses"]) == (1, 2)
        # The budget sees what the entries pin: their rows.
        assert stats["bytes"] == sum(
            cache.peek(key).nbytes for key in cache.keys()
        ) > 0


class TestEvictionAndDisable:
    def test_engine_lru_order_and_arena_release(self, vertex_dataset, netedr_cost):
        engine = SubtrajectorySearch(
            vertex_dataset, netedr_cost, trie_cache_size=2
        )
        cache = engine._trie_cache
        queries = [list(vertex_dataset.symbols(t))[:6] for t in (0, 1, 2)]
        engine.query(queries[0], tau_ratio=0.3)
        (first_key,) = cache.keys()
        entry = cache.peek(first_key)
        states = list(entry.directions.values())
        tries = [weakref.ref(s.trie) for s in states if s.trie is not None]
        assert tries, "verification should have built at least one trie"
        tables = [weakref.ref(s) for s in states]
        refs = [weakref.ref(entry)] + tries + tables
        del entry, states
        # Reference counting alone must free an evicted entry: nothing
        # under it points back at it, so no cycle waits for the collector.
        gc.disable()
        try:
            engine.query(queries[1], tau_ratio=0.3)
            engine.query(queries[0], tau_ratio=0.3)  # refresh: q1 is now LRU
            engine.query(queries[2], tau_ratio=0.3)  # capacity 2: evicts q1
            keys = cache.keys()
            assert len(keys) == 2
            assert first_key in keys  # the refreshed entry survived
            stats = engine.status().trie
            assert stats["evictions"] == 1
            assert stats["hits"] == 1 and stats["misses"] == 3
            # Evicting q1's would mean releasing ITS arenas; here q1
            # survived, so evict it too and confirm everything frees.
            engine.query(queries[1], tau_ratio=0.3)
            engine.query(queries[2], tau_ratio=0.3)
            assert first_key not in cache.keys()
            pinned = [i for i, ref in enumerate(refs) if ref() is not None]
        finally:
            gc.enable()
        assert not pinned, "evicted entry, direction states or tries still pinned"

    def test_byte_budget_evicts_after_verification(self, vertex_dataset, netedr_cost):
        engine = SubtrajectorySearch(
            vertex_dataset,
            netedr_cost,
            trie_cache_size=8,
            trie_cache_bytes=1,  # nothing fits: every query evicts itself
        )
        query = list(vertex_dataset.symbols(0))[:6]
        engine.query(query, tau_ratio=0.3)
        stats = engine.status().trie
        assert stats["size"] == 0
        assert stats["evictions"] == 1
        assert stats["bytes"] == 0
        # Correctness is unaffected — the query simply stays cold.
        engine.query(query, tau_ratio=0.3)
        assert engine.status().trie["evictions"] == 2

    def test_matrix_alone_over_budget_is_shed(self, vertex_dataset, netedr_cost):
        """The budget counts everything an entry pins: local verification
        builds no tries, so an entry it sheds was shed for its
        substitution rows alone (the unit case is
        ``test_core_trie.py::TestTrieCacheEntry::test_row_cache_is_counted_and_shed``)."""
        engine = SubtrajectorySearch(
            vertex_dataset,
            netedr_cost,
            verification="local",
            trie_cache_size=8,
            trie_cache_bytes=64,
        )
        engine.query(list(vertex_dataset.symbols(0))[:6], tau_ratio=0.3)
        stats = engine.status().trie
        assert (stats["size"], stats["evictions"], stats["bytes"]) == (0, 1, 0)

    def test_size_zero_fully_disables(self, vertex_dataset, netedr_cost, rng):
        from tests.conftest import sample_query

        engine = SubtrajectorySearch(
            vertex_dataset, netedr_cost, trie_cache_size=0
        )
        query = sample_query(vertex_dataset, rng, 8)
        a = engine.query(query, tau_ratio=0.3)
        b = engine.query(query, tau_ratio=0.3)
        assert _result_key(a) == _result_key(b)
        # Truly off: no entries, no counting, and repeats recompute.
        (shard,) = engine.status().shards
        assert shard.trie == {
            "capacity": 0,
            "size": 0,
            "bytes": 0,
            "max_bytes": shard.trie["max_bytes"],
            "hits": 0,
            "misses": 0,
            "evictions": 0,
        }
        assert b.verification.computed_columns == a.verification.computed_columns > 0

    def test_knob_cli_round_trip(self):
        args = build_parser().parse_args(["serve", "--self-test"])
        assert args.trie_cache_size == DEFAULT_TRIE_CACHE
        assert args.trie_cache_mb == DEFAULT_TRIE_CACHE_BYTES / (1024 * 1024)
        args = build_parser().parse_args(
            ["query", "--network", "n", "--trips", "t", "--query", "1",
             "--trie-cache-size", "0", "--trie-cache-mb", "16"]
        )
        assert args.trie_cache_size == 0
        assert args.trie_cache_mb == 16.0

    def test_healthz_and_stats_expose_trie_cache(
        self, vertex_dataset, netedr_cost, rng
    ):
        from tests.conftest import sample_query

        engine = SubtrajectorySearch(vertex_dataset, netedr_cost)
        service = QueryService(engine)
        with ServiceServer(service) as server:
            server.start()
            query = sample_query(vertex_dataset, rng, 8)
            # Distinct result-cache signatures, one shared trie entry.
            service.query(query, tau_ratio=0.3)
            service.query(query, tau_ratio=0.45)
            with urllib.request.urlopen(server.url + "/healthz", timeout=10) as resp:
                health = json.loads(resp.read().decode("utf-8"))
            assert health["trie_cache"]["misses"] == 1
            assert health["trie_cache"]["hits"] == 1
            assert health["trie_cache"]["bytes"] > 0
            stats = service.stats()
            assert stats["trie_cache"]["capacity"] == DEFAULT_TRIE_CACHE
            assert stats["trie_cache"]["evictions"] == 0

    def test_processes_backend_rejects_prebuilt_cache(
        self, vertex_dataset, netedr_cost
    ):
        """Worker processes cannot share a parent-side TrieCache (no
        shared memory; it holds a thread lock that cannot cross a spawn
        pickle) — the constructor must say so, not crash in the worker
        bootstrap."""
        from repro.core.trie import TrieCache
        from repro.exceptions import QueryError

        with pytest.raises(QueryError, match="trie_cache"):
            PartitionedSubtrajectorySearch(
                vertex_dataset,
                netedr_cost,
                num_shards=2,
                backend="processes",
                trie_cache=TrieCache(4),
            )

    def test_stats_sum_across_process_shards(self, vertex_dataset, netedr_cost):
        engine = PartitionedSubtrajectorySearch(
            vertex_dataset,
            netedr_cost,
            num_shards=2,
            backend="processes",
            trie_cache_size=4,
        )
        try:
            query = list(vertex_dataset.symbols(0))[:8]
            engine.query(query, tau_ratio=0.3)
            engine.query(query, tau_ratio=0.3)
            stats = engine.status().trie
            assert stats["shards"] == 2
            assert stats["shards_reporting"] == 2  # idle workers all answer
            # Per-worker caches (no shared memory): capacities sum, and
            # the repeat hit every worker's own cache once.
            assert stats["capacity"] == 8
            assert stats["misses"] == 2
            assert stats["hits"] == 2
            assert stats["size"] == 2
        finally:
            engine.close()


class TestLookupStatusAndMeasuredBytes:
    """ISSUE 6 satellite 1 plus the lookup-status plumbing traces rely on."""

    def test_lookup_reports_hit_miss_off(self):
        def factory():
            return TrieCacheEntry(lev, (1, 2))

        cache = TrieCache(2)
        entry, status = cache.lookup("k", factory)
        assert status == "miss" and entry is not None
        again, status2 = cache.lookup("k", factory)
        assert status2 == "hit" and again is entry
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1
        off = TrieCache(0)
        fresh, status3 = off.lookup("k", factory)
        assert status3 == "off" and off.lookup("k", factory)[0] is not fresh
        # Disabled caches count nothing — "off" is not a miss.
        assert off.stats()["hits"] == 0 and off.stats()["misses"] == 0

    def test_query_result_carries_trie_cache_status(self, vertex_dataset, netedr_cost):
        engine = SubtrajectorySearch(vertex_dataset, netedr_cost, trie_cache_size=8)
        query = list(vertex_dataset.symbols(0))[:8]
        assert engine.query(query, tau_ratio=0.3).trie_cache_status == "miss"
        assert engine.query(query, tau_ratio=0.3).trie_cache_status == "hit"
        disabled = SubtrajectorySearch(vertex_dataset, netedr_cost, trie_cache_size=0)
        assert disabled.query(query, tau_ratio=0.3).trie_cache_status == "off"

    def test_merged_shard_statuses_join_distinct_values(
        self, vertex_dataset, netedr_cost
    ):
        engine = PartitionedSubtrajectorySearch(
            vertex_dataset, netedr_cost, num_shards=2, trie_cache_size=8,
        )
        query = list(vertex_dataset.symbols(0))[:8]
        cold = engine.query(query, tau_ratio=0.3).trie_cache_status
        # Serial shards share one cache: shard 0's miss warms shard 1.
        assert "miss" in cold.split("+")
        warm = engine.query(query, tau_ratio=0.3).trie_cache_status
        assert warm == "hit"

    def test_bytes_are_measured_not_estimated(self, vertex_dataset, netedr_cost):
        """Satellite 1: ``nbytes`` measures the real containers and boxed
        objects (``sys.getsizeof`` + ``ndarray.nbytes``), so accounted
        bytes strictly exceed the raw array payload."""
        engine = SubtrajectorySearch(vertex_dataset, netedr_cost, trie_cache_size=8)
        query = list(vertex_dataset.symbols(0))[:8]
        engine.query(query, tau_ratio=0.3)
        cache = engine._trie_cache
        (key,) = cache.keys()
        entry = cache.peek(key)
        tries = [s.trie for s in entry.directions.values() if s.trie is not None]
        assert tries, "verification should have built tries"
        array_bytes = sum(trie.matrix.nbytes for trie in tries)
        assert array_bytes > 0
        assert entry.nbytes > array_bytes
        # What /metrics and /stats report is exactly the measured figure.
        assert engine.status().trie["bytes"] == entry.nbytes


class _SlowRowCost(WeightedCost):
    """Counts :meth:`sub_row` calls and makes each slow enough that a
    second verifier is sure to want a row while the first computes it."""

    def __init__(self) -> None:
        self.calls = 0

    def sub_row(self, p, seq):
        self.calls += 1
        time.sleep(0.002)
        return super().sub_row(p, seq)


class _RowSymbolsCost(NetEDRCost):
    """NetEDR recording the symbol of every substitution row it computes."""

    def __init__(self, graph) -> None:
        super().__init__(graph)
        self.symbols = set()
        self.calls = []

    def sub_row(self, p, seq):
        self.symbols.add(p)
        self.calls.append((p, tuple(seq)))
        return super().sub_row(p, seq)


class TestOneWarmQueryCache:
    """The substitution rows and the tries of a query are one cache
    entry, on every backend."""

    @pytest.mark.parametrize("backend", ["single", "serial", "processes"])
    def test_repeat_is_a_hit_that_computes_no_row(
        self, vertex_dataset, tmp_path, backend
    ):
        costs = RowLedgerCost(tmp_path / "rows")
        if backend == "single":
            engine = SubtrajectorySearch(vertex_dataset, costs)
        else:
            engine = PartitionedSubtrajectorySearch(
                vertex_dataset, costs, num_shards=2, backend=backend
            )
        try:
            query = list(vertex_dataset.symbols(0))[:8]
            first = engine.query(query, tau_ratio=0.3)
            assert "miss" in first.trie_cache_status.split("+")
            rows = costs.rows_computed()
            assert rows > 0
            second = engine.query(query, tau_ratio=0.3)
            assert second.trie_cache_status == "hit"
            assert costs.rows_computed() == rows
            assert _result_key(second) == _result_key(first)
            with QueryService(engine) as service:
                stats = service.stats()
            trie, alias = stats["trie_cache"], stats["substitution_cache"]
            assert set(alias) == {"capacity", "size", "hits", "misses"}
            assert (alias["hits"], alias["misses"]) == (trie["hits"], trie["misses"])
            assert trie["hits"] >= 1 and trie["misses"] >= 1
        finally:
            if backend != "single":
                engine.close()

    def test_concurrent_missers_share_one_matrix(self, vertex_dataset):
        """Concurrent missers of one query share one entry, and with it
        one computation of each substitution row: together they compute
        exactly the rows one cold query computes alone."""
        costs = _SlowRowCost()
        query = list(vertex_dataset.symbols(0))[:8]
        alone = SubtrajectorySearch(vertex_dataset, costs, trie_cache_size=0)
        want = _result_key(alone.query(query, tau_ratio=0.3))
        rows_alone, costs.calls = costs.calls, 0
        assert rows_alone > 0
        engine = SubtrajectorySearch(vertex_dataset, costs)
        barrier = threading.Barrier(2)
        results, errors = [], []

        def client():
            try:
                barrier.wait()
                results.append(_result_key(engine.query(query, tau_ratio=0.3)))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors, errors
        assert not any(t.is_alive() for t in threads)
        assert results == [want, want]
        # One creates the entry, the other finds it — and waits for the
        # rows being computed instead of computing them a second time.
        stats = engine.status().trie
        assert (stats["misses"], stats["hits"], stats["size"]) == (1, 1, 1)
        assert costs.calls == rows_alone

    def test_time_window_computes_no_row_for_dropped_anchors(
        self, small_graph, vertex_dataset
    ):
        """Rows are computed on first touch only: a candidate the temporal
        filter drops is never verified, so its anchor symbol gets no row
        (the dense anchor pre-pass this replaces computed one for every
        anchor in the index, dropped or not)."""
        costs = _RowSymbolsCost(small_graph)
        engine = SubtrajectorySearch(vertex_dataset, costs)
        query = list(vertex_dataset.symbols(0))[:8]
        first = vertex_dataset[0]
        window = TimeInterval(first.timestamps[0], first.timestamps[-1])
        candidates = engine.candidates(query, tau_ratio=0.3)
        kept = {tid for tid, _, _ in filter_candidates(vertex_dataset, candidates, window)}
        reachable = set()
        for tid in kept:
            reachable.update(vertex_dataset.symbols(tid))
        dropped = {
            vertex_dataset.symbols(tid)[j]
            for tid, j, _ in candidates
            if tid not in kept
        }
        assert dropped - reachable, "the window drops no anchor of its own"
        result = engine.query(query, tau_ratio=0.3, time_interval=window)
        assert result.trie_cache_status == "miss" and result.matches
        assert costs.symbols and costs.symbols <= reachable


class _CountingRowCost(CostModel):
    """Unit costs that count the substitution rows the engine asks for."""

    representation = "vertex"
    name = "counting"
    row_calls = 0

    def sub(self, a: int, b: int) -> float:
        return 0.0 if a == b else 1.0

    def ins(self, a: int) -> float:
        return 1.0

    def sub_row(self, p, seq):
        self.row_calls += 1
        return super().sub_row(p, seq)


def _engine_key(engine):
    (key,) = engine._trie_cache.keys()
    return key


class TestSubstitutionMatrixCache:
    """Cross-query reuse of a query's substitution rows.  The rows are
    part of the query's TrieCache entry and the separate substitution
    LRU is gone; these are its LRU-order, zero-capacity,
    negative-capacity and first-touch cases ported onto the one cache
    (the class and test names are the seed's, so the ids stay
    comparable)."""

    def test_lru_eviction_and_counters(self, lev_cost):
        cache = TrieCache(2)

        def factory():
            return TrieCacheEntry(lev_cost, [1, 2, 3])

        built = {}
        for name in ("a", "b"):  # two misses
            built[name], _ = cache.lookup(name, factory)
            built[name].row_slot(7)
        entry, status = cache.lookup("a", factory)  # refreshes recency
        assert status == "hit" and entry is built["a"]
        assert list(entry.slots) == [7]
        cache.lookup("c", factory)  # evicts b (LRU)
        assert cache.keys() == ["a", "c"]
        # b's rows went with its entry: the next lookup starts fresh.
        entry, status = cache.lookup("b", factory)
        assert status == "miss" and entry is not built["b"] and entry.slots == {}
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["hits"] == 1
        assert stats["misses"] == 4
        assert stats["evictions"] == 2

    def test_zero_capacity_disables(self, lev_cost):
        cache = TrieCache(0)
        seen = []
        for _ in range(2):
            entry, status = cache.lookup("a", lambda: TrieCacheEntry(lev_cost, [1]))
            assert status == "off" and all(entry is not e for e in seen)
            seen.append(entry)
        stats = cache.stats()
        assert (stats["capacity"], stats["size"]) == (0, 0)
        assert (stats["hits"], stats["misses"]) == (0, 0)

    def test_engine_repeated_query_hits(self, small_graph, vertex_dataset, rng):
        def row_count(entry):
            return len(entry.slots)

        netedr_cost = _RowSymbolsCost(small_graph)
        engine = SubtrajectorySearch(vertex_dataset, netedr_cost)
        query = sample_query(vertex_dataset, rng, 8)
        first = engine.query(query, tau_ratio=0.3)
        assert engine.status().trie["misses"] == 1
        entry = engine._trie_cache.peek(_engine_key(engine))
        assert entry is not None and entry.query == tuple(query)
        rows = row_count(entry)
        assert rows > 0
        # One row per distinct walked symbol, each against the whole query.
        assert netedr_cost.calls == [(p, tuple(query)) for p in entry.slots]
        repeat = engine.query(query, tau_ratio=0.3)
        stats = engine.status().trie
        assert stats["hits"] == 1
        assert stats["size"] == 1
        # The hit served the same entry, and an exact repeat computed no
        # new substitution row.
        assert engine._trie_cache.peek(_engine_key(engine)) is entry
        assert row_count(entry) == rows == len(netedr_cost.calls)
        # A hit must not change the answer (the rows are dataset-free).
        assert [(m.trajectory_id, m.start, m.end, m.distance) for m in first.matches] == [
            (m.trajectory_id, m.start, m.end, m.distance) for m in repeat.matches
        ]
        # The rows are threshold-independent: varying tau still hits.
        engine.query(query, tau_ratio=0.25)
        stats = engine.status().trie
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        # A different query is a genuine miss.
        other = sample_query(vertex_dataset, rng, 9)
        if other != query:
            engine.query(other, tau_ratio=0.3)
            assert engine.status().trie["misses"] == 2

    def test_engine_cache_disabled(self, vertex_dataset, rng):
        """``trie_cache_size=0`` is no cross-query reuse of any kind: the
        repeat pays for its substitution rows again."""
        costs = _CountingRowCost()
        engine = SubtrajectorySearch(vertex_dataset, costs, trie_cache_size=0)
        query = sample_query(vertex_dataset, rng, 8)
        engine.query(query, tau_ratio=0.3)
        first = costs.row_calls
        engine.query(query, tau_ratio=0.3)
        assert costs.row_calls == 2 * first > 0
        stats = engine.status().trie
        assert (stats["capacity"], stats["size"]) == (0, 0)
        assert (stats["hits"], stats["misses"]) == (0, 0)

    def test_negative_capacity_rejected(self, vertex_dataset, edr_cost):
        with pytest.raises(QueryError):
            SubtrajectorySearch(vertex_dataset, edr_cost, trie_cache_size=-1)
        with pytest.raises(ValueError):
            TrieCache(-1)

    def test_direction_rows_concurrent_first_touch(self, lev_cost):
        """The query's row store is shared across server threads via the
        cached entry: concurrent first-touch fills, each holding the
        entry's lock as the verifier does, must neither compute a row
        twice nor tear one."""
        import threading

        query = list(range(24))
        costs = _CountingRowCost()
        entry = TrieCacheEntry(costs, query)
        symbols = list(range(500))
        barrier = threading.Barrier(4)

        def fill(offset):
            barrier.wait()
            for s in symbols[offset:] + symbols[:offset]:
                with entry.lock:
                    entry.row_slot(s)

        threads = [threading.Thread(target=fill, args=(i * 125,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(entry.slots) == symbols
        assert sorted(entry.slots.values()) == symbols  # one slot each
        assert costs.row_calls == len(symbols)  # no row computed twice
        for s in symbols:
            row = entry.rows[entry.row_slot(s)].tolist()
            assert row == lev_cost.sub_row(s, query)  # no torn rows
