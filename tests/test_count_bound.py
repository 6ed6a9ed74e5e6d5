"""The verifier's count bound (``Verifier._count_bound``): soundness on
every cost model, both walkers, with and without tries.

The bound skips a candidate when ``anchor cost + sum of c(q)`` over the
query elements whose neighborhood its reaches miss is already ``>= tau``.
Two claims are pinned here: a skipped candidate, verified anyway, emits
nothing; and the answers equal the brute-force oracle's.
"""

import json
import math
import urllib.request
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import engine as engine_module
from repro.core.engine import SubtrajectorySearch
from repro.core.filtering import QueryNeighborhoods, tau_from_ratio
from repro.core.results import MatchSet
from repro.core.verification import VerificationStats, Verifier, _mask_words
from repro.distance.costs import (
    CostModel,
    EDRCost,
    ERPCost,
    LevenshteinCost,
    NetEDRCost,
    NetERPCost,
    SURSCost,
    validate_cost_model,
)
from repro.exceptions import CostModelError, QueryCancelledError
from repro.obs.tracing import Trace
from repro.service import QueryService, ServiceServer
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.model import Trajectory
from tests.conftest import oracle_range

MODELS = ("lev", "edr", "erp", "netedr", "neterp", "surs")


@pytest.fixture(scope="module")
def erp_on_vertex(small_graph) -> ERPCost:
    """ERP whose reference point is a vertex: δ = 0, whole-side reach."""
    return ERPCost(small_graph, eta=25.0, reference=small_graph.coords[27])


@pytest.fixture(scope="module")
def setups(small_graph, vertex_dataset, edge_dataset, erp_on_vertex):
    """model name -> (cost model, dataset of its representation)."""
    costs = {
        "lev": LevenshteinCost(),
        "edr": EDRCost(small_graph, epsilon=60.0),
        "erp": ERPCost(small_graph, eta=25.0),
        "erp_on_vertex": erp_on_vertex,
        "netedr": NetEDRCost(small_graph),
        "neterp": NetERPCost(small_graph, g_del=250.0),
        "surs": SURSCost(small_graph),
    }
    return {
        name: (model, edge_dataset if name == "surs" else vertex_dataset)
        for name, model in costs.items()
    }


class Recording(Verifier):
    """A verifier that keeps the candidates its count bound skipped, and
    checks each decision against :func:`reference_bound`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.skipped = []

    def _count_bound(self, iq, items):
        kept = super()._count_bound(iq, items)
        survivors = {(tid, j) for tid, j, *_ in kept}
        threshold = self._tau * (1.0 + 1e-9)
        for tid, j, anchor_cost, budget, data in items:
            bound = reference_bound(
                self._costs, self._query, iq, j, anchor_cost, budget, list(data)
            )
            # The vectorized sum may differ from this one in the last
            # bits; a decision may differ only that close to the edge.
            if abs(bound - threshold) > 1e-12 * threshold:
                assert ((tid, j) in survivors) == (bound < threshold)
        self.skipped += [
            (tid, j, iq) for tid, j, *_ in items if (tid, j) not in survivors
        ]
        return kept


def reference_bound(costs, query, iq, j, anchor_cost, budget, data):
    """The count bound's ``LB`` for one candidate, one symbol at a time."""
    delta = costs.deletion_floor()
    extra = len(data)
    if delta > 0:
        extra = min(extra, math.floor(budget * ((1.0 + 1e-9) / delta)))
    back = set(data[max(0, j - iq - extra) : j])
    forward = set(data[j + 1 : j + len(query) - iq + extra])
    bound = anchor_cost
    for i, q in enumerate(query):
        reach = back if i < iq else forward
        if i != iq and not reach & set(costs.neighbors(q)):
            bound += costs.filter_cost(q)
    return bound


class Unbounded(Verifier):
    """The same verifier with the count bound switched off."""

    def _count_bound(self, iq, items):
        return items


def _query(dataset, draw_start, length):
    """A subpath of some trajectory, or a splice of two (so that some
    candidates are near misses)."""
    tid, start, splice = draw_start
    data = dataset.symbols(tid % len(dataset))
    start %= len(data)
    query = list(data[start : start + length])
    other = dataset.symbols(splice % len(dataset))
    return query + list(other[: max(0, length - len(query))])


def _check(costs, dataset, query, tau, walker, mode, oracle=True):
    """Every claim at one ``(query, tau, walker, mode)``; returns the
    number of candidates the bound skipped."""
    engine = SubtrajectorySearch(
        dataset, costs, verification=mode, trie_cache_size=0
    )
    candidates = engine.candidates(query, tau=tau)
    args = (dataset.symbols_array, query, costs, tau)
    kwargs = dict(use_trie=mode == "trie", dp_backend=walker)
    bounded = Recording(*args, **kwargs)
    got = MatchSet()
    bounded.verify_all(candidates, got)
    reference = Unbounded(*args, **kwargs)
    want = MatchSet()
    reference.verify_all(candidates, want)
    # Bit for bit: the skipped candidates contributed nothing.
    assert got.to_list() == want.to_list()
    stats = bounded.stats
    assert stats.bound_pruned == len(bounded.skipped)
    assert stats.candidates + stats.bound_pruned == reference.stats.candidates
    for candidate in bounded.skipped:
        alone = MatchSet()
        Unbounded(*args, **kwargs).verify_candidate(candidate, alone)
        assert len(alone) == 0, candidate
    # The engine, on the same walker, equals the brute-force oracle.
    with mock.patch.object(
        engine_module, "choose_dp_backend", lambda length, model: walker
    ):
        result = engine.query(query, tau=tau)
    assert not result.used_fallback
    if oracle:
        assert {(m.trajectory_id, m.start, m.end) for m in result.matches} == (
            oracle_range(dataset, query, costs, tau)
        )
    assert result.matches == got.to_list()
    assert result.verification.bound_pruned == stats.bound_pruned
    return stats.bound_pruned


@pytest.mark.parametrize("name", MODELS)
@given(
    start=st.tuples(
        st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)
    ),
    length=st.integers(2, 9),
    ratio=st.floats(0.05, 0.6),
    walker=st.sampled_from(("python", "numpy")),
    mode=st.sampled_from(("trie", "local")),
)
@settings(max_examples=20, deadline=None)
def test_skipped_candidates_emit_nothing(
    setups, name, start, length, ratio, walker, mode
):
    costs, dataset = setups[name]
    query = _query(dataset, start, length)
    tau = tau_from_ratio(query, costs, ratio)
    assume(tau > 0 and sum(costs.ins(q) for q in query) >= tau)
    _check(costs, dataset, query, tau, walker, mode)


@given(
    start=st.tuples(
        st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)
    ),
    length=st.integers(2, 8),
    chosen=st.lists(st.booleans(), min_size=8, max_size=8),
    nudge=st.sampled_from(
        (-1e-8, -2e-9, -1e-9, -5e-10, -1e-15, 0.0, 1e-15, 5e-10, 1e-9, 2e-9, 1e-8)
    ),
    walker=st.sampled_from(("python", "numpy")),
    mode=st.sampled_from(("trie", "local")),
    on_vertex=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_erp_thresholds_near_a_sum_of_filter_costs(
    setups, start, length, chosen, nudge, walker, mode, on_vertex
):
    """Real-valued thresholds around a sum of ``c(q)``, across the bound's
    1e-9 margin — where ``LB >= tau (1 + 1e-9)`` flips — with the
    reference point on a vertex (δ = 0) or not.

    Within float noise of the sum (|nudge| <= 1e-15) only the bound's own
    claims are asserted: there the filter itself disagrees with the
    oracle by an ulp with or without the bound (ERP's ``c(q)`` takes the
    kd-tree's distance, ``sub`` takes ``math.hypot``)."""
    costs, dataset = setups["erp_on_vertex" if on_vertex else "erp"]
    query = _query(dataset, start, length)
    cq = [costs.filter_cost(q) for q in query]
    tau = sum(c for c, pick in zip(cq, chosen) if pick) * (1.0 + nudge)
    assume(tau > 0 and sum(costs.ins(q) for q in query) >= tau)
    assume(sum(cq) >= tau)
    _check(costs, dataset, query, tau, walker, mode, oracle=abs(nudge) > 1e-15)


@pytest.mark.parametrize("name", MODELS)
def test_the_bound_skips_on_every_model(setups, name, rng):
    """Not vacuous: on every model some candidates are skipped."""
    costs, dataset = setups[name]
    skipped = 0
    for _ in range(6):
        tid = rng.randrange(len(dataset))
        data = dataset.symbols(tid)
        start = rng.randrange(max(1, len(data) - 6))
        query = list(data[start : start + 6])
        tau = tau_from_ratio(query, costs, 0.2)
        if tau <= 0 or sum(costs.ins(q) for q in query) < tau:
            continue
        skipped += _check(costs, dataset, query, tau, "numpy", "trie")
    assert skipped > 0


class CheapFiller(CostModel):
    """Symbols >= 100 are filler that costs 0.1 to delete; the others
    cost 1.  SURS-shaped: ``sub(a, b) = ins(a) + ins(b)``, ``B(q) =
    {q}``, ``c(q) = ins(q)`` — so ``c(q)`` is ten times the deletion
    floor, and only a reach widened by ``floor(b / δ)`` sees a match
    through filler."""

    def sub(self, a, b):
        return 0.0 if a == b else self.ins(a) + self.ins(b)

    def ins(self, a):
        return 0.1 if a >= 100 else 1.0

    def deletion_floor(self):
        return 0.1


def test_cheap_deletions_widen_the_reach():
    costs = CheapFiller()
    validate_cost_model(costs, [1, 2, 3, 4, 100, 101])
    query = [1, 2, 3, 4]
    data = [[1, 100, 101, 102, 2, 3, 4], [5, 1, 2, 100, 101, 103, 104, 3, 4, 6]]
    tau = 1.0
    candidates = [
        (tid, j, iq)
        for tid, symbols in enumerate(data)
        for j, symbol in enumerate(symbols)
        for iq, q in enumerate(query)
        if symbol == q
    ]
    for walker in ("python", "numpy"):
        verifier = Recording(
            lambda tid: np.asarray(data[tid]), query, costs, tau, dp_backend=walker
        )
        matches = MatchSet()
        verifier.verify_all(candidates, matches)
        assert {(m.trajectory_id, m.start, m.end) for m in matches.to_list()} == (
            oracle_range(data, query, costs, tau)
        )
        assert (0, 0, 6) in matches.keys()


class TestEarlyTerminationTie:
    def test_no_early_termination_runs_no_bound(self, vertex_dataset, edr_cost, rng):
        """The "no ET" ablation stays the paper's unpruned algorithm."""
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        plain = SubtrajectorySearch(
            vertex_dataset, edr_cost, early_termination=False
        )
        query = list(vertex_dataset.symbols(3)[:6])
        on = engine.query(query, tau_ratio=0.2)
        off = plain.query(query, tau_ratio=0.2)
        assert on.verification.bound_pruned > 0
        assert off.verification.bound_pruned == 0
        assert on.matches == off.matches
        assert on.num_candidates == off.num_candidates
        assert (
            on.verification.candidates + on.verification.bound_pruned
            == off.verification.candidates
        )


def test_verify_span_reports_bound_pruned(vertex_dataset, edr_cost):
    engine = SubtrajectorySearch(vertex_dataset, edr_cost)
    trace = Trace("query")
    result = engine.query(list(vertex_dataset.symbols(3)[:6]), tau_ratio=0.2, trace=trace.root)
    trace.finish()
    (verify,) = [s for s in trace.export() if s["name"] == "verify"]
    assert verify["attributes"]["bound_pruned"] == result.verification.bound_pruned > 0
    assert verify["attributes"]["candidates"] == result.verification.candidates


class TestDeletionFloor:
    def test_floors(self, small_graph, erp_on_vertex):
        weights = [e.weight for e in small_graph.edges]
        assert LevenshteinCost().deletion_floor() == 1.0
        assert EDRCost(small_graph, epsilon=60.0).deletion_floor() == 1.0
        assert NetEDRCost(small_graph).deletion_floor() == 1.0
        assert NetERPCost(small_graph, g_del=250.0).deletion_floor() == 250.0
        assert SURSCost(small_graph).deletion_floor() == min(weights)
        erp = ERPCost(small_graph, eta=25.0)
        nearest = min(erp.delete(v) for v in range(small_graph.num_vertices))
        assert erp.deletion_floor() == pytest.approx(nearest, rel=1e-12)
        assert erp_on_vertex.deletion_floor() == 0.0

    @pytest.mark.parametrize("name", MODELS + ("erp_on_vertex",))
    def test_every_delete_reaches_the_floor(self, setups, name):
        costs, dataset = setups[name]
        symbols = sorted({s for t in range(len(dataset)) for s in dataset.symbols(t)})
        floor = costs.deletion_floor()
        assert floor >= 0
        assert all(costs.delete(s) >= floor - 1e-9 for s in symbols)
        validate_cost_model(costs, symbols[:12])

    def test_default_is_zero(self):
        class Bare(CostModel):
            def sub(self, a, b):
                return 0.0 if a == b else 1.0

            def ins(self, a):
                return 1.0

        assert Bare().deletion_floor() == 0.0

    def test_validation_refuses_a_floor_above_a_delete(self, small_graph):
        class Lying(NetERPCost):
            def deletion_floor(self):
                return self.g_del * 2

        with pytest.raises(CostModelError, match="deletion_floor"):
            validate_cost_model(Lying(small_graph, g_del=250.0), [0, 1, 2])


class TestNeighborhoods:
    def test_computed_once_per_distinct_symbol(self, small_graph):
        calls = []

        class Counting(EDRCost):
            def neighbors(self, q):
                calls.append(q)
                return super().neighbors(q)

        costs = Counting(small_graph, epsilon=60.0)
        hoods = QueryNeighborhoods(costs, [3, 7, 3, 7, 9])
        assert sorted(calls) == [3, 7, 9]
        masks = hoods.hits(np.array([3, 7]))
        assert masks.shape == (3, 1)
        built = hoods._masks
        hoods.hits(np.array([9]))
        assert hoods._masks is built

    def test_mask_bits(self, lev_cost):
        hoods = QueryNeighborhoods(lev_cost, [5, 6, 5])
        hits = hoods.hits(np.array([5, 6, 7, 4, -3], dtype=np.int32))
        assert hits[:, 0].tolist() == [0b101, 0b010, 0, 0, 0, 0]
        assert hoods._keys is None  # dense: ids 5..6
        assert hoods.filter_costs.tolist() == [1.0, 1.0, 1.0]

    def test_wide_queries_take_several_words(self, lev_cost):
        query = list(range(70))
        hits = QueryNeighborhoods(lev_cost, query).hits(np.array([0, 64, 69, 99]))
        assert hits.tolist() == [[1, 0], [0, 1], [0, 1 << 5], [0, 0], [0, 0]]

    def test_mask_words(self):
        assert _mask_words(0b001, 1).tolist() == [0b001]
        assert _mask_words((1 << 64) - 1, 2).tolist() == [(1 << 64) - 1, 0]
        assert _mask_words(((1 << 5) - 1) << 65, 2).tolist() == [0, ((1 << 5) - 1) << 1]

    def test_no_neighborhood_symbols(self):
        class Empty(LevenshteinCost):
            def neighbors(self, q):
                return []

        hoods = QueryNeighborhoods(Empty(), [1, 2])
        assert hoods.hits(np.array([1, 2])).tolist() == [[0], [0], [0]]

    @pytest.mark.parametrize("far", [10**12, -(10**12), 2**63 - 1, 10**30])
    def test_table_size_does_not_follow_the_ids(self, lev_cost, far):
        """Sparse ids are looked up in sorted keys: the table stays a few
        rows however far apart a request's ids are, and an id no int64
        holds (no trajectory symbol can equal it) hits nothing."""
        hoods = QueryNeighborhoods(lev_cost, [0, 3, far])
        probe = [0, 3, 5, -1, 2**62]
        hits = hoods.hits(np.array(probe, dtype=np.int64))
        assert hits[:, 0].tolist() == [0b001, 0b010, 0, 0, 0, 0]
        if far < 2**63:
            assert hoods.hits(np.array([far]))[:, 0].tolist() == [0b100, 0]
        assert hoods._masks.nbytes <= 64
        assert hoods.nbytes < 4096

    def test_cancelled_after_mincand_still_counts_the_entry(
        self, vertex_dataset, edr_cost
    ):
        """The entry's neighborhoods exist from MinCand on: a query
        cancelled between MinCand and verification is charged for them."""

        class AfterFirstPoll:
            polls = 0

            def cancelled(self):
                self.polls += 1
                return self.polls > 1

        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = list(vertex_dataset.symbols(2)[:5])
        with pytest.raises(QueryCancelledError):
            engine.query(query, tau_ratio=0.2, cancel=AfterFirstPoll())
        entry, status = engine._warm_state(query)
        assert status == "hit" and entry.hoods is not None
        assert entry.counted_bytes == entry.nbytes == engine._trie_cache.bytes > 0

    def test_warm_repeat_calls_no_neighbors(self, small_graph, vertex_dataset):
        calls = []

        class Counting(EDRCost):
            def neighbors(self, q):
                calls.append(q)
                return super().neighbors(q)

        costs = Counting(small_graph, epsilon=60.0)
        engine = SubtrajectorySearch(vertex_dataset, costs)
        query = list(vertex_dataset.symbols(2)[:5])
        engine.query(query, tau_ratio=0.2)
        assert len(calls) == len(set(query))
        engine.query(query, tau_ratio=0.3)
        assert len(calls) == len(set(query))


def test_stats_sum_covers_every_field():
    a = VerificationStats(1, 2, 3, 4, 5, 6, 7)
    b = VerificationStats(10, 20, 30, 40, 50, 60, 70)
    assert VerificationStats.sum([a, b]) == VerificationStats(11, 22, 33, 44, 55, 66, 77)
    assert VerificationStats.sum([]) == VerificationStats()


class TestClientSymbolIds:
    """Levenshtein has no alphabet bound, so a request may name any
    integer: the answer must not depend on how large it is."""

    @pytest.fixture()
    def corpus(self, line_graph):
        ds = TrajectoryDataset(line_graph)
        ds.add(Trajectory([0, 1, 2, 3], timestamps=[0, 1, 2, 3]))
        ds.add(Trajectory([2, 3, 4, 5], timestamps=[4, 5, 6, 7]))
        return ds

    @pytest.mark.parametrize("far", [10**9, 10**12, -(10**12), 2**63 - 1, 10**30])
    @pytest.mark.parametrize("mode", ["trie", "local"])
    def test_engine_answers_like_the_oracle(self, corpus, lev_cost, far, mode):
        engine = SubtrajectorySearch(corpus, lev_cost, verification=mode)
        result = engine.query([0, far], tau=1.5)
        assert result.num_candidates > 0
        got = {(m.trajectory_id, m.start, m.end) for m in result.matches}
        assert got == oracle_range(corpus, [0, far], lev_cost, 1.5) == {(0, 0, 0), (0, 0, 1)}

    def test_http_query_answers_like_the_engine(self, corpus, lev_cost):
        engine = SubtrajectorySearch(corpus, lev_cost)
        service = QueryService(engine, max_workers=2, cache_size=32)
        payload = json.dumps({"path": [0, 10**12], "tau": 1.5}).encode("utf-8")
        with ServiceServer(service).start() as srv:
            request = urllib.request.Request(
                srv.url + "/query",
                data=payload,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                status, body = response.status, json.loads(response.read())
        assert status == 200
        assert [(m["trajectory"], m["start"], m["end"]) for m in body["matches"]] == [
            (0, 0, 0),
            (0, 0, 1),
        ]
