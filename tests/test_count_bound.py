"""The verifier's count bound (``Verifier._count_bound``): soundness on
every cost model, with and without tries.

The bound skips a candidate when ``anchor cost + sum of c(q)`` over the
query elements whose neighborhood its reaches miss is already ``>= tau``.
Two claims are pinned here: a skipped candidate, verified anyway, emits
nothing; and the answers equal the brute-force oracle's.
"""

import json
import math
import urllib.request

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
from repro.distance.smith_waterman import all_matches
from repro.distance.wed import wed, wed_row_init
from repro.exceptions import CostModelError, QueryCancelledError
from repro.obs.tracing import Trace
from repro.service import QueryService, ServiceServer
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.model import Trajectory
from tests.conftest import oracle_range, python_kernel

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
        kept, extras = super()._count_bound(iq, items)
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
        return kept, extras


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
    """The same verifier with the count bound switched off: every
    candidate is walked, over its whole sides."""

    def _count_bound(self, iq, items):
        return items, [len(data) for *_, data in items]


def _query(dataset, draw_start, length):
    """A subpath of some trajectory, or a splice of two (so that some
    candidates are near misses)."""
    tid, start, splice = draw_start
    data = dataset.symbols(tid % len(dataset))
    start %= len(data)
    query = list(data[start : start + length])
    other = dataset.symbols(splice % len(dataset))
    return query + list(other[: max(0, length - len(query))])


def _check(costs, dataset, query, tau, mode, *, band=0.0):
    """Every claim at one ``(query, tau, mode)``; returns the number of
    candidates the bound skipped.

    The engine's answers equal the oracle's, but for the matches whose
    oracle distance lies within a relative ``band`` of ``tau``: there the
    verifier's ``anchor + eb + ef`` may round the other way (pinned in
    :func:`test_surs_decomposition_rounds_an_ulp_under_the_oracle`)."""
    engine = SubtrajectorySearch(
        dataset, costs, verification=mode, trie_cache_size=0
    )
    candidates = engine.candidates(query, tau=tau)
    args = (dataset.symbols_array, query, costs, tau)
    kwargs = dict(use_trie=mode == "trie")
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
    # The engine equals the brute-force oracle.
    result = engine.query(query, tau=tau)
    assert not result.used_fallback
    answer = {(m.trajectory_id, m.start, m.end) for m in result.matches}
    assert all(m.distance < tau for m in result.matches)
    if band:
        low = oracle_range(dataset, query, costs, tau * (1.0 - band))
        assert low <= answer <= oracle_range(dataset, query, costs, tau * (1.0 + band))
    else:
        assert answer == oracle_range(dataset, query, costs, tau)
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
    mode=st.sampled_from(("trie", "local")),
)
@settings(max_examples=20, deadline=None)
def test_skipped_candidates_emit_nothing(setups, name, start, length, ratio, mode):
    costs, dataset = setups[name]
    query = _query(dataset, start, length)
    tau = tau_from_ratio(query, costs, ratio)
    assume(tau > 0 and sum(costs.ins(q) for q in query) >= tau)
    _check(costs, dataset, query, tau, mode)


@pytest.mark.parametrize("name", MODELS)
@given(
    start=st.tuples(
        st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)
    ),
    length=st.integers(2, 9),
    ratio=st.floats(0.05, 0.6),
    mode=st.sampled_from(("trie", "local")),
)
@settings(max_examples=10, deadline=None)
def test_skipped_candidates_emit_nothing_python_kernel(
    setups, name, start, length, ratio, mode
):
    """The same claims, the engine against the oracle included, with the
    Python DP kernel forced."""
    costs, dataset = setups[name]
    query = _query(dataset, start, length)
    tau = tau_from_ratio(query, costs, ratio)
    assume(tau > 0 and sum(costs.ins(q) for q in query) >= tau)
    with python_kernel():
        _check(costs, dataset, query, tau, mode)


#: tier-1's example count for the float-contract properties below; CI
#: runs them deep under ``--hypothesis-profile=history`` (tests/conftest.py).
FLOAT_CONTRACT = settings(
    deadline=None,
    **(
        {}
        if settings.get_current_profile_name() == "history"
        else {"max_examples": 60}
    ),
)


@given(
    start=st.tuples(
        st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)
    ),
    length=st.integers(2, 8),
    chosen=st.lists(st.booleans(), min_size=8, max_size=8),
    nudge=st.sampled_from(
        (-1e-8, -2e-9, -1e-9, -5e-10, -1e-15, 0.0, 1e-15, 5e-10, 1e-9, 2e-9, 1e-8)
    ),
    mode=st.sampled_from(("trie", "local")),
    name=st.sampled_from(("erp", "erp_on_vertex", "neterp", "surs")),
)
# The verifier once emitted by ``ef < (tau - anchor) - eb``, and here
# reported three matches at a distance of exactly tau.
@example(
    start=(4, 1, 0),
    length=4,
    chosen=[True, False, False, True, False, False, False, False],
    nudge=0.0,
    mode="trie",
    name="surs",
)
@FLOAT_CONTRACT
def test_erp_thresholds_near_a_sum_of_filter_costs(
    setups, start, length, chosen, nudge, mode, name
):
    """Real-valued thresholds around a sum of ``c(q)``, across the bound's
    1e-9 margin — where ``LB >= tau (1 + 1e-9)`` flips — on ERP (with the
    reference point on a vertex, δ = 0, or not), NetERP and SURS.

    The engine's answers equal the oracle's at every nudge.  Within float
    noise of the sum (|nudge| <= 1e-15), where a match can cost tau give
    or take an ulp, that holds for every match costing more than 1e-12
    (relative) away from tau; the rest are the rounding cases of the
    :mod:`repro.core.verification` docstring."""
    costs, dataset = setups[name]
    query = _query(dataset, start, length)
    cq = [costs.filter_cost(q) for q in query]
    tau = sum(c for c, pick in zip(cq, chosen) if pick) * (1.0 + nudge)
    assume(tau > 0 and sum(costs.ins(q) for q in query) >= tau)
    assume(sum(cq) >= tau)
    _check(costs, dataset, query, tau, mode, band=1e-12 if abs(nudge) <= 1e-15 else 0.0)


@given(
    eta=st.one_of(
        st.sampled_from((0.0, 25.0, 60.0)),
        st.floats(0.0, 150.0),
        st.tuples(st.integers(0, 63), st.integers(0, 63)),
    ),
    ulps=st.integers(-2, 2),
    on_vertex=st.booleans(),
)
@example(eta=0.0, ulps=0, on_vertex=False)
@example(eta=25.0, ulps=0, on_vertex=False)
@example(eta=60.0, ulps=0, on_vertex=False)
@FLOAT_CONTRACT
def test_erp_filter_cost_floors_every_substitution_outside_b_q(
    small_graph, eta, ulps, on_vertex
):
    """ERP's ``c(q)`` comes from the kd-tree's ``nearest_outside``, the
    substitutions from ``sub`` and ``sub_row``: as floats, ``c(q)`` is at
    most either for every ``b`` outside ``B(q)``, with ``eta`` anywhere —
    a pairwise distance, give or take an ulp or two, included."""
    coords = small_graph.coords
    if isinstance(eta, tuple):
        # A pairwise distance: one vertex sits on the other's boundary.
        (ax, ay), (bx, by) = (coords[i % len(coords)] for i in eta)
        eta = math.hypot(ax - bx, ay - by)
    for _ in range(abs(ulps)):
        eta = max(0.0, math.nextafter(eta, math.inf if ulps > 0 else 0.0))
    reference = coords[27] if on_vertex else None
    costs = ERPCost(small_graph, eta=eta, reference=reference)
    symbols = range(len(coords))
    for q in symbols:
        cq = costs.filter_cost(q)
        inside = set(costs.neighbors(q))
        for b in symbols:
            if b not in inside:
                assert cq <= costs.sub(q, b), (q, b)
                assert cq <= costs.sub_row(b, [q])[0], (q, b)


class Walks(Verifier):
    """A verifier that records every walk: its anchor position and
    direction, the candidates the count bound kept, the views (cut to
    each one's reach plus one column) and budgets, and the E lists."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.walks = []

    def _count_bound(self, iq, items):
        kept, extras = super()._count_bound(iq, items)
        self._kept = (iq, kept)
        return kept, extras

    def _all_prefix_wed(self, views, budgets, state):
        outs = super()._all_prefix_wed(views, budgets, state)
        self.walks.append((*self._kept, state.step, views, budgets, outs))
        return outs


def _cut_walks_equal_whole_sides(costs, dataset, query, tau, mode):
    """Every walk the verifier made over cut views, replayed on a fresh
    entry over whole sides, gives the same E lists, and the two walks
    visit and compute the same columns."""
    use_trie = mode == "trie"
    engine = SubtrajectorySearch(dataset, costs, verification=mode, trie_cache_size=0)
    candidates = engine.candidates(query, tau=tau)
    cut = Walks(dataset.symbols_array, query, costs, tau, use_trie=use_trie)
    cut.verify_all(candidates, MatchSet())
    whole = Verifier(dataset.symbols_array, query, costs, tau, use_trie=use_trie)
    for iq, kept, step, views, budgets, outs in cut.walks:
        sides = [
            (data[:j][::-1] if step < 0 else data[j + 1 :]).tolist()
            for _, j, _, _, data in kept
        ]
        assert all(side[: len(view)] == view for side, view in zip(sides, views))
        state = whole._entry.direction(iq, "b" if step < 0 else "f", use_trie)
        assert whole._all_prefix_wed(sides, budgets, state) == outs
    assert (cut.stats.visited_columns, cut.stats.computed_columns) == (
        whole.stats.visited_columns,
        whole.stats.computed_columns,
    )


@pytest.mark.parametrize("name", (*MODELS, "erp_on_vertex"))
@given(
    start=st.tuples(
        st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)
    ),
    length=st.integers(2, 9),
    ratio=st.floats(0.05, 0.6),
    mode=st.sampled_from(("trie", "local")),
)
@settings(max_examples=15, deadline=None)
def test_a_walk_never_reaches_past_its_cut(setups, name, start, length, ratio, mode):
    """The cut's premise: a walk stops by the column after its count
    bound's reach, whose minimum deletes ``floor(b/δ) + 1`` symbols —
    on every model, ``δ = 0`` (``erp_on_vertex``, whole sides) included."""
    costs, dataset = setups[name]
    query = _query(dataset, start, length)
    tau = tau_from_ratio(query, costs, ratio)
    assume(tau > 0 and sum(costs.ins(q) for q in query) >= tau)
    _cut_walks_equal_whole_sides(costs, dataset, query, tau, mode)


@given(
    start=st.tuples(
        st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)
    ),
    length=st.integers(2, 8),
    chosen=st.lists(st.booleans(), min_size=8, max_size=8),
    nudge=st.sampled_from(
        (-1e-8, -2e-9, -1e-9, -5e-10, -1e-15, 0.0, 1e-15, 5e-10, 1e-9, 2e-9, 1e-8)
    ),
    mode=st.sampled_from(("trie", "local")),
    name=st.sampled_from(("erp", "erp_on_vertex", "neterp", "surs")),
)
@FLOAT_CONTRACT
def test_a_walk_never_reaches_past_its_cut_near_a_sum_of_filter_costs(
    setups, start, length, chosen, nudge, mode, name
):
    """The same premise at real-valued thresholds around a sum of
    ``c(q)``, across the bound's 1e-9 margin, which the reach shares."""
    costs, dataset = setups[name]
    query = _query(dataset, start, length)
    cq = [costs.filter_cost(q) for q in query]
    tau = sum(c for c, pick in zip(cq, chosen) if pick) * (1.0 + nudge)
    assume(tau > 0 and sum(costs.ins(q) for q in query) >= tau)
    assume(sum(cq) >= tau)
    _cut_walks_equal_whole_sides(costs, dataset, query, tau, mode)


#: ERP on the 8x8 test grid: ``c(28)`` is ``ins(28)``, and the match
#: ``P[3..5] = [51, 43, 36]`` of trajectory 8 costs 0 + 0 + 0 + an insert
#: of 28.  The DP charges that insert as ``ins(28)`` itself, so the match
#: costs exactly ``c(28)`` — not the insertion prefix's difference
#: ``P[4] - P[3]``, which sits an ulp under it.
_ULP_QUERY = [51, 43, 36, 28]


def test_erp_insert_chain_charges_exactly_c_q(setups):
    costs, dataset = setups["erp"]
    data = list(dataset.symbols(8))
    assert data[3:6] == [51, 43, 36]
    assert costs.filter_cost(28) == costs.ins(28) == 49.446383612951514
    prefix = wed_row_init(costs, _ULP_QUERY)
    assert prefix[4] - prefix[3] == 49.44638361295148
    assert wed(data[3:6], _ULP_QUERY, costs) == costs.ins(28)
    # Strict < tau: at tau = c(28) the oracle omits the match, an ulp
    # above it reports it at exactly c(28).
    tau = costs.filter_cost(28)
    assert (3, 5) not in {(s, t) for s, t, _ in all_matches(data, _ULP_QUERY, costs, tau)}
    above = all_matches(data, _ULP_QUERY, costs, math.nextafter(tau, math.inf))
    assert (3, 5, costs.ins(28)) in above


#: SURS on the test grid's edges: trajectory 0's ``P[2..5] = [124, 95,
#: 65, 62]`` matches the query ``[94, 124, 95]`` by inserting 94 and
#: deleting 65 and 62.  The oracle sums those costs left to right and
#: gets exactly ``tau``; the verifier, anchored at 124, adds the insert
#: to the two deletions' sum and gets an ulp less.
_SURS_QUERY = [94, 124, 95]
_SURS_TAU = 296.86542790053585


def test_surs_decomposition_rounds_an_ulp_under_the_oracle(setups):
    costs, dataset = setups["surs"]
    data = list(dataset.symbols(0))
    assert data[2:6] == [124, 95, 65, 62]
    insert, first, second = costs.ins(94), costs.delete(65), costs.delete(62)
    assert wed(data[2:6], _SURS_QUERY, costs) == (insert + first) + second == _SURS_TAU
    assert insert + (first + second) == math.nextafter(_SURS_TAU, 0.0)
    engine = SubtrajectorySearch(dataset, costs, trie_cache_size=0)
    reported = {
        (m.trajectory_id, m.start, m.end): m.distance
        for m in engine.query(_SURS_QUERY, tau=_SURS_TAU).matches
    }
    assert reported[0, 2, 5] == math.nextafter(_SURS_TAU, 0.0)
    assert (0, 2, 5) not in oracle_range(dataset, _SURS_QUERY, costs, _SURS_TAU)


def test_erp_engine_equals_oracle_at_a_filter_cost(setups):
    """At tau = c(28) exactly, MinCand picks Q' = [28] (``c(Q') >= tau``
    holds with equality), and neither the engine nor the oracle reports
    the match that costs exactly tau."""
    costs, dataset = setups["erp"]
    tau = costs.filter_cost(28)
    engine = SubtrajectorySearch(dataset, costs, trie_cache_size=0)
    result = engine.query(_ULP_QUERY, tau=tau)
    assert {(m.trajectory_id, m.start, m.end) for m in result.matches} == (
        oracle_range(dataset, _ULP_QUERY, costs, tau)
    )


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
        skipped += _check(costs, dataset, query, tau, "trie")
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
    verifier = Recording(lambda tid: np.asarray(data[tid]), query, costs, tau)
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
