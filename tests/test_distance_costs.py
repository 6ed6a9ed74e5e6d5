"""Cost models: WED assumptions (§2.2.1), neighborhoods, filter costs."""

import math
import random

import pytest

from repro.core.trie import TrieCacheEntry
from repro.distance.costs import (
    EDRCost,
    ERPCost,
    LevenshteinCost,
    NetEDRCost,
    NetERPCost,
    validate_cost_model,
)
from repro.exceptions import CostModelError
from repro.network.shortest_path import bidirectional_dijkstra
from repro.spatial.geometry import euclidean

ALL_MODELS = ["lev_cost", "edr_cost", "erp_cost", "netedr_cost", "neterp_cost", "surs_cost"]


@pytest.fixture()
def sample_symbols(small_graph, rng):
    return rng.sample(range(small_graph.num_vertices), 8)


@pytest.fixture()
def sample_edges(small_graph, rng):
    return rng.sample(range(small_graph.num_edges), 8)


class TestAssumptions:
    """Proposition 1: the assumptions hold for every shipped instance."""

    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_validate_passes(self, model_name, request, sample_symbols, sample_edges):
        model = request.getfixturevalue(model_name)
        symbols = sample_edges if model.representation == "edge" else sample_symbols
        validate_cost_model(model, symbols)

    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_identity_substitution_free(self, model_name, request, sample_symbols, sample_edges):
        model = request.getfixturevalue(model_name)
        symbols = sample_edges if model.representation == "edge" else sample_symbols
        for s in symbols:
            assert model.sub(s, s) == 0.0

    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_sub_row_matches_scalar(self, model_name, request, sample_symbols, sample_edges):
        model = request.getfixturevalue(model_name)
        symbols = sample_edges if model.representation == "edge" else sample_symbols
        p = symbols[0]
        row = model.sub_row(p, symbols)
        assert row == pytest.approx([model.sub(p, s) for s in symbols])


class TestLevenshtein:
    def test_costs(self, lev_cost):
        assert lev_cost.sub(1, 1) == 0.0
        assert lev_cost.sub(1, 2) == 1.0
        assert lev_cost.ins(5) == 1.0
        assert lev_cost.delete(5) == 1.0

    def test_neighborhood_is_self(self, lev_cost):
        assert lev_cost.neighbors(7) == [7]

    def test_filter_cost_unit(self, lev_cost):
        assert lev_cost.filter_cost(3) == 1.0

    def test_representation_configurable(self):
        assert LevenshteinCost("edge").representation == "edge"


class TestEDR:
    def test_negative_epsilon_rejected(self, small_graph):
        with pytest.raises(CostModelError):
            EDRCost(small_graph, epsilon=-1.0)

    def test_sub_threshold(self, small_graph):
        edr = EDRCost(small_graph, epsilon=1e-9)
        assert edr.sub(0, 0) == 0.0
        assert edr.sub(0, 1) == 1.0

    def test_neighbors_are_epsilon_ball(self, small_graph, edr_cost):
        for q in (0, 10, 30):
            got = sorted(edr_cost.neighbors(q))
            want = sorted(
                v
                for v in range(small_graph.num_vertices)
                if euclidean(small_graph.coord(v), small_graph.coord(q))
                <= edr_cost.epsilon
            )
            assert got == want
            assert q in got

    def test_neighbors_consistent_with_sub(self, edr_cost, small_graph):
        q = 5
        neigh = set(edr_cost.neighbors(q))
        for v in range(small_graph.num_vertices):
            if v in neigh:
                assert edr_cost.sub(q, v) == 0.0
            else:
                assert edr_cost.sub(q, v) == 1.0

    def test_filter_cost(self, edr_cost):
        assert edr_cost.filter_cost(3) == 1.0


class TestERP:
    def test_default_reference_is_centroid(self, small_graph):
        erp = ERPCost(small_graph)
        n = small_graph.num_vertices
        cx = sum(small_graph.coord(v)[0] for v in range(n)) / n
        assert erp.reference[0] == pytest.approx(cx)

    def test_sub_is_euclidean(self, small_graph, erp_cost):
        assert erp_cost.sub(0, 1) == pytest.approx(
            euclidean(small_graph.coord(0), small_graph.coord(1))
        )

    def test_ins_is_distance_to_reference(self, small_graph):
        erp = ERPCost(small_graph, reference=(0.0, 0.0))
        assert erp.ins(3) == pytest.approx(euclidean(small_graph.coord(3), (0, 0)))

    def test_filter_cost_is_exact_min(self, small_graph, erp_cost):
        for q in (2, 17, 40):
            got = erp_cost.filter_cost(q)
            candidates = [erp_cost.ins(q)]
            for v in range(small_graph.num_vertices):
                d = erp_cost.sub(q, v)
                if d > erp_cost.eta:
                    candidates.append(d)
            assert got == pytest.approx(min(candidates))

    def test_triangle_inequality_of_sub(self, small_graph, erp_cost, rng):
        # ERP substitution cost is a metric (Euclidean distance).
        for _ in range(30):
            a, b, c = (rng.randrange(small_graph.num_vertices) for _ in range(3))
            assert erp_cost.sub(a, c) <= erp_cost.sub(a, b) + erp_cost.sub(b, c) + 1e-9

    def test_negative_eta_rejected(self, small_graph):
        with pytest.raises(CostModelError):
            ERPCost(small_graph, eta=-0.5)


class TestNetEDR:
    def test_default_epsilon_is_median_edge(self, small_graph, netedr_cost):
        assert netedr_cost.epsilon == pytest.approx(small_graph.median_edge_weight())

    def test_sub_uses_undirected_network_distance(self, small_graph, netedr_cost):
        und = small_graph.undirected()
        for a, b in [(0, 1), (5, 20), (3, 3)]:
            d = bidirectional_dijkstra(und, a, b)
            want = 0.0 if d <= netedr_cost.epsilon else 1.0
            assert netedr_cost.sub(a, b) == want

    def test_symmetric_despite_one_ways(self, small_graph, netedr_cost, rng):
        for _ in range(20):
            a = rng.randrange(small_graph.num_vertices)
            b = rng.randrange(small_graph.num_vertices)
            assert netedr_cost.sub(a, b) == netedr_cost.sub(b, a)

    def test_neighbors_within_network_epsilon(self, small_graph, netedr_cost):
        und = small_graph.undirected()
        q = 12
        got = set(netedr_cost.neighbors(q))
        for v in range(small_graph.num_vertices):
            inside = bidirectional_dijkstra(und, q, v) <= netedr_cost.epsilon
            assert (v in got) == inside

    def test_dijkstra_fallback_matches_hub_labeling(self, small_graph):
        # network_distance always asks the hub labels; they must agree
        # with plain Dijkstra on the same undirected view.
        costs = NetEDRCost(small_graph)
        und = small_graph.undirected()
        rng = random.Random(9)
        for _ in range(15):
            u, v = rng.randrange(64), rng.randrange(64)
            assert costs.network_distance(u, v) == pytest.approx(
                bidirectional_dijkstra(und, u, v)
            )


class TestNetERP:
    def test_invalid_g_del_rejected(self, small_graph):
        with pytest.raises(CostModelError):
            NetERPCost(small_graph, g_del=0.0)

    def test_ins_is_constant(self, neterp_cost):
        assert neterp_cost.ins(0) == neterp_cost.ins(63) == 250.0

    def test_filter_cost_bounded_by_deletion(self, neterp_cost, rng, small_graph):
        for _ in range(10):
            q = rng.randrange(small_graph.num_vertices)
            assert neterp_cost.filter_cost(q) <= neterp_cost.g_del + 1e-9

    def test_filter_cost_is_exact_min(self, small_graph, neterp_cost):
        for q in (1, 25, 50):
            candidates = [neterp_cost.g_del]
            for v in range(small_graph.num_vertices):
                d = neterp_cost.sub(q, v)
                if d > neterp_cost.eta and not math.isinf(d):
                    candidates.append(d)
            assert neterp_cost.filter_cost(q) == pytest.approx(min(candidates))

    def test_non_metric_is_tolerated(self, neterp_cost):
        # NetERP with constant del cost may violate the triangle inequality;
        # the library must not rely on it.  Just document the possibility.
        assert neterp_cost.g_del > 0


class TestSURS:
    def test_sub_is_sum_of_weights(self, small_graph, surs_cost):
        w = [e.weight for e in small_graph.edges]
        assert surs_cost.sub(0, 1) == pytest.approx(w[0] + w[1])
        assert surs_cost.sub(2, 2) == 0.0

    def test_ins_is_weight(self, small_graph, surs_cost):
        assert surs_cost.ins(4) == pytest.approx(small_graph.edge(4).weight)

    def test_filter_cost_is_weight(self, small_graph, surs_cost):
        assert surs_cost.filter_cost(7) == pytest.approx(small_graph.edge(7).weight)

    def test_neighborhood_is_self(self, surs_cost):
        assert surs_cost.neighbors(9) == [9]

    def test_edge_representation(self, surs_cost):
        assert surs_cost.representation == "edge"


class TestValidateCostModel:
    def test_detects_asymmetry(self, small_graph):
        class Broken(LevenshteinCost):
            def sub(self, a, b):
                return 1.0 if a < b else (0.0 if a == b else 2.0)

        with pytest.raises(CostModelError):
            validate_cost_model(Broken(), [0, 1, 2])

    def test_detects_nonzero_identity(self):
        class Broken(LevenshteinCost):
            def sub(self, a, b):
                return 0.5

        with pytest.raises(CostModelError):
            validate_cost_model(Broken(), [0, 1])

    def test_detects_bad_filter_cost(self):
        class Broken(LevenshteinCost):
            def filter_cost(self, q):
                return 5.0  # claims more than the deletion cost

        with pytest.raises(CostModelError):
            validate_cost_model(Broken(), [0, 1])


class TestDirectionRows:
    """The rows the verifier feeds its DP: a direction's query part, its
    insertion prefix, and its part of the query's cached ``sub_row``
    rows."""

    def test_ins_prefix_sums_ins(self, erp_cost):
        # The insertion costs reach the walker as a direction's insertion
        # prefix: ins summed left to right, as the DP expects.
        seq = [1, 4, 9]
        state = TrieCacheEntry(erp_cost, [0] + seq).direction(0, "f", False)
        want = [0.0]
        for q in seq:
            want.append(want[-1] + erp_cost.ins(q))
        assert state.ins_prefix == want

    def test_rows_are_the_parts_sub_rows(self, edr_cost):
        query = (0, 5, 9, 5)
        entry = TrieCacheEntry(edr_cost, query)
        forward = entry.direction(1, "f", False)
        backward = entry.direction(2, "b", False)
        assert (forward.part, backward.part) == ((9, 5), (5, 0))
        assert entry.slots == {}
        slot = entry.row_slot(3)
        row = entry.rows[slot].tolist()
        assert row == edr_cost.sub_row(3, query)
        assert entry.dels[slot] == edr_cost.delete(3)
        assert entry.row_slot(3) == slot  # cached
        assert list(entry.slots) == [3]
        assert row[forward.offset :: forward.step] == edr_cost.sub_row(3, (9, 5))
        assert row[backward.offset :: backward.step] == edr_cost.sub_row(3, (5, 0))

