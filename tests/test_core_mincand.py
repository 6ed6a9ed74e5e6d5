"""MinCand solvers: Algorithm 1 vs the exact optimum (Propositions 3-4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filtering import QueryElement
from repro.core.mincand import (
    mincand_all,
    mincand_exact,
    mincand_greedy,
    mincand_prefix,
)
from repro.core.engine import SubtrajectorySearch
from repro.distance.costs import ERPCost
from repro.exceptions import QueryError
from tests.conftest import oracle_range


def make_elements(costs, counts):
    return [
        QueryElement(position=i, symbol=100 + i, cost=c, neighborhood=(100 + i,), candidate_count=n)
        for i, (c, n) in enumerate(zip(costs, counts))
    ]


def objective(chosen):
    return sum(e.candidate_count for e in chosen)


def coverage(chosen):
    return sum(e.cost for e in chosen)


class TestPaperExamples:
    def test_example_6(self):
        """Q=ABCD, c=[1,2,3,4], N=[5,2,9,8], tau=4 -> greedy picks B then D."""
        elements = make_elements([1, 2, 3, 4], [5, 2, 9, 8])
        chosen = mincand_greedy(elements, 4.0)
        assert [e.position for e in chosen] == [1, 3]
        assert objective(chosen) == 10
        # The optimum is {D} with objective 8 — greedy is within 2x.
        exact = mincand_exact(elements, 4.0)
        assert objective(exact) == 8
        assert objective(chosen) <= 2 * objective(exact)

    def test_example_5(self):
        """Q=ABC with B(B)={B,D}: objective counts neighborhood postings."""
        # c(A)=3, c(B)=1, c(C)=2; N computed over neighborhoods:
        # N_A=5, N_B=n(B)+n(D)=10, N_C=3 ... optimal tau=3 subsequence is A.
        elements = [
            QueryElement(0, 0, 3.0, (0,), 5),
            QueryElement(1, 1, 1.0, (1, 3), 10),
            QueryElement(2, 2, 2.0, (2,), 3),
        ]
        exact = mincand_exact(elements, 3.0)
        assert [e.position for e in exact] == [0]
        assert objective(exact) == 5


class TestGreedy:
    def test_feasibility(self):
        elements = make_elements([1, 1, 1, 1], [4, 3, 2, 1])
        chosen = mincand_greedy(elements, 2.5)
        assert coverage(chosen) >= 2.5

    def test_zero_tau_chooses_nothing(self):
        elements = make_elements([1, 1], [1, 1])
        assert mincand_greedy(elements, 0.0) == []

    def test_infeasible_raises(self):
        elements = make_elements([0.5, 0.5], [1, 1])
        with pytest.raises(QueryError):
            mincand_greedy(elements, 2.0)

    @pytest.mark.parametrize("select", [mincand_greedy, mincand_exact, mincand_prefix])
    def test_a_hair_short_of_tau_is_not_enough(self, select):
        """Theorem 1 needs c(Q') >= tau: a subsequence 1e-13 short of it
        misses every match costing exactly its c(Q')."""
        elements = make_elements([1.0, 1.0], [1, 5])
        chosen = select(elements, 1.0 + 1e-13)
        assert coverage(chosen) >= 1.0 + 1e-13
        with pytest.raises(QueryError):
            select(elements, 2.0 + 1e-13)

    def test_c_q_prime_reaches_tau_in_position_order(self):
        """An alignment path adds its costs in query order, so c(Q') must
        reach tau summed in that order: 2.3 + 0.4 + 0.7 is
        3.3999999999999995, though the order greedy picks them in sums
        them to 3.4."""
        elements = make_elements([2.3, 0.4, 0.7, 5.0], [2, 8, 1, 1000])
        chosen = mincand_greedy(elements, 3.4)
        assert coverage(chosen) >= 3.4

    def test_zero_cost_elements_never_chosen(self):
        elements = make_elements([0.0, 1.0, 0.0, 1.0], [0, 5, 0, 5])
        chosen = mincand_greedy(elements, 2.0)
        assert all(e.cost > 0 for e in chosen)

    def test_constant_cost_picks_smallest_counts(self):
        """Proposition 4: with constant c(q), greedy returns the optimum
        (the k least frequent symbols)."""
        elements = make_elements([1, 1, 1, 1, 1], [9, 2, 7, 1, 5])
        chosen = mincand_greedy(elements, 3.0)
        assert sorted(e.candidate_count for e in chosen) == [1, 2, 5]
        exact = mincand_exact(elements, 3.0)
        assert objective(chosen) == objective(exact)

    def test_output_sorted_by_position(self):
        elements = make_elements([1, 1, 1], [3, 1, 2])
        chosen = mincand_greedy(elements, 2.0)
        assert [e.position for e in chosen] == sorted(e.position for e in chosen)

    @given(
        costs=st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=9),
        counts_seed=st.lists(st.integers(0, 50), min_size=9, max_size=9),
        ratio=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_two_approximation(self, costs, counts_seed, ratio):
        """Proposition 3: greedy objective <= 2 * optimal objective."""
        counts = counts_seed[: len(costs)]
        elements = make_elements(costs, counts)
        tau = ratio * sum(costs)
        if tau <= 0:
            return
        greedy = mincand_greedy(elements, tau)
        exact = mincand_exact(elements, tau)
        assert coverage(greedy) >= tau - 1e-9
        assert objective(greedy) <= 2 * objective(exact) + 1e-9

    @given(
        counts=st.lists(st.integers(0, 50), min_size=1, max_size=10),
        ratio=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_constant_cost_optimality(self, counts, ratio):
        """Proposition 4 as a property."""
        elements = make_elements([1.0] * len(counts), counts)
        tau = ratio * len(counts)
        greedy = mincand_greedy(elements, tau)
        exact = mincand_exact(elements, tau)
        assert objective(greedy) == objective(exact)


class TestExact:
    def test_refuses_large_inputs(self):
        elements = make_elements([1.0] * 25, [1] * 25)
        with pytest.raises(QueryError):
            mincand_exact(elements, 1.0)

    def test_finds_minimum(self):
        elements = make_elements([2.0, 1.0, 1.0], [10, 1, 1])
        exact = mincand_exact(elements, 2.0)
        assert objective(exact) == 2  # the two cheap elements


class TestPrefix:
    def test_shortest_prefix(self):
        elements = make_elements([1.0, 1.0, 1.0], [5, 5, 5])
        chosen = mincand_prefix(elements, 2.0)
        assert [e.position for e in chosen] == [0, 1]

    def test_infeasible_raises(self):
        with pytest.raises(QueryError):
            mincand_prefix(make_elements([0.4], [1]), 1.0)

    def test_never_smaller_objective_than_exact(self):
        elements = make_elements([1, 1, 1, 1], [9, 9, 1, 1])
        prefix = mincand_prefix(elements, 2.0)
        exact = mincand_exact(elements, 2.0)
        assert objective(prefix) >= objective(exact)


class TestAll:
    def test_returns_everything(self):
        elements = make_elements([1.0, 1.0], [1, 2])
        assert mincand_all(elements, 1.0) == elements


def test_engine_finds_matches_costing_just_under_tau(small_graph, vertex_dataset):
    """A match costing ``c(q)`` under a threshold a few ulps above it:
    the tau-subsequence must not stop at ``{q}``."""
    costs = ERPCost(small_graph, eta=25.0)
    query = [19, 27]
    tau = costs.filter_cost(27) * (1.0 + 1e-15)
    result = SubtrajectorySearch(vertex_dataset, costs).query(query, tau=tau)
    assert {(m.trajectory_id, m.start, m.end) for m in result.matches} == (
        oracle_range(vertex_dataset, query, costs, tau)
    )
