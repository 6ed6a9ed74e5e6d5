"""The batched StepDP kernel: exact equivalence with the Python DP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SubtrajectorySearch
from repro.core.verification import step_dp_batch
from repro.distance.costs import LevenshteinCost
from repro.distance.wed import wed_step, wed_step_min
from tests.conftest import force_walker, sample_query

lev = LevenshteinCost()

floats = st.floats(min_value=0.0, max_value=50.0)


def step_one(sub_row, dele, ins_prefix, prev):
    """One column through the batched kernel (``L = 1``)."""
    return step_dp_batch(
        np.asarray(sub_row, dtype=np.float64)[None, :],
        np.asarray([dele]),
        np.asarray(ins_prefix),
        np.asarray(prev, dtype=np.float64)[None, :],
    )[0]


def walked(monkeypatch, walker, engine, query, **kwargs):
    """``engine.query`` on one walker (the engine's rule patched)."""
    force_walker(monkeypatch, walker)
    result = engine.query(query, **kwargs)
    assert result.dp_backend_used == walker
    return result


class TestStepDPBatch:
    @staticmethod
    def _reference(prev, sub_row, ins_prefix, dele):
        """The repo-wide prefix-min evaluation (see repro.distance.wed),
        spelled out cell by cell."""
        n = len(prev) - 1
        first = prev[0] + dele
        want = [first]
        m = first - ins_prefix[0]
        for j in range(n):
            c = prev[j] + sub_row[j]
            via_del = prev[j + 1] + dele
            if via_del < c:
                c = via_del
            chain = ins_prefix[j + 1] + m
            want.append(c if c <= chain else chain)
            d = c - ins_prefix[j + 1]
            if d < m:
                m = d
        return want

    @given(
        prev=st.lists(floats, min_size=1, max_size=12),
        sub_seed=st.lists(floats, min_size=12, max_size=12),
        ins_seed=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=12, max_size=12),
        dele=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_python_convention(self, prev, sub_seed, ins_seed, dele):
        n = len(prev) - 1
        sub_row = sub_seed[:n]
        ins_prefix = [0.0]
        for c in ins_seed[:n]:
            ins_prefix.append(ins_prefix[-1] + c)
        want = self._reference(prev, sub_row, ins_prefix, dele)
        got = step_one(sub_row, dele, ins_prefix, prev)
        # Bit-identical, not merely close: the strict < tau match semantics
        # must see the same numbers on both walkers (see step_dp_batch).
        assert got.tolist() == want
        # Equals the textbook recurrence wherever the arithmetic is exact;
        # in general within rounding of it.
        textbook = [prev[0] + dele]
        for j in range(1, n + 1):
            textbook.append(
                min(
                    prev[j - 1] + sub_row[j - 1],
                    prev[j] + dele,
                    textbook[j - 1] + (ins_prefix[j] - ins_prefix[j - 1]),
                )
            )
        assert np.allclose(got, textbook)

    @given(
        prev_seed=st.lists(floats, min_size=8, max_size=24),
        sub_seed=st.lists(floats, min_size=24, max_size=24),
        ins_seed=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=6, max_size=6),
        dele_seed=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_are_independent_of_batch_and_buffers(
        self, prev_seed, sub_seed, ins_seed, dele_seed
    ):
        """Row i of a batch == row i alone (``L = 1``) == the cell-by-cell
        reference, bit for bit; ``out=``/``work=`` buffers (the arena
        walker's call shape) change the destination, never a float."""
        n = len(ins_seed)
        rows = len(dele_seed)
        prev = np.asarray((prev_seed * 4)[: rows * (n + 1)]).reshape(rows, n + 1)
        subs = np.asarray((sub_seed * 2)[: rows * n]).reshape(rows, n)
        ins_prefix = np.concatenate([[0.0], np.asarray(ins_seed)]).cumsum()
        dels = np.asarray(dele_seed)
        batched = step_dp_batch(subs, dels, ins_prefix, prev)
        for i in range(rows):
            alone = step_one(subs[i], dels[i], ins_prefix, prev[i])
            assert batched[i].tolist() == alone.tolist()
            assert alone.tolist() == self._reference(
                prev[i].tolist(), subs[i].tolist(), ins_prefix.tolist(), dels[i]
            )
        out = np.empty_like(prev)
        work = (np.empty_like(subs), np.empty_like(prev))
        buffered = step_dp_batch(subs, dels, ins_prefix, prev, out=out, work=work)
        assert buffered is out
        assert buffered.tolist() == batched.tolist()

    def test_empty_query_part(self):
        got = step_one([], 2.0, [0.0], [5.0])
        assert got.tolist() == [7.0]

    def test_matches_wed_step_and_python_walker(self):
        query = [1, 2, 3, 4]
        prev = [0.0, 1.0, 2.0, 3.0, 4.0]
        ins_prefix = [0.0, 1.0, 2.0, 3.0, 4.0]
        want = wed_step(lev, query, 2, prev)
        got = step_one(lev.sub_row(2, query), 1.0, ins_prefix, prev)
        assert got.tolist() == want
        # The Python walker's StepDP, with the insertion prefix its trie
        # root holds: the same column, and the minimum its node keeps.
        assert wed_step_min(lev, query, 2, prev, ins_prefix=ins_prefix) == (
            want,
            min(want),
        )

    def test_non_contiguous_inputs_are_read_not_mutated(self):
        """Strided and reversed views (the backward direction's row
        slices) give the floats of their contiguous copies, untouched."""
        prev_wide = np.arange(10, dtype=np.float64).reshape(1, 10) * 0.3
        subs_wide = np.arange(8, dtype=np.float64).reshape(1, 8) * 0.7
        prev = prev_wide[:, ::2]  # (1, 5), stride 2
        subs = subs_wide[:, ::-2]  # (1, 4), negative stride
        assert not prev.flags.c_contiguous or not subs.flags.c_contiguous
        ins_prefix = np.asarray([0.0, 0.9, 1.8, 2.7, 3.6])
        dels = np.asarray([0.9])
        keep = (prev_wide.copy(), subs_wide.copy())
        got = step_dp_batch(subs, dels, ins_prefix, prev)
        want = step_dp_batch(
            np.ascontiguousarray(subs), dels, ins_prefix, np.ascontiguousarray(prev)
        )
        assert got.tolist() == want.tolist()
        assert got.tolist()[0] == self._reference(
            prev[0].tolist(), subs[0].tolist(), ins_prefix.tolist(), 0.9
        )
        assert prev_wide.tolist() == keep[0].tolist()
        assert subs_wide.tolist() == keep[1].tolist()

    def test_exact_at_threshold_nonrepresentable_costs(self):
        """The regression that motivated the shared prefix-min convention:
        with non-representable costs (0.3/0.9), a naively regrouped kernel
        returned 0.29999999999999993 for a cell whose substitution branch
        is exactly 0.3, flipping the strict < tau comparison against the
        Python walker."""
        got = step_one([0.3], 0.9, [0.0, 0.9], [0.0, 0.9])
        assert got.tolist() == [0.9, 0.3]


class TestEngineBackendEquivalence:
    """Each walker end to end, chosen by patching the engine's one rule."""

    def test_unknown_backend_rejected(self, vertex_dataset, edr_cost):
        # The engine takes no walker at all: the rule is the only choice.
        with pytest.raises(TypeError, match="dp_backend"):
            SubtrajectorySearch(vertex_dataset, edr_cost, dp_backend="numpy")

    @pytest.mark.parametrize("model_name", ["lev_cost", "edr_cost", "erp_cost", "surs_cost"])
    def test_same_results_as_python_backend(
        self, model_name, request, vertex_dataset, edge_dataset, rng, monkeypatch
    ):
        costs = request.getfixturevalue(model_name)
        ds = edge_dataset if costs.representation == "edge" else vertex_dataset
        engine = SubtrajectorySearch(ds, costs)
        for _ in range(3):
            query = sample_query(ds, rng, 6)
            a, b = (
                walked(monkeypatch, walker, engine, query, tau_ratio=0.25)
                for walker in ("python", "numpy")
            )
            keys = lambda r: [(m.trajectory_id, m.start, m.end) for m in r.matches]  # noqa: E731
            assert keys(a) == keys(b)
            for ma, mb in zip(a.matches, b.matches):
                assert ma.distance == pytest.approx(mb.distance)

    def test_counters_identical_across_backends(
        self, vertex_dataset, edr_cost, rng, monkeypatch
    ):
        query = sample_query(vertex_dataset, rng, 6)
        # Cache off: each walker verifies cold, not off the other's tries.
        engine = SubtrajectorySearch(vertex_dataset, edr_cost, trie_cache_size=0)
        a, b = (
            walked(monkeypatch, walker, engine, query, tau_ratio=0.2).verification
            for walker in ("python", "numpy")
        )
        assert a.visited_columns == b.visited_columns
        assert a.computed_columns == b.computed_columns

    def test_network_models_numpy_backend(
        self, vertex_dataset, netedr_cost, neterp_cost, rng, monkeypatch
    ):
        """Network-distance cost models (cached-oracle sub_row) work under
        the vectorized backend too."""
        for costs in (netedr_cost, neterp_cost):
            engine = SubtrajectorySearch(vertex_dataset, costs)
            query = sample_query(vertex_dataset, rng, 5)
            a, b = (
                walked(monkeypatch, walker, engine, query, tau_ratio=0.2)
                for walker in ("python", "numpy")
            )
            assert [(m.trajectory_id, m.start, m.end) for m in a.matches] == [
                (m.trajectory_id, m.start, m.end) for m in b.matches
            ]
