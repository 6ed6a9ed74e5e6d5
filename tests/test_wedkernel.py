"""The verifier's DP kernel (``repro.core.wedkernel``): the native C
kernel against the Python reference, bit for bit; its build, cache and
fallback; and the slicing premise of the one row matrix per query."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wedkernel
from repro.core.engine import SubtrajectorySearch
from repro.core.trie import TrieCacheEntry
from repro.core.wedkernel import NativeKernel, PythonKernel, native_function
from repro.distance.costs import (
    EDRCost,
    ERPCost,
    LevenshteinCost,
    NetEDRCost,
    NetERPCost,
    SURSCost,
)
from repro.distance.wed import wed_step_min
from repro.network.generators import grid_city
from tests.conftest import python_kernel, sample_query

_GRID = grid_city(8, 8, seed=42)
MODELS = {
    "lev": LevenshteinCost(),
    "edr": EDRCost(_GRID, epsilon=60.0),
    "erp": ERPCost(_GRID, eta=25.0),
    "netedr": NetEDRCost(_GRID),
    "neterp": NetERPCost(_GRID, g_del=250.0),
    "surs": SURSCost(_GRID),
}

symbols = st.integers(min_value=0, max_value=15)


def _native_or_skip():
    function = native_function()
    if function is None:
        pytest.skip("the native kernel is unavailable here (see the WARNING)")
    return function


def _reference(costs, part, parent, view, limit):
    """A ``wed_step_min`` loop over ``view`` from ``parent``, each
    symbol's row computed against the part itself: the columns, mins and
    lasts up to and including the first column whose min is >= limit."""
    ins_row = [costs.ins(q) for q in part]
    columns, mins, lasts = [], [], []
    column = list(parent)
    for symbol in view:
        column, low = wed_step_min(
            costs, part, symbol, column, sub_row=costs.sub_row(symbol, part), ins_row=ins_row
        )
        columns.append(column)
        mins.append(low)
        lasts.append(column[-1])
        if low >= limit:
            break
    return columns, mins, lasts


def _bits(values, width):
    return np.asarray(values, dtype=np.float64).reshape(-1, width).tobytes()


#: tier-1's example count for the kernel parity below; CI runs it deep
#: under ``--hypothesis-profile=history`` (tests/conftest.py).
KERNEL_PARITY = settings(
    deadline=None,
    max_examples=1500 if settings.get_current_profile_name() == "history" else 150,
)


@given(
    name=st.sampled_from(sorted(MODELS)),
    query=st.lists(symbols, min_size=1, max_size=8),
    view=st.lists(symbols, min_size=1, max_size=24),
    prefix=st.lists(symbols, max_size=3),
    known=st.lists(symbols, max_size=6),
    at=st.integers(0, 7),
    backward=st.booleans(),
    limit=st.sampled_from(("inf", "column", "root", "below-root")),
    pick=st.integers(0, 30),
)
@KERNEL_PARITY
def test_native_kernel_equals_a_wed_step_min_loop(
    name, query, view, prefix, known, at, backward, limit, pick
):
    """Columns, mins, lasts and the stop count, bit for bit, on every
    model, in both directions, from the root or from a later column,
    with other rows in the matrix before the suffix's, at an infinite
    limit, a limit equal to one column's min and limits at or below the
    root column's min."""
    function = _native_or_skip()
    costs = MODELS[name]
    iq = at % len(query)
    entry = TrieCacheEntry(costs, query)
    for symbol in known:
        entry.row_slot(symbol)
    slots = [entry.row_slot(symbol) for symbol in view]
    # Every symbol handed to the kernel has exactly one row.
    assert set(entry.slots) == set(known) | set(view)
    assert sorted(entry.slots.values()) == list(range(len(entry.slots)))
    assert slots == [entry.slots[symbol] for symbol in view]
    rows = dict(entry.slots)
    state = entry.direction(iq, "b" if backward else "f", False)
    part = state.part
    width = len(part) + 1
    # The parent: the root, or the column after ``prefix``.
    parent = state.ins_prefix
    if prefix:
        parent = _reference(costs, part, parent, prefix, float("inf"))[0][-1]
    full = _reference(costs, part, parent, view, float("inf"))
    bound = {
        "inf": float("inf"),
        "column": full[1][pick % len(full[1])],
        "root": min(parent),
        "below-root": min(parent) - 0.5,
    }[limit]
    want = _reference(costs, part, parent, view, bound)
    kernel = NativeKernel(function, entry)
    kernel.direction(state)
    matrix = np.array([parent], dtype=np.float64)
    count = kernel.suffix(matrix, 0, view, slots, bound)
    assert count == len(want[0])
    assert _bits(kernel.columns(count), width) == _bits(want[0], width)
    assert _bits(kernel.mins(count), 1) == _bits(want[1], 1)
    assert _bits(kernel.lasts(count), 1) == _bits(want[2], 1)
    # The Python kernel over the same matrix agrees too.
    python = PythonKernel(costs, entry)
    python.direction(state)
    assert python.suffix(matrix, 0, view, slots, bound) == count
    assert _bits(python.columns(count), width) == _bits(want[0], width)
    assert python.mins(count) == kernel.mins(count)
    # Neither kernel computes a row.
    assert entry.slots == rows
    assert (kernel.calls, python.calls) == (1, 1)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_row_of_the_query_slices_into_every_part(name):
    """The premise of one row per symbol per query: a model's row costs
    each query element on its own, so the whole query's row read from
    an offset with a step is each part's row."""
    costs = MODELS[name]
    query = [3, 9, 3, 14, 0, 7, 9]
    for p in range(16):
        row = costs.sub_row(p, query)
        for k, q in enumerate(query):
            assert row[k] == costs.sub_row(p, [q])[0], (p, q)


def test_kernel_calls_and_backend_are_reported(vertex_dataset, edr_cost, rng):
    """``dp_backend_used`` names the kernel that ran and ``dp_rounds``
    counts the uncached suffixes it computed; a warm repeat computes no
    column and no suffix."""
    expected = "native" if native_function() else "python"
    engine = SubtrajectorySearch(vertex_dataset, edr_cost)
    query = sample_query(vertex_dataset, rng, 8)
    cold = engine.query(query, tau_ratio=0.3)
    assert cold.verification.computed_columns > 0
    assert cold.dp_backend_used == expected
    assert cold.dp_rounds > 0
    warm = engine.query(query, tau_ratio=0.3)
    assert warm.verification.computed_columns == 0
    assert (warm.dp_backend_used, warm.dp_rounds) == (expected, 0)


@pytest.mark.parametrize("mode", ("trie", "local"))
def test_dp_rounds_count_suffixes_under_either_kernel(vertex_dataset, netedr_cost, rng, mode):
    """One kernel call per uncached suffix, whichever kernel runs: one
    deck, cold then warm, natively and with the Python kernel forced,
    reads the same ``dp_rounds`` per query."""
    _native_or_skip()
    deck = [sample_query(vertex_dataset, rng, n) for n in (6, 8, 10, 12)]
    deck += deck[:2]

    def run():
        engine = SubtrajectorySearch(vertex_dataset, netedr_cost, verification=mode)
        return [engine.query(query, tau_ratio=0.3) for query in deck]

    native = run()
    with python_kernel():
        python = run()
    assert {r.dp_backend_used for r in native} == {"native"}
    assert {r.dp_backend_used for r in python} == {"python"}
    assert [r.dp_rounds for r in native] == [r.dp_rounds for r in python]
    assert sum(r.dp_rounds for r in native) > 0
    for got, want in zip(python, native):
        assert _answer(got) == _answer(want)
        assert got.verification == want.verification


def _answer(result):
    return [(m.trajectory_id, m.start, m.end, m.distance) for m in result.matches]


class TestBuild:
    def test_missing_compiler_logs_one_warning_and_answers_the_same(
        self, monkeypatch, tmp_path, caplog, vertex_dataset, netedr_cost, rng
    ):
        _native_or_skip()
        query = sample_query(vertex_dataset, rng, 10)
        native = SubtrajectorySearch(vertex_dataset, netedr_cost, trie_cache_size=0)
        want = native.query(query, tau_ratio=0.3)
        assert want.dp_backend_used == "native"
        monkeypatch.setattr(wedkernel, "_COMPILER", str(tmp_path / "no-such-cc"))
        monkeypatch.setattr(wedkernel, "_cache_dir", lambda: str(tmp_path / "cache"))
        monkeypatch.setattr(wedkernel, "_native", None)
        engine = SubtrajectorySearch(vertex_dataset, netedr_cost, trie_cache_size=0)
        with caplog.at_level(logging.WARNING, logger=wedkernel.__name__):
            got = [engine.query(query, tau_ratio=0.3) for _ in range(2)]
        warnings = [r for r in caplog.records if r.name == wedkernel.__name__]
        assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
        assert "no-such-cc" in warnings[0].getMessage()
        for result in got:
            assert result.dp_backend_used == "python"
            assert _answer(result) == _answer(want)
            assert result.verification == want.verification

    def test_a_failing_self_test_falls_back(self, monkeypatch, caplog):
        _native_or_skip()

        def differs(function):
            raise RuntimeError("self-test differs from the Python kernel")

        monkeypatch.setattr(wedkernel, "_self_test", differs)
        monkeypatch.setattr(wedkernel, "_native", None)
        with caplog.at_level(logging.WARNING, logger=wedkernel.__name__):
            assert native_function() is None
            assert native_function() is None
        assert len(caplog.records) == 1
        kernel = wedkernel.new_kernel(MODELS["lev"], TrieCacheEntry(MODELS["lev"], [1]))
        assert isinstance(kernel, PythonKernel)

    def test_the_library_is_built_once_and_cached(self, monkeypatch, tmp_path):
        """The first load compiles into the cache directory; a later load
        (another process) finds the library there and runs no compiler."""
        _native_or_skip()
        cache = tmp_path / "cache"
        monkeypatch.setattr(wedkernel, "_cache_dir", lambda: str(cache))
        monkeypatch.setattr(wedkernel, "_native", None)
        assert native_function() is not None
        built = sorted(p.name for p in cache.iterdir())
        assert len(built) == 1 and built[0].startswith("_wedkernel-")
        monkeypatch.setattr(wedkernel, "_COMPILER", str(tmp_path / "no-such-cc"))
        monkeypatch.setattr(wedkernel, "_native", None)
        assert native_function() is not None
        assert sorted(p.name for p in cache.iterdir()) == built


def test_native_kernel_refuses_a_parent_it_cannot_read():
    """The C side reads a part's width of float64 at the parent: any
    other parent is refused before a pointer is passed."""
    function = _native_or_skip()
    costs = MODELS["lev"]
    entry = TrieCacheEntry(costs, [1, 2, 3])
    state = entry.direction(0, "f", False)
    slots = [entry.row_slot(1), entry.row_slot(2)]
    kernel = NativeKernel(function, entry)
    kernel.direction(state)
    for parent, slot in (
        (np.zeros((1, 4)), 0),  # too wide
        (np.zeros((1, 3), dtype=np.float32), 0),
        (np.zeros((3, 2)).T, 0),  # not C-contiguous
        (state.root, 1),  # no such row
    ):
        with pytest.raises(ValueError):
            kernel.suffix(parent, slot, [1, 2], slots, float("inf"))
    assert kernel.suffix(state.root, 0, [1, 2], slots, float("inf")) == 2
