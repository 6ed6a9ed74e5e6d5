"""Trajectory model invariants and representation conversions."""

import pytest

from repro.exceptions import TrajectoryError
from repro.trajectory.model import Trajectory


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(TrajectoryError):
            Trajectory([])

    def test_length_and_indexing(self):
        t = Trajectory([4, 5, 6])
        assert len(t) == 3
        assert t[1] == 5
        assert list(t) == [4, 5, 6]

    def test_timestamp_length_mismatch(self):
        with pytest.raises(TrajectoryError):
            Trajectory([1, 2], timestamps=[0.0])

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(TrajectoryError):
            Trajectory([1, 2, 3], timestamps=[0.0, 5.0, 4.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamps_rejected(self, bad):
        # NaN passes the ordering check (``b < a`` is False either way).
        with pytest.raises(TrajectoryError, match="finite"):
            Trajectory([1, 2, 3], timestamps=[bad, 1.0, 5.0])
        with pytest.raises(TrajectoryError, match="finite"):
            Trajectory([1, 2, 3], timestamps=[0.0, 1.0, bad])

    def test_equal_timestamps_allowed(self):
        t = Trajectory([1, 2], timestamps=[3.0, 3.0])
        assert t.duration == 0.0

    def test_immutability_via_hash_eq(self):
        a = Trajectory([1, 2, 3], timestamps=[0, 1, 2])
        b = Trajectory([1, 2, 3], timestamps=[0, 1, 2])
        c = Trajectory([1, 2, 3])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestTimestamps:
    def test_duration(self):
        t = Trajectory([1, 2, 3], timestamps=[10.0, 20.0, 45.0])
        assert t.duration == 35.0
        assert t.start_time == 10.0
        assert t.end_time == 45.0

    def test_travel_time(self):
        t = Trajectory([1, 2, 3, 4], timestamps=[0.0, 5.0, 15.0, 30.0])
        assert t.travel_time(1, 3) == 25.0
        assert t.travel_time(0, 0) == 0.0

    def test_travel_time_bad_bounds(self):
        t = Trajectory([1, 2], timestamps=[0.0, 1.0])
        with pytest.raises(TrajectoryError):
            t.travel_time(1, 0)
        with pytest.raises(TrajectoryError):
            t.travel_time(0, 5)

    def test_time_interval(self):
        t = Trajectory([1, 2], timestamps=[3.0, 9.0])
        assert t.time_interval() == (3.0, 9.0)

    def test_missing_timestamps_raise(self):
        t = Trajectory([1, 2])
        with pytest.raises(TrajectoryError):
            _ = t.duration
        with pytest.raises(TrajectoryError):
            t.time_interval()


class TestSubtrajectory:
    def test_subtrajectory(self):
        t = Trajectory([1, 2, 3, 4], timestamps=[0.0, 1.0, 2.0, 3.0])
        s = t.subtrajectory(1, 2)
        assert list(s) == [2, 3]
        assert s.timestamps == (1.0, 2.0)

    def test_bad_bounds(self):
        t = Trajectory([1, 2, 3])
        with pytest.raises(TrajectoryError):
            t.subtrajectory(2, 1)


class TestRepresentations:
    def test_edge_round_trip(self, line_graph):
        t = Trajectory([0, 1, 2, 3])
        edges = t.edge_representation(line_graph)
        assert len(edges) == 3
        t2 = Trajectory.from_edges(line_graph, edges)
        assert t2.path == t.path

    def test_from_edges_with_timestamps(self, line_graph):
        t = Trajectory([0, 1, 2])
        edges = t.edge_representation(line_graph)
        t2 = Trajectory.from_edges(line_graph, edges, timestamps=[0.0, 1.0, 2.0])
        assert t2.timestamps == (0.0, 1.0, 2.0)

    def test_from_edges_empty_rejected(self, line_graph):
        with pytest.raises(TrajectoryError):
            Trajectory.from_edges(line_graph, [])

    def test_validate(self, line_graph):
        Trajectory([0, 1, 2]).validate(line_graph)  # does not raise
        with pytest.raises(TrajectoryError):
            Trajectory([0, 2]).validate(line_graph)
