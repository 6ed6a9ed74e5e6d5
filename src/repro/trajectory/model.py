"""The trajectory data model (Definition 1).

A :class:`Trajectory` stores a vertex path plus one timestamp per vertex.
The engine treats a trajectory as a string over the vertex alphabet or,
equivalently, over the edge alphabet (§2.1); conversion between the two
representations requires the road network and is provided here.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import TrajectoryError
from repro.network.graph import RoadNetwork

__all__ = ["Trajectory"]


class Trajectory:
    """A network-constrained trajectory ``(P, T)``.

    ``path`` is the vertex representation; ``timestamps`` (optional) must be
    finite, non-decreasing and as long as the path.  Instances are immutable.

    >>> t = Trajectory([3, 4, 5], timestamps=[0.0, 10.0, 25.0])
    >>> len(t), t.duration
    (3, 25.0)
    """

    __slots__ = ("_path", "_timestamps")

    def __init__(
        self,
        path: Sequence[int],
        timestamps: Optional[Sequence[float]] = None,
    ) -> None:
        if len(path) == 0:
            raise TrajectoryError("empty trajectory")
        self._path: Tuple[int, ...] = tuple(int(v) for v in path)
        if timestamps is not None:
            if len(timestamps) != len(path):
                raise TrajectoryError(
                    f"timestamps length {len(timestamps)} != path length {len(path)}"
                )
            ts = tuple(float(t) for t in timestamps)
            if not all(math.isfinite(t) for t in ts):
                # NaN passes the ordering check below (``b < a`` is False)
                # and would poison interval predicates and departure sorts.
                raise TrajectoryError("timestamps must be finite numbers")
            if any(b < a for a, b in zip(ts, ts[1:])):
                raise TrajectoryError("timestamps must be non-decreasing")
            self._timestamps: Optional[Tuple[float, ...]] = ts
        else:
            self._timestamps = None

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._path)

    def __getitem__(self, i: int) -> int:
        return self._path[i]

    def __iter__(self):
        return iter(self._path)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self._path == other._path and self._timestamps == other._timestamps

    def __hash__(self) -> int:
        return hash((self._path, self._timestamps))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ts = "with timestamps" if self._timestamps else "no timestamps"
        return f"Trajectory(len={len(self._path)}, {ts})"

    # -- accessors -------------------------------------------------------------

    @property
    def path(self) -> Tuple[int, ...]:
        """Vertex representation of the path."""
        return self._path

    @property
    def timestamps(self) -> Optional[Tuple[float, ...]]:
        """Per-vertex timestamps, or None for untimed trajectories."""
        return self._timestamps

    @property
    def start_time(self) -> float:
        """Departure time ``T_1``."""
        self._require_timestamps()
        return self._timestamps[0]  # type: ignore[index]

    @property
    def end_time(self) -> float:
        """Arrival time ``T_n``."""
        self._require_timestamps()
        return self._timestamps[-1]  # type: ignore[index]

    @property
    def duration(self) -> float:
        """End-to-end travel time."""
        self._require_timestamps()
        return self._timestamps[-1] - self._timestamps[0]  # type: ignore[index]

    def travel_time(self, i: int, j: int) -> float:
        """Travel time of the subtrajectory between vertex indices i..j
        (inclusive, 0-based) — ``T_j - T_i`` in the paper's notation."""
        self._require_timestamps()
        if not 0 <= i <= j < len(self._path):
            raise TrajectoryError(f"bad subtrajectory bounds ({i}, {j})")
        return self._timestamps[j] - self._timestamps[i]  # type: ignore[index]

    def time_interval(self) -> Tuple[float, float]:
        """The whole-trajectory interval ``[T_1, T_n]`` used by the temporal
        candidate filter (§4.3)."""
        self._require_timestamps()
        return (self._timestamps[0], self._timestamps[-1])  # type: ignore[index]

    def _require_timestamps(self) -> None:
        if self._timestamps is None:
            raise TrajectoryError("trajectory has no timestamps")

    # -- representations ---------------------------------------------------------

    def subtrajectory(self, i: int, j: int) -> "Trajectory":
        """The subtrajectory from vertex index ``i`` to ``j`` inclusive."""
        if not 0 <= i <= j < len(self._path):
            raise TrajectoryError(f"bad subtrajectory bounds ({i}, {j})")
        ts = self._timestamps[i : j + 1] if self._timestamps else None
        return Trajectory(self._path[i : j + 1], ts)

    def edge_representation(self, graph: RoadNetwork) -> List[int]:
        """The edge-id string ``e_1 .. e_{n-1}`` for this path (§2.1)."""
        return graph.path_to_edges(self._path)

    def validate(self, graph: RoadNetwork) -> None:
        """Raise :class:`TrajectoryError` unless the path is a real walk on
        ``graph`` (consecutive vertices connected by edges)."""
        if not graph.is_path(self._path):
            raise TrajectoryError("trajectory is not a path on the graph")

    @staticmethod
    def from_edges(
        graph: RoadNetwork,
        edge_ids: Sequence[int],
        timestamps: Optional[Sequence[float]] = None,
    ) -> "Trajectory":
        """Build a trajectory from its edge representation."""
        verts = graph.edges_to_path(list(edge_ids))
        if not verts:
            raise TrajectoryError("empty edge sequence")
        return Trajectory(verts, timestamps)
