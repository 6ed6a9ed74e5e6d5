"""The DP walker's surface: one walker, and no keyword selects one."""

import pytest

from repro.core.engine import SubtrajectorySearch
from repro.core.verification import Verifier


class TestEngineBackendEquivalence:
    def test_unknown_backend_rejected(self, vertex_dataset, edr_cost):
        # Neither the engine nor the verifier takes a walker.
        with pytest.raises(TypeError, match="dp_backend"):
            SubtrajectorySearch(vertex_dataset, edr_cost, dp_backend="numpy")
        with pytest.raises(TypeError, match="dp_backend"):
            Verifier(lambda tid: [], [1], edr_cost, 1.0, dp_backend="numpy")
