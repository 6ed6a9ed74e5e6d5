"""History-level exactness: one deployment, one generated history.

A hypothesis state machine drives one deployment through a history of
online inserts, range queries, top-k queries and — on child-process
shards — worker kills, and checks every answer against the brute-force
oracles (``oracle_range`` / ``oracle_topk``) over the history so far.
The engines keep their ``TrieCache``, and queries are drawn from a
bundle so a later step can repeat an earlier query and walk the warm
tries that the earlier step built, across inserts and respawns.  Two
cost models give the histories: NetEDR (shortest-path distances) on
every deployment, and EDR (coordinate distances) on ``dict`` and
``serial``.

Tier-1 runs a short history per deployment.  The ``history`` profile
(``tests/conftest.py``) runs the same machine deeper:
``pytest tests/test_history.py --hypothesis-profile=history``.
"""

from contextlib import ExitStack, contextmanager

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.engine import SubtrajectorySearch
from repro.core.filtering import tau_from_ratio
from repro.core.frozen import FrozenInvertedIndex
from repro.trajectory.dataset import TrajectoryDataset
from tests.conftest import kill_worker, open_engine, oracle_range, oracle_topk

pytestmark = pytest.mark.timeout(300)

#: trajectories every history starts from; the rest of the ``trips``
#: fixture is the pool ``add_trajectory`` draws from.
BASE = 20

#: the longest query ``pick_query`` draws.
MAX_QUERY = 14

DEPLOYMENTS = ("dict", "frozen", "serial", "processes")

#: (deployment, cost-model fixture): NetEDR everywhere, and an EDR deck
#: on one single and one sharded deployment.
CASES = [pytest.param(kind, "netedr_cost", id=kind) for kind in DEPLOYMENTS] + [
    pytest.param(kind, "edr_cost", id=f"{kind}-edr") for kind in ("dict", "serial")
]

BUDGET = settings(
    deadline=None,
    suppress_health_check=list(HealthCheck),
    **(
        {}
        if settings.get_current_profile_name() == "history"
        else {"max_examples": 20, "stateful_step_count": 40}
    ),
)


@contextmanager
def deploy(kind, dataset, costs, index_path):
    """One engine of ``kind``: a single engine on the dict index or on
    the frozen file at ``index_path`` (inserts land in its delta
    overlay), or a 2-shard partitioned engine on ``kind``'s backend."""
    if kind == "dict":
        yield SubtrajectorySearch(dataset, costs)
    elif kind == "frozen":
        yield SubtrajectorySearch(
            dataset, costs, index_backend="frozen", index_path=index_path
        )
    else:
        with open_engine(kind, dataset, costs, num_shards=2) as engine:
            yield engine


class HistoryMachine(RuleBasedStateMachine):
    queries = Bundle("queries")

    def __init__(self, kind, graph, trips, costs, index_path):
        super().__init__()
        self.kind = kind
        self.costs = costs
        self.pool = trips[BASE:]
        #: every trajectory's symbols, by global id: the oracle's corpus
        self.history = [tuple(t.path) for t in trips[:BASE]]
        dataset = TrajectoryDataset(graph, "vertex")
        dataset.extend(trips[:BASE])
        self.stack = ExitStack()
        self.engine = self.stack.enter_context(
            deploy(kind, dataset, costs, index_path)
        )

    def teardown(self):
        self.stack.close()

    @rule(
        target=queries,
        tid=st.integers(min_value=0),
        start=st.integers(min_value=0),
        length=st.integers(min_value=3, max_value=MAX_QUERY),
    )
    def pick_query(self, tid, start, length):
        path = self.history[tid % len(self.history)]
        length = min(length, len(path))
        start %= len(path) - length + 1
        return list(path[start : start + length])

    @rule(pick=st.integers(min_value=0))
    def add_trajectory(self, pick):
        """An insert lands under the next global id — sent to a killed
        worker the supervisor has not respawned yet too: the shard revives
        and the insert is retried once, as a query is."""
        trajectory = self.pool[pick % len(self.pool)]
        gid = self.engine.add_trajectory(trajectory)
        assert gid == len(self.history)
        self.history.append(tuple(trajectory.path))

    @rule(query=queries, tau_ratio=st.floats(min_value=0.05, max_value=0.5))
    def range_query(self, query, tau_ratio):
        result = self.engine.query(query, tau_ratio=tau_ratio)
        tau = tau_from_ratio(query, self.costs, tau_ratio)
        assert result.complete
        assert {
            (m.trajectory_id, m.start, m.end) for m in result.matches
        } == oracle_range(self.history, query, self.costs, tau)

    @rule(query=queries, k=st.integers(min_value=1, max_value=6))
    def topk(self, query, k):
        result = self.engine.topk(query, k)
        assert result.complete
        assert [(m.trajectory_id, m.distance) for m in result] == oracle_topk(
            self.history, query, self.costs, k
        )

    @precondition(lambda self: self.kind == "processes")
    @rule(shard=st.integers(min_value=0, max_value=1))
    def kill_worker(self, shard):
        state = self.engine.status().workers[shard]
        # A snapshot never pairs alive=True with a replaced incarnation's
        # pid, even mid-respawn, so an alive pid is a live child.
        if state.alive:
            kill_worker(state.pid)


@pytest.mark.parametrize("kind, model", CASES)
def test_history_matches_the_oracle(kind, model, small_graph, trips, request, tmp_path):
    costs = request.getfixturevalue(model)
    index_path = None
    if kind == "frozen":
        base = TrajectoryDataset(small_graph, "vertex")
        base.extend(trips[:BASE])
        index_path = str(tmp_path / "base.reproidx")
        FrozenInvertedIndex.freeze(base).save(index_path)
    run_state_machine_as_test(
        lambda: HistoryMachine(kind, small_graph, trips, costs, index_path),
        settings=BUDGET,
    )
