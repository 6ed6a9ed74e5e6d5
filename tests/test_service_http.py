"""HTTP frontend: routes, JSON shapes, error mapping, and the CLI
self-test smoke path."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core.engine import SubtrajectorySearch
from repro.distance.costs import EDRCost, LevenshteinCost
from repro.service import QueryService, ServiceServer
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.model import Trajectory


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


@pytest.fixture()
def server(line_graph):
    ds = TrajectoryDataset(line_graph)
    ds.add(Trajectory([0, 1, 2, 3], timestamps=[0, 1, 2, 3]))
    ds.add(Trajectory([2, 3, 4, 5], timestamps=[4, 5, 6, 7]))
    engine = SubtrajectorySearch(ds, LevenshteinCost())
    service = QueryService(engine, max_workers=2, cache_size=32)
    with ServiceServer(service).start() as srv:
        yield srv


class TestRoutes:
    def test_healthz(self, server):
        status, body = _get(server.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["trajectories"] == 2
        assert body["shards"] == 1

    def test_stats_shape(self, server):
        _post(server.url + "/query", {"path": [1, 2], "tau": 1.0})
        status, body = _get(server.url + "/stats")
        assert status == 200
        assert body["queries"] == 1
        for key in ("qps", "latency_p50", "latency_p99", "cache_hit_rate"):
            assert key in body

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/nope")
        assert err.value.code == 404

    def test_query_matches_engine(self, server, line_graph):
        status, body = _post(
            server.url + "/query", {"path": [1, 2, 3], "tau": 1.0}
        )
        assert status == 200
        ds = TrajectoryDataset(line_graph)
        ds.add(Trajectory([0, 1, 2, 3], timestamps=[0, 1, 2, 3]))
        ds.add(Trajectory([2, 3, 4, 5], timestamps=[4, 5, 6, 7]))
        direct = SubtrajectorySearch(ds, LevenshteinCost()).query([1, 2, 3], tau=1.0)
        assert body["total_matches"] == len(direct.matches)
        assert [
            (m["trajectory"], m["start"], m["end"]) for m in body["matches"]
        ] == [(m.trajectory_id, m.start, m.end) for m in direct.matches]
        assert body["cached"] is False

    def test_repeat_query_served_from_cache(self, server):
        _post(server.url + "/query", {"path": [1, 2, 3], "tau": 1.0})
        status, body = _post(
            server.url + "/query", {"path": [1, 2, 3], "tau": 1.0}
        )
        assert status == 200 and body["cached"] is True

    def test_limit_truncates_matches_only(self, server):
        _, full = _post(server.url + "/query", {"path": [2, 3], "tau": 1.5})
        assert full["total_matches"] > 1
        _, limited = _post(
            server.url + "/query", {"path": [2, 3], "tau": 1.5, "limit": 1}
        )
        assert len(limited["matches"]) == 1
        assert limited["total_matches"] == full["total_matches"]

    def test_temporal_constraint_over_http(self, server):
        _, unconstrained = _post(
            server.url + "/query", {"path": [2, 3], "tau": 0.5}
        )
        _, constrained = _post(
            server.url + "/query",
            {"path": [2, 3], "tau": 0.5, "time_from": 0, "time_to": 3},
        )
        assert constrained["total_matches"] < unconstrained["total_matches"]


class TestErrors:
    @pytest.mark.parametrize(
        "route, payload",
        [
            ("/query", {}),  # no path
            ("/query", {"path": []}),  # empty path
            ("/query", {"path": [1, 2]}),  # no threshold
            ("/query", {"path": [1, 2], "tau": 1.0, "tau_ratio": 0.1}),  # both
            ("/query", {"path": [1, 2], "tau": 1.0, "time_from": 0}),  # unpaired
            ("/query", {"path": [1, 2], "tau": 1.0, "temporal_mode": "sideways"}),
            ("/query", {"path": [1, 2], "tau": 1.0, "limit": -1}),
            # Lossy coercions that used to answer 200: symbols truncated
            # to [1, 2], true counted as 1.
            ("/query", {"path": [1.5, 2.7], "tau": 1.0}),
            ("/query", {"path": [1, True], "tau": 1.0}),
            ("/query", {"path": [1, "2"], "tau": 1.0}),
            ("/query", {"path": [1, 2], "tau": 1.0, "limit": True}),
            ("/query", {"path": [1, 2], "tau": 1.0, "limit": 1.0}),
            ("/trajectories", {"path": [1.5, 2.7]}),
            ("/trajectories", {"path": [1, True]}),
            # json.loads admits NaN; a NaN departure poisons interval
            # predicates and the departure sort.
            ("/trajectories", {"path": [1, 2, 3], "timestamps": [float("nan"), 1, 5]}),
        ],
    )
    def test_bad_requests_are_400(self, server, route, payload):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server.url + route, payload)
        assert err.value.code == 400

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field, base",
        [
            ("tau", {}),
            ("tau_ratio", {}),
            ("deadline", {"tau": 1.0}),
            ("time_from", {"tau": 1.0, "time_to": 3}),
            ("time_to", {"tau": 1.0, "time_from": 0}),
            ("initial_tau_ratio", {"k": 2}),
            ("growth", {"k": 2}),
        ],
    )
    def test_non_finite_numbers_are_400_naming_the_field(
        self, server, field, base, value
    ):
        """``json.loads`` admits NaN / Infinity.  Downstream every guard
        is a ``<=`` a NaN slips through: a NaN ``growth`` never widens
        tau (the top-k loop spun forever, taking a pool thread with it),
        a NaN ``tau`` answered 200 with a body that is not JSON."""
        service = server._service
        started = time.monotonic()
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server.url + "/query", {"path": [1, 2, 3], **base, field: value})
        assert time.monotonic() - started < 5.0
        assert err.value.code == 400
        assert f"'{field}'" in json.loads(err.value.read())["error"]
        # Refused at the door: nothing admitted, nothing cached, and the
        # pool still has every thread — it can run max_workers at once.
        assert service.executor.pending == 0 and len(service.cache) == 0
        barrier = threading.Barrier(2, timeout=10)
        original = service.engine.query

        def rendezvous(*args, **kwargs):
            barrier.wait()
            return original(*args, **kwargs)

        service.engine.query = rendezvous
        try:
            threads = [
                threading.Thread(
                    target=_post,
                    args=(server.url + "/query", {"path": [1, 2 + i], "tau": 1.0}),
                )
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(15)
            assert not barrier.broken and service.stats()["queries"] == 2
        finally:
            del service.engine.query

    def test_nonpositive_deadline_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(
                server.url + "/query",
                {"path": [1, 2], "tau": 1.0, "deadline": 0},
            )
        assert err.value.code == 400

    @pytest.mark.parametrize("body", [{"tau": 1.0}, {"k": 1}])
    @pytest.mark.parametrize("stray", [-3, 99])
    def test_out_of_alphabet_symbol_is_400(self, line_graph, stray, body):
        """Under a graph-bound model ``-3`` used to be answered as vertex
        ``|V| - 3`` and ``99`` was an IndexError, i.e. a 500."""
        ds = TrajectoryDataset(line_graph)
        ds.add(Trajectory([0, 1, 2, 3]))
        service = QueryService(SubtrajectorySearch(ds, EDRCost(line_graph, 0.5)))
        with ServiceServer(service).start() as srv:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(srv.url + "/query", {"path": [1, 2, stray], **body})
            assert err.value.code == 400
            assert "alphabet" in json.loads(err.value.read())["error"]

    def test_unexpected_service_error_is_json_500(self, server):
        service = server._service
        original = service.query
        try:
            def boom(*args, **kwargs):
                raise RuntimeError("engine bug")

            service.query = boom
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(server.url + "/query", {"path": [1, 2], "tau": 1.0})
            assert err.value.code == 500
            assert "internal error" in json.loads(err.value.read())["error"]
        finally:
            service.query = original

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/query",
            data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400


class TestOnlineInsertOverHTTP:
    def test_non_walk_insert_rejected_by_default(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server.url + "/trajectories", {"path": [0, 5]})
        assert err.value.code == 400

    def test_non_walk_insert_allowed_with_explicit_opt_out(self, server):
        status, body = _post(
            server.url + "/trajectories", {"path": [0, 5], "validate": False}
        )
        assert status == 200 and body["trajectory"] == 2

    def test_insert_then_query_sees_new_trajectory(self, server):
        _, before = _post(server.url + "/query", {"path": [5, 4, 3], "tau": 1.0})
        assert before["total_matches"] == 0
        status, inserted = _post(
            server.url + "/trajectories",
            {"path": [5, 4, 3], "timestamps": [0, 1, 2]},
        )
        assert status == 200 and inserted["trajectory"] == 2
        _, after = _post(server.url + "/query", {"path": [5, 4, 3], "tau": 1.0})
        assert after["cached"] is False  # stale empty answer was invalidated
        assert after["total_matches"] == 1


class TestServerLifecycle:
    def test_shutdown_without_start_does_not_hang(self, line_graph):
        ds = TrajectoryDataset(line_graph)
        ds.add(Trajectory([0, 1, 2], timestamps=[0, 1, 2]))
        service = QueryService(
            SubtrajectorySearch(ds, LevenshteinCost()), max_workers=1
        )
        ServiceServer(service).shutdown()  # must return, not block forever


class TestCliSelfTest:
    def test_serve_self_test(self, capsys):
        assert main(["serve", "--self-test", "--function", "lev"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["self_test"] == "ok"
        assert out["total_matches"] >= 1

    def test_serve_self_test_sharded(self, capsys):
        assert main(
            ["serve", "--self-test", "--shards", "3", "--workers", "6",
             "--function", "lev"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["self_test"] == "ok"
        assert out["backend"] == "threads"  # the serve default

    def test_serve_self_test_process_backend(self, capsys):
        # End-to-end over HTTP with one worker process per shard; the
        # command must exit cleanly with no leaked children (the engine is
        # closed in the serve command's finally).
        assert main(
            ["serve", "--self-test", "--shards", "2", "--backend", "processes",
             "--function", "lev"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["self_test"] == "ok"
        assert out["backend"] == "processes"
        import multiprocessing as mp

        assert not [p for p in mp.active_children() if "repro-shard" in p.name]

    def test_serve_self_test_with_real_files(self, tmp_path, capsys):
        net = tmp_path / "net.txt"
        trips = tmp_path / "trips.jsonl"
        assert main(
            ["generate-network", "--rows", "6", "--cols", "6", "--out", str(net)]
        ) == 0
        assert main(
            ["generate-trips", "--network", str(net), "--count", "20",
             "--out", str(trips)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["serve", "--self-test", "--network", str(net), "--trips",
             str(trips), "--function", "lev"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["self_test"] == "ok"
        assert out["total_matches"] >= 1  # served the provided dataset

    def test_serve_requires_inputs_without_self_test(self):
        with pytest.raises(SystemExit):
            main(["serve"])
