"""HTTP frontend: routes, JSON shapes, error mapping, and the CLI
self-test smoke path."""

import http.client
import json
import logging
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core.engine import SubtrajectorySearch
from repro.distance.costs import EDRCost, LevenshteinCost
from repro.exceptions import WorkerError
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
            # float("0") and float(True) used to let these through.
            ("/trajectories", {"path": [1, 2, 3], "timestamps": ["0", "1", "2"]}),
            ("/trajectories", {"path": [1, 2, 3], "timestamps": [True, True, True]}),
            ("/trajectories", {"path": [1, 2, 3], "timestamps": "012"}),
            # bool(0) switched graph-walk validation off, bool("false") on.
            ("/trajectories", {"path": [0, 5], "validate": 0}),
            ("/trajectories", {"path": [0, 1], "validate": "false"}),
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

    @pytest.mark.parametrize("body", [{"tau": 1.0}, {"k": 1}], ids=["range", "topk"])
    def test_engine_error_naming_a_shutdown_is_a_500_not_a_shed(self, line_graph, body):
        """Only the executor pool's own refusal is a shed: an engine error
        whose text happens to say "shutdown" (one from a user's cost
        model, say) reaches the client as the 500 it is, and is not
        counted as rejected."""

        class ShutdownTalkingEngine(SubtrajectorySearch):
            def query(self, *args, **kwargs):
                raise RuntimeError("oracle shutdown")

        ds = TrajectoryDataset(line_graph)
        ds.add(Trajectory([0, 1, 2, 3], timestamps=[0, 1, 2, 3]))
        service = QueryService(ShutdownTalkingEngine(ds, LevenshteinCost()))
        with ServiceServer(service).start() as srv:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(srv.url + "/query", {"path": [1, 2], **body})
            assert err.value.code == 500
            assert "oracle shutdown" in json.loads(err.value.read())["error"]
            _, stats = _get(srv.url + "/stats")
        assert stats["rejected"] == 0
        assert stats["errors_by_type"] == {"RuntimeError": 1}

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

    @pytest.mark.parametrize(
        "field, value",
        [("timestamps", ["0", "1"]), ("timestamps", [True, 1]), ("validate", 0)],
    )
    def test_uncoercible_field_is_named_and_nothing_is_inserted(
        self, server, field, value
    ):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server.url + "/trajectories", {"path": [0, 1], field: value})
        assert err.value.code == 400
        assert f"'{field}'" in json.loads(err.value.read())["error"]
        assert _get(server.url + "/healthz")[1]["trajectories"] == 2

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


_CACHED_QUERY = ("POST", "/query", {"path": [1, 2, 3], "tau": 1.0})


def _roundtrip(conn, method, route, payload=None):
    """One request on a keep-alive connection: status, headers, raw body."""
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    conn.request(method, route, body=body)
    response = conn.getresponse()
    return response.status, response.headers, response.read()


@pytest.fixture()
def conn(server):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    yield connection
    connection.close()


@pytest.fixture()
def server_writes(server, monkeypatch):
    """Every ``send`` / ``sendall`` on a socket the server accepted, as
    ``(bytes, TCP_NODELAY)`` — recorded at the socket, below whatever
    buffering the handler does.  The client's sockets (this process too)
    are told apart by their local port."""
    writes = []
    for name in ("send", "sendall"):
        def spy(sock, data, *flags, _original=getattr(socket.socket, name)):
            if sock.getsockname()[1] == server.port:
                nodelay = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                writes.append((len(data), nodelay))
            return _original(sock, data, *flags)

        monkeypatch.setattr(socket.socket, name, spy)
    return writes


def _fill(server, count):
    """Enough trajectories for one range query to answer > 40 KB."""
    for _ in range(count):
        server._service.add_trajectory(Trajectory([0, 1, 2, 3, 4, 5]))
    return "POST", "/query", {"path": [1, 2, 3, 4], "tau": 2.0}


class TestFrontDoor:
    """A keep-alive client must never wait on its own delayed ACK: every
    reply is one write on a ``TCP_NODELAY`` socket.  Fresh-connection
    clients (``urlopen``, every test above) cannot see the difference —
    the first reply on a connection rides the kernel's quick-ACK phase."""

    def test_every_reply_kind_is_one_socket_write(
        self, server, conn, server_writes, monkeypatch
    ):
        big = _fill(server, 160)
        _roundtrip(conn, *_CACHED_QUERY)

        def unavailable(*args, **kwargs):
            raise WorkerError("shard 0 is down")

        requests = [
            ("cached 200", 200, _CACHED_QUERY),
            ("metrics text", 200, ("GET", "/metrics")),
            ("400", 400, ("POST", "/query", {"path": [1, 2], "tau": "x"})),
            ("404", 404, ("GET", "/nope")),
            ("503", 503, ("POST", "/query", {"path": [3, 4], "tau": 1.0})),
            ("large 200", 200, big),
        ]
        for kind, expected, request in requests:
            with monkeypatch.context() as patch:
                if expected == 503:
                    patch.setattr(server._service, "query", unavailable)
                del server_writes[:]
                status, headers, body = _roundtrip(conn, *request)
            assert status == expected, kind
            sizes = [size for size, _ in server_writes]
            assert len(sizes) == 1, f"{kind}: reply left in {len(sizes)} writes {sizes}"
            assert sizes[0] > len(body) == int(headers["Content-Length"]), kind
            if kind == "cached 200":
                assert json.loads(body)["cached"] is True
            elif kind == "503":
                assert headers["Retry-After"] == "1"
            elif kind == "large 200":
                assert len(body) >= 40_000

    def test_accepted_sockets_have_nodelay(self, conn, server_writes):
        _roundtrip(conn, "GET", "/healthz")
        assert server_writes and all(nodelay for _, nodelay in server_writes)

    def test_keepalive_round_trips_do_not_stall(self, conn):
        """A reply split over two sends reads the client's delayed-ACK
        timer (a kernel constant, >= 40 ms) from the second request of a
        connection on; a whole one reads well under a millisecond.  The
        bound sits 2x from the first and >20x from the second."""
        insert = ("POST", "/trajectories", {"path": [0, 1, 2], "timestamps": [0, 1, 2]})
        for request in (
            _CACHED_QUERY,
            ("GET", "/healthz"),
            ("GET", "/stats"),
            ("GET", "/metrics"),
            insert,
        ):
            elapsed = []
            for _ in range(30):
                started = time.perf_counter()
                status, _, _ = _roundtrip(conn, *request)
                elapsed.append(time.perf_counter() - started)
                assert status == 200
            assert statistics.median(elapsed) < 0.020, request[1]

    def test_content_length_is_the_bytes_on_the_wire(self, server):
        """Read to EOF on a raw socket, so nothing trims or pads the body
        to the header's figure the way an HTTP client would."""
        smallest = ("POST", "/trajectories", {"path": [0, 1]})
        for method, route, payload in (smallest, _fill(server, 160)):
            data = json.dumps(payload).encode("utf-8")
            head = (
                f"{method} {route} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            )
            with socket.create_connection((server.host, server.port), timeout=30) as raw:
                raw.sendall(head.encode("ascii") + data)
                reply = b"".join(iter(lambda: raw.recv(65536), b""))
            headers, _, body = reply.partition(b"\r\n\r\n")
            assert headers.startswith(b"HTTP/1.1 200 OK\r\n")
            (length,) = [
                int(line.split(b":")[1])
                for line in headers.split(b"\r\n")
                if line.lower().startswith(b"content-length:")
            ]
            assert length == len(body)
            assert isinstance(json.loads(body), dict)


class TestRefusalsKeepTheConnection:
    """A refusal sent after the request body was read leaves the stream
    at the next request line, so it must not cost the client its
    connection — least of all a shed (429) or a 503, which would send the
    retry through a fresh handshake and handler thread exactly when the
    server is loaded.  Only a body left unread closes."""

    @pytest.fixture()
    def accepted(self, server):
        """Connections the server accepted — one handler thread each."""
        connections = []
        get_request = server._httpd.get_request

        def counting():
            connections.append(get_request())
            return connections[-1]

        server._httpd.get_request = counting
        return connections

    def test_refusals_after_the_body_was_read_share_one_socket(self, conn, accepted):
        bad = ("POST", "/query", {"path": [1, 2], "tau": "x"})
        late = ("POST", "/query", {"path": [2, 3], "tau": 1.0, "deadline": 1e-9})
        non_walk = ("POST", "/trajectories", {"path": [0, 5]})
        sock = None
        for expected, request in (
            (400, bad), (200, _CACHED_QUERY), (504, late), (200, _CACHED_QUERY),
            (400, non_walk), (404, ("GET", "/nope")), (200, ("GET", "/healthz")),
        ):
            status, headers, _ = _roundtrip(conn, *request)
            assert status == expected
            assert headers["Connection"] is None
            sock = sock or conn.sock
            assert conn.sock is sock
        assert len(accepted) == 1

    @pytest.mark.parametrize("route", ["/query", "/trajectories"])
    def test_a_deeply_nested_body_is_a_400_on_the_same_socket(
        self, conn, accepted, caplog, route
    ):
        """Nesting deep enough to exhaust the JSON parser's recursion
        limit, in a body far under the size cap, is a malformed request:
        a 400 with no logged traceback, and the connection serves on."""
        depth = 100_000
        body = b'{"path": ' + b"[" * depth + b"]" * depth + b"}"
        conn.request("POST", route, body=body)
        response = conn.getresponse()
        assert response.status == 400
        assert "nested too deeply" in json.loads(response.read())["error"]
        assert response.headers["Connection"] is None
        assert _roundtrip(conn, *_CACHED_QUERY)[0] == 200
        assert len(accepted) == 1
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    @pytest.mark.parametrize(
        "route, declared",
        [
            ("/query", {"Content-Length": str(17 * 1024 * 1024)}),
            ("/query", {"Content-Length": "many"}),
            ("/query", {"Transfer-Encoding": "chunked"}),
            ("/query", {}),
            ("/nope", {"Content-Length": "2"}),
        ],
    )
    def test_an_unread_body_closes_and_the_client_reconnects(
        self, conn, accepted, route, declared
    ):
        assert _roundtrip(conn, *_CACHED_QUERY)[0] == 200
        # Headers only: the server must decide from what was declared.
        conn.putrequest("POST", route)
        for name, value in declared.items():
            conn.putheader(name, value)
        conn.endheaders()
        response = conn.getresponse()
        response.read()
        assert response.status == (404 if route == "/nope" else 400)
        assert response.headers["Connection"] == "close"
        assert conn.sock is None
        assert _roundtrip(conn, *_CACHED_QUERY)[0] == 200
        assert len(accepted) == 2


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
        assert out["backend"] == "serial"  # the serve default

    def test_serve_refuses_the_threads_backend(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--self-test", "--shards", "2", "--backend", "threads"])
        assert exited.value.code == 2
        assert "invalid choice: 'threads'" in capsys.readouterr().err

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
