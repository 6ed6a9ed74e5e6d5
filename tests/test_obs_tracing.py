"""End-to-end query tracing (ISSUE 6): spans, stitching, flight recorder.

The tentpole contract this suite pins:

- tracing primitives: sampling decided once per request (rate 0 returns
  ``None``), spans exported root-relative and re-anchored when grafted
  across the process boundary, renderers rebuilding the tree from flat
  records;
- a 2-shard **processes**-backend query through the HTTP frontend yields
  ONE stitched trace — per-shard child spans under ``execute``, each
  carrying the worker's own engine-stage spans — retrievable from
  ``/debug/traces`` and rendered by ``repro trace``;
- warm vs cold trie-cache state is visible in verify-span attributes
  (``trie_cache=miss`` on first contact, ``hit`` on the repeat);
- slow queries are preserved even at sample rate 0: a synthesized
  stage-breakdown trace lands in the recorder and a one-line JSON record
  on the ``repro.slowlog`` logger;
- a shard span says how its call ended — ``fault=retried|degraded`` for
  the fault decisions taken, ``error=<type>`` for a failure — on worker
  backends too, where one span scope now serves every path.
"""

import json
import logging
import urllib.request

import pytest

from repro import exceptions
from repro.cli import main as cli_main
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.exceptions import WorkerError
from repro.faultinject import FaultPlan, FaultRule
from repro.obs import (
    FlightRecorder,
    Trace,
    Tracer,
    render_trace,
    slow_query_record,
    synthesize_trace,
)
from repro.service import QueryService, ServiceServer
from tests.conftest import KINDS, ask


class TestTracer:
    def test_rate_zero_never_samples(self):
        tracer = Tracer(0.0)
        assert all(tracer.start("query") is None for _ in range(100))

    def test_rate_one_always_samples(self):
        tracer = Tracer(1.0)
        traces = [tracer.start("query") for _ in range(10)]
        assert all(t is not None for t in traces)
        assert len({t.trace_id for t in traces}) == 10

    def test_fractional_rate_is_deterministic_and_proportional(self):
        first, second = Tracer(0.25), Tracer(0.25)
        a = [first.start("q") is not None for _ in range(400)]
        b = [second.start("q") is not None for _ in range(400)]
        assert a == b  # Weyl counter: reproducible per-ordinal decisions
        assert 0 < sum(a) < 400
        # Equidistributed increment: the hit count tracks the rate.
        assert 60 <= sum(a) <= 140

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(1.5)


class TestSpans:
    def test_child_and_replayed_spans_share_the_tree(self):
        trace = Trace("request", kind="test")
        child = trace.root.child("stage", shard=0)
        child.finish()
        trace.root.add("replayed", child.start, child.end, n=3)
        trace.finish()
        exported = trace.export()
        assert [s["name"] for s in exported] == ["request", "stage", "replayed"]
        assert all(s["parent_id"] == trace.root.span_id for s in exported[1:])
        # Root-relative starts: the root exports at 0.
        assert exported[0]["start"] == 0.0
        assert exported[1]["start"] >= 0.0

    def test_finish_is_idempotent(self):
        trace = Trace("request")
        trace.finish()
        end = trace.root.end
        trace.finish()
        assert trace.root.end == end

    def test_graft_reanchors_remote_spans(self):
        parent = Trace("request")
        rpc = parent.root.child("shard", shard=1)
        # The "remote" side: a worker trace continuing this context.
        trace_id, parent_id = rpc.context()
        remote = Trace("shard_worker", trace_id=trace_id, parent_id=parent_id)
        remote.root.add("verify", remote.root.start, remote.root.start + 0.5)
        remote.finish()
        rpc.graft(remote.export())
        rpc.finish()
        parent.finish()
        record = parent.to_dict()
        assert record["trace_id"] == trace_id == remote.trace_id
        by_name = {s["name"]: s for s in record["spans"]}
        # Stitched: the worker root hangs off the RPC span, the worker's
        # stage span hangs off the worker root.
        assert by_name["shard_worker"]["parent_id"] == rpc.span_id
        assert (
            by_name["verify"]["parent_id"] == by_name["shard_worker"]["span_id"]
        )
        # Re-anchored onto the local clock at the RPC span's start.
        root_rel = rpc.start - parent.root.start
        assert by_name["shard_worker"]["start"] == pytest.approx(root_rel)

    def test_unfinished_span_exports_zero_duration(self):
        trace = Trace("request")
        trace.root.child("never_finished")
        trace.finish()
        spans = {s["name"]: s for s in trace.export()}
        assert spans["never_finished"]["duration"] == 0.0


class TestFlightRecorderAndRendering:
    @staticmethod
    def _record(duration, name="query"):
        return synthesize_trace(name, seconds=duration, stages=[])

    def test_recent_ring_and_slowest_heap_are_bounded(self):
        recorder = FlightRecorder(recent=3, slowest=2)
        for duration in (0.5, 0.1, 0.9, 0.2, 0.3):
            recorder.record(self._record(duration))
        assert [t["duration"] for t in recorder.recent()] == [0.3, 0.2, 0.9]
        assert [t["duration"] for t in recorder.slowest()] == [0.9, 0.5]
        assert recorder.stats() == {"recorded": 5, "recent": 3, "slowest": 2}
        assert len(recorder.recent(limit=1)) == 1

    def test_render_trace_indents_by_parenthood(self):
        trace = Trace("request")
        shard = trace.root.child("shard", shard=0)
        shard.add("verify", shard.start, shard.start + 0.001, candidates=4)
        shard.finish()
        trace.finish()
        text = render_trace(trace.to_dict())
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {trace.trace_id}")
        assert lines[1].startswith("- request")
        assert lines[2].startswith("  - shard")
        assert "[shard=0]" in lines[2]
        assert lines[3].startswith("    - verify")
        assert "candidates=4" in lines[3]

    def test_synthesized_record_renders_with_marker(self):
        record = synthesize_trace(
            "query",
            seconds=0.01,
            stages=[("verify", 0.008, {"dp_backend": "numpy"})],
            outcome="computed",
        )
        text = render_trace(record)
        assert "(synthesized)" in text
        assert "dp_backend=numpy" in text

    def test_slow_query_record_is_flat(self):
        record = slow_query_record(
            {"trace_id": "abc"}, seconds=0.2, threshold=0.1, cached=False
        )
        assert record["event"] == "slow_query"
        assert record["trace_id"] == "abc"
        assert json.loads(json.dumps(record)) == record  # JSON-safe


@pytest.fixture(scope="module")
def traced_server(vertex_dataset, netedr_cost):
    """A fully-sampled service over a 2-shard processes engine."""
    engine = PartitionedSubtrajectorySearch(
        vertex_dataset,
        netedr_cost,
        num_shards=2,
        backend="processes",
        trie_cache_size=8,
    )
    service = QueryService(engine, trace_sample_rate=1.0)
    server = ServiceServer(service).start()
    yield server, service, engine
    server.shutdown()
    engine.close()


def _http_query(server, path, tau_ratio):
    body = json.dumps({"path": path, "tau_ratio": tau_ratio}).encode("utf-8")
    request = urllib.request.Request(
        server.url + "/query",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def _debug_traces(server, **params):
    query = "&".join(f"{k}={v}" for k, v in params.items())
    url = server.url + "/debug/traces" + (f"?{query}" if query else "")
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


class TestStitchedProcessTraces:
    """The acceptance path: HTTP query → one stitched cross-process tree."""

    def test_http_query_yields_one_stitched_trace(self, traced_server, vertex_dataset):
        server, service, engine = traced_server
        query = list(vertex_dataset.symbols(0))[:8]
        _http_query(server, query, 0.3)   # cold: trie cache misses
        _http_query(server, query, 0.45)  # warm: same entry, cache hit
        payload = _debug_traces(server, order="recent", limit=2)
        warm_record, cold_record = payload["traces"]

        for record in (cold_record, warm_record):
            spans = record["spans"]
            names = [s["name"] for s in spans]
            # One tree: serving stages and both shards' worker spans in
            # the SAME trace, every span reachable from the root.
            for expected in ("query", "cache_lookup", "admission", "execute"):
                assert expected in names
            shard_spans = [s for s in spans if s["name"] == "shard"]
            assert len(shard_spans) == 2
            assert {s["attributes"]["shard"] for s in shard_spans} == {0, 1}
            worker_spans = [s for s in spans if s["name"] == "shard_worker"]
            assert len(worker_spans) == 2
            by_id = {s["span_id"]: s for s in spans}
            shard_ids = {s["span_id"] for s in shard_spans}
            assert {s["parent_id"] for s in worker_spans} == shard_ids
            verify = [s for s in spans if s["name"] == "verify"]
            assert len(verify) == 2
            assert all(
                by_id[s["parent_id"]]["name"] == "shard_worker" for s in verify
            )
            assert all(
                s["attributes"]["dp_backend"] == "numpy" for s in verify
            )
            assert all("bound_pruned" in s["attributes"] for s in verify)

        # Satellite 4's teeth: cold vs warm trie-cache status, per shard,
        # visible in the stitched span attributes.
        def statuses(record):
            return {
                s["attributes"]["trie_cache"]
                for s in record["spans"]
                if s["name"] == "verify"
            }

        assert statuses(cold_record) == {"miss"}
        assert statuses(warm_record) == {"hit"}

    def test_trace_status_also_lands_on_the_result(self, traced_server, vertex_dataset):
        _, _, engine = traced_server
        query = list(vertex_dataset.symbols(1))[:8]
        assert engine.query(query, tau_ratio=0.3).trie_cache_status == "miss"
        assert engine.query(query, tau_ratio=0.3).trie_cache_status == "hit"

    def test_debug_traces_validates_params(self, traced_server):
        server, _, _ = traced_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                server.url + "/debug/traces?order=sideways", timeout=10
            )
        assert excinfo.value.code == 400

    def test_trace_cli_renders_the_span_tree(self, traced_server, capsys):
        server, _, _ = traced_server
        assert cli_main(["trace", "--url", server.url, "--slowest", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "- query" in out
        assert "shard_worker" in out
        assert "verify" in out
        assert cli_main(["trace", "--url", server.url, "--json", "-n", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == "recent"
        assert payload["traces"]

    def test_stats_expose_observability_block(self, traced_server):
        _, service, _ = traced_server
        block = service.stats()["observability"]
        assert block["trace_sample_rate"] == 1.0
        assert block["flight_recorder"]["recorded"] >= 1


class TestShardSpansSayHowTheCallEnded:
    @staticmethod
    def _shard_attributes(dataset, costs, rule, **query_kwargs):
        """``{shard: span attributes}`` of one traced 2-shard processes
        query under ``rule`` (a query that raises still has its spans)."""
        trace = Trace("test")
        with PartitionedSubtrajectorySearch(
            dataset,
            costs,
            num_shards=2,
            backend="processes",
            fault_plan=FaultPlan(rules=[rule]),
        ) as engine:
            try:
                engine.query(
                    list(dataset.symbols(0))[:6],
                    tau_ratio=0.25,
                    trace=trace.root,
                    **query_kwargs,
                )
            except WorkerError:
                pass
        return {
            s["attributes"]["shard"]: s["attributes"]
            for s in trace.export()
            if s["name"] == "shard"
        }

    def test_a_retried_shard_is_marked(self, vertex_dataset, edr_cost):
        shards = self._shard_attributes(
            vertex_dataset, edr_cost, FaultRule(shard=0, op="kill_before", request=1)
        )
        assert shards[0]["fault"] == "retried" and "error" not in shards[0]
        assert "fault" not in shards[1] and "error" not in shards[1]

    def test_a_degraded_shard_is_marked(self, vertex_dataset, edr_cost):
        shards = self._shard_attributes(
            vertex_dataset,
            edr_cost,
            FaultRule(shard=1, op="conn_drop", request=0),
            allow_partial=True,
        )
        assert shards[1]["fault"] == "degraded" and "error" not in shards[1]
        assert "fault" not in shards[0] and "error" not in shards[0]

    def test_a_failed_shard_names_its_error(self, vertex_dataset, edr_cost):
        shards = self._shard_attributes(
            vertex_dataset, edr_cost, FaultRule(shard=1, op="conn_drop", request=0)
        )
        error = getattr(exceptions, shards[1]["error"])
        assert issubclass(error, WorkerError)
        assert shards[1]["fault"] == "retried"  # it was, and failed again


class TestSlowQueryPath:
    @pytest.mark.parametrize("kind", KINDS)
    def test_unsampled_slow_query_is_synthesized_and_logged(
        self, vertex_dataset, netedr_cost, caplog, kind
    ):
        engine = PartitionedSubtrajectorySearch(vertex_dataset, netedr_cost, num_shards=2)
        service = QueryService(
            engine, trace_sample_rate=0.0, slow_query_seconds=0.0
        )
        try:
            query = list(vertex_dataset.symbols(0))[:8]
            with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
                response = ask(service, kind, query)
            records = [
                json.loads(r.message)
                for r in caplog.records
                if r.name == "repro.slowlog"
            ]
            assert len(records) == 1
            assert records[0]["event"] == "slow_query"
            assert records[0]["seconds"] >= 0.0
            assert records[0]["dp_backend"] == (
                "topk" if kind == "topk" else "numpy"
            )
            assert records[0]["matches"] == len(response.result.matches)
            slowest = service.observability.recorder.slowest()
            assert len(slowest) == 1
            record = slowest[0]
            assert record["synthesized"] is True
            assert record["slow"] is True
            assert record["root"] == ("topk" if kind == "topk" else "query")
            stages = {s["name"]: s["attributes"] for s in record["spans"]}
            assert {"mincand", "lookup", "verify"} <= set(stages)
            # The verify stage reports the fields its kind has.
            assert set(stages["verify"]) == (
                {"tau_rounds", "swept"}
                if kind == "topk"
                else {
                    "dp_backend",
                    "dp_rounds",
                    "trie_cache",
                    "computed_columns",
                    "bound_pruned",
                }
            )
            if kind == "range":
                assert stages["verify"]["bound_pruned"] == (
                    response.result.verification.bound_pruned
                )
            # A cached repeat did no engine work: root only, marked so.
            ask(service, kind, query)
            repeat = service.observability.recorder.recent(1)[0]
            assert [s["name"] for s in repeat["spans"]] == [record["root"]]
            assert repeat["spans"][0]["attributes"]["outcome"] == "cached"
            assert 'repro_slow_queries_total 2' in (
                service.observability.registry.render()
            )
        finally:
            service.close(close_engine=True)

    @pytest.mark.parametrize("kind", KINDS)
    def test_sampled_root_span_describes_the_request(
        self, vertex_dataset, netedr_cost, kind
    ):
        engine = PartitionedSubtrajectorySearch(
            vertex_dataset, netedr_cost, num_shards=2
        )
        service = QueryService(engine, trace_sample_rate=1.0)
        try:
            query = list(vertex_dataset.symbols(0))[:8]
            first = ask(service, kind, query, deadline=30.0)
            ask(service, kind, query, deadline=30.0)
            cached, computed = service.observability.recorder.recent(2)
            for record in (computed, cached):
                root = record["spans"][0]
                assert root["name"] == "query" and root["parent_id"] == ""
                attrs = root["attributes"]
                assert attrs["query_length"] == 8
                assert attrs["deadline_seconds"] == 30.0
                assert attrs["seconds"] >= 0.0
                if kind == "topk":
                    assert attrs["mode"] == "topk" and attrs["k"] == 3
                    assert attrs["tau_rounds"] == first.result.tau_rounds
                    assert attrs["ties_at_k"] == first.result.ties_at_k
                else:
                    assert attrs["tau_ratio"] == 0.25 and "mode" not in attrs
            names = [s["name"] for s in computed["spans"]]
            for expected in ("cache_lookup", "coalesce", "admission", "execute"):
                assert expected in names
            assert "outcome" not in computed["spans"][0]["attributes"]
            assert cached["spans"][0]["attributes"]["outcome"] == "cached"
            assert [s["name"] for s in cached["spans"]] == ["query", "cache_lookup"]
        finally:
            service.close(close_engine=True)

    @pytest.mark.parametrize("kind", KINDS)
    def test_sampled_error_is_annotated_not_dropped(
        self, vertex_dataset, netedr_cost, kind
    ):
        engine = PartitionedSubtrajectorySearch(
            vertex_dataset, netedr_cost, num_shards=2
        )
        service = QueryService(engine, trace_sample_rate=1.0)
        try:
            with pytest.raises(Exception):
                ask(service, kind, [])  # empty query → QueryError
            recent = service.observability.recorder.recent()
            assert len(recent) == 1
            root = recent[0]["spans"][0]
            assert root["attributes"]["error"] == "QueryError"
        finally:
            service.close(close_engine=True)
