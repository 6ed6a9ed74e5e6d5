"""Prometheus-text metrics (ISSUE 6): instruments, exposition, scraping.

Pins the hand-rolled exposition layer against the text format 0.0.4
contract a real Prometheus scraper parses: ``# HELP`` / ``# TYPE``
preambles, cumulative histogram buckets ending in ``le="+Inf"`` with
matching ``_sum`` / ``_count``, label escaping, and every sample line
shaped ``name{labels} value``.  Then scrapes a live ``/metrics`` endpoint
and validates the whole body line by line — including the per-shard trie
cache bytes (satellite 1's corrected accounting) and the per-exception
error labels (satellite 2).
"""

import json
import re
import urllib.request

import pytest

from repro.core.engine import SubtrajectorySearch
from repro.exceptions import QueryError
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.service import QueryService, ServiceServer

_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'  # value may hold \" \\ \n
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{" + _LABEL + r"(," + _LABEL + r")*\})?"
    r" (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$"    # value
)


def assert_valid_exposition(text: str) -> None:
    """Every line is a comment or a well-formed sample; every sample's
    metric family was announced by # TYPE first."""
    announced = set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            announced.add(line.split()[2])
            continue
        if line.startswith("# HELP ") or not line.strip():
            continue
        assert _SAMPLE_LINE.match(line), f"malformed sample line: {line!r}"
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in announced or family in announced, (
            f"sample {name} not announced by # TYPE"
        )


class TestInstruments:
    def test_counter_accumulates_per_label_set(self):
        counter = Counter("c_total", "help", labelnames=("kind",))
        counter.inc(kind="a")
        counter.inc(2.5, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3.5
        assert counter.value(kind="b") == 1.0

    def test_counter_rejects_bad_usage(self):
        counter = Counter("c_total", "help", labelnames=("kind",))
        with pytest.raises(ValueError):
            counter.inc()  # missing label
        with pytest.raises(ValueError):
            counter.inc(kind="a", extra="b")
        with pytest.raises(ValueError):
            counter.inc(-1.0, kind="a")  # counters only go up

    def test_gauge_sets(self):
        gauge = Gauge("g", "help")
        gauge.set(3.0)
        gauge.set(-1.5)
        assert gauge.value() == -1.5

    def test_histogram_places_observations_and_tracks_sum(self):
        hist = Histogram("h", "help", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        ((labels, counts, total),) = hist.snapshot()
        assert labels == {}
        assert counts == [1, 2, 1, 1]  # raw per-bucket; render cumulates
        assert total == pytest.approx(56.05)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", "help", buckets=(1.0, 0.5))


class TestRegistryRendering:
    def test_render_is_valid_exposition(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_c_total", "Counted.", labelnames=("k",))
        gauge = registry.gauge("repro_g", "Gauged.")
        hist = registry.histogram("repro_h", "Histogrammed.", buckets=(0.1, 1.0))
        counter.inc(k='weird"label\\with\nstuff')
        gauge.set(4.0)
        hist.observe(0.5)
        registry.register_collector(
            lambda: [("repro_pulled", "gauge", "Pulled.", [({"shard": "0"}, 7.0)])]
        )
        text = registry.render()
        assert_valid_exposition(text)
        assert '# TYPE repro_c_total counter' in text
        # Label escaping: backslash, quote, newline.
        assert 'k="weird\\"label\\\\with\\nstuff"' in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_sum 0.5" in text
        assert "repro_h_count 1" in text
        assert 'repro_pulled{shard="0"} 7' in text

    def test_unlabeled_instruments_render_zero_before_first_use(self):
        registry = MetricsRegistry()
        registry.counter("repro_idle_total", "Never incremented.")
        text = registry.render()
        assert "repro_idle_total 0" in text

    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total", "x again")


@pytest.fixture()
def served(vertex_dataset, netedr_cost):
    engine = SubtrajectorySearch(vertex_dataset, netedr_cost)
    service = QueryService(engine, trace_sample_rate=1.0)
    server = ServiceServer(service).start()
    yield server, service
    server.shutdown()


def _scrape(server) -> str:
    with urllib.request.urlopen(server.url + "/metrics", timeout=10) as response:
        assert response.status == 200
        content_type = response.headers["Content-Type"]
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        return response.read().decode("utf-8")


class TestMetricsEndpoint:
    def test_scrape_is_valid_and_reflects_traffic(self, served, vertex_dataset):
        server, service = served
        query = list(vertex_dataset.symbols(0))[:8]
        service.query(query, tau_ratio=0.3)
        service.query(query, tau_ratio=0.3)  # result-cache hit
        text = _scrape(server)
        assert_valid_exposition(text)
        assert 'repro_queries_total{outcome="computed"} 1' in text
        assert 'repro_queries_total{outcome="cached"} 1' in text
        assert "repro_queries_by_dp_backend_total" not in text
        assert "repro_dp_rounds_total" not in text
        assert 'repro_query_latency_seconds_bucket' in text
        assert "repro_query_candidates_count 1" in text
        assert "repro_traces_sampled_total 2" in text
        # Satellite 1: measured trie bytes, per shard, on the wire.
        match = re.search(
            r'^repro_trie_cache_bytes\{shard="0"\} (\d+)$', text, re.M
        )
        assert match is not None
        assert int(match.group(1)) > 0
        assert int(match.group(1)) == service.engine.status().trie["bytes"]
        # One warm-query cache, reported once.
        assert 'repro_trie_cache_hits_total{shard="0"}' in text
        assert "repro_substitution_cache" not in text

    def test_errors_are_labelled_by_exception_type(self, served):
        server, service = served
        with pytest.raises(QueryError):
            service.query([], tau_ratio=0.3)
        text = _scrape(server)
        assert 'repro_errors_total{type="QueryError"} 1' in text
        # Satellite 2: /stats keeps the aggregate AND gains the breakdown.
        stats = service.stats()
        assert stats["errors"] == 1
        assert stats["errors_by_type"] == {"QueryError": 1}

    def test_stats_and_healthz_unchanged_shapes(self, served):
        server, _ = served
        for path in ("/stats", "/healthz"):
            with urllib.request.urlopen(server.url + path, timeout=10) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
            assert isinstance(payload, dict)
        assert "queries" in json.loads(
            urllib.request.urlopen(server.url + "/stats", timeout=10)
            .read()
            .decode("utf-8")
        )
