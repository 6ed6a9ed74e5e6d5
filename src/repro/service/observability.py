"""Service-side observability wiring: tracer + flight recorder + registry.

:mod:`repro.obs` supplies the primitives (spans, Prometheus exposition,
bounded trace history); this module binds them to one
:class:`~repro.service.QueryService`:

- :class:`ServiceObservability` owns the :class:`~repro.obs.Tracer`
  (sampling), the :class:`~repro.obs.FlightRecorder` (``/debug/traces``
  and ``repro trace``), and a :class:`~repro.obs.MetricsRegistry` of
  push instruments (query/error counters, latency / candidate /
  DP-column histograms) plus pull collectors (engine cache counters per
  shard, executor/cache/batcher gauges, flight-recorder depth) that the
  ``/metrics`` endpoint renders.  These instruments are the service's
  only counters: ``GET /stats`` is :meth:`ServiceObservability.snapshot`,
  a JSON view over the same numbers (plus one bounded window of raw
  latencies, because exact percentiles cannot be read off buckets);
- every query over ``slow_query_seconds`` emits a one-line JSON record
  on the ``repro.slowlog`` logger and is *always* preserved in the
  flight recorder — sampled queries keep their real span tree, unsampled
  ones get a stage breakdown synthesized from the engine's own timings
  (:func:`~repro.obs.synthesize_trace`), so the slowest requests are
  debuggable even at ``trace_sample_rate=0``.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Trace,
    Tracer,
    slow_query_record,
    synthesize_trace,
)
from repro.service.metrics import percentile

__all__ = ["ServiceObservability"]

#: one-line JSON records for queries over the slow threshold land here.
slow_query_logger = logging.getLogger("repro.slowlog")

_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
_CANDIDATE_BUCKETS = (1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000)
_DP_COLUMN_BUCKETS = (
    10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000, 300000,
)
_K_BUCKETS = (1, 3, 10, 30, 100, 300, 1000)

#: raw latencies kept for the exact ``/stats`` percentiles (histogram
#: buckets can only interpolate them); bounded, so snapshots stay
#: O(window) and memory stays flat under sustained load.
LATENCY_WINDOW = 4096


class ServiceObservability:
    """Tracing, metrics export, and the flight recorder for one service.

    Parameters
    ----------
    trace_sample_rate:
        Fraction of requests to trace in ``[0, 1]``; 0 (the default)
        keeps the request path on the near-zero-cost unsampled branch.
        Slow queries are preserved regardless (see module docstring).
    slow_query_seconds:
        End-to-end latency threshold over which a query is logged and
        force-recorded; ``None`` disables slow-query handling.
    """

    def __init__(
        self,
        *,
        trace_sample_rate: float = 0.0,
        slow_query_seconds: Optional[float] = None,
    ) -> None:
        if slow_query_seconds is not None and slow_query_seconds < 0:
            raise ValueError("slow_query_seconds must be >= 0")
        self.tracer = Tracer(trace_sample_rate)
        self.recorder = FlightRecorder()
        self.slow_query_seconds = slow_query_seconds
        self.registry = MetricsRegistry()
        reg = self.registry
        self._queries = reg.counter(
            "repro_queries_total",
            "Completed queries by serving outcome.",
            labelnames=("outcome",),
        )
        self._errors = reg.counter(
            "repro_errors_total",
            "Failed queries by error type.",
            labelnames=("type",),
        )
        self._latency = reg.histogram(
            "repro_query_latency_seconds",
            "End-to-end request latency by serving outcome.",
            buckets=_LATENCY_BUCKETS,
            labelnames=("outcome",),
        )
        self._candidates = reg.histogram(
            "repro_query_candidates",
            "Candidates verified per engine-computed query.",
            buckets=_CANDIDATE_BUCKETS,
        )
        self._dp_columns = reg.histogram(
            "repro_query_dp_columns",
            "DP columns computed per engine-computed query.",
            buckets=_DP_COLUMN_BUCKETS,
        )
        self._by_backend = reg.counter(
            "repro_queries_by_dp_backend_total",
            "Engine-computed queries by resolved DP backend.",
            labelnames=("dp_backend",),
        )
        self._stage_seconds = reg.counter(
            "repro_stage_seconds_total",
            "Engine time by stage (MinCand / lookup / verification).",
            labelnames=("stage",),
        )
        self._dp_rounds = reg.counter(
            "repro_dp_rounds_total",
            "Verification DP kernel launches (one per batched resolve round).",
        )
        self._sampled = reg.counter(
            "repro_traces_sampled_total", "Requests that recorded a trace."
        )
        self._slow = reg.counter(
            "repro_slow_queries_total",
            "Queries over the slow-query threshold.",
        )
        self._degraded = reg.counter(
            "repro_degraded_queries_total",
            "Queries answered partially (allow_partial with shards down).",
        )
        self._matches = reg.counter(
            "repro_matches_served_total",
            "Matches returned across all answered requests (cached and "
            "coalesced answers included).",
        )
        self._candidates_served = reg.counter(
            "repro_candidates_served_total",
            "Candidates behind all answered requests (a cached or "
            "coalesced answer counts its original candidates again).",
        )
        self._topk_queries = reg.counter(
            "repro_topk_queries_total",
            "Completed top-k queries by serving outcome.",
            labelnames=("outcome",),
        )
        self._topk_reuse = reg.counter(
            "repro_topk_cache_reuse_total",
            "Top-k requests answered by truncating a cached answer "
            "computed at k' >= k.",
        )
        self._topk_rounds = reg.counter(
            "repro_topk_tau_rounds_total",
            "Threshold probe rounds run by engine-computed top-k queries.",
        )
        self._topk_sweeps = reg.counter(
            "repro_topk_exhaustion_sweeps_total",
            "Top-k queries whose threshold expansion exhausted and fell "
            "through to the Smith-Waterman sweep.",
        )
        self._topk_ties = reg.counter(
            "repro_topk_ties_at_k_total",
            "Ties cut at the k-th distance across answered top-k queries.",
        )
        self._topk_k = reg.histogram(
            "repro_topk_k",
            "Requested k per top-k query.",
            buckets=_K_BUCKETS,
        )
        reg.register_collector(self._collect_recorder)
        self._started = time.monotonic()
        self._window_lock = threading.Lock()
        self._window: deque = deque(maxlen=LATENCY_WINDOW)
        self._service = None

    # -- wiring ---------------------------------------------------------------

    def bind(self, service) -> None:
        """Register the pull collectors that read ``service`` state
        (executor depth, result cache, coalescer, engine caches)."""
        self._service = service
        self.registry.register_collector(self._collect_service)
        self.registry.register_collector(self._collect_engine)

    # -- request-path hooks ---------------------------------------------------

    def start_trace(self, **attributes: Any) -> Optional[Trace]:
        """Begin a trace for one request iff sampled."""
        trace = self.tracer.start("query", **attributes)
        if trace is not None:
            self._sampled.inc()
        return trace

    def observe(
        self,
        kind: str,
        seconds: float,
        *,
        result=None,
        cached: bool = False,
        coalesced: bool = False,
        error: Optional[BaseException] = None,
    ) -> None:
        """Record one finished request — the only place the request path
        touches the instruments.

        ``kind`` is ``"range"`` (``result`` a
        :class:`~repro.core.engine.QueryResult`) or ``"topk"`` (a
        :class:`~repro.core.topk.TopKResult`); a failed request carries
        ``error`` instead and counts once, by exception type.  Top-k has
        its own query counter but shares the latency histogram with range
        — one latency SLO covers both.  Stage clocks and per-query
        histograms move only for engine-computed answers: a cached or
        coalesced response did no engine work of its own."""
        if error is not None:
            self._errors.inc(type=type(error).__name__)
            return
        topk = kind == "topk"
        outcome = "cached" if cached else ("coalesced" if coalesced else "computed")
        (self._topk_queries if topk else self._queries).inc(outcome=outcome)
        self._latency.observe(seconds, outcome=outcome)
        with self._window_lock:
            self._window.append(seconds)
        self._matches.inc(len(result.matches))
        self._candidates_served.inc(result.num_candidates)
        if not result.complete:
            self._degraded.inc()
        if topk:
            self._topk_k.observe(result.k)
            self._topk_ties.inc(result.ties_at_k)
            if cached:
                self._topk_reuse.inc()
        if cached or coalesced:
            return
        self._candidates.observe(result.num_candidates)
        self._stage_seconds.inc(result.mincand_seconds, stage="mincand")
        self._stage_seconds.inc(result.lookup_seconds, stage="lookup")
        self._stage_seconds.inc(result.verify_seconds, stage="verify")
        if topk:
            self._topk_rounds.inc(result.tau_rounds)
            if result.swept:
                self._topk_sweeps.inc()
        else:
            self._dp_columns.observe(result.verification.computed_columns)
            self._by_backend.inc(dp_backend=result.dp_backend_used or "unknown")
            self._dp_rounds.inc(result.dp_rounds)

    def finish_trace(
        self,
        trace: Optional[Trace],
        kind: str,
        *,
        seconds: float,
        result=None,
        cached: bool = False,
        coalesced: bool = False,
        error: Optional[BaseException] = None,
    ) -> None:
        """Close out one request's trace and apply slow-query handling.

        Sampled traces are finished and filed in the flight recorder
        (errors annotated, never dropped).  Queries over the slow
        threshold additionally log a one-line JSON record; when unsampled
        they get a synthesized stage-breakdown trace, so the recorder's
        ``slowest`` view never misses one merely because sampling skipped
        it.  ``kind`` only picks which result fields are reported: a range
        result's DP provenance, or a top-k result's tau rounds, ties and
        sweep size.
        """
        slow = (
            self.slow_query_seconds is not None
            and seconds >= self.slow_query_seconds
        )
        if trace is None and not slow:
            return
        topk = kind == "topk"
        attrs: Dict[str, Any] = {}
        if cached:
            attrs["outcome"] = "cached"
        elif coalesced:
            attrs["outcome"] = "coalesced"
        if error is not None:
            attrs["error"] = type(error).__name__
        if trace is not None:
            root = trace.root
            root.set("seconds", round(seconds, 6))
            if topk and result is not None:
                attrs.update(
                    tau_rounds=result.tau_rounds, ties_at_k=result.ties_at_k
                )
            for name, value in attrs.items():
                root.set(name, value)
            trace.finish()
            record = trace.to_dict()
        else:
            stages: List[Tuple[str, float, Dict[str, Any]]] = []
            if topk:
                attrs = {"mode": "topk", **attrs}
            if result is not None and not (cached or coalesced):
                if topk:
                    attrs["k"] = result.k
                    verify = {"tau_rounds": result.tau_rounds, "swept": result.swept}
                else:
                    verify = {
                        "dp_backend": result.dp_backend_used,
                        "dp_rounds": result.dp_rounds,
                        "trie_cache": result.trie_cache_status or "n/a",
                        "computed_columns": result.verification.computed_columns,
                        "bound_pruned": result.verification.bound_pruned,
                    }
                stages = [
                    ("mincand", result.mincand_seconds, {}),
                    ("lookup", result.lookup_seconds,
                     {"candidates": result.num_candidates}),
                    ("verify", result.verify_seconds, verify),
                ]
                attrs["matches"] = len(result.matches)
            record = synthesize_trace(
                "topk" if topk else "query",
                seconds=seconds, stages=stages, **attrs,
            )
        if slow:
            record["slow"] = True
            self._slow.inc()
            payload = slow_query_record(
                record,
                seconds=seconds,
                threshold=self.slow_query_seconds,
                cached=cached,
                coalesced=coalesced,
                error="" if error is None else type(error).__name__,
                matches=0 if result is None else len(result.matches),
                candidates=0 if result is None else result.num_candidates,
                dp_backend="topk" if topk else getattr(result, "dp_backend_used", ""),
            )
            slow_query_logger.warning(json.dumps(payload, sort_keys=True))
        self.recorder.record(record)

    # -- the /stats view ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The serving half of ``GET /stats`` (the bound service adds
        engine facts): a JSON view over the instruments ``GET /metrics``
        renders, so every count equals the corresponding ``repro_*``
        sample.  Counters are exact over the service lifetime, latency
        percentiles over the last :data:`LATENCY_WINDOW` answers."""
        elapsed = time.monotonic() - self._started
        with self._window_lock:
            window = list(self._window)
        by_outcome = {"computed": 0, "cached": 0, "coalesced": 0}
        for counter in (self._queries, self._topk_queries):
            for labels, value in counter.samples():
                by_outcome[labels["outcome"]] += int(value)
        queries = sum(by_outcome.values())
        errors = {
            labels["type"]: int(value) for labels, value in self._errors.samples()
        }
        return {
            "uptime_seconds": elapsed,
            "queries": queries,
            "errors": sum(errors.values()),
            "errors_by_type": errors,
            "rejected": errors.get("AdmissionError", 0),
            "deadline_exceeded": errors.get("DeadlineExceededError", 0),
            "qps": queries / elapsed if elapsed > 0 else 0.0,
            "latency_p50": percentile(window, 0.50),
            "latency_p95": percentile(window, 0.95),
            "latency_p99": percentile(window, 0.99),
            "latency_mean": sum(window) / len(window) if window else 0.0,
            "cache_hits": by_outcome["cached"],
            "cache_hit_rate": by_outcome["cached"] / queries if queries else 0.0,
            "coalesced": by_outcome["coalesced"],
            "coalesce_rate": by_outcome["coalesced"] / queries if queries else 0.0,
            "matches": int(self._matches.value()),
            "candidates": int(self._candidates_served.value()),
            "stage_seconds": {
                stage: self._stage_seconds.value(stage=stage)
                for stage in ("mincand", "lookup", "verify")
            },
            "computed_queries": by_outcome["computed"],
            **{key: value for key, _, _, _, value in self._service_gauges()},
        }

    # -- pull collectors ------------------------------------------------------

    def _collect_recorder(self):
        stats = self.recorder.stats()
        return [
            (
                "repro_traces_recorded_total",
                "counter",
                "Traces filed in the flight recorder.",
                [({}, stats["recorded"])],
            ),
            (
                "repro_flight_recorder_traces",
                "gauge",
                "Traces currently held, by buffer.",
                [
                    ({"buffer": "recent"}, stats["recent"]),
                    ({"buffer": "slowest"}, stats["slowest"]),
                ],
            ),
        ]

    def _service_gauges(self):
        """Serving state read in place at scrape time, as ``(/stats key,
        family, type, help, value)`` — both renderings come from here."""
        service = self._service
        return (
            ("pending", "repro_inflight_queries", "gauge",
             "Queries admitted and not yet finished.", service.executor.pending),
            ("cache_size", "repro_result_cache_entries", "gauge",
             "Cached query results.", len(service.cache)),
            ("cache_capacity", "repro_result_cache_capacity", "gauge",
             "Result cache capacity.", service.cache.capacity),
            ("invalidations", "repro_result_cache_invalidations_total", "counter",
             "Cached results dropped by online updates.",
             service.cache.invalidations),
        )

    def _collect_service(self):
        batcher = self._service.batcher
        gauges = [
            (family, kind, help_text, [({}, value)])
            for _, family, kind, help_text, value in self._service_gauges()
        ]
        return gauges + [
            ("repro_coalesce_flights", "gauge",
             "Distinct computations currently in flight.", [({}, batcher.in_flight())]),
            ("repro_coalesce_flights_led_total", "counter",
             "Flights led (one engine pass each).", [({}, batcher.flights)]),
        ]

    def _collect_engine(self):
        """Every engine-derived family from ONE ``status()`` snapshot (one
        non-blocking poll of the worker links per scrape): per-shard
        cache and index counters and per-shard supervision state
        (in-process shards report always-up states, so dashboards keep one
        shape on every deployment).  A failing snapshot yields no samples
        rather than failing the scrape; /healthz reports the failure."""
        from repro.core.supervision import BREAKER_STATES

        try:
            status = self._service.engine.status()
        except Exception:  # noqa: BLE001 - scrape must survive a closing engine
            return []
        # One (labels, counters) pair per reporting instance: the single
        # shared in-process cache or one cache per shard, one index per
        # shard, one supervision state per shard.
        by_shard = [({"shard": str(i)}, s) for i, s in enumerate(status.shards)]
        tries = [(labels, s.trie) for labels, s in by_shard if s.trie is not None]
        if status.shared_trie is not None:
            tries = [({"shard": "shared"}, status.shared_trie)]
        indexes = [(labels, s.index) for labels, s in by_shard if s.index is not None]
        gauge = {state: i for i, state in enumerate(BREAKER_STATES)}
        workers = [
            (labels, {**vars(s.worker), "breaker": gauge.get(s.worker.breaker, len(gauge))})
            for labels, s in by_shard
        ]
        # Remote backend: node-addressed views of the same state, so
        # dashboards can join on the shard-map address (a "reconnect" is
        # the remote spelling of a respawn).
        nodes = [
            ({**labels, "node": state["node"]}, state)
            for labels, state in workers
            if state["node"] is not None
        ]
        families = [
            (
                "repro_cache_shards_reporting",
                "gauge",
                "Shards that answered the cache poll (busy workers on "
                "the processes backend are skipped).",
                [({}, len(indexes))],
            )
        ]
        trie_fields = (
            ("repro_trie_cache_entries", "size", "gauge",
             "Cached queries (substitution rows + verification tries)."),
            ("repro_trie_cache_bytes", "bytes", "gauge",
             "Bytes held by cached entries (substitution rows, row "
             "tables, trie arrays + edge maps)."),
            ("repro_trie_cache_hits_total", "hits", "counter", "Trie cache hits."),
            ("repro_trie_cache_misses_total", "misses", "counter",
             "Trie cache misses."),
            ("repro_trie_cache_evictions_total", "evictions", "counter",
             "Trie cache evictions."),
        )
        index_fields = (
            ("repro_index_bytes", "bytes", "gauge",
             "Bytes held by the inverted index postings (packed arrays "
             "for the frozen backend, getsizeof estimate for dict)."),
            ("repro_index_file_bytes", "file_bytes", "gauge",
             "On-disk bytes of the frozen index file (0 for in-memory "
             "backends)."),
            ("repro_index_resident_bytes", "resident_bytes", "gauge",
             "Page-cache-resident bytes of the frozen index mapping via "
             "mincore (0 when unavailable)."),
            ("repro_index_postings", "num_postings", "gauge",
             "Total postings indexed."),
            ("repro_index_delta_postings", "delta_postings", "gauge",
             "Postings added by online inserts since the freeze."),
            ("repro_index_mmap", "mmap", "gauge",
             "Whether the shard serves its index from a shared file "
             "mapping (1) or private process memory (0)."),
        )
        worker_fields = (
            ("repro_worker_up", "alive", "gauge",
             "Shard worker process liveness (1 = alive)."),
            ("repro_worker_restarts_total", "restarts", "counter",
             "Completed shard-worker respawns."),
            ("repro_shard_breaker_state", "breaker", "gauge",
             "Circuit breaker state per shard "
             "(0 = closed, 1 = half_open, 2 = open)."),
            ("repro_shard_consecutive_failures", "consecutive_failures", "gauge",
             "Consecutive shard failures counted by the breaker."),
        )
        node_fields = (
            ("repro_node_up", "alive", "gauge",
             "Remote worker-node connectivity (1 = connected)."),
            ("repro_node_reconnects_total", "restarts", "counter",
             "Completed reconnects to remote worker nodes."),
        )
        for parts, fields in (
            (tries, trie_fields),
            (indexes, index_fields),
            (workers, worker_fields),
            (nodes, node_fields),
        ):
            for family, key, kind, help_text in fields:
                samples = [
                    (labels, float(part.get(key, 0))) for labels, part in parts
                ]
                if samples:
                    families.append((family, kind, help_text, samples))
        return families
