"""Concurrent query serving over the exact search core.

The first subsystem *above* the engine: where the core answers one query
at a time in-process, :mod:`repro.service` turns it into a multi-client
service —

- :class:`Executor` — thread-pool execution (one deadline-bound pool
  task per query; shard fan-out is the engine's own), per-query
  deadlines, and admission control;
- :class:`ResultCache` — LRU over normalized query signatures, with
  invalidation hooks wired to the online-update path;
- :class:`Batcher` — single-flight coalescing of concurrent duplicate
  requests;
- :class:`ServiceObservability` — the service's one set of instruments
  (query/error counters, latency and per-stage rollups, rendered as
  Prometheus text by ``/metrics`` and as JSON by ``/stats``), request
  tracing, and the slow-query flight recorder (built on
  :mod:`repro.obs`);
- :class:`QueryService` — the facade composing the above: one request
  path that range and top-k requests both enter;
- :class:`ServiceServer` — a stdlib JSON-over-HTTP frontend
  (``python -m repro serve``).

Every layer preserves exactness: cached, coalesced, and fanned-out
answers are element-for-element identical to a direct
:meth:`~repro.core.engine.SubtrajectorySearch.query` call.
"""

from repro.service.batching import Batcher
from repro.service.cache import ResultCache
from repro.service.executor import Executor
from repro.service.http import ServiceServer, response_payload, topk_payload
from repro.service.metrics import percentile
from repro.service.observability import ServiceObservability
from repro.service.service import QueryService, ServiceResponse

__all__ = [
    "Batcher",
    "Executor",
    "QueryService",
    "ResultCache",
    "ServiceObservability",
    "ServiceResponse",
    "ServiceServer",
    "percentile",
    "response_payload",
    "topk_payload",
]
