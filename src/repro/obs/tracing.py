"""Monotonic-clock trace spans with cross-process propagation.

A *trace* is the tree of timed spans one request produced: a root span
for the request, children for the serving stages (admission, cache
lookup, coalescing, shard fan-out) and grandchildren for the engine
stages the paper's evaluation is structured around (MinCand / lookup /
verification — Table 4).  The design goals, in order:

1. **Near-zero cost when off.**  Sampling is decided once per request in
   :meth:`Tracer.start`, which returns ``None`` for unsampled requests;
   every instrumentation site guards on ``span is not None`` and does no
   other work.  The overhead budget is CI-gated by
   ``benchmarks/bench_observability_overhead.py``.
2. **Spans survive the pickle boundary.**  Shard worker processes cannot
   share the parent's clock, so a worker exports its spans with starts
   *relative to its own root* (:meth:`Trace.export`), and the parent
   grafts them under the per-shard RPC span (:meth:`Span.graft`),
   re-anchoring them at the moment the RPC began.  The propagated
   context is just ``(trace_id, parent_span_id)`` — two strings, cheap
   to pickle into the worker query descriptor.
3. **Spans are flat records, not a linked tree.**  Each span knows its
   ``parent_id``; renderers build the tree at display time.  That keeps
   recording O(1) per span with no back-references to keep alive.

Timestamps come from :func:`time.perf_counter` — the same clock the
engine's stage timings already use, so engine-reported ``t0..t3``
boundaries can be replayed as spans (:meth:`Span.add`) without a second
timing call on the hot path.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Span", "SpanContext", "Trace", "Tracer", "synthesize_trace"]

#: the propagated context: ``(trace_id, parent_span_id)``.
SpanContext = Tuple[str, str]


def _new_id() -> str:
    """A 64-bit random hex id (trace and span ids)."""
    return os.urandom(8).hex()


class Span:
    """One timed operation inside a trace.

    Spans are created through :meth:`Trace.root <Tracer.start>` /
    :meth:`Span.child` and closed with :meth:`finish`; attributes are
    free-form scalars (counters, statuses, backend names).  A span whose
    ``end`` is still ``None`` at export time is reported with zero
    duration — a crash between start and finish must not lose the trace.
    """

    __slots__ = (
        "trace",
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
    )

    def __init__(
        self,
        trace: "Trace",
        name: str,
        parent_id: str,
        start: Optional[float] = None,
        **attributes: Any,
    ) -> None:
        self.trace = trace
        self.name = name
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.start = time.perf_counter() if start is None else start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = attributes

    @property
    def trace_id(self) -> str:
        return self.trace.trace_id

    def child(self, name: str, **attributes: Any) -> "Span":
        """Open a child span starting now."""
        span = Span(self.trace, name, self.span_id, **attributes)
        self.trace._spans.append(span)
        return span

    def add(self, name: str, start: float, end: float, **attributes: Any) -> "Span":
        """Record an already-timed child span from existing
        ``perf_counter`` boundaries (the engine's t0..t3 stage clocks) —
        no extra timing call on the hot path."""
        span = Span(self.trace, name, self.span_id, start=start, **attributes)
        span.end = end
        self.trace._spans.append(span)
        return span

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute."""
        self.attributes[key] = value

    def finish(self) -> None:
        """Close the span (idempotent: the first finish wins)."""
        if self.end is None:
            self.end = time.perf_counter()

    def context(self) -> SpanContext:
        """The ``(trace_id, span_id)`` pair to propagate to a child
        process, making remote spans children of this one."""
        return (self.trace.trace_id, self.span_id)

    def graft(self, spans: Sequence[Dict[str, Any]]) -> None:
        """Adopt remotely exported spans (see :meth:`Trace.export`) as
        descendants of this span.

        Remote starts are relative to the remote root (which carries
        this span's id as its parent); re-anchoring them at this span's
        start places them on the local clock.  Clock skew note: the
        remote work really began one link hop after ``self.start``, so
        grafted spans can lead their parent by that hop — good enough
        for operator forensics, and the only honest option without a
        shared clock."""
        self.trace.adopt(spans, offset=self.start)

    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start


class Trace:
    """All spans of one request, rooted at :attr:`root`."""

    __slots__ = ("trace_id", "root", "_spans", "_foreign")

    def __init__(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: str = "",
        **attributes: Any,
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else _new_id()
        self._spans: List[Span] = []
        #: spans adopted from worker processes — already-exported dicts
        #: whose starts have been re-anchored onto this trace's clock.
        self._foreign: List[Dict[str, Any]] = []
        self.root = Span(self, name, parent_id, **attributes)
        self._spans.append(self.root)

    def finish(self) -> None:
        """Close the root span (children left open export zero-length)."""
        self.root.finish()

    def adopt(self, spans: Sequence[Dict[str, Any]], *, offset: float) -> None:
        """Attach exported span dicts, shifting their (relative) starts
        by ``offset`` onto this trace's clock."""
        for span in spans:
            shifted = dict(span)
            shifted["start"] = float(span.get("start", 0.0)) + offset
            self._foreign.append(shifted)

    def export(self) -> List[Dict[str, Any]]:
        """Spans as plain dicts with starts relative to the root span —
        the wire format a worker ships back for :meth:`Span.graft`."""
        base = self.root.start
        out = [
            {
                "name": s.name,
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "start": s.start - base,
                "duration": s.duration(),
                "attributes": dict(s.attributes),
            }
            for s in self._spans
        ]
        for foreign in self._foreign:
            shifted = dict(foreign)
            shifted["start"] = float(foreign.get("start", 0.0)) - base
            out.append(shifted)
        return out

    def to_dict(self) -> Dict[str, Any]:
        """The completed trace as one JSON-ready record (root-relative
        span starts, wall-clock completion stamp for the recorder)."""
        return {
            "trace_id": self.trace_id,
            "root": self.root.name,
            "duration": self.root.duration(),
            "completed_unix": time.time(),
            "spans": self.export(),
        }


class Tracer:
    """Decides, per request, whether to record a trace.

    ``sample_rate`` in ``[0, 1]``: 0 never samples (the default — the
    tracing-off hot path), 1 samples everything.  The decision uses a
    cheap multiplicative-congruential counter rather than ``random`` so
    the unsampled path is one multiply and one compare; sampling is
    deterministic for a given request ordinal, which also makes tests
    reproducible.
    """

    __slots__ = ("sample_rate", "_state")

    def __init__(self, sample_rate: float = 0.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must lie in [0, 1]")
        self.sample_rate = sample_rate
        self._state = 0x9E3779B97F4A7C15

    def start(self, name: str, **attributes: Any) -> Optional[Trace]:
        """A new :class:`Trace` for a sampled request, else ``None``."""
        rate = self.sample_rate
        if rate <= 0.0:
            return None
        if rate < 1.0:
            # Weyl-sequence stream: equidistributed in [0, 2^64).
            self._state = (self._state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            if self._state >= rate * 2**64:
                return None
        return Trace(name, **attributes)


def synthesize_trace(
    name: str,
    *,
    seconds: float,
    stages: Sequence[Tuple[str, float, Dict[str, Any]]],
    **attributes: Any,
) -> Dict[str, Any]:
    """A trace record rebuilt from stage timings after the fact.

    Slow queries must be visible even when unsampled, but by the time a
    query is known slow its spans were never recorded.  The engine's
    per-stage timings in :class:`~repro.core.engine.QueryResult` are
    enough to reconstruct the stage breakdown: ``stages`` is a list of
    ``(name, duration_seconds, attributes)`` laid out back to back under
    a synthetic root.  The record is shaped exactly like
    :meth:`Trace.to_dict` (plus ``"synthesized": True``) so the flight
    recorder and renderers treat both kinds uniformly.
    """
    trace_id = _new_id()
    root_id = _new_id()
    spans: List[Dict[str, Any]] = [
        {
            "name": name,
            "span_id": root_id,
            "parent_id": "",
            "start": 0.0,
            "duration": seconds,
            "attributes": dict(attributes),
        }
    ]
    cursor = 0.0
    for stage_name, duration, attrs in stages:
        spans.append(
            {
                "name": stage_name,
                "span_id": _new_id(),
                "parent_id": root_id,
                "start": cursor,
                "duration": duration,
                "attributes": dict(attrs),
            }
        )
        cursor += duration
    return {
        "trace_id": trace_id,
        "root": name,
        "duration": seconds,
        "completed_unix": time.time(),
        "synthesized": True,
        "spans": spans,
    }
