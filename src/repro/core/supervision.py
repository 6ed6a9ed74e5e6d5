"""Supervision primitives for the shard-worker tier: breaker + backoff.

:mod:`repro.core.workers` keeps each shard's engine in a child process;
this module holds the policy objects each supervised shard
(``workers._ShardWorker``) owns one of.  They are deliberately
transport-agnostic — the socket-backed multi-node tier
(``backend="remote"``; ROADMAP §1) supervises remote shard nodes with
exactly the same state machines, where a "respawn" is a reconnect:

- :class:`CircuitBreaker` — the classic three-state breaker, per shard.
  *Closed* passes queries through; ``failure_threshold`` consecutive
  shard failures *open* it (queries fail fast / degrade instead of each
  eating a worker round-trip + respawn against a flapping shard); after
  ``cooldown`` seconds one *half-open* probe query is let through — its
  outcome closes or re-opens the breaker.  A *probe* is an ordinary
  query that won the single half-open slot; the slot is scoped to that
  request (:meth:`CircuitBreaker.admission`), so a probe that ends
  without a verdict hands it back instead of gating the shard forever.
- :class:`RespawnBackoff` — bounded exponential backoff with seeded
  jitter between respawn attempts, so a worker that dies at birth (bad
  node, poisoned shard file) cannot hot-loop fork+engine-build, and a
  thundering herd of shards never respawns in lockstep.
- :class:`WorkerState` — one shard's supervision snapshot, the unit
  ``/healthz`` and the ``repro_worker_*`` / ``repro_shard_breaker_state``
  metric families report.

All methods are thread-safe where it matters: breakers are consulted on
the query path while the supervisor thread records respawn outcomes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random
from time import monotonic
from typing import Dict, Iterator, List, Optional

__all__ = ["BREAKER_STATES", "CircuitBreaker", "RespawnBackoff", "WorkerState"]

#: breaker states in metric-gauge order: the exported
#: ``repro_shard_breaker_state`` value is the index into this tuple.
BREAKER_STATES = ("closed", "half_open", "open")


class CircuitBreaker:
    """Closed → open after N consecutive failures → half-open probe.

    The breaker counts *shard-level* outcomes (a request that collected
    its reply vs. a worker that died / stayed unreachable), not
    client-level ones — a deadline miss or a refused threshold is the
    client's business, not the shard's health: the shard answered.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown: float = 1.0,
        clock=monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def _effective_state(self) -> str:
        # Time-based open → half-open transition, evaluated lazily so the
        # breaker needs no timer thread.
        if self._state == "open" and (
            self._clock() - self._opened_at >= self.cooldown
        ):
            self._state = "half_open"
            self._probe_in_flight = False
        return self._state

    def _admit(self) -> Optional[bool]:
        """None = refused; else whether the probe slot was taken."""
        with self._lock:
            state = self._effective_state()
            if state == "closed":
                return False
            if state == "open" or self._probe_in_flight:
                return None
            self._probe_in_flight = True
            return True

    def allow(self) -> bool:
        """Whether a query may be sent to the shard right now.

        In half-open state exactly one caller wins the probe slot; the
        rest are rejected until the probe's outcome is recorded (or, under
        :meth:`admission`, its request ends)."""
        return self._admit() is not None

    @contextmanager
    def admission(self) -> Iterator[bool]:
        """Scope one request: yields whether it may be sent (as
        :meth:`allow`), and hands a probe slot taken here back on exit
        however the request ended — no path can leak it."""
        probe = self._admit()
        try:
            yield probe is not None
        finally:
            if probe:
                with self._lock:
                    self._probe_in_flight = False

    def cooldown_remaining(self) -> float:
        """Seconds until an open breaker will admit its half-open probe
        (0 when closed, half-open, or already due) — the figure a client
        can use as ``Retry-After``."""
        with self._lock:
            if self._effective_state() != "open":
                return 0.0
            return max(0.0, self.cooldown - (self._clock() - self._opened_at))

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            state = self._effective_state()
            if state == "half_open" or (
                state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self._probe_in_flight = False


class RespawnBackoff:
    """Bounded exponential backoff with deterministic jitter.

    ``delay(attempt)`` for attempt k (0-based) is
    ``min(cap, base * 2**k) * u`` with ``u`` drawn uniformly from
    ``[0.5, 1.5)`` by a :class:`random.Random` seeded at construction —
    reproducible for the chaos suite, desynchronized across shards via
    per-shard seeds.
    """

    def __init__(self, *, base: float = 0.05, cap: float = 2.0, seed: int = 0) -> None:
        if base < 0 or cap < base:
            raise ValueError("need 0 <= base <= cap")
        self.base = base
        self.cap = cap
        self._rng = Random(seed)

    def delay(self, attempt: int) -> float:
        raw = min(self.cap, self.base * (2 ** max(0, attempt)))
        return raw * (0.5 + self._rng.random())


@dataclass
class WorkerState:
    """One shard's supervision snapshot (the ``/healthz`` unit)."""

    shard: int
    alive: bool
    pid: Optional[int]
    restarts: int
    breaker: str
    consecutive_failures: int
    #: seconds until the supervisor may try the next respawn (0 when the
    #: worker is alive or a respawn is due now).
    respawn_wait: float = 0.0
    last_error: str = ""
    #: events the supervisor recorded for this shard (bounded).
    events: List[str] = field(default_factory=list)
    #: remote node address ("host:port") when the shard is served over a
    #: socket; None for in-process and child-process shards.
    node: Optional[str] = None
    #: seconds until this shard's open breaker admits a probe (0 when it
    #: is serving) — the basis of the HTTP 503 ``Retry-After`` header.
    retry_after: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "shard": self.shard,
            "alive": self.alive,
            "pid": self.pid,
            "restarts": self.restarts,
            "breaker": self.breaker,
            "consecutive_failures": self.consecutive_failures,
            "respawn_wait": round(self.respawn_wait, 3),
            "last_error": self.last_error,
        }
        if self.node is not None:
            payload["node"] = self.node
        if self.retry_after > 0:
            payload["retry_after"] = round(self.retry_after, 3)
        return payload
