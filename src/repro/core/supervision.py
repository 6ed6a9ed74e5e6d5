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
- :class:`EngineStatus` — what every engine's ``status()`` returns: its
  facts plus one :class:`ShardStatus` per shard (:class:`WorkerState` +
  cache / index counters), and the cross-shard projections ``/healthz``,
  ``/stats``, ``/metrics`` and the 503 body read, written once.

The fault policy is four constants, not options: every shard is built
with them (read at construction, so a test may patch them here).

All methods are thread-safe where it matters: breakers are consulted on
the query path while the supervisor thread records respawn outcomes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random
from time import monotonic
from typing import Any, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "BREAKER_COOLDOWN",
    "BREAKER_FAILURES",
    "BREAKER_STATES",
    "CircuitBreaker",
    "EngineStatus",
    "RESPAWN_BACKOFF",
    "RESPAWN_BACKOFF_CAP",
    "RespawnBackoff",
    "ShardStatus",
    "WorkerState",
]

#: breaker states in metric-gauge order: the exported
#: ``repro_shard_breaker_state`` value is the index into this tuple.
BREAKER_STATES = ("closed", "half_open", "open")

#: consecutive shard failures that open a shard's breaker.
BREAKER_FAILURES = 3
#: seconds an open breaker waits before admitting its half-open probe.
BREAKER_COOLDOWN = 1.0
#: base and cap (seconds) of the jittered exponential respawn backoff.
RESPAWN_BACKOFF = 0.05
RESPAWN_BACKOFF_CAP = 2.0


class CircuitBreaker:
    """Closed → open after N consecutive failures → half-open probe.

    The breaker counts *shard-level* outcomes (a request that collected
    its reply vs. a worker that died / stayed unreachable), not
    client-level ones — a deadline miss or a refused threshold is the
    client's business, not the shard's health: the shard answered.
    Unset arguments take the module's fault policy.
    """

    def __init__(
        self,
        *,
        failure_threshold: Optional[int] = None,
        cooldown: Optional[float] = None,
        clock=monotonic,
    ) -> None:
        failure_threshold = BREAKER_FAILURES if failure_threshold is None else failure_threshold
        cooldown = BREAKER_COOLDOWN if cooldown is None else cooldown
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
    per-shard seeds.  Unset bounds take the module's fault policy.
    """

    def __init__(
        self, *, base: Optional[float] = None, cap: Optional[float] = None, seed: int = 0
    ) -> None:
        base = RESPAWN_BACKOFF if base is None else base
        cap = RESPAWN_BACKOFF_CAP if cap is None else cap
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
    # The defaults are a shard that shares its engine's process (and so
    # its fate): always alive, never restarted — the endpoint shape is
    # the same on every deployment.
    alive: bool = True
    pid: Optional[int] = None
    restarts: int = 0
    breaker: str = "closed"
    consecutive_failures: int = 0
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


@dataclass
class ShardStatus:
    """One shard's facts as they enter the coordinator: its supervision
    state and its counters exactly as ``TrieCache.stats()`` /
    ``index.stats()`` report them.  A counter dict is ``None`` when the
    shard did not answer the non-blocking poll (busy or dead worker);
    ``trie`` is also ``None`` on a shard that feeds the engine-wide cache
    (:attr:`EngineStatus.shared_trie`)."""

    worker: WorkerState
    trie: Optional[Dict[str, Any]] = None
    index: Optional[Dict[str, Any]] = None


def _totals(parts: Sequence[Optional[Dict[str, Any]]]) -> Dict[str, Any]:
    """Cross-shard totals of per-shard counter dicts, by value type:
    numbers are summed (a negative one is the "unbounded" marker and
    stays ``-1``), flags hold when they hold on every reporting shard,
    anything else is carried when every reporting shard agrees on it.
    ``None`` parts are skipped; ``shards_reporting`` counts the rest."""
    reporting = [part for part in parts if part is not None]
    out: Dict[str, Any] = {}
    for key in dict.fromkeys(key for part in reporting for key in part):
        values = [part[key] for part in reporting if key in part]
        if isinstance(values[0], bool):
            out[key] = len(values) == len(reporting) and all(values)
        elif isinstance(values[0], (int, float)):
            out[key] = -1 if min(values) < 0 else sum(values)
        elif values.count(values[0]) == len(reporting):
            out[key] = values[0]
    out["shards"] = len(parts)
    out["shards_reporting"] = len(reporting)
    return out


@dataclass
class EngineStatus:
    """One snapshot of an engine, from one poll of its shards."""

    #: ``"single"`` for a bare engine, else the fan-out backend.
    backend: str
    trajectories: int
    shards: List[ShardStatus]
    #: counters of the one cache all in-process shards share (``None``
    #: when each shard reports its own).
    shared_trie: Optional[Dict[str, Any]] = None

    @property
    def workers(self) -> List[WorkerState]:
        """Per-shard supervision states, in shard order."""
        return [shard.worker for shard in self.shards]

    @property
    def nodes(self) -> List[Optional[str]]:
        """Per-shard worker-node addresses (``None`` off the remote
        backend)."""
        return [shard.worker.node for shard in self.shards]

    @property
    def degraded_shards(self) -> List[int]:
        """Shards currently down or breaker-gated."""
        return [w.shard for w in self.workers if not w.alive or w.breaker != "closed"]

    @property
    def restarts_total(self) -> int:
        """Completed shard-worker respawns — reconnects on the remote
        backend."""
        return sum(w.restarts for w in self.workers)

    @property
    def retry_after(self) -> float:
        """Seconds until the soonest open breaker admits a probe (0 when
        every shard is serving) — the HTTP 503 ``Retry-After`` basis."""
        waits = [w.retry_after for w in self.workers if w.breaker == "open"]
        return min(waits, default=0.0)

    @property
    def trie(self) -> Dict[str, Any]:
        """Warm-query cache counters across shards.  The shared cache is
        reported as it is (every shard feeds it, so every shard
        reports)."""
        if self.shared_trie is None:
            return _totals([shard.trie for shard in self.shards])
        n = len(self.shards)
        return {**self.shared_trie, "shards": n, "shards_reporting": n}

    @property
    def index(self) -> Dict[str, Any]:
        """Inverted-index counters across shards."""
        return _totals([shard.index for shard in self.shards])
