"""Out-of-process shard workers: CPU-bound verification past the GIL.

The ``threads`` backend of :class:`~repro.core.partitioned.
PartitionedSubtrajectorySearch` parallelizes I/O-ish work but not the
Smith–Waterman-style verification that dominates query cost (§6) — pure-
Python DP holds the GIL, so N shard threads share one core.  This module
moves each shard's engine behind a **framed link**
(:class:`~repro.core.transport.FramedSocket`) and keeps exactly one
parent-side handle (:class:`_ShardWorker`) and one worker-side serve path
(:func:`serve_link`) for every way a link can be obtained:

- ``backend="processes"``: the parent hands one end of a
  :func:`socket.socketpair` to a child process (:func:`_open_process`).
  Dataset, cost model and engine options travel as ``Process`` arguments,
  so ``fork`` inherits the shard without a pickle;
- ``backend="remote"`` (``shard_map=``): the parent connects to a
  standalone ``repro worker --listen`` node (:mod:`repro.core.remote`)
  and ships the same arguments in a ``hello`` frame (:func:`_open_node`).

How the connection is obtained is the *only* per-backend code.  Either
way the worker builds its :class:`~repro.core.engine.SubtrajectorySearch`
locally (index construction and index memory live only in the worker)
and answers with a req-0 readiness handshake, so every (re)opened link
is a fresh engine incarnation — a *reconnect is a respawn*.

- queries travel as small pickled descriptors; results come back as
  pickled :class:`~repro.core.engine.QueryResult` objects (the merge-
  irrelevant ``subsequence`` field is stripped to keep replies small).
  The pool has no fan-out of its own: one query is one blocking
  :meth:`ShardWorkerPool.query_shard` round trip per shard, run
  concurrently by the partitioned engine's shard threads — a thread
  holds one link's lock at a time;
- deadlines survive the link: the parent sends the *remaining* budget
  with each query and the worker rebuilds a local token from it, so
  clock skew cannot extend a deadline.  The parent bounds its own wait
  by that budget plus a grace window; a reply later than that **poisons
  the link** (a late reply would desynchronize the next request), which
  is also the only way a half-open link is ever unmasked;
- cancellation is always an out-of-band ``("cancel", req_id)`` frame: the
  worker's reader thread folds it into a watermark the engine's token
  polls between verification-loop iterations, so abandoning a query stops
  shard CPU work within one iteration — and the worker still sends its
  one reply, keeping the stream in sync;
- online inserts replicate through a **versioned** ``add`` message: the
  parent sends the shard-local id it expects the insert to receive, and
  the worker acknowledges only if its replica agrees — any divergence
  (a lost or reordered update) surfaces as :class:`~repro.exceptions.
  WorkerError` instead of silently wrong answers, which is what the
  serving layer's cache-generation guarantees rest on;
- lifecycle is leak-proof: child processes are daemonic *and* watch their
  parent (a worker whose parent was SIGKILLed exits instead of blocking
  on a socket some forked sibling still holds open), pools shut down
  idempotently (a wedged child is escalated SIGTERM → SIGKILL so it can
  never outlive ``close()``; a node is an external process and is only
  ever disconnected), and a module-level ``atexit`` hook closes every
  pool still alive at interpreter exit.

**Fault tolerance** (policy objects live in :mod:`repro.core.supervision`):

- a pool-level *supervisor thread* polls link liveness (link open ∧
  process alive, when there is one), heartbeats idle links with ``ping``
  so a silently dead peer is detected without traffic, and reopens dead
  links with bounded exponential backoff + per-shard jitter; the query
  path additionally respawns eagerly when it trips over a corpse, so
  recovery latency is bounded by one engine rebuild, not a poll tick;
- a reopened worker rebuilds its engine from the parent's shard dataset
  mirror, then the parent *replays its insert journal* — the record of
  acknowledged inserts the mirror may not hold yet — through the same
  versioned ``add`` protocol, so the replica is bit-identical to the
  lost one (the handshake reports the rebuilt engine's length; only the
  entries past it replay, and any id disagreement fails loudly);
- a per-shard :class:`~repro.core.supervision.CircuitBreaker` (closed →
  open after N consecutive shard failures → half-open probe) keeps a
  flapping shard from eating every query's deadline: with the breaker
  open, queries either fail fast (:class:`~repro.exceptions.
  ShardUnavailableError`) or — with ``allow_partial`` — degrade to the
  live shards;
- a shard whose link failed is reopened and its query retried exactly
  once, within the caller's remaining deadline budget, re-shipping the
  *updated* remaining time;
- deterministic chaos: a :class:`~repro.faultinject.FaultPlan` ships
  per-shard worker-side fault tables to the workers (kill before / after
  request K, delay or drop a reply, ignore stop), network faults into
  the handle's single send choke point (drop / hang / slow / fragment
  the link), and respawn failures into the supervisor, all keyed to
  request ordinals that survive respawns — see :mod:`repro.faultinject`.

Protocol (one request in flight per worker, enforced by a parent-side
lock; every request gets exactly one reply, keeping the stream in sync
even when the caller stops waiting):

    ("query", req_id, symbols, kwargs, remaining_seconds | None,
              trace_ctx | None)
    ("add",   req_id, expected_local_id, trajectory, validate)
    ("stats", req_id)                 -> {"substitution": ..., "trie": ...,
                                          "index": ...}
    ("ping",  req_id)                 -> {"pid": ...}   (liveness heartbeat)
    ("stop",  req_id)
    ("cancel", req_id)                (out of band: no reply)
    reply: (req_id, "ok", payload) | (req_id, "error", exception)

``trace_ctx`` is a ``(trace_id, parent_span_id)`` pair (see
:mod:`repro.obs.tracing`): when present, the worker wraps the engine
query in a local trace rooted at the shipped context and the "ok"
payload becomes ``(result, exported_spans)`` — span starts relative to
the worker root, re-anchored by the parent via ``Span.graft`` — so one
request's trace crosses the pickle boundary intact.  Untraced queries
keep the bare-``QueryResult`` payload.

The readiness handshake is the worker's first message (req 0): whether
its engine built — and, on success, the engine's dataset length (the
journal-replay watermark) and pid — so constructor errors (bad engine
options, mismatched representation) raise in the parent at pool
construction with their real cause, exactly as the in-process backends
do.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing as mp
import os
import queue
import socket
import threading
import weakref
from collections import deque
from functools import partial
from multiprocessing.connection import wait as wait_readable
from time import monotonic, sleep
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import transport
from repro.core.supervision import CircuitBreaker, RespawnBackoff, WorkerState
from repro.exceptions import ShardUnavailableError, TransportError, WorkerError

__all__ = ["ShardWorkerPool", "default_start_method", "serve_link"]

logger = logging.getLogger(__name__)

#: parent-side poll slice while waiting on a worker reply; bounds how fast
#: a tripped token turns into a cancel frame.
_POLL_SECONDS = 0.02
#: grace given to a worker to exit after a "stop" before SIGTERM (and, a
#: join later, SIGKILL).
_STOP_TIMEOUT = 5.0
#: supervisor liveness-poll period.
_SUPERVISOR_POLL = 0.1
#: how long after the shipped remaining budget expires the parent keeps
#: waiting for a reply before declaring the link dead — covers transport
#: latency plus the worker's own cancellation reply.
_DEADLINE_GRACE = 5.0
#: bound on a readiness handshake (engine build included).
_HANDSHAKE_TIMEOUT = 120.0
#: bound on liveness/stats probes when no call timeout is set.
_PROBE_TIMEOUT = 5.0
#: period of the supervisor's heartbeat (idle links get a "ping" this
#: often, so silent peer death is detected without traffic).
_HEARTBEAT_INTERVAL = 1.0


def default_start_method() -> str:
    """The multiprocessing start method used when none is requested.

    ``REPRO_MP_START`` overrides; otherwise ``fork`` where available
    (instant worker start, no re-import or re-pickle of the shard data)
    — but only while the parent is single-threaded.  Forking a threaded
    parent (e.g. rebuilding an engine while an HTTP server is live) can
    deadlock the child on locks held mid-fork by other threads, so such
    parents get ``spawn``, which always works: the worker entry point and
    every shipped object are picklable.  (Supervised *respawns* reuse the
    pool's original context: the replacement worker must build from the
    same inheritance path as the one it replaces.)
    """
    env = os.environ.get("REPRO_MP_START")
    if env:
        return env
    if "fork" in mp.get_all_start_methods() and threading.active_count() == 1:
        return "fork"
    return "spawn"


# ---------------------------------------------------------------------------
# Worker side: one serve path for every link
# ---------------------------------------------------------------------------

_EOF = object()


class _ServedLink:
    """Worker-side end of one framed link.

    A reader thread drains the socket continuously: ``("cancel",
    req_id)`` frames fold into :attr:`cancelled_through` (so a cancel
    lands while the serve loop is deep in verification), everything else
    queues for :meth:`recv`.  The watermark cancels every request id at
    or below it — one plain store (single writer: the reader thread;
    GIL-atomic reads), no locks.  A link that fails cancels everything:
    nobody is left to read the answer."""

    def __init__(self, framed: transport.FramedSocket) -> None:
        self._framed = framed
        self.cancelled_through: float = 0
        self._inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        threading.Thread(
            target=self._read_loop, name="repro-link-reader", daemon=True
        ).start()

    def _read_loop(self) -> None:
        while True:
            try:
                msg = self._framed.recv()
            except Exception:  # noqa: BLE001 — any transport failure = EOF
                self.cancelled_through = float("inf")
                self._inbox.put(_EOF)
                return
            if isinstance(msg, tuple) and msg and msg[0] == "cancel":
                self.cancelled_through = max(self.cancelled_through, int(msg[1]))
                continue
            self._inbox.put(msg)

    def recv(self) -> Any:
        msg = self._inbox.get()
        if msg is _EOF:
            raise TransportError("peer disconnected")
        return msg

    def send(self, message: Any) -> None:
        self._framed.send(message)

    def close(self) -> None:
        self._framed.close()


class _WorkerCancelToken:
    """Worker-side cancellation token for one request.

    Duck-types :class:`~repro.core.cancellation.CancelToken`: combines the
    deadline the parent shipped (as a *remaining* budget, re-anchored on
    the worker's own monotonic clock) with the link's cancel watermark.
    """

    __slots__ = ("_req_id", "_link", "_expires")

    def __init__(self, req_id: int, link: _ServedLink, remaining: Optional[float]) -> None:
        self._req_id = req_id
        self._link = link
        self._expires = None if remaining is None else monotonic() + remaining

    def cancelled(self) -> bool:
        if self._expires is not None and monotonic() >= self._expires:
            return True
        return self._link.cancelled_through >= self._req_id


def serve_link(
    framed: transport.FramedSocket, shard_index, dataset, costs, engine_kwargs,
    faults=None, request_offsets=None,
) -> None:
    """Serve one shard engine incarnation over ``framed`` until the peer
    stops it or the link ends — the single entry into the serve loop for
    child processes (:func:`_process_main`) and node connections
    (:meth:`~repro.core.remote.WorkerNodeServer._serve_connection`)
    alike."""
    link = _ServedLink(framed)
    try:
        _worker_main(
            link, shard_index, dataset, costs, engine_kwargs, faults,
            request_offsets,
        )
    finally:
        link.close()


def _process_main(sock: socket.socket, *spec) -> None:
    """Child-process entry point (top-level so ``spawn`` can pickle it).

    Under ``fork`` this child inherits the parent's end of its own
    socketpair and of every earlier shard's, so a SIGKILLed parent never
    shows up as EOF on the link.  A watchdog on the parent sentinel ends
    the worker instead (siblings exit latest-forked first, each releasing
    the descriptors that kept the next one's sentinel open); it also
    covers a worker deep in verification, which no EOF would reach."""
    parent = mp.parent_process()

    def die_with_parent() -> None:
        wait_readable([parent.sentinel])
        os._exit(0)

    threading.Thread(
        target=die_with_parent, name="repro-parent-watch", daemon=True
    ).start()
    serve_link(transport.FramedSocket(sock), *spec)


def _worker_main(
    conn: _ServedLink, shard_index, dataset, costs, engine_kwargs,
    faults=None, request_offsets=None,
) -> None:
    """The serve loop: build the shard engine, answer requests.

    Every received request is answered exactly once; failures — including
    cancellations — travel back as pickled exceptions.  ``faults`` is an
    optional :class:`~repro.faultinject.WorkerFaults` table and
    ``request_offsets`` the per-kind ordinals already consumed by this
    shard's previous incarnations (so fault rules fire once across
    respawns).
    """
    # Imported here, not at module top, so the worker builds its engine
    # against whatever is on *its* path under spawn (and to keep this
    # module importable without pulling the whole engine in first).
    from repro.core.engine import SubtrajectorySearch

    if faults is not None:
        faults.install()
    counts: Dict[str, int] = dict(request_offsets or {})

    def _guarded_send(message) -> bool:
        """Send a reply; a link torn down mid-send (peer died, or closed
        the link racing this send) must end the loop cleanly, not crash
        the worker with traceback noise."""
        try:
            conn.send(message)
            return True
        except TransportError:
            return False

    # Readiness handshake (req 0): a failed engine build must raise in the
    # parent's constructor with its real cause, not as an opaque dead
    # worker at first query.  On success the payload carries the dataset
    # length — the parent's journal-replay watermark — and the pid.
    try:
        engine = SubtrajectorySearch(dataset, costs, **engine_kwargs)
    except BaseException as exc:  # noqa: BLE001 — ship the failure to the parent
        if not _guarded_send((0, "error", exc)):
            _guarded_send(
                (0, "error", WorkerError(f"engine build failed: {exc!r}"))
            )
        return
    if not _guarded_send((0, "ok", {"len": len(dataset), "pid": os.getpid()})):
        return
    while True:
        try:
            msg = conn.recv()
        except (TransportError, KeyboardInterrupt):
            break  # peer gone (or interactive interrupt): nothing to reply to
        kind, req_id = msg[0], msg[1]
        if kind == "ping":
            # Liveness heartbeat: answered before fault accounting so a
            # probe can never consume (or trip) a request-ordinal rule.
            if not _guarded_send((req_id, "ok", {"pid": os.getpid()})):
                break
            continue
        ordinal = 0
        if faults is not None and kind in ("query", "add"):
            ordinal = counts.get(kind, 0) + 1
            counts[kind] = ordinal
            faults.before(kind, ordinal)
            if faults.drop_pipe(kind, ordinal):
                conn.close()
                os._exit(70)
        try:
            if kind == "stop":
                if faults is not None and faults.wedge_stop:
                    continue  # chaos: pretend not to hear — forces escalation
                _guarded_send((req_id, "ok", None))
                break
            if kind == "query":
                symbols, kwargs, remaining = msg[2], msg[3], msg[4]
                trace_ctx = msg[5] if len(msg) > 5 else None
                token = _WorkerCancelToken(req_id, conn, remaining)
                if trace_ctx is None:
                    result = engine.query(symbols, cancel=token, **kwargs)
                    # The merge ignores the tau-subsequence; stripping it
                    # keeps reply pickles small (neighborhoods are large).
                    result.subsequence = []
                    payload = result
                else:
                    from repro.obs.tracing import Trace

                    trace = Trace(
                        "shard_worker",
                        trace_id=trace_ctx[0],
                        parent_id=trace_ctx[1],
                        shard=shard_index,
                        pid=os.getpid(),
                    )
                    result = engine.query(
                        symbols, cancel=token, trace=trace.root, **kwargs
                    )
                    result.subsequence = []
                    trace.finish()
                    payload = (result, trace.export())
                if faults is not None:
                    faults.delay(kind, ordinal)
                if not _guarded_send((req_id, "ok", payload)):
                    break
            elif kind == "add":
                expected, trajectory, validate = msg[2], msg[3], msg[4]
                tid = engine.add_trajectory(trajectory, validate=validate)
                if tid != expected:
                    raise WorkerError(
                        f"shard {shard_index} replica diverged: insert got local "
                        f"id {tid}, parent expected {expected}"
                    )
                if faults is not None:
                    faults.delay(kind, ordinal)
                if not _guarded_send((req_id, "ok", tid)):
                    break
            elif kind == "stats":
                # One combined payload for every engine-level cache plus
                # the index, so a single non-blocking poll serves all
                # observability consumers (healthz, /stats, /metrics,
                # aggregated shard stats).
                if not _guarded_send(
                    (
                        req_id,
                        "ok",
                        {
                            "substitution": engine.substitution_cache_stats(),
                            "trie": engine.trie_cache_stats(),
                            "index": engine.index_stats(),
                        },
                    )
                ):
                    break
            else:
                raise WorkerError(f"unknown message kind {kind!r}")
        except BaseException as exc:  # noqa: BLE001 — ship failures to the parent
            if not _guarded_send((req_id, "error", exc)):
                # Unpicklable exception: degrade to a description so the
                # parent still gets its one reply.  If even the fallback
                # cannot be sent the link is gone — exit the loop cleanly
                # instead of dying with a traceback.
                if not _guarded_send(
                    (req_id, "error", WorkerError(f"worker error: {exc!r}"))
                ):
                    break
            continue
        if faults is not None and kind in ("query", "add"):
            faults.after(kind, ordinal)


# ---------------------------------------------------------------------------
# Parent side: two openers, one handle
# ---------------------------------------------------------------------------

#: what an opener returns: the parent's end of a fresh link whose peer
#: will send the req-0 handshake, and the process behind it (None when
#: the peer is an external node this pool does not own).
_Opened = Tuple[transport.FramedSocket, Optional[Any]]


def _open_process(
    ctx, index, dataset, costs, engine_kwargs, faults, request_offsets
) -> _Opened:
    """Start a child process serving one end of a socketpair.  The shard
    travels as ``Process`` arguments, so ``fork`` inherits it without a
    pickle (and ``spawn`` pickles it exactly once)."""
    parent_sock, child_sock = socket.socketpair()
    process = ctx.Process(
        target=_process_main,
        args=(
            child_sock, index, dataset, costs, engine_kwargs, faults,
            request_offsets,
        ),
        name=f"repro-shard-{index}",
        daemon=True,
    )
    try:
        process.start()
    except BaseException:
        parent_sock.close()
        raise
    finally:
        child_sock.close()
    return transport.FramedSocket(parent_sock), process


def _open_node(
    address, connect_timeout, index, dataset, costs, engine_kwargs, faults,
    request_offsets,
) -> _Opened:
    """Connect to a worker node and ship the shard in a ``hello``.  A
    surviving node-side engine across reconnects would be unsound — an
    insert the node committed whose ack was lost in a connection drop
    would leave the replica permanently ahead of the parent's expected
    ids — so the node builds a *fresh* engine per connection, from this
    snapshot."""
    host, port = transport.parse_hostport(address)
    conn = transport.connect(host, port, timeout=connect_timeout)
    try:
        conn.send(
            (
                "hello",
                0,
                {
                    "shard": index,
                    "dataset": dataset,
                    "costs": costs,
                    "engine_kwargs": engine_kwargs,
                    "faults": faults,
                    "request_offsets": request_offsets,
                },
            )
        )
    except BaseException:
        conn.close()
        raise
    return conn, None


class _ShardWorker:
    """Parent-side handle for one (reopenable) shard worker: a framed
    link, the process behind it when this pool owns one, and the state
    that must survive reopening it.

    Serializes request/response round-trips with a lock (the worker is
    single-threaded, so pipelining would only queue in the socket) and
    bounds every wait, so a crashed, hung or half-open worker surfaces as
    :class:`WorkerError` instead of a hang:

    - **link = incarnation**: every (re)open yields a fresh engine built
      from the dataset mirror, answered by the req-0 handshake; journal
      replay past the handshake watermark makes reopening idempotent.
      ``restarts`` counts completed reopens (for nodes, the
      ``repro_node_reconnects_total`` metric);
    - per-call deadlines: a query's reply must arrive within the shipped
      remaining budget plus a grace window, other calls within
      ``call_timeout`` (when set).  Expiry **poisons the link** — a late
      reply would desynchronize the next request — so it is dropped and
      the normal reopen path takes over;
    - injected network chaos (:class:`~repro.faultinject.NetworkFaults`)
      is consulted at the single send choke point (:meth:`_send`), keyed
      to this handle's per-kind send ordinals, which persist across
      reopens.

    ``open_budget`` bounds the *whole* open attempt — connect, hello and
    handshake are retried inside it.  A killed node's replacement takes a
    moment to rebind its port, and the race has more than one losing
    shape: connection-refused before the rebind, but also an RST or EOF
    *mid-handshake* when the connect lands on a node that is still going
    down.  Any transport failure before the handshake completes just
    means "this attempt lost the race".  (A child process has no such
    race: its budget is 0, one attempt.)
    """

    def __init__(
        self,
        index: int,
        opener: Callable[..., _Opened],
        node: Optional[str],
        dataset,
        costs,
        engine_kwargs: Dict[str, Any],
        faults=None,
        net_faults=None,
        *,
        open_budget: float = 0.0,
        call_timeout: Optional[float] = None,
    ) -> None:
        self.index = index
        self.node = node
        self.restarts = 0
        #: the parent's shard mirror: what a reopened worker rebuilds from.
        self.dataset = dataset
        self.open_budget = open_budget
        self._opener = opener
        self._costs = costs
        self._engine_kwargs = dict(engine_kwargs)
        self._faults = faults
        self._net_faults = net_faults
        self._call_timeout = call_timeout
        self._lock = threading.Lock()
        self._req = 0
        #: requests sent per kind over ALL incarnations — shipped to a
        #: reopened worker so fault-rule ordinals keep counting.
        self._sent: Dict[str, int] = {"query": 0, "add": 0}
        self._conn: Optional[transport.FramedSocket] = None
        self._process = None
        self.pid: Optional[int] = None
        #: absolute monotonic deadline of the in-flight call (one request
        #: in flight per worker, so a scalar is enough).
        self._call_expires: Optional[float] = None
        self._open()

    # -- link lifecycle -----------------------------------------------------

    def _open(self) -> Dict[str, Any]:
        """Open (or reopen) the link and run the readiness handshake.
        Returns the handshake payload (engine length = replay watermark,
        worker pid); engine construction errors re-raise here with their
        original type.  The caller must hold ``_lock`` on every call but
        the first."""
        deadline = monotonic() + self.open_budget
        while True:
            try:
                self._conn, self._process = self._opener(
                    self.index,
                    self.dataset,
                    self._costs,
                    dict(self._engine_kwargs),
                    self._faults,
                    dict(self._sent),
                )
                self._call_expires = monotonic() + _HANDSHAKE_TIMEOUT
                handshake = self._receive(0, None)
                self.pid = int(handshake.get("pid", 0)) or None
                return handshake
            except BaseException as exc:
                self._teardown_incarnation()
                if not isinstance(exc, TransportError) or monotonic() >= deadline:
                    raise
                sleep(0.05)

    def _teardown_incarnation(self) -> None:
        """Dispose of the current (dead or dying) incarnation before a
        reopen.  Caller must hold ``_lock``."""
        if self._conn is not None:
            self._conn.close()
        if self._process is not None and self._process.is_alive():
            # Link-level death (dropped conn) with the process lingering:
            # the old incarnation must not keep burning CPU beside the new.
            self._process.kill()
            self._process.join(_STOP_TIMEOUT)

    def _dead_reason(self) -> str:
        where = "worker" if self.node is None else f"node {self.node}"
        if self._process is not None and self._process.exitcode is not None:
            return (
                f"shard {self.index} {where} process exited "
                f"(exitcode {self._process.exitcode})"
            )
        return f"shard {self.index} {where} link is down"

    def respawn(self, journal: Sequence[Tuple[int, Any, bool]]) -> None:
        """Replace a dead worker with a fresh incarnation and replay the
        insert journal so the replica is bit-identical.

        Caller must hold ``_lock``.  The handshake reports the rebuilt
        engine's dataset length; only journal entries at or past that
        watermark replay (the dataset mirror normally already contains
        every acknowledged insert — the journal closes the race where an
        insert was acknowledged but not yet mirrored when the snapshot
        was taken).  Any id disagreement during replay raises
        :class:`WorkerError` — divergence fails loudly.
        """
        self._teardown_incarnation()
        handshake = self._open()
        watermark = int(handshake.get("len", 0))
        for entry in journal:
            if entry[0] < watermark:
                continue  # already inside the respawn dataset snapshot
            # Versioned: divergence raises.  Replays are sends like any
            # other — they consume fault ordinals too.
            self._receive(self._send("add", entry, self._call_timeout), None)
        self.restarts += 1

    @property
    def alive(self) -> bool:
        """Link open ∧ (process alive, when this pool owns one)."""
        conn = self._conn
        return (
            conn is not None
            and not conn.closed
            and (self._process is None or self._process.is_alive())
        )

    # -- request/response ---------------------------------------------------

    def _send(self, kind: str, payload: Tuple, budget: Optional[float]) -> int:
        """The one place a request leaves the parent: assign the request
        id and per-kind ordinal, arm the per-call deadline (``budget``
        seconds; None = wait forever), apply injected network faults,
        send.  Caller must hold ``_lock``."""
        self._req += 1
        req_id = self._req
        ordinal = 0
        if kind in self._sent:
            self._sent[kind] += 1
            ordinal = self._sent[kind]
        self._call_expires = None if budget is None else monotonic() + budget
        conn = self._conn
        if conn is None or conn.closed:
            raise WorkerError(self._dead_reason())
        net = self._net_faults if ordinal else None
        chunk = None
        if net is not None:
            latency = net.latency(kind, ordinal)
            if latency > 0:
                sleep(latency)
            if net.hang(kind, ordinal):
                conn.hang()
            chunk = net.short_write(kind, ordinal)
        try:
            conn.send((kind, req_id, *payload), chunk=chunk)
        except TransportError:
            conn.close()
            raise
        if net is not None and net.drop_after(kind, ordinal):
            conn.drop()
        return req_id

    def call(self, kind: str, payload: Tuple, token=None):
        """One round-trip: send ``(kind, ...payload)``, await the reply."""
        req_id = self.begin(kind, payload)
        return self.finish(req_id, token)

    def try_call(self, kind: str, payload: Tuple):
        """Like :meth:`call`, but returns ``None`` instead of waiting when
        the worker is busy with an in-flight request.

        Diagnostics path (``/healthz`` polling a worker's cache stats):
        a liveness probe must never queue behind a long-running
        verification on the single-request-per-worker link.  A *dead*
        worker raises :class:`WorkerError` (never hangs)."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            if not self.alive:
                raise WorkerError(self._dead_reason())
            budget = (
                self._call_timeout
                if self._call_timeout is not None
                else _PROBE_TIMEOUT
            )
            return self._receive(self._send(kind, payload, budget), None)
        finally:
            self._lock.release()

    def begin(self, kind: str, payload: Tuple) -> int:
        """Send a request and return its id *without* waiting.

        Acquires this worker's lock; the caller MUST pair every successful
        ``begin`` with exactly one ``finish`` (which releases it).
        """
        self._lock.acquire()
        try:
            # Per-call deadline: the shipped remaining budget (queries
            # carry it at payload[2]) plus grace, else the static call
            # timeout.
            remaining = payload[2] if kind == "query" else None
            budget = (
                remaining + _DEADLINE_GRACE
                if remaining is not None
                else self._call_timeout
            )
            return self._send(kind, payload, budget)
        except BaseException:
            self._lock.release()
            raise

    def finish(self, req_id: int, token=None):
        """Await the reply to ``req_id``, polling ``token`` while waiting.

        When the token trips, a cancel frame makes the worker abandon the
        request within one verification-loop iteration — and it still
        sends its (error) reply, keeping the stream in sync.
        """
        try:
            return self._receive(req_id, token)
        finally:
            self._lock.release()

    def signal_cancel(self, req_id: int) -> None:
        """Cancel ``req_id`` (and everything before it) on the worker via
        an out-of-band frame (the socket is full-duplex; the worker's
        reader thread consumes it without a reply, so the stream stays
        one-reply-per-request)."""
        conn = self._conn
        if conn is None or conn.closed:
            return
        try:
            conn.send(("cancel", req_id))
        except TransportError:
            pass  # a torn link is already being handled by the caller

    def _receive(self, req_id: int, token):
        signalled = token is None
        expires = self._call_expires
        conn = self._conn
        dead = False
        while True:
            try:
                reply = conn.recv() if conn.poll(_POLL_SECONDS) else None
            except TransportError:
                conn.close()  # EOF, reset or bad frame: this incarnation is over
                raise
            if reply is not None:
                rid, status, payload = reply
                if rid != req_id:
                    conn.drop()
                    raise WorkerError(
                        f"shard {self.index} stream desynchronized: got reply "
                        f"for request {rid}, expected {req_id}"
                    )
                if status == "ok":
                    return payload
                raise payload
            if dead:
                # Found dead a slice ago and still nothing to read: no
                # reply beat the death.  (EOF normally gets here first;
                # this covers a process whose socket end a forked sibling
                # still holds open.)
                conn.close()
                raise WorkerError(self._dead_reason())
            if not signalled and token.cancelled():
                self.signal_cancel(req_id)
                signalled = True
            if expires is not None and monotonic() >= expires:
                # A late reply would poison the next request's framing —
                # a timed-out link must be torn down, never reused.
                conn.drop()
                raise TransportError(
                    f"shard {self.index}: no reply within the per-call deadline"
                )
            if conn.hung and expires is None:
                # Injected half-open link with nothing bounding the wait:
                # fail deterministically instead of spinning forever.
                conn.drop()
                raise TransportError(
                    f"shard {self.index}: link went half-open with no call "
                    "deadline"
                )
            dead = not self.alive

    # -- lifecycle ----------------------------------------------------------

    def stop(self, timeout: float = _STOP_TIMEOUT) -> None:
        """End this incarnation: polite "stop", then — for a link that
        owns a process — SIGTERM if it lingers, SIGKILL if it is wedged,
        so a child can never outlive ``close()``.  A node is an external
        process with its own lifecycle and is only ever disconnected."""
        self.signal_cancel(self._req)  # unblock any abandoned in-flight work
        if self.alive:
            # Polite phase: send "stop" without waiting for the reply (the
            # join below observes the orderly exit; the unread reply dies
            # with the link).  A worker wedged mid-request may hold the
            # lock indefinitely — bound the wait and escalate instead.
            if self._lock.acquire(timeout=timeout):
                try:
                    self._send("stop", (), None)
                except WorkerError:
                    pass  # already dead or link broken — escalate below
                finally:
                    self._lock.release()
        process = self._process
        if process is not None:
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout)
            if process.is_alive():
                # SIGTERM ignored (wedged in native code, or a chaos
                # `wedge_stop` fault): SIGKILL cannot be ignored.
                process.kill()
                process.join(timeout)
        if self._conn is not None:
            self._conn.close()

# Pools still open at interpreter exit get closed here.  Workers are
# daemonic as a second line of defense, but an orderly close lets them
# exit their loop instead of being killed mid-pickle.
_LIVE_POOLS: "weakref.WeakSet[ShardWorkerPool]" = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def _shutdown_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass  # exit-time cleanup must never raise


class ShardWorkerPool:
    """One worker per shard, each behind a framed link, supervised.

    Parameters
    ----------
    shard_datasets:
        One :class:`~repro.trajectory.dataset.TrajectoryDataset` per
        shard; each worker builds its engine from its dataset.  The pool
        keeps the reference: a respawned worker rebuilds from the same
        (possibly since-grown) dataset mirror, topped up by the insert
        journal.
    costs / engine_kwargs:
        Forwarded to every worker's ``SubtrajectorySearch``.
    start_method:
        ``multiprocessing`` start method (default:
        :func:`default_start_method`).
    per_shard_kwargs:
        Optional list (one dict per shard) of engine kwargs merged *over*
        ``engine_kwargs`` for that shard's worker — how the partitioned
        engine ships each worker its own frozen ``index_path`` (the path
        crosses the link, never the index: the worker mmaps the file —
        including again on every respawn).
    supervise:
        Run the supervisor thread (liveness poll + respawn with backoff)
        and enable the query path's respawn-and-retry.  Off, a dead
        worker stays dead and every query to it raises
        :class:`WorkerError` — the pre-supervision semantics, kept for
        tests that pin crash behavior.
    fault_plan:
        Optional :class:`~repro.faultinject.FaultPlan` — deterministic
        chaos, see that module.
    breaker_failures / breaker_cooldown:
        Per-shard circuit breaker: consecutive shard failures that open
        it, and seconds before a half-open probe is allowed.
    respawn_backoff / respawn_backoff_cap:
        Base and cap (seconds) of the supervisor's exponential respawn
        backoff (jittered per shard).
    shard_map:
        One ``"host:port"`` node address per shard.  When given, links
        are connections to standalone ``repro worker --listen`` node
        processes instead of socketpairs to child processes — the only
        thing it changes is how a link is (re)opened.
    connect_timeout / call_timeout:
        Node-link bounds (``shard_map`` only): the budget of one whole
        connect + hello + handshake attempt, and the per-call reply
        deadline used when a request ships no remaining budget (None =
        wait forever; queries that carry a budget are always bounded by
        it plus a grace window).
    """

    def __init__(
        self,
        shard_datasets: Sequence,
        costs,
        engine_kwargs: Optional[Dict[str, Any]] = None,
        *,
        start_method: Optional[str] = None,
        per_shard_kwargs: Optional[Sequence[Optional[Dict[str, Any]]]] = None,
        supervise: bool = True,
        fault_plan=None,
        breaker_failures: int = 3,
        breaker_cooldown: float = 1.0,
        respawn_backoff: float = 0.05,
        respawn_backoff_cap: float = 2.0,
        supervisor_poll: float = _SUPERVISOR_POLL,
        shard_map: Optional[Sequence[str]] = None,
        connect_timeout: float = 5.0,
        call_timeout: Optional[float] = None,
        heartbeat_interval: float = _HEARTBEAT_INTERVAL,
    ) -> None:
        if per_shard_kwargs is not None and len(per_shard_kwargs) != len(
            shard_datasets
        ):
            raise WorkerError(
                f"expected {len(shard_datasets)} per-shard kwarg dicts, "
                f"got {len(per_shard_kwargs)}"
            )
        if shard_map is not None and len(shard_map) != len(shard_datasets):
            raise WorkerError(
                f"shard map has {len(shard_map)} nodes but the pool has "
                f"{len(shard_datasets)} shards"
            )
        n = len(shard_datasets)
        # The one place the backends differ: how a link is obtained (and
        # the node-link bounds, which a child's socketpair does not take).
        if shard_map is None:
            ctx = mp.get_context(start_method or default_start_method())
            openers = [partial(_open_process, ctx)] * n
            self._nodes: List[Optional[str]] = [None] * n
            open_budget, call_timeout = 0.0, None
        else:
            openers = [
                partial(_open_node, address, connect_timeout)
                for address in shard_map
            ]
            self._nodes = [str(address) for address in shard_map]
            open_budget = connect_timeout
        self._closed = False
        self._workers: List[_ShardWorker] = []
        self._supervise = bool(supervise)
        self._heartbeat_interval = heartbeat_interval
        self._fault_plan = fault_plan
        seed = 0 if fault_plan is None else int(getattr(fault_plan, "seed", 0))
        self._journals: List[List[Tuple[int, Any, bool]]] = [[] for _ in range(n)]
        self._breakers = [
            CircuitBreaker(
                failure_threshold=breaker_failures, cooldown=breaker_cooldown
            )
            for _ in range(n)
        ]
        self._backoffs = [
            RespawnBackoff(
                base=respawn_backoff, cap=respawn_backoff_cap, seed=seed + i
            )
            for i in range(n)
        ]
        self._respawn_attempts = [0] * n
        self._respawn_not_before = [0.0] * n
        self._respawn_fail_budget = [
            0 if fault_plan is None else fault_plan.respawn_failures(i)
            for i in range(n)
        ]
        self._last_errors = [""] * n
        self._events: List[deque] = [deque(maxlen=16) for _ in range(n)]
        self._supervisor_poll = supervisor_poll
        self._supervisor: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        try:
            for index, dataset in enumerate(shard_datasets):
                kwargs = dict(engine_kwargs or {})
                if per_shard_kwargs is not None and per_shard_kwargs[index]:
                    kwargs.update(per_shard_kwargs[index])
                faults = net = None
                if fault_plan is not None:
                    faults = fault_plan.worker_faults(index)
                    net = fault_plan.network_faults(index)
                self._workers.append(
                    _ShardWorker(
                        index,
                        openers[index],
                        self._nodes[index],
                        dataset,
                        costs,
                        kwargs,
                        faults,
                        net,
                        open_budget=open_budget,
                        call_timeout=call_timeout,
                    )
                )
        except BaseException:
            self.close()
            raise
        global _ATEXIT_REGISTERED
        _LIVE_POOLS.add(self)
        if not _ATEXIT_REGISTERED:
            atexit.register(_shutdown_live_pools)
            _ATEXIT_REGISTERED = True
        if self._supervise:
            self._supervisor = threading.Thread(
                target=self._supervise_loop,
                name="repro-shard-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    def __len__(self) -> int:
        return len(self._workers)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def supervised(self) -> bool:
        """Whether the supervisor thread and query-path retry are on."""
        return self._supervise

    def nodes(self) -> List[Optional[str]]:
        """Per-shard node addresses (None where the worker is a child
        process)."""
        return list(self._nodes)

    def workers_alive(self) -> List[bool]:
        """Liveness of each worker link (diagnostics/tests)."""
        return [w.alive for w in self._workers]

    # -- supervision --------------------------------------------------------

    def _supervise_loop(self) -> None:
        """Liveness poll: respawn dead workers on the backoff schedule.

        Runs until ``close()``.  Never raises; a failed respawn is
        recorded and retried after backoff.  The loop doubles as the
        heartbeat: idle links get a bounded ``ping`` every
        ``heartbeat_interval`` seconds, so a silently dead peer flips to
        not-alive (and into this same respawn path) without waiting for
        query traffic to trip over it."""
        next_beat = monotonic() + self._heartbeat_interval
        while not self._stop_event.wait(self._supervisor_poll):
            if self._closed:
                break
            beat = monotonic() >= next_beat
            if beat:
                next_beat = monotonic() + self._heartbeat_interval
            for shard, worker in enumerate(self._workers):
                if worker.alive:
                    if beat:
                        # A bounded ping; skipped (None) while a request is
                        # in flight — traffic is its own heartbeat.
                        try:
                            worker.try_call("ping", ())
                        except WorkerError:
                            pass  # the link is closed now: respawn next tick
                        except Exception:  # noqa: BLE001 — loop must survive
                            logger.exception(
                                "heartbeat of shard %d failed", shard
                            )
                    continue
                try:
                    self._try_respawn(shard, blocking=False)
                except Exception:  # noqa: BLE001 — the loop must survive
                    logger.exception("supervisor respawn of shard %d failed", shard)

    def _try_respawn(
        self,
        shard: int,
        *,
        blocking: bool,
        force: bool = False,
        seen_restarts: Optional[int] = None,
    ) -> bool:
        """Attempt to bring ``shard``'s worker back up.  Returns True when
        the worker is alive afterwards (already, or freshly respawned).

        ``blocking`` waits (bounded) for the worker lock — the query-path
        retry; non-blocking skips the tick when the lock is busy — the
        supervisor, which must never queue behind an in-flight request.
        The blocking wait watches for the holder's outcome instead of
        sleeping on the lock: the usual holder is the supervisor
        mid-respawn, and once the generation changes there is nothing
        left to do but retry on the fresh worker.  (A querying thread
        holds one link's lock at a time, so the wait cannot deadlock; the
        bound only keeps a wedged holder from hanging the caller.)
        ``force`` ignores the backoff window — used by the query path,
        whose bound is the caller's own deadline budget.

        ``seen_restarts`` is the worker's restart generation the caller
        observed *failing*.  A dying worker closes its socket before
        ``waitpid`` reports it dead, so ``alive`` can stay True for a
        worker whose requests already fail — trusting it would retry on
        a corpse's link.  When the generation hasn't changed since the
        failure, respawn over the stale-alive process (``respawn`` kills
        any lingering incarnation first); when it has, the supervisor
        beat us to it and the live worker really is fresh.
        """
        if self._closed or not self._supervise:
            return False
        worker = self._workers[shard]

        def fresh() -> bool:
            return worker.alive and not (
                seen_restarts is not None and worker.restarts == seen_restarts
            )

        if blocking:
            # A supervisor respawn can take up to the worker's open
            # budget; giving up earlier would lose the caller's retry.
            deadline = monotonic() + 4.0 + worker.open_budget
            while not worker._lock.acquire(timeout=0.1):
                if fresh():
                    return True
                if monotonic() >= deadline:
                    return False
        elif not worker._lock.acquire(blocking=False):
            return False
        try:
            if self._closed:
                return False
            if fresh():
                return True
            now = monotonic()
            if not force and now < self._respawn_not_before[shard]:
                return False
            if self._respawn_fail_budget[shard] > 0:
                # Injected respawn failure (deterministic chaos): consume
                # one budget unit and behave exactly like a real failure.
                self._respawn_fail_budget[shard] -= 1
                self._note_respawn_failure(
                    shard, "fault-injected respawn failure"
                )
                return False
            try:
                self._trim_journal(shard)
                worker.respawn(list(self._journals[shard]))
            except BaseException as exc:  # noqa: BLE001 — recorded, retried
                self._note_respawn_failure(shard, repr(exc))
                return False
            self._respawn_attempts[shard] = 0
            self._respawn_not_before[shard] = 0.0
            self._last_errors[shard] = ""
            self._events[shard].append(f"respawned pid={worker.pid}")
            logger.warning(
                "shard %d worker respawned (pid %s, restart #%d)",
                shard, worker.pid, worker.restarts,
            )
            return True
        finally:
            worker._lock.release()

    def _note_respawn_failure(self, shard: int, error: str) -> None:
        attempt = self._respawn_attempts[shard]
        delay = self._backoffs[shard].delay(attempt)
        self._respawn_attempts[shard] = attempt + 1
        self._respawn_not_before[shard] = monotonic() + delay
        self._last_errors[shard] = error
        self._events[shard].append(
            f"respawn failed (attempt {attempt + 1}, backoff {delay:.3f}s): {error}"
        )

    def _note_shard_failure(self, shard: int, exc: BaseException) -> None:
        self._breakers[shard].record_failure()
        self._last_errors[shard] = repr(exc)
        self._events[shard].append(f"query failed: {type(exc).__name__}")

    def worker_states(self) -> List[WorkerState]:
        """Per-shard supervision snapshots (the ``/healthz`` payload)."""
        now = monotonic()
        states = []
        for shard, worker in enumerate(self._workers):
            breaker = self._breakers[shard]
            states.append(
                WorkerState(
                    shard=shard,
                    alive=worker.alive,
                    pid=worker.pid,
                    restarts=worker.restarts,
                    breaker=breaker.state,
                    consecutive_failures=breaker.consecutive_failures,
                    respawn_wait=max(
                        0.0, self._respawn_not_before[shard] - now
                    ),
                    last_error=self._last_errors[shard],
                    events=list(self._events[shard]),
                    node=worker.node,
                    retry_after=breaker.cooldown_remaining(),
                )
            )
        return states

    def restarts_total(self) -> int:
        """Completed worker respawns across all shards (monotonic).  For
        a node a "respawn" is a completed reconnect — this is also the
        ``repro_node_reconnects_total`` figure."""
        return sum(w.restarts for w in self._workers)

    def retry_after(self) -> float:
        """Seconds a client should wait before retrying: the soonest any
        currently-open breaker will admit a probe (0 when none is open).
        The HTTP layer turns this into the 503 ``Retry-After`` header."""
        waits = [
            b.cooldown_remaining()
            for b in self._breakers
            if b.state == "open"
        ]
        return min(waits) if waits else 0.0

    # -- queries ------------------------------------------------------------

    def query_shard(self, shard: int, query: Sequence[int], kwargs: Dict[str, Any],
                    cancel=None, trace_ctx=None, on_event=None):
        """Run one query on one shard worker: a blocking round trip, and
        the one place a shard query meets the fault policy.

        A shard whose circuit breaker is open is not even sent to
        (:class:`ShardUnavailableError`).  A shard whose worker fails
        under the request (:class:`WorkerError`) is respawned and the
        query retried — exactly once, only within the caller's remaining
        deadline budget, re-shipping the *updated* remaining time.  Every
        failure counts against the shard's breaker; the error that stands
        (the original when no retry was possible, else the retry's)
        propagates.  While waiting, a tripped ``cancel`` token becomes a
        cancel frame, and the worker still sends its one reply.

        With ``trace_ctx`` (a ``(trace_id, parent_span_id)`` pair) the
        worker traces its engine query and the return value is
        ``(result, exported_spans)`` instead of the bare result.
        ``on_event(event)`` reports the fault decisions taken
        (``"breaker_open"`` / ``"retried"``) for span annotation."""
        self._check_open()
        breaker = self._breakers[shard]
        if not breaker.allow():
            if on_event is not None:
                on_event("breaker_open")
            raise ShardUnavailableError(
                f"shard {shard} circuit breaker is {breaker.state}"
            )
        worker = self._workers[shard]

        def attempt():
            payload = (list(query), kwargs, _remaining_of(cancel), trace_ctx)
            return worker.call("query", payload, cancel)

        try:
            result = attempt()
        except WorkerError as exc:
            failed_gen = worker.restarts
            self._note_shard_failure(shard, exc)
            # No retry once the caller's deadline is spent, nor when the
            # respawn fails (or the pool is unsupervised / closed).
            if (cancel is not None and cancel.cancelled()) or not self._try_respawn(
                shard, blocking=True, force=True, seen_restarts=failed_gen
            ):
                raise
            if on_event is not None:
                on_event("retried")
            try:
                result = attempt()
            except WorkerError as retry_exc:
                self._note_shard_failure(shard, retry_exc)
                raise
        breaker.record_success()
        return result

    # -- diagnostics --------------------------------------------------------

    def cache_stats(self) -> List[Optional[Dict[str, Dict[str, int]]]]:
        """Per-worker engine-cache and index counters (``{"substitution":
        ..., "trie": ..., "index": ...}``), polled without blocking: a
        worker busy with an in-flight query — or dead and awaiting respawn
        — yields ``None`` (the caller reports partial coverage instead of
        stalling or erroring a health probe)."""
        self._check_open()
        stats: List[Optional[Dict[str, Dict[str, int]]]] = []
        for worker in self._workers:
            try:
                stats.append(worker.try_call("stats", ()))
            except WorkerError:
                stats.append(None)
        return stats

    # -- replication --------------------------------------------------------

    def replicate_add(self, shard: int, expected_local_id: int, trajectory,
                      *, validate: bool = False) -> int:
        """Apply one online insert on a shard worker, versioned and
        journaled.

        ``expected_local_id`` is the shard-local id the parent's replica
        assigns; the worker acknowledges only if its own insert agrees,
        so parent and worker cannot silently diverge.  Synchronous — when
        this returns, queries on that worker see the new trajectory
        (read-your-writes for the inserter).  The acknowledged insert is
        appended to the shard's journal *before* the worker lock is
        released, so a respawn can never snapshot a state where the
        insert is committed on the worker but absent from both the
        dataset mirror and the journal.
        """
        self._check_open()
        worker = self._workers[shard]
        entry = (int(expected_local_id), trajectory, bool(validate))
        req_id = worker.begin("add", entry)
        try:
            tid = worker._receive(req_id, None)
            self._trim_journal(shard)
            self._journals[shard].append(entry)
            self._breakers[shard].record_success()
            return tid
        except WorkerError as exc:
            self._note_shard_failure(shard, exc)
            raise
        finally:
            worker._lock.release()

    def _trim_journal(self, shard: int) -> None:
        """Drop journal entries the dataset mirror already holds (every
        respawn rebuilds from the mirror, so they could never replay),
        keeping the acknowledged-but-not-yet-mirrored tail the journal
        exists for.  Caller must hold the worker lock."""
        mirrored = len(self._workers[shard].dataset)
        journal = self._journals[shard]
        journal[:] = [entry for entry in journal if entry[0] >= mirrored]

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop the supervisor, then every worker (idempotent; also runs
        via ``atexit``)."""
        if self._closed:
            return
        self._closed = True
        _LIVE_POOLS.discard(self)
        # The supervisor must be down before workers stop, or it would
        # respawn what close() is killing.
        self._stop_event.set()
        if self._supervisor is not None and self._supervisor.is_alive():
            if self._supervisor is not threading.current_thread():
                self._supervisor.join(timeout=2.0)
        for worker in self._workers:
            worker.stop()

    def _check_open(self) -> None:
        if self._closed:
            raise WorkerError("worker pool is closed")


def _remaining_of(cancel) -> Optional[float]:
    """The budget to ship with a request: seconds left on the token's
    deadline at send time (clamped at 0 so an expired token still yields
    an immediately-expired worker token), or ``None``."""
    if cancel is None:
        return None
    remaining = getattr(cancel, "remaining", None)
    if remaining is None:
        return None
    value = remaining()
    return None if value is None else max(0.0, value)
