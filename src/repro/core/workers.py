"""Out-of-process shard workers: CPU-bound verification past the GIL.

The Smith–Waterman-style verification that dominates query cost (§6)
holds the GIL, so the in-process ``serial`` backend of
:class:`~repro.core.partitioned.PartitionedSubtrajectorySearch` uses one
core however many shards it has.  This module moves each shard's engine
behind a **framed link**
(:class:`~repro.core.transport.FramedSocket`) and keeps exactly one
parent-side object per shard (:class:`_ShardWorker`, the *supervised
shard*) and one worker-side serve path (:func:`serve_link`) for every way
a link can be obtained:

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
  There is no fan-out here: one query is one blocking
  :meth:`_ShardWorker.query` round trip per shard, and the partitioned
  engine's shard threads overlap those trips — a thread holds one
  shard's lock at a time;
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

**Fault tolerance.**  Everything known about one shard lives on its
:class:`_ShardWorker` — link, process, request lock, insert journal,
breaker, backoff and respawn bookkeeping, last error, event ring — and
the policy objects come from :mod:`repro.core.supervision`.
:class:`ShardWorkerPool` keeps only what is pool-wide: the opener per
backend, the shards, the supervisor thread, ``close()``.

- the *supervisor thread* polls shard liveness (link open ∧ process
  alive, when there is one), heartbeats idle links with ``ping`` so a
  silently dead peer is detected without traffic, and revives dead
  shards with bounded exponential backoff + per-shard jitter; the query
  path additionally revives eagerly when it trips over a corpse, so
  recovery latency is bounded by one engine rebuild, not a poll tick;
- a reopened worker rebuilds its engine from the parent's shard dataset
  mirror, then the shard *replays its insert journal* — the record of
  acknowledged inserts the mirror may not hold yet — through the same
  versioned ``add`` protocol, so the replica is bit-identical to the
  lost one (the handshake reports the rebuilt engine's length; only the
  entries past it replay, and any id disagreement fails loudly);
- a per-shard :class:`~repro.core.supervision.CircuitBreaker` (closed →
  open after N consecutive shard failures → half-open probe) keeps a
  flapping shard from eating every query's deadline: with the breaker
  open, queries either fail fast (:class:`~repro.exceptions.
  ShardUnavailableError`) or — with ``allow_partial`` — degrade to the
  live shards.  *A request that collected its one reply is a healthy
  shard*: a result and a relayed engine/client error (bad threshold,
  expired deadline) both count as success, only :class:`~repro.
  exceptions.WorkerError` counts against the breaker, and a half-open
  probe slot is handed back however the probe ends;
- a shard whose link failed is revived and its request — a query or an
  insert — retried exactly once; a query's retry stays within the
  caller's remaining deadline budget, re-shipping the *updated*
  remaining time.  An error the worker *replied* with stands: its link
  is up, so a respawn would only replace a healthy worker;
- deterministic chaos: a :class:`~repro.faultinject.FaultPlan` ships
  per-shard worker-side fault tables to the workers (kill before / after
  request K, delay or drop a reply, ignore stop), network faults into
  the shard's single send choke point (drop / hang / slow / fragment
  the link), and respawn failures into the shard's revive path, all
  keyed to request ordinals that survive respawns — see
  :mod:`repro.faultinject`.

Protocol (one request in flight per worker, enforced by the shard's
lock; every request gets exactly one reply, keeping the stream in sync
even when the caller stops waiting):

    ("query", req_id, symbols, kwargs, remaining_seconds | None,
              trace_ctx | None)
    ("add",   req_id, expected_local_id, trajectory, validate)
    ("stats", req_id)                 -> ShardStatus (the worker engine's)
    ("ping",  req_id)                 -> {"pid": ...}   (liveness heartbeat)
    ("stop",  req_id)
    ("cancel", req_id)                (out of band: no reply)
    reply: (req_id, "ok", payload) | (req_id, "error", exception)

The serve loop computes a request's reply and sends it from one place
(:meth:`_ServedLink.reply`).  A reply that cannot be *encoded* — an
exception or result that does not pickle, a frame over the transport's
bound — is replaced by an ``"error"`` reply carrying a :class:`~repro.
exceptions.WorkerError` that names it, so the parent still collects its
one reply and the worker keeps serving; only a torn link ends the loop.

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
from dataclasses import replace
from functools import partial
from multiprocessing.connection import wait as wait_readable
from time import monotonic, sleep
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import transport
from repro.core.supervision import CircuitBreaker, RespawnBackoff, ShardStatus, WorkerState
from repro.exceptions import (
    FrameTooLargeError,
    ShardUnavailableError,
    TransportError,
    WorkerError,
)
from repro.faultinject import FaultPlan

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
    """The multiprocessing start method used when none is requested:
    ``fork`` where available (instant worker start, no re-import or
    re-pickle of the shard data) — but only while the parent is
    single-threaded.  Forking a threaded parent (e.g. rebuilding an
    engine while an HTTP server is live) can deadlock the child on locks
    held mid-fork by other threads, so such parents get ``spawn``, which
    always works: the worker entry point and every shipped object are
    picklable.  (Supervised *respawns* reuse the pool's original context:
    the replacement worker must build from the same inheritance path as
    the one it replaces.)
    """
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

    def reply(self, req_id: int, status: str, payload) -> bool:
        """Send a request's one reply (see the module docstring); False
        when the link is gone (peer died, or closed the link racing this
        send — the serve loop must end cleanly, not with traceback
        noise).  A reply that cannot be encoded has put no byte on the
        wire, so the error reply naming it takes its place in the stream."""
        try:
            try:
                self._framed.send((req_id, status, payload))
            except Exception as exc:  # noqa: BLE001 — pickling raises anything
                if isinstance(exc, TransportError) and not isinstance(
                    exc, FrameTooLargeError
                ):
                    raise  # the link itself failed
                what = repr(payload) if status == "error" else type(payload).__name__
                error = WorkerError(f"reply could not be sent ({exc!r}): {what}")
                self._framed.send((req_id, "error", error))
        except TransportError:
            return False
        return True

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


def _answer(engine, conn: _ServedLink, shard_index, msg):
    """The "ok" payload of one request (anything raised here is its
    "error" reply)."""
    kind, req_id = msg[0], msg[1]
    if kind == "query":
        symbols, kwargs, remaining = msg[2], msg[3], msg[4]
        trace_ctx = msg[5] if len(msg) > 5 else None
        trace = None
        if trace_ctx is not None:
            from repro.obs.tracing import Trace

            trace = Trace(
                "shard_worker",
                trace_id=trace_ctx[0],
                parent_id=trace_ctx[1],
                shard=shard_index,
                pid=os.getpid(),
            )
        result = engine.query(
            symbols,
            cancel=_WorkerCancelToken(req_id, conn, remaining),
            trace=None if trace is None else trace.root,
            **kwargs,
        )
        # The merge ignores the tau-subsequence; stripping it keeps
        # reply pickles small (neighborhoods are large).
        result.subsequence = []
        if trace is None:
            return result
        trace.finish()
        return result, trace.export()
    if kind == "add":
        expected, trajectory, validate = msg[2], msg[3], msg[4]
        tid = engine.add_trajectory(trajectory, validate=validate)
        if tid != expected:
            raise WorkerError(
                f"shard {shard_index} replica diverged: insert got local "
                f"id {tid}, parent expected {expected}"
            )
        return tid
    if kind == "stats":
        # The worker's engine is one shard: its entry is the payload (the
        # pool swaps in the supervised state it holds for this shard).
        return engine.status().shards[0]
    if kind == "ping":
        return {"pid": os.getpid()}
    if kind == "stop":
        return None
    raise WorkerError(f"unknown message kind {kind!r}")


def _worker_main(
    conn: _ServedLink, shard_index, dataset, costs, engine_kwargs,
    faults=None, request_offsets=None,
) -> None:
    """The serve loop: build the shard engine, answer requests.

    Every received request is answered exactly once, from one place;
    failures — including cancellations — travel back as pickled
    exceptions.  ``faults`` is an optional
    :class:`~repro.faultinject.WorkerFaults` table and
    ``request_offsets`` the per-kind ordinals already consumed by this
    shard's previous incarnations (so fault rules fire once across
    respawns); only queries and inserts are counted, so a ``ping`` can
    never consume (or trip) a request-ordinal rule.
    """
    # Imported here, not at module top, so the worker builds its engine
    # against whatever is on *its* path under spawn (and to keep this
    # module importable without pulling the whole engine in first).
    from repro.core.engine import SubtrajectorySearch

    if faults is not None:
        faults.install()
    counts: Dict[str, int] = dict(request_offsets or {})
    # Readiness handshake (req 0): a failed engine build must raise in the
    # parent's constructor with its real cause, not as an opaque dead
    # worker at first query.  On success the payload carries the dataset
    # length — the parent's journal-replay watermark — and the pid.
    try:
        engine = SubtrajectorySearch(dataset, costs, **engine_kwargs)
    except BaseException as exc:  # noqa: BLE001 — ship the failure to the parent
        conn.reply(0, "error", exc)
        return
    if not conn.reply(0, "ok", {"len": len(dataset), "pid": os.getpid()}):
        return
    while True:
        try:
            msg = conn.recv()
        except (TransportError, KeyboardInterrupt):
            break  # peer gone (or interactive interrupt): nothing to reply to
        kind, req_id = msg[0], msg[1]
        ordinal = 0
        if faults is not None and kind in ("query", "add"):
            ordinal = counts.get(kind, 0) + 1
            counts[kind] = ordinal
            faults.before(kind, ordinal)
            if faults.drop_pipe(kind, ordinal):
                conn.close()
                os._exit(70)
        if kind == "stop" and faults is not None and faults.wedge_stop:
            continue  # chaos: pretend not to hear — forces escalation
        try:
            status, payload = "ok", _answer(engine, conn, shard_index, msg)
            if ordinal:
                faults.delay(kind, ordinal)
        except BaseException as exc:  # noqa: BLE001 — ship failures to the parent
            status, payload = "error", exc
        if not conn.reply(req_id, status, payload) or kind == "stop":
            break
        if ordinal and status == "ok":
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
    """The supervised shard: everything the parent knows about one shard
    worker (the module docstring lists it), and the only code that
    touches it.

    It offers what a shard does — :meth:`query`, :meth:`add`, a
    non-blocking :meth:`probe`, :meth:`revive`, :meth:`state`,
    :meth:`stop` — over ONE lock-scoped round trip (:meth:`_send` +
    :meth:`_receive`; the worker is single-threaded, so pipelining would
    only queue in the socket) whose every wait is bounded
    (:meth:`_budget`), so a crashed, hung or half-open worker surfaces as
    :class:`WorkerError` instead of a hang.  Nothing outside this class
    acquires or releases the lock.  Each rule of the module docstring is
    written here once: :meth:`call` is the only place an outcome reaches
    the breaker (queries and inserts alike), :meth:`query` the only gate
    → attempt → revive → retry-once sequence, :meth:`_send` the only
    place a request leaves (and network chaos is applied, keyed to
    per-kind send ordinals that persist across reopens).  ``restarts``
    counts completed reopens (for nodes, the
    ``repro_node_reconnects_total`` metric).

    ``open_budget`` bounds the *whole* open attempt — connect, hello and
    handshake are retried inside it.  A killed node's replacement takes a
    moment to rebind its port, and the race has more than one losing
    shape: connection-refused before the rebind, but also an RST or EOF
    *mid-handshake* when the connect lands on a node that is still going
    down.  Any transport failure before the handshake completes just
    means "this attempt lost the race".  (A child process has no such
    race: its budget is 0, one attempt.)  Breaker and backoff follow the
    fault policy of :mod:`repro.core.supervision`; ``plan`` supplies this
    shard's fault tables, injected respawn failures and backoff seed.
    """

    def __init__(
        self,
        index: int,
        opener: Callable[..., _Opened],
        node: Optional[str],
        dataset,
        costs,
        engine_kwargs: Dict[str, Any],
        plan: FaultPlan,
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
        #: acknowledged inserts the mirror may not hold yet, as
        #: ``(expected_local_id, trajectory, validate)``.
        self.journal: List[Tuple[int, Any, bool]] = []
        self.breaker = CircuitBreaker()
        self.last_error = ""
        self.events: deque = deque(maxlen=16)
        self._backoff = RespawnBackoff(seed=plan.seed + index)
        self._respawn_attempts = 0
        self._respawn_not_before = 0.0
        self._respawn_fail_budget = plan.respawn_failures(index)
        #: set by :meth:`stop`: no :meth:`revive` from then on.
        self._stopped = False
        self._opener = opener
        self._costs = costs
        self._engine_kwargs = dict(engine_kwargs)
        self._faults = plan.worker_faults(index)
        self._net_faults = plan.network_faults(index)
        self._call_timeout = call_timeout
        self._lock = threading.Lock()
        self._req = 0
        #: requests sent per kind over ALL incarnations — shipped to a
        #: reopened worker so fault-rule ordinals keep counting.
        self._sent: Dict[str, int] = {"query": 0, "add": 0}
        self._conn: Optional[transport.FramedSocket] = None
        self._process = None
        self.pid: Optional[int] = None
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
                handshake = self._receive(
                    0, None, monotonic() + self._budget("handshake")
                )
                self.pid = int(handshake.get("pid", 0)) or None
                return handshake
            except BaseException as exc:
                self._teardown_incarnation()
                if not isinstance(exc, TransportError) or monotonic() >= deadline:
                    raise
                sleep(0.05)

    def _teardown_incarnation(self) -> None:
        """Dispose of the current (dead or dying) incarnation before a
        reopen, its pid first: the next incarnation is unnamed until its
        handshake.  Caller must hold ``_lock``."""
        self.pid = None
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

    @property
    def alive(self) -> bool:
        """Link open ∧ (process alive, when this pool owns one)."""
        conn = self._conn
        return (
            conn is not None
            and not conn.closed
            and (self._process is None or self._process.is_alive())
        )

    def revive(
        self,
        *,
        blocking: bool,
        force: bool = False,
        seen_restarts: Optional[int] = None,
    ) -> bool:
        """Bring this shard's worker back up: replace a dead incarnation
        with a fresh one and replay the insert journal so the replica is
        bit-identical.  Returns True when a worker the caller may retry on
        is up afterwards (already, or freshly respawned).

        ``blocking`` waits (bounded) for the lock — the query-path retry;
        non-blocking skips the tick when the lock is busy — the
        supervisor, which must never queue behind an in-flight request.
        The blocking wait watches for the holder's outcome instead of
        sleeping on the lock: the usual holder is the supervisor
        mid-respawn, and once the generation changes there is nothing
        left to do but retry on the fresh worker.  (A querying thread
        holds one shard's lock at a time, so the wait cannot deadlock; the
        bound only keeps a wedged holder from hanging the caller.)
        ``force`` ignores the backoff window — used by the query path,
        whose bound is the caller's own deadline budget.

        ``seen_restarts`` is the restart generation the caller's failed
        request was sent to.  A failed link or process is always closed
        where the failure is found, so an incarnation of that generation
        that is still up did not fail: the failure was its own reply,
        which a respawn would only repeat on a fresh worker — False, and
        the caller's error stands.  A later generation is a worker the
        supervisor already brought back.
        """
        if self._stopped:
            return False

        def fresh() -> bool:
            return self.alive and not (
                seen_restarts is not None and self.restarts == seen_restarts
            )

        if blocking:
            # A supervisor respawn can take up to the open budget; giving
            # up earlier would lose the caller's retry.
            deadline = monotonic() + 4.0 + self.open_budget
            while not self._lock.acquire(timeout=0.1):
                if fresh():
                    return True
                if monotonic() >= deadline:
                    return False
        elif not self._lock.acquire(blocking=False):
            return False
        try:
            if self._stopped:
                return False  # stopped while this call waited for the lock
            if self.alive:
                return fresh()
            if not force and monotonic() < self._respawn_not_before:
                return False
            if self._respawn_fail_budget > 0:
                # Injected respawn failure (deterministic chaos): consume
                # one budget unit and behave exactly like a real failure.
                self._respawn_fail_budget -= 1
                self._note_respawn_failure("fault-injected respawn failure")
                return False
            try:
                self._trim_journal()
                self._teardown_incarnation()
                # The handshake reports the rebuilt engine's length; only
                # journal entries at or past that watermark replay (the
                # mirror normally already holds every acknowledged insert
                # — the journal closes the race where one was acknowledged
                # but not yet mirrored when the snapshot was taken).
                # Replays are versioned (divergence raises) and are sends
                # like any other: they consume fault ordinals too.
                watermark = int(self._open().get("len", 0))
                for entry in self.journal:
                    if entry[0] >= watermark:
                        self._round_trip("add", entry)
            except Exception as exc:  # noqa: BLE001 — recorded, retried
                self._note_respawn_failure(repr(exc))
                return False
            self.restarts += 1
            self._respawn_attempts = 0
            self._respawn_not_before = 0.0
            self.last_error = ""
            self.events.append(f"respawned pid={self.pid}")
            logger.warning(
                "shard %d worker respawned (pid %s, restart #%d)",
                self.index, self.pid, self.restarts,
            )
            return True
        finally:
            self._lock.release()

    def _note_respawn_failure(self, error: str) -> None:
        attempt = self._respawn_attempts
        delay = self._backoff.delay(attempt)
        self._respawn_attempts = attempt + 1
        self._respawn_not_before = monotonic() + delay
        self.last_error = error
        self.events.append(
            f"respawn failed (attempt {attempt + 1}, backoff {delay:.3f}s): {error}"
        )

    def _trim_journal(self) -> None:
        """Drop journal entries the dataset mirror already holds (every
        respawn rebuilds from the mirror, so they could never replay),
        keeping the acknowledged-but-not-yet-mirrored tail the journal
        exists for.  Caller must hold ``_lock``."""
        mirrored = len(self.dataset)
        self.journal[:] = [e for e in self.journal if e[0] >= mirrored]

    def state(self) -> WorkerState:
        """This shard's supervision snapshot (the ``/healthz`` unit).

        Read without the lock, so ``alive`` needs a named incarnation and
        is taken between two reads of its pid, standing only if both
        agree: a respawn's open link before its handshake names the new
        pid (a teardown clears the old one) reads as not alive, never as
        the replaced incarnation's pid alive."""
        pid = self.pid
        return WorkerState(
            shard=self.index,
            alive=pid is not None and self.alive and self.pid == pid,
            pid=pid,
            restarts=self.restarts,
            breaker=self.breaker.state,
            consecutive_failures=self.breaker.consecutive_failures,
            respawn_wait=max(0.0, self._respawn_not_before - monotonic()),
            last_error=self.last_error,
            events=list(self.events),
            node=self.node,
            retry_after=self.breaker.cooldown_remaining(),
        )

    # -- what a shard does --------------------------------------------------

    def query(self, query: Sequence[int], kwargs: Dict[str, Any],
              cancel=None, trace_ctx=None, on_event=None):
        """Run one query on this shard: a blocking round trip under the
        fault policy.

        A shard whose circuit breaker is open is not even sent to
        (:class:`ShardUnavailableError`); otherwise the query is one
        :meth:`_retried_once` call, whose retry re-ships the *updated*
        remaining deadline budget.  While waiting, a tripped ``cancel``
        token becomes a cancel frame, and the worker still sends its one
        reply.

        With ``trace_ctx`` (a ``(trace_id, parent_span_id)`` pair) the
        worker traces its engine query and the return value is
        ``(result, exported_spans)`` instead of the bare result.
        ``on_event(event)`` reports the fault decisions taken
        (``"breaker_open"`` / ``"retried"``) for span annotation."""

        def attempt():
            payload = (list(query), kwargs, _remaining_of(cancel), trace_ctx)
            return self.call("query", payload, cancel)

        with self.breaker.admission() as admitted:
            if not admitted:
                if on_event is not None:
                    on_event("breaker_open")
                raise ShardUnavailableError(
                    f"shard {self.index} circuit breaker is {self.breaker.state}"
                )
            return self._retried_once(attempt, cancel, on_event)

    def add(self, expected_local_id: int, trajectory, *, validate: bool = False) -> int:
        """Apply one online insert on the worker, versioned (the worker
        acknowledges only if its own insert got ``expected_local_id``) and
        journaled.  Synchronous — when this returns, queries on this shard
        see the new trajectory (read-your-writes for the inserter).

        Retried once after a revive, like a query.  That is safe: an
        insert the dead incarnation committed without acknowledging died
        with it (the revived worker rebuilds from the mirror and the
        journal, which only hold acknowledged inserts), so the retry gets
        the same expected id.  If the error stands, the caller rolls its
        id reservation back."""
        entry = (int(expected_local_id), trajectory, bool(validate))
        return self._retried_once(lambda: self.call("add", entry))

    def _retried_once(self, attempt, cancel=None, on_event=None):
        """``attempt()``; if its link or process failed under it
        (:class:`WorkerError`), revive the shard and retry exactly once.
        No retry once ``cancel`` has tripped (the caller's deadline is
        spent), nor when nothing was revived: the worker replied with the
        error (see :meth:`revive`), the respawn failed, or the shard is
        stopped.  The error that stands (the original when no retry was
        possible, else the retry's) propagates."""
        generation = self.restarts
        try:
            return attempt()
        except WorkerError:
            if (cancel is not None and cancel.cancelled()) or not self.revive(
                blocking=True, force=True, seen_restarts=generation
            ):
                raise
        if on_event is not None:
            on_event("retried")
        return attempt()

    def probe(self, kind: str):
        """A ``stats`` / ``ping`` round trip that returns ``None`` instead
        of waiting when a request is in flight: a liveness or diagnostics
        probe (``/healthz`` polling cache stats, the heartbeat) must never
        queue behind a long-running verification.  A *dead* worker raises
        :class:`WorkerError` (never hangs)."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            return self._round_trip(kind)
        finally:
            self._lock.release()

    # -- the round trip -----------------------------------------------------

    def call(self, kind: str, payload: Tuple = (), token=None):
        """One request: the lock-scoped round trip (send ``(kind,
        ...payload)``, await its one reply, polling ``token`` meanwhile)
        plus its verdict on the shard's health — the only place an
        outcome reaches the breaker.  *A request that collected its one
        reply is a healthy shard*: a result and a relayed engine or client
        error (bad threshold, spent deadline, cancellation) both record
        success; only :class:`WorkerError` — the link or the worker
        failed — records a failure.  An acknowledged insert is journaled
        before the lock is released, so a revive can never snapshot a
        state where the insert is committed on the worker but absent from
        both the dataset mirror and the journal."""
        try:
            with self._lock:
                reply = self._round_trip(kind, payload, token)
                if kind == "add":
                    self._trim_journal()
                    self.journal.append(payload)
        except WorkerError as exc:
            self.breaker.record_failure()
            self.last_error = repr(exc)
            self.events.append(f"{kind} failed: {type(exc).__name__}")
            raise
        except Exception:
            self.breaker.record_success()
            raise
        self.breaker.record_success()
        return reply

    def _round_trip(self, kind: str, payload: Tuple = (), token=None):
        """Caller must hold ``_lock``."""
        budget = self._budget(kind, payload)
        expires = None if budget is None else monotonic() + budget
        return self._receive(self._send(kind, payload), token, expires)

    def _budget(self, kind: str, payload: Tuple = ()) -> Optional[float]:
        """Seconds the reply to one call may take (None = wait forever):
        the handshake's own bound; a query's shipped remaining budget
        (``payload[2]``) plus grace; else the static call timeout, which
        for probes falls back to the probe bound."""
        if kind == "handshake":
            return _HANDSHAKE_TIMEOUT
        if kind == "query" and payload[2] is not None:
            return payload[2] + _DEADLINE_GRACE
        if self._call_timeout is None and kind in ("stats", "ping"):
            return _PROBE_TIMEOUT
        return self._call_timeout

    def _send(self, kind: str, payload: Tuple = ()) -> int:
        """The one place a request leaves the parent: assign the request
        id and per-kind ordinal, apply injected network faults, send.
        Caller must hold ``_lock``."""
        self._req += 1
        req_id = self._req
        ordinal = 0
        if kind in self._sent:
            self._sent[kind] += 1
            ordinal = self._sent[kind]
        conn = self._conn
        if conn is None or not self.alive:
            raise WorkerError(self._dead_reason())  # never send to a corpse
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

    def _cancel(self, req_id: int) -> None:
        """Cancel ``req_id`` (and everything before it) on the worker:
        an out-of-band frame its reader thread consumes without a reply."""
        try:
            if self._conn is not None:
                self._conn.send(("cancel", req_id))
        except TransportError:
            pass  # a closed or torn link: the caller is already handling it

    def _receive(self, req_id: int, token, expires: Optional[float]):
        """Await the reply to ``req_id`` until ``expires`` (monotonic),
        turning a tripped ``token`` into one cancel frame meanwhile (the
        reply still arrives, keeping the stream in sync)."""
        signalled = token is None
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
                self._cancel(req_id)
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
        """End this shard for good: polite "stop", then — for a link that
        owns a process — SIGTERM if it lingers, SIGKILL if it is wedged,
        so a child can never outlive ``close()``.  A node is an external
        process with its own lifecycle and is only ever disconnected."""
        self._stopped = True
        self._cancel(self._req)  # unblock any abandoned in-flight work
        if self.alive:
            # Polite phase: send "stop" without waiting for the reply (the
            # join below observes the orderly exit; the unread reply dies
            # with the link).  A worker wedged mid-request may hold the
            # lock indefinitely — bound the wait and escalate instead.
            if self._lock.acquire(timeout=timeout):
                try:
                    self._send("stop")
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
    """One supervised shard (:class:`_ShardWorker`) per shard dataset,
    plus what is genuinely pool-wide: choosing how links are opened, the
    supervisor thread, and shutdown.  Per-shard state lives on the shards.

    Parameters
    ----------
    shard_datasets:
        One :class:`~repro.trajectory.dataset.TrajectoryDataset` per
        shard; each worker builds its engine from its dataset.  The shard
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
    fault_plan:
        Optional :class:`~repro.faultinject.FaultPlan` — deterministic
        chaos, see that module.
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
        fault_plan=None,
        shard_map: Optional[Sequence[str]] = None,
        connect_timeout: float = 5.0,
        call_timeout: Optional[float] = None,
    ) -> None:
        n = len(shard_datasets)
        if per_shard_kwargs is not None and len(per_shard_kwargs) != n:
            raise WorkerError(
                f"expected {n} per-shard kwarg dicts, got {len(per_shard_kwargs)}"
            )
        if shard_map is not None and len(shard_map) != n:
            raise WorkerError(
                f"shard map has {len(shard_map)} nodes but the pool has "
                f"{n} shards"
            )
        # The one place the backends differ: how a link is obtained (and
        # the node-link bounds, which a child's socketpair does not take).
        if shard_map is None:
            ctx = mp.get_context(start_method or default_start_method())
            links = [(partial(_open_process, ctx), None)] * n
            open_budget, call_timeout = 0.0, None
        else:
            links = [
                (partial(_open_node, address, connect_timeout), str(address))
                for address in shard_map
            ]
            open_budget = connect_timeout
        self._workers: List[_ShardWorker] = []
        self._supervisor: Optional[threading.Thread] = None
        #: set by close(): the pool is closed and the supervisor must end.
        self._stop_event = threading.Event()
        plan = fault_plan or FaultPlan()  # the empty plan: no faults, seed 0
        try:
            for index, dataset in enumerate(shard_datasets):
                kwargs = dict(engine_kwargs or {})
                if per_shard_kwargs is not None and per_shard_kwargs[index]:
                    kwargs.update(per_shard_kwargs[index])
                opener, node = links[index]
                self._workers.append(
                    _ShardWorker(
                        index, opener, node, dataset, costs, kwargs, plan,
                        open_budget=open_budget, call_timeout=call_timeout,
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
        self._supervisor = threading.Thread(
            target=self._supervise_loop,
            name="repro-shard-supervisor",
            daemon=True,
        )
        self._supervisor.start()

    @property
    def closed(self) -> bool:
        return self._stop_event.is_set()

    def _supervise_loop(self) -> None:
        """The supervisor thread: liveness poll (revive dead shards on
        their backoff schedule) doubling as the heartbeat, whose ping
        flips a silently dead peer to not-alive and so into the same
        revive path.  Runs until ``close()`` and never raises; a failed
        respawn is recorded on the shard and retried after backoff."""
        next_beat = monotonic() + _HEARTBEAT_INTERVAL
        while not self._stop_event.wait(_SUPERVISOR_POLL):
            beat = monotonic() >= next_beat
            if beat:
                next_beat = monotonic() + _HEARTBEAT_INTERVAL
            for worker in self._workers:
                try:
                    if not worker.alive:
                        worker.revive(blocking=False)
                    elif beat:
                        # A bounded ping; skipped (None) while a request is
                        # in flight — traffic is its own heartbeat.
                        worker.probe("ping")
                except WorkerError:
                    pass  # the link is closed now: revived next tick
                except Exception:  # noqa: BLE001 — the loop must survive
                    logger.exception(
                        "supervision of shard %d failed", worker.index
                    )

    def query_shard(self, shard: int, query: Sequence[int], kwargs: Dict[str, Any],
                    cancel=None, trace_ctx=None, on_event=None):
        """Run one query on one shard (:meth:`_ShardWorker.query`: breaker
        gate, one blocking round trip, revive-and-retry-once)."""
        self._check_open()
        return self._workers[shard].query(query, kwargs, cancel, trace_ctx, on_event)

    def replicate_add(self, shard: int, expected_local_id: int, trajectory,
                      *, validate: bool = False) -> int:
        """Apply one online insert on one shard, versioned and journaled
        (:meth:`_ShardWorker.add`)."""
        self._check_open()
        return self._workers[shard].add(
            expected_local_id, trajectory, validate=validate
        )

    def status(self) -> List[ShardStatus]:
        """One entry per shard in one pass: its supervision state plus the
        counters its worker reports, polled without blocking — a worker
        busy with an in-flight query, or dead and awaiting respawn, has
        ``None`` counters (the caller reports partial coverage instead of
        stalling or erroring a health probe)."""
        self._check_open()
        entries = []
        for worker in self._workers:
            try:
                reply = worker.probe("stats")
            except WorkerError:
                reply = None
            # Read after the probe, so it shows a link the probe found dead.
            state = worker.state()
            entries.append(ShardStatus(state) if reply is None else replace(reply, worker=state))
        return entries

    def close(self) -> None:
        """Stop the supervisor, then every worker (idempotent; also runs
        via ``atexit``)."""
        if self.closed:
            return
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
        if self.closed:
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
