"""Standalone shard worker nodes: ``repro worker --listen HOST:PORT``.

A worker node is the remote half of the ``backend="remote"`` serving
tier.  It owns no configuration of its own — it listens on a TCP port
and serves whatever shard each connecting pool ships it:

- every accepted connection starts with a ``hello`` frame carrying the
  shard index, the shard's dataset snapshot, the cost model, engine
  kwargs, the worker-side fault table, and the request-ordinal offsets
  consumed by the shard's previous incarnations — exactly the arguments
  a ``backend="processes"`` child receives as ``Process`` args;
- from there the connection is served by
  :func:`repro.core.workers.serve_link`, the one serve path every worker
  link runs: a **fresh engine per connection**, the req-0 readiness
  handshake (engine length = the client's journal-replay watermark, plus
  the node pid), one reply per request, out-of-band ``("cancel",
  req_id)`` frames folded into the engine's cancel watermark by the
  link's reader thread.  Connection = incarnation is what makes
  reconnection sound: an engine surviving a dropped connection could
  hold an insert whose ack was lost in flight, leaving it permanently
  ahead of the client's expected ids — rebuilding from the shipped
  snapshot and letting the client replay its journal past the watermark
  restores bit-identical state instead;
- injected worker faults ride along in the hello: a ``kill_before`` rule
  ``os._exit``\\ s the node process itself, which is precisely the
  node-kill chaos drill — :func:`run_worker_node` optionally wraps the
  serving process in a respawn loop (``--restarts``) so a killed node
  rebinds its port (``SO_REUSEADDR``) and the client's reconnect backoff
  finds it again.

Multiple connections are served concurrently (each in its own thread):
during a client's reconnect storm the half-dead old connection must
never block the new one from handshaking.
"""

from __future__ import annotations

import json
import logging
import multiprocessing as mp
import signal
import socket
import threading
from typing import Any, Dict, List, Optional

from repro.core import transport
from repro.core.workers import default_start_method, serve_link
from repro.exceptions import TransportError

__all__ = [
    "WorkerNodeServer",
    "load_shard_map",
    "node_child_main",
    "run_worker_node",
]

logger = logging.getLogger(__name__)

#: how long an accepted connection may take to produce its hello frame
#: before the node drops it (port scanners, half-connected clients).
_HELLO_TIMEOUT = 30.0


class WorkerNodeServer:
    """One listening worker node (see the module docstring).

    ``port=0`` binds an ephemeral port; the resolved address is available
    as :attr:`host` / :attr:`port` before :meth:`serve_forever` is called
    — tests run nodes on background threads against ephemeral ports.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_frame: int = transport.DEFAULT_MAX_FRAME,
    ) -> None:
        self._sock = transport.listen(host, port)
        self.host, self.port = self._sock.getsockname()[:2]
        self._max_frame = max_frame
        self._closed = False

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`close`.  Each
        connection gets its own thread — a lingering half-dead connection
        must never block a reconnecting client's handshake."""
        logger.info("worker node listening on %s", self.address)
        while not self._closed:
            try:
                raw, addr = self._sock.accept()
            except OSError:
                break  # closed
            threading.Thread(
                target=self._serve_connection,
                args=(raw,),
                name=f"repro-node-conn-{addr[1] if len(addr) > 1 else 0}",
                daemon=True,
            ).start()

    def _serve_connection(self, raw) -> None:
        framed = transport.FramedSocket(raw, max_frame=self._max_frame)
        try:
            hello = framed.recv(deadline=_HELLO_TIMEOUT)
            if not (
                isinstance(hello, tuple)
                and len(hello) >= 3
                and hello[0] == "hello"
                and isinstance(hello[2], dict)
            ):
                raise TransportError(f"expected a hello frame, got {hello!r}")
            spec: Dict[str, Any] = hello[2]
        except Exception:  # noqa: BLE001 — a bad client must not kill the node
            logger.warning("dropping connection with bad hello", exc_info=True)
            framed.close()
            return
        serve_link(
            framed,
            int(spec.get("shard", 0)),
            spec.get("dataset"),
            spec.get("costs"),
            dict(spec.get("engine_kwargs") or {}),
            spec.get("faults"),
            dict(spec.get("request_offsets") or {}),
        )

    def close(self) -> None:
        self._closed = True
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does (and may return ENOTCONN — fine).
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


def node_child_main(host: str, port: int) -> None:
    """Serving entry point — top-level so ``spawn`` contexts can pickle
    it for the :func:`run_worker_node` respawn wrapper."""
    try:
        # A forked child inherits the wrapper's terminate-the-child
        # handler; restore the default so SIGTERM just kills this node.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
    except ValueError:
        pass  # not the main thread
    WorkerNodeServer(host, port).serve_forever()


def run_worker_node(
    host: str,
    port: int,
    *,
    restarts: int = 0,
    start_method: Optional[str] = None,
) -> int:
    """Run a worker node, optionally under a respawn wrapper.

    With ``restarts=0`` the node serves in the calling process (the
    plain deployment; an external supervisor — systemd, k8s — owns the
    restart policy).  With ``restarts=N`` the serving process runs as a
    child that is respawned up to N times when it dies — the node-side
    half of node-kill chaos drills: an injected ``kill_before`` takes
    the child down, ``SO_REUSEADDR`` lets the replacement rebind
    immediately, and the client's reconnect backoff absorbs the gap.
    Returns the final exit code.
    """
    if restarts <= 0:
        node_child_main(host, port)
        return 0
    ctx = mp.get_context(start_method or default_start_method())
    current: Dict[str, Any] = {}

    def _forward_term(signum, frame):  # noqa: ARG001 — signal signature
        proc = current.get("proc")
        if proc is not None and proc.is_alive():
            proc.terminate()
        raise SystemExit(128 + signum)

    try:
        # Terminating the wrapper must take the serving child with it —
        # an orphaned node would squat the port past the drill.
        signal.signal(signal.SIGTERM, _forward_term)
        signal.signal(signal.SIGINT, _forward_term)
    except ValueError:
        pass  # not the main thread (tests drive this in-process)
    used = 0
    while True:
        proc = ctx.Process(
            target=node_child_main, args=(host, port), name="repro-worker-node"
        )
        current["proc"] = proc
        proc.start()
        proc.join()
        code = proc.exitcode or 0
        if used >= restarts:
            return code
        used += 1
        logger.warning(
            "worker node on %s:%d died (exitcode %s); restart %d/%d",
            host, port, code, used, restarts,
        )


def load_shard_map(spec: str) -> List[str]:
    """Parse a ``--shard-map`` value: a path to a JSON file, or inline
    JSON (detected by a leading ``[`` or ``{``).  Accepted shapes::

        ["127.0.0.1:7701", "127.0.0.1:7702"]
        {"nodes": ["127.0.0.1:7701", "127.0.0.1:7702"]}

    One address per shard, in shard order.  Every address is validated
    as ``HOST:PORT`` here so a typo fails at config load, not mid-
    connect."""
    text = spec.strip()
    if not (text.startswith("[") or text.startswith("{")):
        with open(spec, "r", encoding="utf-8") as handle:
            text = handle.read()
    payload = json.loads(text)
    if isinstance(payload, dict):
        payload = payload.get("nodes")
    if (
        not isinstance(payload, list)
        or not payload
        or not all(isinstance(item, str) for item in payload)
    ):
        raise ValueError(
            "shard map must be a non-empty list of 'host:port' strings "
            "(or {\"nodes\": [...]})"
        )
    for address in payload:
        transport.parse_hostport(address)
    return [str(item) for item in payload]
