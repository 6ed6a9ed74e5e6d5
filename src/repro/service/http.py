"""Stdlib JSON-over-HTTP frontend for :class:`~repro.service.QueryService`.

No web framework — ``http.server.ThreadingHTTPServer`` is enough for a
reproduction-scale serving layer and keeps the dependency budget at zero.
One handler thread per connection feeds the service, whose executor pool
does the actual work (so slow queries don't serialize behind each other).

API surface (all bodies JSON):

- ``GET /healthz`` — liveness: ``{"status": "ok", ...}``;
- ``GET /stats`` — :meth:`QueryService.stats`: the service's
  instruments as JSON (plus exact latency percentiles);
- ``GET /metrics`` — the same instruments as Prometheus text exposition
  (version 0.0.4) of the service's :class:`~repro.obs.MetricsRegistry`;
- ``GET /debug/traces?order=recent|slowest&limit=n`` — flight-recorder
  dump: completed trace records, JSON;
- ``POST /query`` — ``{"path": [symbols...], "tau": x | "tau_ratio": r,
  "time_from": t0?, "time_to": t1?, "temporal_mode": "overlap"|"within"?,
  "deadline": seconds?, "limit": n?, "allow_partial": bool?}`` → matches
  plus serving provenance (``cached`` / ``coalesced`` / timing).  With
  ``"allow_partial": true`` and shards down, the answer is still a 200
  but flagged ``"partial": true`` with the missing ``degraded_shards``;
- ``POST /query`` with ``{"path": [...], "k": n}`` instead of a
  threshold — top-k mode: the n best matches (one per trajectory),
  ranked; optional ``"initial_tau_ratio"`` / ``"growth"`` tune the
  threshold expansion.  The response carries ``results`` (with explicit
  ``rank``), ``ties_at_k``, and the expansion provenance (``tau_rounds``
  / ``tau_final`` / ``swept``); ``deadline`` / ``limit`` /
  ``allow_partial`` work as in range mode.  ``k`` is mutually exclusive
  with ``tau`` / ``tau_ratio`` and with temporal constraints;
- ``POST /trajectories`` — ``{"path": [symbols...], "timestamps":
  [...]?}`` → online insert; invalidates the result cache.  Paths are
  validated as graph walks by default (``"validate": false`` opts out).

Input is checked, not coerced: ``path`` must be a list of JSON integers,
``limit`` / ``k`` non-boolean integers, ``allow_partial`` / ``validate``
JSON booleans, and every numeric field (``timestamps`` included) finite
and non-boolean — ``json.loads`` admits ``NaN`` / ``Infinity``, and a NaN
slips through every ``<=`` guard downstream.

Error mapping: malformed requests → 400, admission shed → 429, missed
deadline → 504, shard worker down/unavailable (and the client did not
opt into a partial answer) → 503.  503 bodies carry the currently
unhealthy ``degraded_shards`` plus a ``Retry-After`` header derived from
the soonest breaker cooldown, so clients back off for exactly as long as
the supervisor needs.

On the wire: every reply is ONE write (status line, headers and body
together) on a ``TCP_NODELAY`` socket.  Headers and body sent apart cost
a keep-alive client ~40 ms per reply — Nagle holds the second segment
until the first is acknowledged, and the client delays that ACK.  A
refusal keeps the connection unless the request's declared body was left
unread (no usable ``Content-Length``, ``Transfer-Encoding``, a POST to
an unknown path), in which case the reply says ``Connection: close``.
(The stdlib's own ``send_error`` replies — a malformed request line, an
unsupported method — are still its two sends; with ``TCP_NODELAY`` they
do not wait either, and they always close.)
"""

from __future__ import annotations

import json
import logging
import math
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.temporal import TimeInterval
from repro.exceptions import (
    AdmissionError,
    DeadlineExceededError,
    QueryCancelledError,
    ReproError,
    WorkerError,
)
from repro.service.service import QueryService, ServiceResponse
from repro.trajectory.model import Trajectory

__all__ = ["ServiceServer", "response_payload", "topk_payload"]

logger = logging.getLogger(__name__)

_MAX_BODY = 16 * 1024 * 1024


def response_payload(response: ServiceResponse, *, limit: Optional[int] = None) -> Dict[str, Any]:
    """The JSON shape of one answered query (shared with the CLI)."""
    result = response.result
    matches = result.matches if limit is None else result.matches[:limit]
    payload = {
        "tau": result.tau,
        "matches": [
            {
                "trajectory": m.trajectory_id,
                "start": m.start,
                "end": m.end,
                "distance": m.distance,
            }
            for m in matches
        ],
        "total_matches": len(result.matches),
        "candidates": result.num_candidates,
        "cached": response.cached,
        "coalesced": response.coalesced,
        "seconds": response.seconds,
        "engine_seconds": result.total_seconds,
        "partial": not result.complete,
    }
    if not result.complete:
        payload["degraded_shards"] = list(result.degraded_shards)
    return payload


def topk_payload(
    response: ServiceResponse, *, limit: Optional[int] = None
) -> Dict[str, Any]:
    """The JSON shape of one answered top-k query (shared with the CLI).

    ``results`` carries an explicit 1-based ``rank`` — the ranking *is*
    the answer here, unlike range mode's order-irrelevant match set —
    and ``ties_at_k`` says how many equal-distance entries the k-th cut
    dropped (0 = the ranking boundary is strict)."""
    result = response.result
    matches = result.matches if limit is None else result.matches[:limit]
    payload = {
        "k": result.k,
        "results": [
            {
                "rank": rank,
                "trajectory": m.trajectory_id,
                "start": m.start,
                "end": m.end,
                "distance": m.distance,
            }
            for rank, m in enumerate(matches, start=1)
        ],
        "total_results": len(result.matches),
        "ties_at_k": result.ties_at_k,
        "tau_rounds": result.tau_rounds,
        "tau_final": result.tau_final,
        "swept": result.swept,
        "candidates": result.num_candidates,
        "cached": response.cached,
        "coalesced": response.coalesced,
        "seconds": response.seconds,
        "engine_seconds": result.total_seconds,
        "partial": not result.complete,
    }
    if not result.complete:
        payload["degraded_shards"] = list(result.degraded_shards)
    return payload


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the service stored on the server object."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: a reply too large for one
    # segment must not have its tail wait on Nagle either.
    disable_nagle_algorithm = True
    # Whether the current request declared a body that has not been read
    # off the stream (set per request by do_GET / do_POST / _read_body).
    _body_unread = False

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s - %s", self.address_string(), format % args)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_body(status, body, "application/json", headers)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Every reply leaves here, as ONE write of status line, headers
        and body — never a header-only segment for the body to wait
        behind (module docstring, "On the wire")."""
        self.log_request(status, len(body))
        lines = [
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
        if self._body_unread:
            # Bytes of this request are still on the stream; the next
            # request line would be parsed out of them.
            lines.append("Connection: close")
            self.close_connection = True
        head = "\r\n".join(lines) + "\r\n\r\n"
        self.wfile.write(head.encode("latin-1") + body)

    def _send_unavailable(self, service: QueryService, exc: WorkerError) -> None:
        """One shard-unavailability 503: the body names the shards that
        are currently down or breaker-gated (``degraded_shards``) and the
        ``Retry-After`` header tells the client how long the soonest open
        breaker keeps rejecting — retrying sooner is guaranteed wasted."""
        payload: Dict[str, Any] = {"error": str(exc)}
        retry_after = 0.0
        try:
            status = service.engine.status()
            payload["degraded_shards"] = status.degraded_shards
            retry_after = status.retry_after
        except Exception:  # noqa: BLE001 — the 503 itself must go out
            pass
        # Retry-After is integral delta-seconds; a dead-but-unbroken shard
        # (cooldown 0) still wants a beat for the supervisor's respawn.
        seconds = max(1, math.ceil(retry_after)) if retry_after > 0 else 1
        payload["retry_after"] = seconds
        self._send_json(503, payload, headers={"Retry-After": str(seconds)})

    def _read_body(self) -> Dict[str, Any]:
        if "Transfer-Encoding" in self.headers:
            raise ValueError("request body must be sent with Content-Length")
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("missing request body")
        if length > _MAX_BODY:
            raise ValueError("request body too large")
        raw = self.rfile.read(length)
        # The stream is at the next request line: whatever is wrong with
        # these bytes, the refusal need not cost the connection.
        self._body_unread = False
        try:
            data = json.loads(raw.decode("utf-8"))
        except RecursionError:
            raise ValueError("request body is nested too deeply") from None
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        service: QueryService = self.server.service  # type: ignore[attr-defined]
        parsed = urlsplit(self.path)
        path = parsed.path
        self._body_unread = (
            "Content-Length" in self.headers or "Transfer-Encoding" in self.headers
        )
        try:
            if path == "/healthz":
                # ONE engine snapshot per probe (one non-blocking poll of
                # the worker links; busy workers are skipped, so the probe
                # never queues behind a long verification).  A failing
                # poll (closing engine) degrades the fields rather than
                # the probe — /healthz answers liveness, not shard health.
                payload: Dict[str, Any] = {"status": "ok"}
                try:
                    status = service.engine.status()
                except Exception as exc:  # noqa: BLE001
                    error = {"error": str(exc)}
                    payload.update(trie_cache=error, index=error, workers=[error])
                else:
                    # A dead worker (or an open breaker) is visible here
                    # *before* a query hits it, and flips the status to
                    # "degraded" (still 200 — the server itself is up and
                    # can serve partial/other shards; monitoring alerts on
                    # the field, load balancers on the process).
                    if status.degraded_shards:
                        payload["status"] = "degraded"
                    payload.update(
                        trajectories=status.trajectories,
                        shards=len(status.shards),
                        backend=status.backend,
                        trie_cache=status.trie,
                        index=status.index,
                        workers=[w.to_dict() for w in status.workers],
                        restarts_total=status.restarts_total,
                    )
                self._send_json(200, payload)
            elif path == "/stats":
                self._send_json(200, service.stats())
            elif path == "/metrics":
                # Prometheus text exposition.  The registry renders push
                # instruments and pull collectors; the engine collector
                # polls workers WITHOUT blocking, so a scrape never queues
                # behind a long-running query.
                self._send_text(
                    200,
                    service.observability.registry.render(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/debug/traces":
                self._handle_traces(service, parse_qs(parsed.query))
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        except (ValueError, ReproError) as exc:
            # A malformed /debug/traces query; the engine-backed routes
            # degrade their own fields and never raise.
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - keep-alive clients need a
            # response body, not a dropped connection, on unexpected bugs.
            logger.exception("unhandled error serving %s", self.path)
            try:
                self._send_json(500, {"error": f"internal error: {exc}"})
            except Exception:  # headers may already be on the wire
                self.close_connection = True

    def do_POST(self) -> None:  # noqa: N802
        service: QueryService = self.server.service  # type: ignore[attr-defined]
        self._body_unread = True  # until _read_body has read it
        try:
            if self.path == "/query":
                self._handle_query(service)
            elif self.path == "/trajectories":
                self._handle_insert(service)
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        except AdmissionError as exc:
            self._send_json(429, {"error": str(exc)})
        except (DeadlineExceededError, QueryCancelledError) as exc:
            # A cancellation that escapes the executor untranslated is
            # still "the server gave up on the budget" to a client.
            self._send_json(504, {"error": str(exc)})
        except WorkerError as exc:
            # A dead/diverged/breaker-open shard is an availability
            # failure, not a bad request: 503 Service Unavailable so
            # clients retry (the supervisor is likely respawning it) and
            # monitoring pages someone.  Clients that can live with less
            # can opt into a 200 instead via {"allow_partial": true}.
            logger.error("shard worker failure serving %s: %s", self.path, exc)
            self._send_unavailable(service, exc)
        except (ValueError, TypeError, KeyError, ReproError) as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - keep-alive clients need a
            # response body, not a dropped connection, on unexpected bugs.
            logger.exception("unhandled error serving %s", self.path)
            try:
                self._send_json(500, {"error": f"internal error: {exc}"})
            except Exception:  # headers may already be on the wire
                self.close_connection = True

    def _handle_traces(self, service: QueryService, params: Dict[str, list]) -> None:
        order = params.get("order", ["recent"])[0]
        if order not in ("recent", "slowest"):
            raise ValueError("'order' must be 'recent' or 'slowest'")
        raw_limit = params.get("limit", [None])[0]
        limit = None
        if raw_limit is not None:
            limit = int(raw_limit)
            if limit < 0:
                raise ValueError("'limit' must be a nonnegative integer")
        recorder = service.observability.recorder
        traces = (
            recorder.slowest(limit) if order == "slowest" else recorder.recent(limit)
        )
        self._send_json(
            200, {"order": order, "traces": traces, "stats": recorder.stats()}
        )

    def _handle_query(self, service: QueryService) -> None:
        body = self._read_body()
        path = self._symbols_of(body)
        tau = self._finite(body, "tau")
        tau_ratio = self._finite(body, "tau_ratio")
        deadline = self._finite(body, "deadline")
        interval, mode = self._interval_of(body)
        limit = body.get("limit")
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int) or limit < 0
        ):
            raise ValueError("'limit' must be a nonnegative integer")
        allow_partial = body.get("allow_partial", False)
        if not isinstance(allow_partial, bool):
            raise ValueError("'allow_partial' must be a boolean")
        k = body.get("k")
        if k is not None:
            # Top-k mode: the request names a depth instead of a radius.
            if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
                raise ValueError("'k' must be a positive integer")
            if tau is not None or tau_ratio is not None:
                raise ValueError(
                    "'k' is mutually exclusive with 'tau'/'tau_ratio' — "
                    "a request is either top-k or range"
                )
            if interval is not None:
                raise ValueError(
                    "top-k does not support temporal constraints"
                )
            knobs = {
                knob: self._finite(body, knob)
                for knob in ("initial_tau_ratio", "growth")
                if body.get(knob) is not None
            }
            response = service.topk(
                path, k, deadline=deadline, allow_partial=allow_partial, **knobs
            )
            self._send_json(200, topk_payload(response, limit=limit))
            return
        response = service.query(
            path,
            tau=tau,
            tau_ratio=tau_ratio,
            time_interval=interval,
            temporal_mode=mode,
            deadline=deadline,
            allow_partial=allow_partial,
        )
        self._send_json(200, response_payload(response, limit=limit))

    def _handle_insert(self, service: QueryService) -> None:
        body = self._read_body()
        timestamps = body.get("timestamps")
        if timestamps is not None:
            if isinstance(timestamps, list):
                timestamps = [self._finite_number(t) for t in timestamps]
            if not isinstance(timestamps, list) or None in timestamps:
                raise ValueError("'timestamps' must be a list of finite numbers")
        # Untrusted write endpoint: reject non-walks unless the client
        # explicitly opts out with {"validate": false}.
        validate = body.get("validate", True)
        if not isinstance(validate, bool):
            raise ValueError("'validate' must be a boolean")
        trajectory = Trajectory(self._symbols_of(body), timestamps=timestamps)
        tid = service.add_trajectory(trajectory, validate=validate)
        self._send_json(200, {"trajectory": tid, "invalidated_cache": True})

    @staticmethod
    def _symbols_of(body: Dict[str, Any]) -> list:
        """The request's ``path``: a non-empty list of JSON integers.
        Anything else is refused rather than coerced — ``[1.5, 2.7]``
        truncated to ``[1, 2]`` would answer a question nobody asked."""
        path = body.get("path")
        if (
            not isinstance(path, list)
            or not path
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in path)
        ):
            raise ValueError("'path' must be a non-empty list of integer symbols")
        return path

    @staticmethod
    def _finite(body: Dict[str, Any], name: str) -> Optional[float]:
        """The numeric field ``name`` as a float, ``None`` when absent.
        ``json.loads`` admits ``NaN`` / ``Infinity``, and a NaN slips
        through every ``<=`` guard downstream (a NaN ``growth`` never
        terminates tau-doubling), so non-finite numbers stop here."""
        value = body.get(name)
        if value is None:
            return None
        number = _Handler._finite_number(value)
        if number is None:
            raise ValueError(f"'{name}' must be a finite number")
        return number

    @staticmethod
    def _finite_number(value: Any) -> Optional[float]:
        """``value`` as a float if it is a finite, non-boolean JSON
        number, else ``None``."""
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an integer literal beyond float range
                return None
            if math.isfinite(number):
                return number
        return None

    @classmethod
    def _interval_of(cls, body: Dict[str, Any]) -> Tuple[Optional[TimeInterval], str]:
        t0, t1 = cls._finite(body, "time_from"), cls._finite(body, "time_to")
        if (t0 is None) != (t1 is None):
            raise ValueError("'time_from' and 'time_to' must be given together")
        mode = body.get("temporal_mode", "overlap")
        if mode not in ("overlap", "within"):
            raise ValueError("'temporal_mode' must be 'overlap' or 'within'")
        if t0 is None:
            return None, mode
        return TimeInterval(t0, t1), mode


class ServiceServer:
    """A threaded HTTP server bound to one :class:`QueryService`.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`).
    Use :meth:`start` for a background thread (tests, ``--self-test``) or
    :meth:`serve_forever` to occupy the caller's thread (the CLI).
    """

    def __init__(
        self, service: QueryService, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._service = service
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the bound endpoint."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """Serve on a daemon background thread; returns self."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._serving = True
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop serving, close the socket, and drain the service pool.

        Safe to call on a server that was never started —
        ``BaseServer.shutdown`` would otherwise block forever waiting for
        a ``serve_forever`` loop that never ran."""
        if self._serving:
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._service.close()

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
