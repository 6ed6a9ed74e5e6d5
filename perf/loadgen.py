"""Closed-loop HTTP load: each client waits for a reply before its next
request, on one keep-alive connection, timing from its own clock.

Replies are kept as raw bytes and parsed after the timed phase, so the
client's own work between requests stays small and constant.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from procs import REQUEST_TIMEOUT
from workloads import Op

__all__ = ["Sample", "drive"]

_HEADERS = {"Content-Type": "application/json"}


@dataclass
class Sample:
    """One attempted operation as the client saw it."""

    op: Op
    start: float
    end: float
    status: int  #: HTTP status; 0 = timeout or transport error
    body: bytes
    error: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _one(conn: http.client.HTTPConnection, op: Op) -> Sample:
    start = time.perf_counter()
    try:
        conn.request("POST", op.url, body=op.body, headers=_HEADERS)
        response = conn.getresponse()
        body = response.read()
        return Sample(op, start, time.perf_counter(), response.status, body)
    except (OSError, http.client.HTTPException) as exc:
        # A timed-out or broken connection cannot be reused.
        conn.close()
        return Sample(op, start, time.perf_counter(), 0, b"", error=repr(exc))


def drive(
    port: int,
    ops: Sequence[Op],
    *,
    clients: int,
    before_close: Optional[Callable[[], None]] = None,
) -> List[Sample]:
    """Send every one of ``ops`` (request i on client i mod ``clients``);
    returns the samples in request order.  ``before_close`` runs after the
    last reply while the connections — and so the server's handler
    threads — are still alive."""
    results: List[List[Sample]] = [[] for _ in range(clients)]
    conns = [
        http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
        for _ in range(clients)
    ]

    def client(n: int) -> None:
        for op in ops[n::clients]:
            results[n].append(_one(conns[n], op))

    try:
        if clients == 1:
            client(0)
        else:
            threads = [threading.Thread(target=client, args=(n,)) for n in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if before_close is not None:
            before_close()
    finally:
        for conn in conns:
            conn.close()
    return sorted((s for per in results for s in per), key=lambda s: s.op.index)
