"""Length-prefixed framed sockets: the one parent↔worker transport.

:mod:`repro.core.workers` speaks a small protocol — pickled request
tuples, exactly one reply per request, out-of-band cancel frames — over
a byte stream that frames nothing for free.  Every worker link runs on
this module, whether the stream is a :func:`socket.socketpair` to a child
process (``backend="processes"``) or a TCP connection to a worker node
(``backend="remote"``):

- every message is one **frame**: a 4-byte big-endian unsigned length
  prefix followed by exactly that many payload bytes (the pickle);
- frames are bounded by an explicit ``max_frame`` (default 64 MiB): an
  oversized outgoing pickle fails *before* any byte hits the wire, and an
  oversized incoming length prefix fails *before* any payload is
  consumed — in both cases the stream stays byte-aligned
  (:class:`~repro.exceptions.FrameTooLargeError`), it is merely useless
  and must be re-established;
- partial reads are first-class: :class:`FrameDecoder` buffers arbitrary
  byte splits (a slow link delivering one byte at a time reassembles the
  identical frame sequence) and EOF inside a frame raises
  :class:`~repro.exceptions.FrameTruncatedError` instead of silently
  yielding garbage;
- :class:`FramedSocket` wraps a connected stream socket with ``send`` /
  ``recv`` / ``poll`` / ``close``.  Every failure is a
  :class:`~repro.exceptions.TransportError` (never a bare ``OSError``),
  so the pool treats a broken link exactly like a dead worker;
- deterministic network chaos hooks: the parent-side handle applies a
  :class:`~repro.faultinject.NetworkFaults` table around its sends
  (``slow_link_ms`` sleeps, ``short_write`` forces one-byte-sized
  ``sendall`` slices so the peer's reassembly is exercised for real,
  ``conn_drop`` tears the socket down after the request leaves,
  ``conn_hang`` turns the link half-open: bytes go nowhere and no reply
  ever arrives, which only a deadline can unmask).

Wire format (all integers big-endian)::

    +----------------+----------------------+
    | length: uint32 | payload bytes        |
    +----------------+----------------------+

The payload is a pickle (protocol :data:`pickle.HIGHEST_PROTOCOL`);
both ends of this transport are trusted repro processes — the shard map
is operator configuration.
"""

from __future__ import annotations

import pickle
import socket
import struct
from time import monotonic, sleep
from typing import Any, Iterator, List, Optional, Tuple

from repro.exceptions import (
    FrameTooLargeError,
    FrameTruncatedError,
    TransportError,
)

__all__ = [
    "DEFAULT_MAX_FRAME",
    "FrameDecoder",
    "FramedSocket",
    "connect",
    "encode_frame",
    "listen",
]

#: 4-byte unsigned big-endian length prefix.
_HEADER = struct.Struct("!I")
HEADER_BYTES = _HEADER.size

#: default per-frame byte bound — far above any query descriptor or
#: stripped QueryResult, far below a runaway pickle.
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

#: recv buffer size; also the granularity at which a read deadline is
#: rechecked on a slow link.
_RECV_CHUNK = 1 << 16


def encode_frame(payload: bytes, *, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """One wire frame for ``payload``: length prefix + payload bytes.

    Raises :class:`FrameTooLargeError` before producing anything when the
    payload exceeds ``max_frame`` — an oversized message must never be
    half-sent.
    """
    size = len(payload)
    if size > max_frame:
        raise FrameTooLargeError(
            f"outgoing frame of {size} bytes exceeds max_frame={max_frame}"
        )
    return _HEADER.pack(size) + payload


class FrameDecoder:
    """Incremental frame reassembly over arbitrary byte splits.

    Feed chunks in whatever sizes the socket delivers; completed payloads
    come back in order from :meth:`frames`.  The decoder validates each
    length prefix the moment its 4 bytes are complete — an oversized
    frame raises :class:`FrameTooLargeError` with zero payload bytes
    consumed, so the failure is attributable and the buffer inspectable.
    :meth:`eof` distinguishes a clean close (between frames) from a
    truncated one (mid-frame → :class:`FrameTruncatedError`).
    """

    def __init__(self, *, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        if max_frame < 0:
            raise ValueError("max_frame must be >= 0")
        self.max_frame = max_frame
        self._chunks: List[bytes] = []
        self._buffered = 0
        #: payload length of the frame being assembled, or None while the
        #: length prefix itself is still incomplete.
        self._need: Optional[int] = None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame (0 = clean boundary)."""
        return self._buffered

    def feed(self, data: bytes) -> None:
        """Buffer one received chunk (may be empty; empty is a no-op)."""
        if data:
            self._chunks.append(data)
            self._buffered += len(data)

    def _take(self, n: int) -> bytes:
        """Remove exactly ``n`` buffered bytes (caller checked they exist)."""
        out = bytearray()
        while len(out) < n:
            chunk = self._chunks[0]
            want = n - len(out)
            if len(chunk) <= want:
                out += chunk
                self._chunks.pop(0)
            else:
                out += chunk[:want]
                self._chunks[0] = chunk[want:]
        self._buffered -= n
        return bytes(out)

    def frames(self) -> Iterator[bytes]:
        """Yield every payload completed by the bytes fed so far."""
        while True:
            if self._need is None:
                if self._buffered < HEADER_BYTES:
                    return
                (size,) = _HEADER.unpack(self._take(HEADER_BYTES))
                if size > self.max_frame:
                    raise FrameTooLargeError(
                        f"incoming frame declares {size} bytes, "
                        f"exceeding max_frame={self.max_frame}"
                    )
                self._need = size
            if self._buffered < self._need:
                return
            need, self._need = self._need, None
            yield self._take(need)

    def eof(self) -> None:
        """Declare end-of-stream; raises :class:`FrameTruncatedError` if
        it lands inside a frame (buffered bytes or a pending length)."""
        if self._need is not None or self._buffered:
            expected = (
                f"{self._need} payload bytes"
                if self._need is not None
                else "a length prefix"
            )
            raise FrameTruncatedError(
                f"stream ended mid-frame: expected {expected}, "
                f"have {self._buffered} buffered byte(s)"
            )


class FramedSocket:
    """A connected stream socket (TCP, or one end of a socketpair)
    speaking length-prefixed pickled frames: ``send(obj)`` / ``recv()``
    / ``poll(timeout)`` / ``close()``, plus

    - ``recv(deadline=...)`` bounds a read by a relative budget
      (seconds); expiry raises :class:`TransportError`;
    - ``send(obj, chunk=n)`` slices the frame into ``n``-byte ``sendall``
      calls (the ``short_write`` fault: the peer must reassemble);
    - ``hang()`` / ``drop()`` — deterministic chaos: a hung socket
      swallows sends and never becomes readable, a dropped one is torn
      down mid-conversation.

    Not thread-safe for concurrent ``recv``; one ``send`` racing a
    blocked ``recv`` is fine (the cancel frame on the parent side, the
    reply on the worker side, whose reader thread owns ``recv``) — the
    socket is full-duplex.
    """

    def __init__(
        self, sock: socket.socket, *, max_frame: int = DEFAULT_MAX_FRAME
    ) -> None:
        self._sock: Optional[socket.socket] = sock
        self._decoder = FrameDecoder(max_frame=max_frame)
        self._ready: List[bytes] = []
        self._eof = False
        self._hung = False
        self.max_frame = max_frame
        try:
            # Request/reply over small frames: never wait on Nagle.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not TCP: the unix socketpair of a child-process link

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._sock is None

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def drop(self) -> None:
        """Abruptly tear the connection down (the ``conn_drop`` fault):
        the peer sees an immediate EOF/reset, not an orderly shutdown."""
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self.close()

    def hang(self) -> None:
        """Turn the link half-open (the ``conn_hang`` fault): subsequent
        sends are swallowed and no frame ever becomes readable, exactly
        like a peer that silently stopped ACKing.  Only a deadline (or
        ``close``) gets a caller out."""
        self._hung = True

    @property
    def hung(self) -> bool:
        return self._hung

    # -- send ---------------------------------------------------------------

    def send(self, obj: Any, *, chunk: Optional[int] = None) -> None:
        """Pickle ``obj`` and send it as one frame.

        ``chunk`` forces the frame onto the wire in slices of that many
        bytes (fault injection's ``short_write``); the frame content is
        unchanged — only the peer's reassembly is exercised.
        """
        if self._hung:
            return  # half-open: bytes vanish, no error — that's the point
        sock = self._sock  # one read: close() may race us from another thread
        if sock is None:
            raise TransportError("socket is closed")
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        frame = encode_frame(payload, max_frame=self.max_frame)
        try:
            if chunk is None or chunk >= len(frame):
                sock.sendall(frame)
            else:
                step = max(1, int(chunk))
                for start in range(0, len(frame), step):
                    sock.sendall(frame[start : start + step])
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    # -- receive ------------------------------------------------------------

    def _pump(self, timeout: Optional[float]) -> bool:
        """Read once from the socket (bounded by ``timeout``) into the
        decoder.  Returns True if at least one complete frame is ready.
        Raises on EOF mid-frame, oversized frames, and OS errors."""
        if self._ready:
            return True
        if self._eof or self._hung:
            return False
        sock = self._sock  # one read: close() may race us from another thread
        if sock is None:
            raise TransportError("socket is closed")
        try:
            sock.settimeout(timeout)
            data = sock.recv(_RECV_CHUNK)
        except socket.timeout:
            return False
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from exc
        if not data:
            self._eof = True
            self._decoder.eof()  # mid-frame EOF raises FrameTruncatedError
            raise TransportError("connection closed by peer")
        self._decoder.feed(data)
        self._ready.extend(self._decoder.frames())
        return bool(self._ready)

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether a complete frame is available within ``timeout``."""
        if self._ready:
            return True
        if self._hung:
            # A half-open link never becomes readable; honor the wait so
            # deadline-driven callers don't busy-spin.
            if timeout > 0:
                sleep(timeout)
            return False
        return self._pump(max(0.0, timeout))

    def recv(self, *, deadline: Optional[float] = None) -> Any:
        """The next frame's unpickled object.

        ``deadline`` is a *relative* budget in seconds (None = wait
        forever); expiry raises :class:`TransportError` so a vanished or
        hung peer costs at most the caller's own remaining budget.
        """
        expires = None if deadline is None else monotonic() + max(0.0, deadline)
        while not self._ready:
            if expires is None:
                if self._hung:
                    raise TransportError("connection is hung with no deadline")
                self._pump(None)
                continue
            step = expires - monotonic()
            if step <= 0:
                raise TransportError(
                    f"no reply within the {deadline:.3f}s call deadline"
                )
            self.poll(step)  # a hung link sleeps the wait out: no busy-spin
        return pickle.loads(self._ready.pop(0))


def listen(host: str, port: int, *, backlog: int = 8) -> socket.socket:
    """A bound, listening TCP socket (``SO_REUSEADDR`` so a restarted
    node can rebind its address immediately)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(backlog)
    except OSError:
        sock.close()
        raise
    return sock


def connect(
    host: str,
    port: int,
    *,
    timeout: Optional[float] = 5.0,
    max_frame: int = DEFAULT_MAX_FRAME,
) -> FramedSocket:
    """Connect to a worker node and wrap the socket for framing.

    Raises :class:`TransportError` (never a bare ``OSError``) so callers
    treat an unreachable node exactly like a dead worker."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    return FramedSocket(sock, max_frame=max_frame)


def parse_hostport(spec: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (the shard-map / ``--listen`` address form)."""
    host, sep, port_text = str(spec).rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {spec!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(f"bad port in {spec!r}: {port_text!r}") from exc
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in {spec!r}")
    return host, port
