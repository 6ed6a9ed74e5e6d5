"""Cooperative cancellation for long-running queries.

Verification dominates query cost (§6) and, once started, used to run to
completion even after its caller stopped waiting — a deadline miss in the
serving layer abandoned the future but the shard task kept burning CPU.
:class:`CancelToken` closes that gap cooperatively: the execution layer
creates one token per query, hot loops (the candidate loop of
:meth:`~repro.core.verification.Verifier.verify_all`, the scan fallback,
the Smith–Waterman oracle) poll it between units of work, and the first
poll after expiry/cancellation raises
:class:`~repro.exceptions.QueryCancelledError`.

A token combines two triggers:

- a *deadline*: ``budget`` seconds from creation on the monotonic clock
  (polled, so no timers or signals are involved);
- an explicit :meth:`cancel` call (e.g. the executor noticed the client
  gave up, or a sibling shard already failed the query).

Tokens are duck-typed at the check sites — anything with a ``cancelled()
-> bool`` method works.  The cross-process backend
(:mod:`repro.core.workers`) exploits this: it rebuilds a worker-side
token from the remaining budget plus the link's cancel watermark, so the
same engine code cancels identically on both sides of a process
boundary.
"""

from __future__ import annotations

import threading
from time import monotonic
from typing import Optional

from repro.exceptions import QueryCancelledError

__all__ = ["CancelToken", "raise_if_cancelled"]


class CancelToken:
    """A poll-based cancellation token with an optional deadline.

    ``budget`` is the deadline in seconds from now (``None`` = no
    deadline).  Thread-safe: any thread may :meth:`cancel`; any number of
    threads may poll :meth:`cancelled`.
    """

    __slots__ = ("_event", "_expires")

    def __init__(self, budget: Optional[float] = None) -> None:
        if budget is not None and budget <= 0:
            raise ValueError("budget must be positive")
        self._event = threading.Event()
        self._expires = None if budget is None else monotonic() + budget

    @property
    def expires(self) -> Optional[float]:
        """Monotonic-clock expiry, or ``None`` for no deadline."""
        return self._expires

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (possibly negative), or ``None``."""
        return None if self._expires is None else self._expires - monotonic()

    def cancel(self) -> None:
        """Trip the token explicitly (idempotent)."""
        self._event.set()

    def cancelled(self) -> bool:
        """True once cancelled or past the deadline.  Never un-trips."""
        if self._event.is_set():
            return True
        if self._expires is not None and monotonic() >= self._expires:
            self._event.set()  # latch, so later polls skip the clock read
            return True
        return False


def raise_if_cancelled(cancel, where: str = "query") -> None:
    """Raise :class:`QueryCancelledError` if ``cancel`` (a token or
    ``None``) has tripped.  The common guard at stage boundaries."""
    if cancel is not None and cancel.cancelled():
        raise QueryCancelledError(f"{where} cancelled (deadline expired or caller gone)")
