"""Deterministic fault injection for the out-of-process serving backends.

Chaos testing a multiprocess system with ``kill -9`` from the outside is
racy: whether the victim dies before, during, or after a request depends
on scheduler timing, so a failing run cannot be replayed.  This module
moves the faults *inside* the system, keyed to request ordinals, so a
fault schedule is a value — serializable, seedable, and bit-identically
replayable:

- a :class:`FaultPlan` is a list of :class:`FaultRule` directives
  ("kill shard 1's worker before it answers its 2nd query", "fail shard
  0's next 3 respawns", "delay shard 2's 5th reply by 50 ms");
- worker-side rules ship to each worker (``Process`` arguments for a
  child, the ``hello`` frame for a node) as a picklable
  :class:`WorkerFaults` table; the worker consults it around every
  request it serves.  Request ordinals are **global per shard across
  respawns** — the pool tells each (re)spawned worker how many requests
  its shard has already been sent — so "kill before request 2" fires
  exactly once no matter how many times the worker is reborn;
- parent-side rules (``fail_respawn``) are consumed by the supervised
  shard in :mod:`repro.core.workers` when a dead worker is brought back;
- network rules go to the parent-side worker handle as a
  :class:`NetworkFaults` table, consulted at its single send choke
  point — ordinals count sends per shard across reopens, so a dropped
  link's retry lands on the next ordinal exactly like a killed worker's
  does;
- the plan's ``seed`` drives the optional randomized schedule builders
  (:meth:`FaultPlan.kill_loop`) so a "kill a random shard every K
  queries" chaos run is reproducible from one integer.

Entry points: ``PartitionedSubtrajectorySearch(..., backend="processes",
fault_plan=plan)``, ``repro serve --fault-plan plan.json``, and the
chaos suite / ``benchmarks/bench_fault_recovery.py``.

Fault operations (``FaultRule.op``):

=============== ========== =====================================================
op              side       effect
=============== ========== =====================================================
``kill_before`` worker     ``os._exit`` before processing the matched request
``kill_after``  worker     process + reply, then ``os._exit`` (next request
                           finds a dead worker)
``delay_reply`` worker     sleep ``seconds`` before sending the matched reply
``drop_pipe``   worker     close the link and exit without replying
``wedge_stop``  worker     ignore SIGTERM and "stop" requests (only SIGKILL
                           works — exercises the stop() escalation chain)
``fail_respawn``parent     make the supervisor's next ``count`` respawn
                           attempts of the shard fail
``conn_drop``   network    tear the shard's link down right after the
                           matched request is sent (reply lost in flight)
``conn_hang``   network    half-open link: the matched request is silently
                           swallowed and no reply ever arrives — only the
                           per-call deadline unmasks it
``slow_link_ms``network    sleep ``ms`` milliseconds before sending the
                           matched request (injected network latency)
``short_write`` network    send the matched request one byte at a time,
                           exercising the peer's partial-read reassembly
=============== ========== =====================================================

Every op applies to both backends: a child process and a node sit behind
the same framed link, handle and serve loop.  On ``remote`` the worker
table runs inside the node, so an injected ``kill_before`` takes the
whole node process down.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import asdict, dataclass, field
from random import Random
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "FaultRule",
    "FaultPlan",
    "NetworkFaults",
    "WorkerFaults",
    "load_fault_plan",
]

#: exit status used by injected kills — distinguishable from a real crash
#: in worker exitcode assertions.
FAULT_EXIT_CODE = 70

_WORKER_OPS = ("kill_before", "kill_after", "delay_reply", "drop_pipe", "wedge_stop")
_PARENT_OPS = ("fail_respawn",)
_NETWORK_OPS = ("conn_drop", "conn_hang", "slow_link_ms", "short_write")


@dataclass(frozen=True)
class FaultRule:
    """One fault directive.

    ``shard`` targets one shard's worker.  ``request`` is the 1-based
    ordinal of the matched request *of kind* ``on`` ("query" or "add"),
    counted per shard across respawns (worker ops count requests the
    worker received; network ops count requests the client sent);
    ``request=0`` matches every request (a shard held permanently down).
    ``count``/``seconds``/``ms`` parameterize
    ``fail_respawn``/``delay_reply``/``slow_link_ms``.
    """

    shard: int
    op: str
    request: int = 0
    on: str = "query"
    count: int = 1
    seconds: float = 0.0
    ms: float = 0.0

    def __post_init__(self) -> None:
        ops = _WORKER_OPS + _PARENT_OPS + _NETWORK_OPS
        if self.op not in ops:
            raise ValueError(
                f"unknown fault op {self.op!r} (expected one of {ops})"
            )
        if self.on not in ("query", "add"):
            raise ValueError(f"fault rule 'on' must be 'query' or 'add', got {self.on!r}")
        if (
            self.shard < 0
            or self.request < 0
            or self.count < 1
            or self.seconds < 0
            or self.ms < 0
        ):
            raise ValueError(f"malformed fault rule {self!r}")


class WorkerFaults:
    """The worker-side slice of a plan for one shard (picklable).

    The worker calls :meth:`before` as each request arrives and
    :meth:`after` once the reply is sent; both take the request's global
    ordinal (offset + local count, maintained by the worker loop).
    """

    def __init__(self, rules: Sequence[FaultRule]) -> None:
        self._rules = tuple(rules)

    def __bool__(self) -> bool:
        return bool(self._rules)

    @property
    def wedge_stop(self) -> bool:
        """Whether this worker should ignore SIGTERM / "stop" requests."""
        return any(r.op == "wedge_stop" for r in self._rules)

    def _matching(self, kind: str, ordinal: int) -> Iterable[FaultRule]:
        for rule in self._rules:
            if rule.on == kind and rule.request in (0, ordinal):
                yield rule

    def install(self) -> None:
        """Process-level setup at worker start (signal disposition)."""
        if self.wedge_stop:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)

    def before(self, kind: str, ordinal: int) -> None:
        """Apply pre-processing faults for request ``ordinal``; may not
        return (injected kills exit the process)."""
        for rule in self._matching(kind, ordinal):
            if rule.op == "kill_before":
                os._exit(FAULT_EXIT_CODE)

    def delay(self, kind: str, ordinal: int) -> None:
        """Sleep any injected reply delay for request ``ordinal``."""
        for rule in self._matching(kind, ordinal):
            if rule.op == "delay_reply" and rule.seconds > 0:
                time.sleep(rule.seconds)

    def drop_pipe(self, kind: str, ordinal: int) -> bool:
        """Whether to vanish without replying to request ``ordinal``."""
        return any(
            rule.op == "drop_pipe" for rule in self._matching(kind, ordinal)
        )

    def after(self, kind: str, ordinal: int) -> None:
        """Apply post-reply faults for request ``ordinal``."""
        for rule in self._matching(kind, ordinal):
            if rule.op == "kill_after":
                os._exit(FAULT_EXIT_CODE)


class NetworkFaults:
    """The parent-side network-fault slice of a plan for one shard.

    Consulted by the shard's worker handle around every request *send*;
    ordinals are the shard's per-kind send counts across reopens (the
    handle's own bookkeeping), so a schedule replays bit-identically no
    matter how often the link is re-established.
    """

    def __init__(self, rules: Sequence[FaultRule]) -> None:
        self._rules = tuple(rules)

    def __bool__(self) -> bool:
        return bool(self._rules)

    def _matching(self, kind: str, ordinal: int) -> Iterable[FaultRule]:
        for rule in self._rules:
            if rule.on == kind and rule.request in (0, ordinal):
                yield rule

    def latency(self, kind: str, ordinal: int) -> float:
        """Injected link latency (seconds) before sending ``ordinal``."""
        return sum(
            rule.ms / 1000.0
            for rule in self._matching(kind, ordinal)
            if rule.op == "slow_link_ms"
        )

    def short_write(self, kind: str, ordinal: int) -> Optional[int]:
        """Chunk size to fragment the send into (None = whole frame)."""
        for rule in self._matching(kind, ordinal):
            if rule.op == "short_write":
                return 1
        return None

    def hang(self, kind: str, ordinal: int) -> bool:
        """Whether the link goes half-open instead of sending ``ordinal``."""
        return any(
            rule.op == "conn_hang" for rule in self._matching(kind, ordinal)
        )

    def drop_after(self, kind: str, ordinal: int) -> bool:
        """Whether to tear the socket down right after sending ``ordinal``
        (the reply is lost in flight)."""
        return any(
            rule.op == "conn_drop" for rule in self._matching(kind, ordinal)
        )


@dataclass
class FaultPlan:
    """A reproducible fault schedule for one engine's worker pool.

    Immutable by convention once handed to an engine (the parent-side
    ``fail_respawn`` budget is tracked on the supervised shard, not here), so
    one plan value can configure several runs identically.
    """

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 0

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        rules = [FaultRule(**dict(rule)) for rule in payload.get("rules", [])]
        return cls(rules=rules, seed=int(payload.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("fault plan JSON must be an object")
        return cls.from_dict(payload)

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "rules": [asdict(rule) for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def kill_loop(
        cls,
        *,
        seed: int,
        num_shards: int,
        kills: int,
        every: int = 3,
        after: bool = False,
    ) -> "FaultPlan":
        """A seeded kill-loop schedule: ``kills`` worker deaths spread over
        random shards, one roughly every ``every`` queries per victim.

        The schedule is a pure function of the arguments — the
        availability benchmark and the chaos CI step replay it exactly.
        Consecutive kills on one shard are spaced at least two ordinals
        apart: the retry of a killed query consumes the next ordinal, so
        a one-ordinal gap would murder the retry as well and the query
        would be lost even with recovery working perfectly (a shard that
        *stays* down is the held-down-shard scenario, not a kill loop).
        """
        if num_shards < 1 or kills < 0 or every < 1:
            raise ValueError("kill_loop needs num_shards>=1, kills>=0, every>=1")
        rng = Random(seed)
        rules: List[FaultRule] = []
        # Per-shard request ordinals advance by one per fan-out query, so
        # scheduling on a shard's ordinal schedules on global query count.
        next_ordinal = [1] * num_shards
        for _ in range(kills):
            shard = rng.randrange(num_shards)
            step = rng.randrange(1, every + 1) + 1
            ordinal = next_ordinal[shard] + step
            rules.append(
                FaultRule(
                    shard=shard,
                    op="kill_after" if after else "kill_before",
                    request=ordinal,
                )
            )
            next_ordinal[shard] = ordinal
        return cls(rules=rules, seed=seed)

    @classmethod
    def network_chaos(
        cls,
        *,
        seed: int,
        num_shards: int,
        drops: int = 0,
        hangs: int = 0,
        slow: int = 0,
        slow_ms: float = 20.0,
        short_writes: int = 0,
        kills: int = 0,
        every: int = 3,
    ) -> "FaultPlan":
        """A seeded mixed network+worker chaos schedule: ``drops`` link
        drops, ``hangs`` half-open links, ``slow`` injected-latency
        requests, ``short_writes`` fragmented sends, and ``kills`` worker
        deaths, spread over random shards one roughly every ``every``
        queries per victim.

        Like :meth:`kill_loop`, the schedule is a pure function of the
        arguments.  Disruptive ops (drops, hangs, kills — anything whose
        retry consumes the next ordinal) are spaced at least two ordinals
        apart per shard so a retry is never disrupted by the same rule
        family it is recovering from; benign ops (latency, short writes)
        share ordinals freely.
        """
        if num_shards < 1 or every < 1 or min(
            drops, hangs, slow, short_writes, kills
        ) < 0:
            raise ValueError(
                "network_chaos needs num_shards>=1, every>=1, counts>=0"
            )
        rng = Random(seed)
        rules: List[FaultRule] = []
        next_ordinal = [1] * num_shards
        disruptive = (
            [("conn_drop", {})] * drops
            + [("conn_hang", {})] * hangs
            + [("kill_before", {})] * kills
        )
        rng.shuffle(disruptive)
        for op, extra in disruptive:
            shard = rng.randrange(num_shards)
            step = rng.randrange(1, every + 1) + 1
            ordinal = next_ordinal[shard] + step
            rules.append(FaultRule(shard=shard, op=op, request=ordinal, **extra))
            next_ordinal[shard] = ordinal
        for op, extra, count in (
            ("slow_link_ms", {"ms": slow_ms}, slow),
            ("short_write", {}, short_writes),
        ):
            for _ in range(count):
                shard = rng.randrange(num_shards)
                ordinal = rng.randrange(1, max(2, next_ordinal[shard] + every))
                rules.append(
                    FaultRule(shard=shard, op=op, request=ordinal, **extra)
                )
        return cls(rules=rules, seed=seed)

    # -- slicing ---------------------------------------------------------

    def worker_faults(self, shard: int) -> Optional[WorkerFaults]:
        """The picklable worker-side rule table for ``shard`` (or None)."""
        mine = [
            rule
            for rule in self.rules
            if rule.shard == shard and rule.op in _WORKER_OPS
        ]
        return WorkerFaults(mine) if mine else None

    def network_faults(self, shard: int) -> Optional["NetworkFaults"]:
        """The parent-side network rule table for ``shard`` (or None)."""
        mine = [
            rule
            for rule in self.rules
            if rule.shard == shard and rule.op in _NETWORK_OPS
        ]
        return NetworkFaults(mine) if mine else None

    def respawn_failures(self, shard: int) -> int:
        """How many consecutive supervisor respawns of ``shard`` should be
        made to fail (parent side; the supervisor decrements its copy)."""
        return sum(
            rule.count
            for rule in self.rules
            if rule.shard == shard and rule.op == "fail_respawn"
        )

    def kill_ordinals(self, shard: int) -> Tuple[int, ...]:
        """The query ordinals at which ``shard``'s worker dies (benchmark
        bookkeeping: expected kills for recovery accounting)."""
        return tuple(
            rule.request
            for rule in self.rules
            if rule.shard == shard
            and rule.on == "query"
            and rule.op in ("kill_before", "kill_after", "drop_pipe")
        )

    def disruption_ordinals(self, shard: int) -> Tuple[int, ...]:
        """Query ordinals at which ``shard``'s in-flight query is lost
        and must be retried: worker kills plus the network ops that lose
        a request or its reply (dropped or half-open connections)."""
        return self.kill_ordinals(shard) + tuple(
            rule.request
            for rule in self.rules
            if rule.shard == shard
            and rule.on == "query"
            and rule.op in ("conn_drop", "conn_hang")
        )


def load_fault_plan(spec: Optional[str]) -> Optional[FaultPlan]:
    """Parse a CLI ``--fault-plan`` value: a path to a JSON file, or an
    inline JSON object (detected by a leading ``{``)."""
    if spec is None:
        return None
    text = spec.strip()
    if not text.startswith("{"):
        with open(spec, "r", encoding="utf-8") as handle:
            text = handle.read()
    return FaultPlan.from_json(text)
