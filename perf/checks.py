"""Correctness gate: HTTP answers against the engine-depth replay and a
brute-force Smith–Waterman oracle.

An answer is normalized to ``(tau-or-ties, [(trajectory, start, end,
distance), ...])`` whether it came from JSON or from a result object;
floats survive the JSON round trip exactly, so equality is bit equality.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Sequence, Tuple

from repro.core.filtering import tau_from_ratio
from repro.distance.smith_waterman import all_matches, best_match

from loadgen import Sample
from workloads import Op

__all__ = [
    "Answer", "answer_of_json", "answer_of_result", "check_samples", "oracle_check",
    "reference_ops", "reference_table",
]

Answer = Tuple[float, Tuple[Tuple[int, int, int, float], ...]]

#: trajectories outside the reported answer the oracle also scans, to
#: catch matches the program missed (a full scan costs seconds per query).
ORACLE_EXTRA_TRAJECTORIES = 60
ORACLE_SAMPLE = 5


def answer_of_result(op: Op, result) -> Answer:
    """Normalize a ``QueryResult`` / ``TopKResult``."""
    head = float(result.ties_at_k) if op.kind == "topk" else result.tau
    return head, tuple((m.trajectory_id, m.start, m.end, m.distance) for m in result.matches)


def answer_of_json(op: Op, body: bytes) -> Answer:
    """Normalize a ``POST /query`` reply; raises on a malformed one."""
    return answer_of_payload(op, json.loads(body))


def answer_of_payload(op: Op, payload: dict) -> Answer:
    if op.kind == "topk":
        rows = payload["results"]
        if [r["rank"] for r in rows] != list(range(1, len(rows) + 1)):
            raise ValueError("top-k ranks are not 1..n in order")
        head = float(payload["ties_at_k"])
    else:
        rows = payload["matches"]
        head = payload["tau"]
    return head, tuple((r["trajectory"], r["start"], r["end"], r["distance"]) for r in rows)


def cached_flags(ops: Sequence[Op], cache_size: int) -> List[bool]:
    """Which query ops a result cache larger than the working set serves
    from memory when ops arrive in order: repeats since the last insert."""
    seen: set = set()
    flags = []
    for op in ops:
        if op.kind == "insert":
            seen.clear()
            flags.append(False)
        else:
            flags.append(cache_size > 0 and op.key in seen)
            seen.add(op.key)
    return flags


def reference_ops(ops: Sequence[Op]) -> List[Op]:
    """What an engine-depth replay must run to have an answer for every
    query of ``ops``: each insert, and the first query of each key between
    two inserts (:func:`reference_table` extends those to the repeats)."""
    return [op for op, repeat in zip(ops, cached_flags(ops, cache_size=1)) if not repeat]


def reference_table(ops: Sequence[Op], answers: Dict[int, Answer]) -> Dict[int, Answer]:
    """Extend replayed answers (by op index) to every later op with the
    same key in the same insert epoch — those answers are equal by
    construction, so a repeat needs no second engine run."""
    table: Dict[int, Answer] = {}
    known: Dict[tuple, Answer] = {}
    for op in ops:
        if op.kind == "insert":
            known.clear()
            continue
        if op.index in answers:
            known[op.key] = answers[op.index]
        if op.key in known:
            table[op.index] = known[op.key]
    return table


def check_samples(
    samples: Sequence[Sample], reference: Dict[int, Answer]
) -> Tuple[int, Dict[int, str]]:
    """Returns ``(answers compared, failure description by op index)``.
    Any non-200, timeout, transport error or malformed reply is a failure,
    and so is a query of the request list whose answer differs from the
    reference or has none; warm-up requests (negative indexes) are not
    replayed and are checked for form only."""
    compared = 0
    failures: Dict[int, str] = {}
    for sample in samples:
        op = sample.op
        if sample.status != 200:
            failures[op.index] = f"op {op.index}: status {sample.status} {sample.error}"
            continue
        if op.kind == "insert":
            continue
        try:
            got = answer_of_json(op, sample.body)
        except (ValueError, KeyError, TypeError) as exc:
            failures[op.index] = f"op {op.index}: malformed reply ({exc!r})"
            continue
        want = reference.get(op.index)
        if want is None:
            if op.index >= 0:
                failures[op.index] = f"op {op.index}: no engine-depth answer to compare with"
            continue
        compared += 1
        if got != want:
            failures[op.index] = (
                f"op {op.index}: answer differs from the engine-depth replay "
                f"({len(got[1])} vs {len(want[1])} rows)"
            )
    return compared, failures


def oracle_check(
    samples: Sequence[Sample], ops: Sequence[Op], dataset, costs, seed: int
) -> Tuple[int, Dict[int, str]]:
    """Brute-force a seeded sample of distinct requests.

    ``dataset`` is the freshly loaded base data; inserts that preceded a
    sampled op are appended to a private copy of its symbol lists.  The
    scan covers every trajectory the reply names, every inserted one (the
    delta overlay is where a missed match would hide) and a random
    ``ORACLE_EXTRA_TRAJECTORIES`` others: on that subset a range answer
    must equal the per-start Smith–Waterman scan exactly, and a top-k
    answer must be the subset's best ``(trajectory, distance)`` ranking
    (start/end of an optimal alignment are not unique)."""
    rng = random.Random(seed)
    epoch_of, epoch = {}, 0
    for op in ops:
        epoch += op.kind == "insert"
        epoch_of[op.index] = epoch
    distinct: Dict[tuple, Sample] = {}
    for sample in samples:
        if sample.status == 200 and sample.op.kind != "insert":
            distinct.setdefault((sample.op.key, epoch_of[sample.op.index]), sample)
    chosen = rng.sample(list(distinct.values()), min(ORACLE_SAMPLE, len(distinct)))
    symbols = [dataset.symbols(tid) for tid in range(len(dataset))]
    inserts = [op for op in ops if op.kind == "insert"]
    failures: Dict[int, str] = {}
    for sample in chosen:
        op = sample.op
        visible = symbols + [ins.path for ins in inserts if ins.index < op.index]
        try:
            head, rows = answer_of_json(op, sample.body)
        except (ValueError, KeyError, TypeError):
            continue  # already counted by check_samples
        named = {row[0] for row in rows}
        if any(not 0 <= tid < len(visible) for tid in named):
            failures[op.index] = f"op {op.index}: reply names a trajectory that does not exist"
            continue
        must = named | set(range(len(symbols), len(visible)))
        others = [tid for tid in range(len(symbols)) if tid not in named]
        scan = sorted(must | set(rng.sample(others, min(ORACLE_EXTRA_TRAJECTORIES, len(others)))))
        if op.kind == "topk":
            ranked = []
            for tid in scan:
                s, t, d = best_match(visible[tid], op.path, costs)
                if t >= s:
                    ranked.append((d, tid))
            want = [(tid, d) for d, tid in sorted(ranked)[: len(rows)]]
            got = [(row[0], row[3]) for row in rows]
        else:
            tau = tau_from_ratio(op.path, costs, op.tau_ratio)
            want = sorted(
                (tid, s, t, d)
                for tid in scan
                for s, t, d in all_matches(visible[tid], op.path, costs, tau)
            )
            got = sorted(rows)
            if head != tau:
                failures[op.index] = f"op {op.index}: tau {head!r} != {tau!r}"
        if got != want:
            failures[op.index] = f"op {op.index}: answer differs from the Smith-Waterman oracle"
    return len(chosen), failures


def corrupt(sample: Sample) -> None:
    """Test hook: turn one reply into a wrong answer (drops a row, or
    invents one when the answer is empty)."""
    payload = json.loads(sample.body)
    rows = payload["results" if sample.op.kind == "topk" else "matches"]
    if rows:
        rows.pop()
    else:
        rows.append({"rank": 1, "trajectory": 0, "start": 0, "end": 0, "distance": 0.0})
    sample.body = json.dumps(payload).encode()


def first_checked(samples: Sequence[Sample], reference: Dict[int, Answer]) -> Sample:
    """The first reply the replay comparison covers (for :func:`corrupt`)."""
    return next(s for s in samples if s.status == 200 and s.op.index in reference)
