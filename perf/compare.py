"""``perf/run.py compare A B``: the A/B table for two result files.

Each side is a ``.json`` result (one run) or a ``.jsonl`` set of runs.
One row per (workload, ``BENCHMARK.json`` end-to-end metric): both
medians, how much worse B is than A as a share of A, the bound from
``BENCHMARK.json`` and a verdict:

- ``ok`` — B's median is not worse than A's by more than the bound;
- ``regressed`` — it is;
- ``unresolved`` — either side's own run-to-run spread (distance between
  the quartiles over the median) is wider than the bound, so this pair
  of files cannot tell; needs four runs a side to be computed.

Every bound comes from ``BENCHMARK.json``.  ``fail_share`` is not listed
there (it is the gate, always 0 on a run that passed) and gets a row with
no tolerance: any increase is a regression.  Exits non-zero when any row
regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: failures are gated, not bounded: any increase is a regression.
FAIL_SHARE = {"name": "fail_share", "unit": "ratio", "better": "lower", "bound": 0.0}


def load_runs(path: Path) -> List[dict]:
    text = path.read_text()
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return [json.loads(text)]


def metric_values(runs: Sequence[dict]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> one value per run that reported it``."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        for workload, record in run["workloads"].items():
            for metric, cell in record["metrics"].items():
                out.setdefault((workload, metric), []).append(cell["value"])
    return out


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance over the median; None under four runs."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def compare(a_runs: Sequence[dict], b_runs: Sequence[dict], metrics: Sequence[dict]) -> List[dict]:
    a_values, b_values = metric_values(a_runs), metric_values(b_runs)
    workloads = list(dict.fromkeys(w for w, _ in a_values))
    rows = []
    for workload in workloads:
        for spec in metrics:
            key = (workload, spec["name"])
            if key not in a_values or key not in b_values:
                continue
            a, b = statistics.median(a_values[key]), statistics.median(b_values[key])
            worse = (b - a) if spec["better"] == "lower" else (a - b)
            delta = worse / a if a else (0.0 if worse == 0 else float("inf"))
            spreads = [s for s in (spread(a_values[key]), spread(b_values[key])) if s is not None]
            widest = max(spreads) if spreads else None
            if spec["bound"] > 0 and widest is not None and widest > spec["bound"]:
                verdict = "unresolved"
            elif delta > spec["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": spec["name"], "unit": spec["unit"],
                "a": a, "b": b, "worse_by": delta, "bound": spec["bound"],
                "spread": widest, "verdict": verdict,
            })
    return rows


def render(rows: Sequence[dict]) -> str:
    header = ("workload", "metric", "A median", "B median", "worse by", "bound", "spread",
              "verdict")
    table = [header]
    for r in rows:
        table.append((
            r["workload"], f"{r['metric']} [{r['unit']}]", f"{r['a']:.4g}", f"{r['b']:.4g}",
            f"{r['worse_by']:+.1%}", f"{r['bound']:.0%}",
            "n/a" if r["spread"] is None else f"{r['spread']:.1%}", r["verdict"],
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: perf/run.py compare A.json|A.jsonl B.json|B.jsonl", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(
        load_runs(Path(argv[0])), load_runs(Path(argv[1])),
        [*bench["end_to_end"], FAIL_SHARE],
    )
    print(render(rows))
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, {len(unresolved)} unresolved")
    return 1 if regressed else 0
