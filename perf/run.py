#!/usr/bin/env python3
"""The serving benchmark: four named workloads through the real
``repro serve``, end-to-end metrics from the client's side, a per-layer
breakdown from an in-process traced pass, and a correctness gate.

    python3 perf/run.py --workload zipf_hot --seed 7 --trace 0
    python3 perf/run.py --out result.json          # every workload, both passes
    python3 perf/run.py --smoke                    # seconds, tiny data
    python3 perf/run.py compare A.json B.json

See ``perf/README.md`` for what each workload and metric means.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``BENCHMARK.json``
end-to-end metrics, or with ``--trace 1`` its per-layer metrics; empty
when more than one workload ran).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perf_work"
DEFAULT_SEED = 20260927
SETUP_LAUNCHES = 5
SCHEMA = 1


def _import_repro() -> None:
    """Put the checkout's ``src`` first on the path; a directory without
    the program cannot be benchmarked."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"perf/run.py: no program to measure ({src / 'repro'} is missing)")
    sys.path.insert(0, str(src))


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def serve_and_drive(inputs, workdir: Path, launches: int) -> dict:
    """Launch the real deployment ``launches`` times, drive the last one,
    scrape it and tear it down; returns everything seen from outside."""
    import procs
    from loadgen import drive

    spec = inputs.spec
    setups: List[float] = []
    stack = None
    try:
        for _ in range(launches):
            if stack is not None:
                stack.stop()
            stack = procs.launch(inputs, workdir)
            setups.append(stack.setup_s)
        warm = drive(stack.port, inputs.warmup, clients=1)
        pids = stack.pids()
        cpu_marks = [procs.cpu_snapshot(pids)]
        samples = drive(
            stack.port, inputs.ops, clients=spec.clients,
            before_close=lambda: cpu_marks.append(procs.cpu_snapshot(pids)),
        )
        return {
            "setups": setups,
            "warm": warm,
            "samples": samples,
            "cpu_seconds": procs.cpu_between(*cpu_marks),
            "rss_mib": procs.peak_rss_mib(pids),
            "stats": stack.get_json("/stats"),
            "healthz": stack.get_json("/healthz"),
            "index_build_s": stack.index_build_s,
        }
    finally:
        if stack is not None:
            stack.stop()


def run_workload(
    spec,
    seed: int,
    scale: float,
    *,
    traced: bool,
    launches: int,
    keep_spans: bool = False,
    inject_wrong_answer: bool = False,
) -> dict:
    """One workload, start to finish; returns its result record."""
    import checks
    import layers
    import workloads
    from repro.service.metrics import percentile

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=WORK_ROOT))
    phases: Dict[str, float] = {}
    clock = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    try:
        # The length of a run is a request count, never a deadline: both
        # sides of an A/B send the same requests and end on the same index.
        passes = max(1, round(spec.passes * scale))
        inputs = workloads.generate(spec, seed, workdir, passes)
        lap("generate_s")
        served = serve_and_drive(inputs, workdir, launches)
        warm, samples = served["warm"], served["samples"]
        lap("serve_s")
        traced_pass = layers.run_traced_pass(
            inputs, workdir, depths=layers.DEPTHS if traced else ("engine",)
        )
        lap("replay_s")

        reference = checks.reference_table(inputs.ops, traced_pass.answers)
        if inject_wrong_answer:
            checks.corrupt(checks.first_checked(samples, reference))
        compared, failures = checks.check_samples(warm + samples, reference)
        graph, dataset = workloads.load_dataset(inputs)
        oracle_checked, oracle_failures = checks.oracle_check(
            samples, inputs.ops, dataset, workloads.cost_model(spec, graph), seed
        )
        failures.update(oracle_failures)
        lap("check_s")

        wall = max(s.end for s in samples) - min(s.start for s in samples)
        # A failed request counts as the slowest sample, not as a fast one.
        slowest = max(s.seconds for s in samples)

        def ms(sample) -> float:
            return (slowest if sample.op.index in failures else sample.seconds) * 1e3

        def latency_ms(group, *, inserts: bool = False) -> List[float]:
            return [ms(s) for s in group if (s.op.kind == "insert") == inserts]

        # One latency per place in a pass: the fastest of the passes' requests
        # there.  Every pass sends the same requests in the same order, and a
        # shared host slows down for seconds to minutes at a time: the slow
        # moments rarely cover the same place in every pass.
        per_pass = len(samples) // passes
        best = [min(map(ms, samples[i::per_pass])) for i in range(per_pass)]
        best_queries = [t for t, s in zip(best, samples) if s.op.kind != "insert"]

        attempted = len(warm) + len(samples)
        queries = latency_ms(samples)
        metrics = {
            "setup_s": (min(served["setups"]), "s"),
            "p50_ms": (percentile(best_queries, 0.50), "ms"),
            "p95_ms": (percentile(queries, 0.95), "ms"),
            # A closed loop without think time completes clients / mean latency.
            "qps": (spec.clients * 1e3 / statistics.fmean(best), "1/s"),
            "cpu_ms_per_op": (served["cpu_seconds"] * 1e3 / len(samples), "ms"),
            "rss_mb": (served["rss_mib"], "MiB"),
            "fail_share": (len(failures) / attempted, "ratio"),
        }
        insert_latencies = latency_ms(samples, inserts=True)
        if insert_latencies:  # omitted, never 0, where the workload has no inserts
            metrics["insert_p50_ms"] = (percentile(insert_latencies, 0.50), "ms")
        record = {
            "workload": spec.name,
            "seed": seed,
            "passes": passes,
            "clients": spec.clients,
            "attempted": attempted,
            "failed": len(failures),
            "compared_to_replay": compared,
            "compared_to_oracle": oracle_checked,
            "failures": [failures[i] for i in sorted(failures)][:10],
            "operations": len(samples),
            "queries": len(queries),
            "timed_wall_s": wall,
            "setup_samples_s": served["setups"],
            "query_latencies_ms": queries,
        }
        if traced:
            metrics.update(
                layers.per_layer_metrics(
                    traced_pass, inputs, stats=served["stats"], healthz=served["healthz"],
                    # /stats holds every query the server answered, warm-up included.
                    served_p50_ms=percentile(latency_ms(warm + samples), 0.50),
                    served_first_p50_ms=percentile(
                        latency_ms(s for s in samples if s.op.index < spec.trace_ops), 0.50
                    ),
                    index_build_s=served["index_build_s"],
                )
            )
            record["accounting"] = layers.accounting(traced_pass)
            if keep_spans:
                record["spans"] = traced_pass.spans()
        record["metrics"] = {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        }
        lap("derive_s")
        record["phases"] = phases
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no concurrent run is using it
        except OSError:
            pass


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def machine_meta(seed: int, seconds: float) -> dict:
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "schema": SCHEMA,
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_result(path: Path, result: dict) -> None:
    """``.jsonl`` appends one line (a ledger / a set of runs); anything
    else is overwritten with one indented document."""
    if path.suffix == ".jsonl":
        for record in result["workloads"].values():
            record.pop("spans", None)
        with path.open("a", encoding="utf-8") as out:
            out.write(json.dumps(result, sort_keys=True) + "\n")
    else:
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:])

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="orders the requests (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal length of the timed phase: the passes through the deck "
                        "are scaled by SECONDS / BENCHMARK.json's run_seconds; it is a "
                        "request count, never a deadline (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only (5 launches); 1: per-layer only (1 launch); "
                        "default: both")
    parser.add_argument("--out", type=Path, default=None, help="result file (.json or .jsonl)")
    parser.add_argument("--smoke", action="store_true",
                        help="60 trips, a 12-query deck per workload, one launch")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="self-test of the correctness gate: corrupt one reply")
    args = parser.parse_args(argv)

    _import_repro()
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(workloads.WORKLOADS)}")
    bench = benchmark_spec()
    seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    scale = seconds / bench["run_seconds"]
    launches = 1 if args.smoke or args.trace == 1 else SETUP_LAUNCHES
    traced = args.trace != 0

    result = {"meta": machine_meta(args.seed, seconds), "workloads": {}}
    for name in names:
        spec = workloads.WORKLOADS[name]
        if args.smoke:
            spec = workloads.smoke_variant(spec)
        record = run_workload(
            spec, args.seed, scale, traced=traced, launches=launches,
            keep_spans=args.out is not None, inject_wrong_answer=args.inject_wrong_answer,
        )
        result["workloads"][name] = record
        for metric, cell in record["metrics"].items():
            print(f"{name} {metric} {cell['value']!r} {cell['unit']}")
        for line in record["failures"]:
            print(f"{name} FAILED {line}", file=sys.stderr)
    if args.out is not None:
        write_result(args.out, result)

    records = list(result["workloads"].values())
    metrics = {}
    if len(records) == 1:
        wanted = bench["per_layer" if args.trace == 1 else "end_to_end"]
        metrics = {m["name"]: records[0]["metrics"][m["name"]] for m in wanted}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
