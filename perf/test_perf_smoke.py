"""Smoke test of the serving benchmark (``perf/run.py --smoke``).

Runs the real harness — subprocess servers, worker nodes, the traced
pass and the correctness gate — on a 60-trip city with 12 operations per
workload, and checks the contract ``BENCHMARK.json`` publishes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path[:0] = [str(PERF), str(ROOT / "src")]

import workloads  # noqa: E402

pytestmark = pytest.mark.timeout(300)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXACT_COUNTS = (
    "lookup.candidates", "verify.visited_columns", "verify.computed_columns", "topk.rounds",
)


def run_smoke(tmp_path: Path, tag: str, *extra: str) -> subprocess.CompletedProcess:
    out = tmp_path / f"{tag}.json"
    return subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=280, cwd=ROOT,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perf_smoke")
    proc = run_smoke(tmp, "first")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc, json.loads((tmp / "first.json").read_text())


def test_every_published_metric_is_reported(smoke):
    proc, result = smoke
    assert set(result["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    assert set(result["meta"]) >= {"git_sha", "seed", "nproc", "cpu_model", "python", "numpy"}
    for name, record in result["workloads"].items():
        for spec in BENCH["end_to_end"] + BENCH["per_layer"]:
            assert NAME.fullmatch(spec["name"])
            cell = record["metrics"][spec["name"]]
            assert cell["unit"] == spec["unit"]
            assert isinstance(cell["value"], (int, float))
        for spec in BENCH["end_to_end"]:
            assert record["metrics"][spec["name"]]["value"] > 0
        assert record["metrics"]["fail_share"]["value"] == 0
        # Omitted, never 0, where nothing is inserted.
        assert ("insert_p50_ms" in record["metrics"]) == (name == "sharded_mixed")
        assert record["failed"] == 0 and record["attempted"] >= 12
        # Every query of the request list is compared with the engine-depth replay.
        assert record["compared_to_replay"] == record["queries"] >= 12
        assert record["compared_to_oracle"] > 0
        assert {s["name"] for s in record["spans"]} >= {"http", "service", "executor", "engine"}
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0


def test_counts_repeat_exactly(smoke, tmp_path):
    _, first = smoke
    proc = run_smoke(tmp_path, "second")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    second = json.loads((tmp_path / "second.json").read_text())
    for name in first["workloads"]:
        for metric in EXACT_COUNTS:
            a = first["workloads"][name]["metrics"][metric]["value"]
            b = second["workloads"][name]["metrics"][metric]["value"]
            assert a == b, (name, metric, a, b)


def test_wrong_answer_fails_the_run(tmp_path):
    proc = run_smoke(tmp_path, "wrong", "--workload", "range_cold", "--inject-wrong-answer")
    assert proc.returncode != 0
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is False and summary["failed"] == 1


def test_request_lists_come_from_the_seed(tmp_path):
    for name, spec in workloads.WORKLOADS.items():
        spec = workloads.smoke_variant(spec)
        lists = []
        for n, seed in enumerate((11, 11, 12)):
            workdir = tmp_path / f"{name}-{n}"
            workdir.mkdir()
            lists.append(workloads.generate(spec, seed, workdir).request_bytes())
        assert lists[0] == lists[1], name
        assert lists[0] != lists[2], name
