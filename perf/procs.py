"""Launching the real CLI as subprocesses, and reading them from outside.

Everything here treats the program as a black box: ``Popen`` of
``python -m repro ...``, HTTP probes, and ``/proc/<pid>`` accounting.
Each launched process leads its own session, so teardown can signal the
whole tree (``repro serve --backend processes`` forks shard workers).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import Inputs

__all__ = [
    "Stack", "StackError", "launch", "proc_tree", "cpu_snapshot", "cpu_between", "peak_rss_mib",
]

SRC = Path(__file__).resolve().parent.parent / "src"
HEALTH_TIMEOUT = 60.0
REQUEST_TIMEOUT = 30.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class StackError(RuntimeError):
    """A launched process died or never became healthy."""


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: Sequence[str], log: Path) -> float:
    """Run one ``python -m repro`` command to completion; returns its wall
    seconds, raises :class:`StackError` with its output on failure."""
    t0 = time.perf_counter()
    with log.open("wb") as out:
        code = subprocess.call(
            [sys.executable, "-m", "repro", *args], stdout=out, stderr=subprocess.STDOUT,
            env=child_env(),
        )
    if code != 0:
        output = log.read_text(errors="replace")
        raise StackError(f"repro {' '.join(args)} exited {code}:\n{output}")
    return time.perf_counter() - t0


class Stack:
    """One running deployment: ``repro serve`` plus any worker nodes."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.procs: List[subprocess.Popen] = []
        self.logs: List[Path] = []
        self.port = 0
        self.setup_s = 0.0
        self.index_build_s = 0.0

    def spawn(self, args: Sequence[str]) -> subprocess.Popen:
        log = self.workdir / f"proc{len(self.procs)}.log"
        with log.open("wb") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args], stdout=out, stderr=subprocess.STDOUT,
                env=child_env(), start_new_session=True,
            )
        self.procs.append(proc)
        self.logs.append(log)
        return proc

    def check_alive(self) -> None:
        for proc, log in zip(self.procs, self.logs):
            code = proc.poll()
            if code is not None:
                raise StackError(
                    f"{' '.join(map(str, proc.args))} exited {code} before it was healthy:\n"
                    + log.read_text(errors="replace")
                )

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise StackError(f"GET {path} -> {response.status}: {body[:200]!r}")
            return json.loads(body)
        finally:
            conn.close()

    def wait_healthy(self) -> None:
        """Poll ``/healthz`` until 200, watching the children's exit status
        so a dead server aborts with its output instead of a spin."""
        deadline = time.monotonic() + HEALTH_TIMEOUT
        while True:
            self.check_alive()
            try:
                self.get_json("/healthz")
                return
            except (OSError, http.client.HTTPException, StackError):
                if time.monotonic() > deadline:
                    raise StackError(f"no 200 from /healthz within {HEALTH_TIMEOUT:.0f}s") from None
                time.sleep(0.01)

    def pids(self) -> List[int]:
        """The launched processes and every descendant still alive."""
        return proc_tree([proc.pid for proc in self.procs])

    def stop(self) -> None:
        """Terminate every process tree and reap it (idempotent)."""
        for proc in self.procs:
            _signal_group(proc, signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
            # Workers orphaned by an abrupt frontend exit share its session.
            _signal_group(proc, signal.SIGKILL)
            proc.wait()
        self.procs = []


def _signal_group(proc: subprocess.Popen, signum: int) -> None:
    try:
        os.killpg(proc.pid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def launch(inputs: Inputs, workdir: Path) -> Stack:
    """Start the workload's deployment from nothing and wait for the first
    200 from ``/healthz``; ``Stack.setup_s`` is that wall time, including
    ``repro index build`` and worker nodes where the workload has them."""
    spec = inputs.spec
    stack = Stack(workdir)
    data = ["--network", str(inputs.network_path), "--trips", str(inputs.trips_path)]
    t0 = time.perf_counter()
    try:
        serve = ["serve", *data, "--function", spec.function, "--cache-size", str(spec.cache_size)]
        if spec.frozen_index:
            stack.index_build_s = run_cli(
                ["index", "build", *data, "--out", str(inputs.index_stem), "--shards",
                 str(spec.shards)],
                workdir / "index_build.log",
            )
            serve += ["--index", str(inputs.index_stem)]
        if spec.backend == "remote":
            nodes = [f"127.0.0.1:{free_port()}" for _ in range(spec.shards)]
            for node in nodes:
                stack.spawn(["worker", "--listen", node])
            # The frontend retries refused connections inside this budget,
            # so the nodes need no separate readiness probe.
            serve += ["--backend", "remote", "--shard-map", json.dumps(nodes),
                      "--connect-timeout", "30"]
        elif spec.backend == "processes":
            serve += ["--backend", "processes", "--shards", str(spec.shards)]
        stack.port = free_port()
        stack.spawn([*serve, "--port", str(stack.port)])
        stack.wait_healthy()
    except BaseException:
        stack.stop()
        raise
    stack.setup_s = time.perf_counter() - t0
    return stack


# -- /proc accounting ---------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces and parentheses; fields resume after the last ')'.
    return text[text.rindex(")") + 2 :].split()


def proc_tree(roots: Sequence[int]) -> List[int]:
    """``roots`` plus all their live descendants (by ppid)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], list(roots)
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def cpu_snapshot(pids: Sequence[int]) -> Dict[Tuple[int, int], float]:
    """On-CPU seconds of every live thread of ``pids``.

    Read from ``schedstat`` (nanoseconds the scheduler counted), because
    ``utime``/``stime`` are sampled at the 100 Hz tick: a server busy 6 %
    of a 12 s phase collects ~70 ticks, give or take 8.  A thread that
    exits takes its count with it, so callers read before the threads they
    care about end; where ``schedstat`` is missing the per-process
    ``utime + stime`` stands in."""
    out: Dict[Tuple[int, int], float] = {}
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                text = Path(f"/proc/{pid}/task/{tid}/schedstat").read_text()
                out[(pid, int(tid))] = int(text.split()[0]) / 1e9
            except (OSError, ValueError, IndexError):
                continue
        if not any(key[0] == pid for key in out):
            fields = _stat_fields(pid)
            if fields is not None:
                out[(pid, 0)] = (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return out


def cpu_between(before: Dict[Tuple[int, int], float], after: Dict[Tuple[int, int], float]) -> float:
    """CPU seconds spent between two snapshots by the threads alive at the
    second one (a thread born in between counts from zero)."""
    return sum(value - before.get(key, 0.0) for key, value in after.items())


def peak_rss_mib(pids: Sequence[int]) -> float:
    """Sum of ``VmHWM`` over ``pids``, MiB."""
    kib = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0
