"""The DP kernel under the verifier's walker: native C, or Python.

:class:`~repro.core.verification.Verifier` follows a direction trie's
cached edges to a candidate's first miss and hands the uncached suffix to
a kernel: ``kernel.suffix(matrix, slot, symbols, slots, limit)`` computes
the DP columns of ``symbols`` from the parent column ``matrix[slot]``,
stops after the first column whose minimum is ``>= limit``, and returns
how many it computed; :meth:`columns`, :meth:`mins` and :meth:`lasts`
read them.  Substitution costs come from the query's one row matrix
(:class:`~repro.core.trie.TrieCacheEntry`), read per direction from an
offset with a step; ``slots`` are the symbols' rows in it, every one
computed by the walker before the call, so a kernel is a function of its
arrays and one suffix is one call.

Two kernels answer that call with the same floats:

- :class:`NativeKernel` runs ``_wedkernel.c``'s one function,
  ``wed_suffix``.  The call's inputs live in one ``_Job`` structure whose
  per-direction fields are set once and whose buffers are reallocated
  only to grow, so a call passes one pointer and allocates nothing.
- :class:`PythonKernel` runs :func:`~repro.distance.wed.wed_step_min`,
  the reference that the Smith–Waterman oracle, ``wed``, ``best_match``
  and ``align`` also call.  It is the fallback when the native kernel
  cannot be built.

Both evaluate the recurrence of :mod:`repro.distance.wed` in its one
order, so every column, counter and answer is bit-identical whichever
runs.

Build.  The C file is compiled on first use — the first verification in
a process, never at import or engine build — with ``cc -shared -fPIC -O2
-ffp-contract=off`` (no ``-ffast-math``, no ``-march=native``; without
``-ffp-contract=off`` GCC fuses multiply-adds on some targets).  The
library is cached in the package's ``__pycache__`` directory, per user,
under a name carrying a ``zlib.crc32`` of the source and the flags; it
is written to a temporary file and moved into place with ``os.replace``,
so processes building at once are safe.  Before first use it must
reproduce the Python kernel bit for bit on a fixed self-test.  When
there is no compiler, the cache is not writable, or the self-test fails,
one WARNING is logged and every verifier in the process uses
:class:`PythonKernel`.

The library is loaded with :class:`ctypes.PyDLL`, which keeps the GIL
during a call: a call lasts microseconds, and releasing and re-taking
the GIL around it costs more than it frees for other threads.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import subprocess
import tempfile
import threading
import zlib
from typing import Any, List, Sequence

import numpy as np

from repro.core.trie import DirectionState, TrieCacheEntry
from repro.distance.costs import CostModel
from repro.distance.wed import wed_step_min

__all__ = ["NativeKernel", "PythonKernel", "native_function", "new_kernel"]

logger = logging.getLogger(__name__)

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_wedkernel.c")
#: the C compiler and its flags; the flags are part of the cache key.
_COMPILER = "cc"
_FLAGS = ("-shared", "-fPIC", "-O2", "-ffp-contract=off")

_P = ctypes.c_void_p
_I = ctypes.c_int64


class _Job(ctypes.Structure):
    """The ``wed_job`` structure of ``_wedkernel.c``, field for field."""

    _fields_ = [
        ("rows", _P),
        ("dels", _P),
        ("stride", _I),
        ("ins", _P),
        ("offset", _I),
        ("step", _I),
        ("n", _I),
        ("parent", _P),
        ("slots", _P),
        ("count", _I),
        ("limit", ctypes.c_double),
        ("columns", _P),
        ("mins", _P),
        ("lasts", _P),
    ]


def _cache_dir() -> str:
    return os.path.join(_HERE, "__pycache__")


def _library_path() -> str:
    with open(_SOURCE, "rb") as source:
        key = zlib.crc32(" ".join(_FLAGS).encode(), zlib.crc32(source.read()))
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(_cache_dir(), f"_wedkernel-{key:08x}-{uid}.so")


def _build(path: str) -> None:
    """Compile the C file into ``path``, through a temporary file in the
    same directory and one ``os.replace``."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        done = subprocess.run(
            [_COMPILER, *_FLAGS, "-o", tmp, _SOURCE],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise OSError(f"{_COMPILER} exited {done.returncode}: {done.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    path = _library_path()
    if not os.path.exists(path):
        _build(path)
    function = ctypes.PyDLL(path).wed_suffix
    # The one argument is the job's address: a c_void_p argument takes a
    # Python int at a third of the cost of a checked POINTER(_Job).
    function.argtypes = [ctypes.c_void_p]
    function.restype = ctypes.c_int64
    return function


#: the loaded ``wed_suffix``; ``False`` once loading failed, ``None``
#: before the first attempt.
_native: Any = None
_native_lock = threading.Lock()


def native_function():
    """The native ``wed_suffix``, built and self-tested on first call, or
    ``None`` when it is unavailable (logged once, as a WARNING)."""
    global _native
    if _native is None:
        with _native_lock:
            if _native is None:
                try:
                    function = _load()
                    _self_test(function)
                except Exception as exc:  # noqa: BLE001 - any failure falls back
                    logger.warning(
                        "native DP kernel unavailable, verifying with the Python "
                        "kernel: %s",
                        exc,
                    )
                    _native = False
                else:
                    _native = function
    return _native or None


def new_kernel(costs: CostModel, entry: TrieCacheEntry):
    """A kernel for one verifier over ``entry``: native when the library
    is available, else Python."""
    function = native_function()
    if function is None:
        return PythonKernel(costs, entry)
    return NativeKernel(function, entry)


class NativeKernel:
    """The C kernel, driven through one :class:`_Job`.  Buffer addresses
    are read when a buffer is (re)allocated, never per call."""

    name = "native"

    def __init__(self, function, entry: TrieCacheEntry) -> None:
        self._run = function
        self._entry = entry
        self._job = _Job()
        self._job.stride = len(entry.query)
        self._address = ctypes.addressof(self._job)
        self._rows = None
        self._state: Any = None
        self._bound: Any = None
        self._parents = None
        self._parents_base = self._parents_stride = 0
        self._width = 1
        self._capacity = 0
        self._slots = (ctypes.c_int64 * 0)()
        self._columns = self._mins = self._lasts = np.empty(0)
        #: native calls made: one per suffix.
        self.calls = 0

    def direction(self, state: DirectionState) -> None:
        """The direction the next suffixes belong to; the job is pointed
        at its part on the first suffix, so a walk that finds every
        column cached costs nothing here."""
        self._state = state

    def _bind_direction(self) -> None:
        state = self._bound = self._state
        job = self._job
        job.ins = state.ins_array.ctypes.data
        job.offset = state.offset
        job.step = state.step
        job.n = len(state.part)
        self._width = len(state.part) + 1
        self._grow(self._capacity)

    def _grow(self, capacity: int) -> None:
        """Room for ``capacity`` columns of the current width.  Called
        only between suffixes, so nothing is copied."""
        job = self._job
        if capacity > self._capacity:
            capacity = max(capacity, 2 * self._capacity)
            self._slots = (ctypes.c_int64 * capacity)()
            job.slots = ctypes.addressof(self._slots)
            self._mins = np.empty(capacity)
            self._lasts = np.empty(capacity)
            job.mins = self._mins.ctypes.data
            job.lasts = self._lasts.ctypes.data
            self._capacity = capacity
        if len(self._columns) < self._capacity * self._width:
            self._columns = np.empty(self._capacity * self._width)
            job.columns = self._columns.ctypes.data

    def suffix(
        self,
        matrix: np.ndarray,
        slot: int,
        symbols: Sequence[int],
        slots: Sequence[int],
        limit: float,
    ) -> int:
        """The columns of ``symbols``, whose rows are ``slots``, from the
        parent ``matrix[slot]``, up to and including the first whose
        minimum is ``>= limit``."""
        job = self._job
        entry = self._entry
        if self._state is not self._bound:
            self._bind_direction()
        if matrix is not self._parents:
            # The C side reads n + 1 contiguous doubles at the parent.
            if (
                matrix.dtype != np.float64
                or matrix.ndim != 2
                or matrix.shape[1] != self._width
                or not matrix.flags.c_contiguous
                or not 0 <= slot < matrix.shape[0]
            ):
                raise ValueError("parent columns must be float64 rows of the part's width")
            self._parents = matrix
            self._parents_base = matrix.ctypes.data
            self._parents_stride = matrix.strides[0]
        if entry.rows is not self._rows:
            # The entry replaces both arrays together when it grows.
            self._rows = entry.rows
            job.rows = entry.rows.ctypes.data
            job.dels = entry.dels.ctypes.data
        job.parent = self._parents_base + slot * self._parents_stride
        count = len(slots)
        if count > self._capacity:
            self._grow(count)
        self._slots[:count] = slots
        job.count = count
        job.limit = limit
        self.calls += 1
        return self._run(self._address)

    def columns(self, count: int) -> np.ndarray:
        """The last call's first ``count`` columns, one per row."""
        return self._columns[: count * self._width].reshape(count, self._width)

    def mins(self, count: int) -> List[float]:
        return self._mins[:count].tolist()

    def lasts(self, count: int) -> List[float]:
        return self._lasts[:count].tolist()


class PythonKernel:
    """The reference kernel: :func:`~repro.distance.wed.wed_step_min` per
    column, over the same row matrix."""

    name = "python"

    def __init__(self, costs: CostModel, entry: TrieCacheEntry) -> None:
        self._costs = costs
        self._entry = entry
        self._columns: List[List[float]] = []
        self._mins: List[float] = []
        self._lasts: List[float] = []
        #: suffixes computed, one call each.
        self.calls = 0

    def direction(self, state: DirectionState) -> None:
        self._state = state

    def suffix(
        self,
        matrix: np.ndarray,
        slot: int,
        symbols: Sequence[int],
        slots: Sequence[int],
        limit: float,
    ) -> int:
        costs = self._costs
        rows = self._entry.rows
        state = self._state
        part = state.part
        ins_row = state.ins_row
        offset = state.offset
        step = state.step
        column = matrix[slot].tolist()
        self._columns = columns = []
        self._mins = mins = []
        self._lasts = lasts = []
        for symbol, row_slot in zip(symbols, slots):
            row = rows[row_slot].tolist()[offset::step]
            column, column_min = wed_step_min(
                costs, part, symbol, column, sub_row=row, ins_row=ins_row
            )
            columns.append(column)
            mins.append(column_min)
            lasts.append(column[-1])
            if column_min >= limit:
                break
        self.calls += 1
        return len(columns)

    def columns(self, count: int) -> List[List[float]]:
        return self._columns[:count]

    def mins(self, count: int) -> List[float]:
        return self._mins[:count]

    def lasts(self, count: int) -> List[float]:
        return self._lasts[:count]


class _SelfTestCost(CostModel):
    """Irrational costs, so that any change of evaluation order shows."""

    name = "self-test"

    def sub(self, a: int, b: int) -> float:
        return 0.0 if a == b else math.sqrt(a + b) / 3.0

    def ins(self, a: int) -> float:
        return 0.5 + math.sqrt(a) / 7.0


def _self_test(function) -> None:
    """Raise unless ``function`` reproduces :class:`PythonKernel` bit for
    bit: both directions, repeated symbols, and a limit that stops
    mid-suffix."""
    costs = _SelfTestCost()
    query = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5)
    view = [7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4, 5, 2, 3, 5, 3, 6, 0]
    entry = TrieCacheEntry(costs, query)
    slots = [entry.row_slot(symbol) for symbol in view]
    for iq, direction, limit in ((4, "f", math.inf), (6, "b", math.inf), (2, "f", 2.5)):
        state = entry.direction(iq, direction, False)
        got = []
        for kernel in (NativeKernel(function, entry), PythonKernel(costs, entry)):
            kernel.direction(state)
            count = kernel.suffix(state.root, 0, view, slots, limit)
            got.append(
                (
                    count,
                    np.asarray(kernel.columns(count), dtype=np.float64).tobytes(),
                    np.asarray(kernel.mins(count), dtype=np.float64).tobytes(),
                    np.asarray(kernel.lasts(count), dtype=np.float64).tobytes(),
                )
            )
        if got[0] != got[1]:
            raise RuntimeError(
                f"self-test differs from the Python kernel (iq={iq}, {direction})"
            )
