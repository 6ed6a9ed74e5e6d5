"""Frozen, array-packed, memory-mappable inverted index (ROADMAP §2).

The dict-backed :class:`~repro.core.invindex.InvertedIndex` stores one
Python tuple per posting — flexible, but every worker process that loads
it re-pickles and privately re-materializes the whole structure, which is
the main obstacle between reproduction scale (|T| ≈ 800) and the
10^5–10^6-trajectory production target.  :meth:`FrozenInvertedIndex.freeze`
packs the postings of one such index into flat ``numpy`` column arrays:

- ``symbols``   — sorted distinct symbols (``int32``),
- ``offsets``   — per-symbol prefix offsets into the postings columns
  (``int64``, length ``num_symbols + 1``),
- ``tids`` / ``positions`` — all postings concatenated in symbol order
  (``int32`` each),
- ``departures`` — optional parallel ``float64`` departure keys when the
  index is departure-sorted (§4.3 temporal pruning).

A lookup is one ``np.searchsorted`` into ``symbols`` plus two array
slices — no per-posting objects exist at all.  The arrays serialize to a
versioned single-file container (see ``docs/INDEX_FORMAT.md`` for the
byte-level specification) that :meth:`FrozenInvertedIndex.open` maps with
``mmap`` in O(1): opening a multi-gigabyte index touches only the header
page, and because every opener maps the same file, the OS page cache
shares one physical copy across all worker processes on a node.

A frozen index is immutable.  Online inserts go through
:class:`DeltaOverlayIndex` — a frozen base plus an ``InvertedIndex`` over
the trajectories the base does not cover, so appends are the mutable
index's own — which is what
:class:`~repro.core.engine.SubtrajectorySearch` uses for its
``index_backend="frozen"`` mode.  Both backends return bit-identical
query answers (hypothesis-pinned in ``tests/test_core_frozen.py``).
"""

from __future__ import annotations

import json
import mmap
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.invindex import InvertedIndex
from repro.exceptions import IndexError_
from repro.trajectory.dataset import TrajectoryDataset

__all__ = [
    "DeltaOverlayIndex",
    "FrozenInvertedIndex",
    "IndexFormatError",
    "inspect_index",
    "round_robin_shards",
    "shard_index_path",
]

Posting = Tuple[int, int]  # (trajectory id, position)

#: file magic: 8 bytes at offset 0 of every frozen index file.
MAGIC = b"REPROIDX"
#: current (and only) container format version.
FORMAT_VERSION = 1
#: every section starts at a multiple of this within the data region.
SECTION_ALIGNMENT = 64

#: the dtypes version 1 fixes for its sections (docs/INDEX_FORMAT.md
#: §"Version-1 sections"); unknown sections may carry any dtype.
_SECTION_DTYPES = {
    "symbols": "<i4",
    "offsets": "<i8",
    "tids": "<i4",
    "positions": "<i4",
    "departures": "<f8",
}

_EMPTY: Tuple[Posting, ...] = ()
_INT32_MAX = 2**31 - 1


class IndexFormatError(IndexError_):
    """Raised when a frozen index file is unreadable: wrong magic, an
    unsupported (newer) format version, a corrupted header, or a file
    truncated short of its declared sections."""


def _align_up(n: int, alignment: int = SECTION_ALIGNMENT) -> int:
    return (n + alignment - 1) // alignment * alignment


def shard_index_path(stem: Union[str, Path], shard: int, num_shards: int) -> str:
    """The conventional file name for one shard of a sharded frozen index.

    ``repro index build --shards N`` writes these and ``repro serve
    --index`` resolves them: the stem itself for a single shard, else
    ``<stem>.shard<k>-of-<N>``.
    """
    if num_shards <= 1:
        return str(stem)
    return f"{stem}.shard{shard}-of-{num_shards}"


def round_robin_shards(
    dataset: TrajectoryDataset, num_shards: int
) -> List[TrajectoryDataset]:
    """Split a dataset into ``min(num_shards, len(dataset))`` shard datasets
    by round-robin trajectory assignment — byte-for-byte the split
    :class:`~repro.core.partitioned.PartitionedSubtrajectorySearch` builds,
    so index files frozen from these shards match its shard engines."""
    num_shards = max(1, min(num_shards, len(dataset)))
    shards = [
        TrajectoryDataset(dataset.graph, dataset.representation)
        for _ in range(num_shards)
    ]
    for tid in range(len(dataset)):
        shards[tid % num_shards].add(dataset[tid])
    return shards


def _check_sections(sections: Any, data_start: int, file_bytes: int) -> None:
    """Reject a section table a reader cannot trust: every section must
    be a ``{dtype, shape, offset, nbytes}`` record whose dtype parses (and
    is the one version 1 fixes for that name), whose ``nbytes`` is shape
    × itemsize, and whose byte range starts at ``offset >= 0``, overlaps
    no other section and ends inside the file."""

    def bad(message: str) -> IndexFormatError:
        return IndexFormatError(f"corrupted frozen index header: {message}")

    if not isinstance(sections, dict):
        raise bad("section table is not an object")
    spans = []
    for name, sec in sections.items():
        try:
            if not isinstance(sec["dtype"], str):
                raise TypeError("dtype is not a string")
            dtype = np.dtype(sec["dtype"])
            shape = [int(n) for n in sec["shape"]]
            offset, nbytes = int(sec["offset"]), int(sec["nbytes"])
        except (TypeError, KeyError, ValueError) as exc:
            raise bad(f"section {name!r} is malformed ({exc!r})") from exc
        want = _SECTION_DTYPES.get(name)
        if want is not None and dtype != np.dtype(want):
            raise bad(f"section {name!r} must be {want}, not {dtype.str}")
        if offset < 0 or min(shape, default=0) < 0:
            raise bad(f"section {name!r} has a negative offset or shape")
        if int(np.prod(shape)) * dtype.itemsize != nbytes:
            raise bad(
                f"section {name!r} declares {nbytes} bytes for shape "
                f"{shape} of {dtype}"
            )
        spans.append((offset, offset + nbytes, name))
    spans.sort()
    for (_, end, name), (start, _, other) in zip(spans, spans[1:]):
        if start < end:
            raise bad(f"sections {name!r} and {other!r} overlap")
    declared_end = data_start + max((end for _, end, _ in spans), default=0)
    if file_bytes < declared_end:
        raise IndexFormatError(
            f"truncated frozen index: sections end at byte {declared_end}, "
            f"file holds {file_bytes}"
        )


def _read_header(f) -> Tuple[Dict[str, Any], int, int]:
    """Parse the fixed preamble + JSON header of an open file and check
    its section table against the file's size.

    Returns ``(header, version, data_start)``; raises
    :class:`IndexFormatError` on any malformation.
    """
    preamble = f.read(16)
    if len(preamble) < 16 or preamble[:8] != MAGIC:
        raise IndexFormatError(
            f"not a frozen index file (bad magic {preamble[:8]!r}; "
            f"expected {MAGIC!r})"
        )
    version = int.from_bytes(preamble[8:10], "little")
    if version > FORMAT_VERSION:
        raise IndexFormatError(
            f"frozen index format version {version} is newer than this "
            f"reader (supports <= {FORMAT_VERSION}); rebuild the index or "
            "upgrade the library"
        )
    header_len = int.from_bytes(preamble[12:16], "little")
    raw = f.read(header_len)
    if len(raw) < header_len:
        raise IndexFormatError(
            f"truncated frozen index: header declares {header_len} bytes, "
            f"file holds {len(raw)}"
        )
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexFormatError(f"corrupted frozen index header: {exc}") from exc
    if not isinstance(header, dict) or "sections" not in header:
        raise IndexFormatError("corrupted frozen index header: no section table")
    data_start = _align_up(16 + header_len)
    _check_sections(header["sections"], data_start, os.fstat(f.fileno()).st_size)
    return header, version, data_start


def inspect_index(path: Union[str, Path]) -> Dict[str, Any]:
    """The header of a frozen index file plus file-level facts, without
    loading (or mapping) any array data — what ``repro index inspect``
    prints.  Raises :class:`IndexFormatError` on malformed files."""
    path = Path(path)
    with path.open("rb") as f:
        header, version, data_start = _read_header(f)
    return {
        "path": str(path),
        "format_version": version,
        "file_bytes": path.stat().st_size,
        "data_start": data_start,
        **header,
    }


def _resident_bytes_of(buffer: np.ndarray) -> Optional[int]:
    """Best-effort ``mincore(2)`` residency of a mapped byte buffer:
    how many of the mapping's bytes are currently in the page cache.
    Returns ``None`` where the syscall is unavailable (non-POSIX, or any
    ctypes failure) — callers treat residency as optional telemetry."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        page = mmap.PAGESIZE
        length = buffer.nbytes
        if length == 0:
            return 0
        pages = (length + page - 1) // page
        vec = (ctypes.c_ubyte * pages)()
        rc = libc.mincore(
            ctypes.c_void_p(buffer.ctypes.data),
            ctypes.c_size_t(length),
            vec,
        )
        if rc != 0:
            return None
        resident = sum(v & 1 for v in vec) * page
        return min(resident, length)
    except Exception:  # noqa: BLE001 — purely diagnostic, never fail a probe
        return None


class FrozenInvertedIndex:
    """Array-packed, immutable postings lists with O(1) mmap open.

    Construct with :meth:`freeze` (from a dataset, in memory) or
    :meth:`open` (from a file written by :meth:`save`, memory-mapped).
    The lookup API mirrors :class:`~repro.core.invindex.InvertedIndex`
    (``postings`` / ``frequency`` / ``postings_departing_before``) and
    returns postings in the identical order, so query answers cannot
    differ between backends.
    """

    def __init__(
        self,
        columns: Dict[str, np.ndarray],
        meta: Dict[str, Any],
        *,
        path: Optional[Path] = None,
        mmap_buffer: Optional[np.ndarray] = None,
        mmap_handle=None,
        build_seconds: float = 0.0,
        open_seconds: float = 0.0,
    ) -> None:
        #: section name -> array, in file order (see _SECTION_DTYPES).
        self._columns = columns
        self._symbols, self._offsets = columns["symbols"], columns["offsets"]
        self._tids, self._positions = columns["tids"], columns["positions"]
        self._departures = columns.get("departures")
        self._meta = meta
        self._path = path
        self._mmap_buffer = mmap_buffer
        self._mmap_handle = mmap_handle  # keeps the mapping alive
        self._sorted = bool(meta.get("sorted_by_departure", False))
        #: seconds spent packing the arrays (0.0 for an opened file).
        self.build_seconds = build_seconds
        #: seconds spent opening/mapping the file (0.0 for a fresh freeze).
        self.open_seconds = open_seconds

    # -- construction --------------------------------------------------------

    @classmethod
    def freeze(
        cls,
        dataset: TrajectoryDataset,
        *,
        sort_by_departure: bool = False,
        shard: Optional[Tuple[int, int]] = None,
        global_trajectories: Optional[int] = None,
    ) -> "FrozenInvertedIndex":
        """Pack a dataset's postings into frozen arrays (in memory).

        The postings are those of ``InvertedIndex(dataset,
        sort_by_departure=...)``, packed in sorted-symbol order — so each
        symbol's ``(tid, position)`` order is the dict index's by
        construction.  ``shard`` (``(index, of)``) and
        ``global_trajectories`` are optional provenance recorded in the
        header so a sharded deployment can detect mismatched files.
        """
        t0 = time.perf_counter()
        built = InvertedIndex(dataset, sort_by_departure=sort_by_departure)
        symbol_list = sorted(built.symbols())
        if symbol_list and not (
            -_INT32_MAX <= symbol_list[0] and symbol_list[-1] <= _INT32_MAX
        ):
            raise IndexError_("symbol ids do not fit int32")
        if len(dataset) > _INT32_MAX:
            raise IndexError_("trajectory ids do not fit int32")
        total = built.num_postings
        offsets = np.zeros(len(symbol_list) + 1, dtype=np.int64)
        np.cumsum([built.frequency(sym) for sym in symbol_list], out=offsets[1:])
        pairs = np.fromiter(
            (v for sym in symbol_list for p in built.postings(sym) for v in p),
            dtype=np.int32,
            count=2 * total,
        ).reshape(total, 2)
        columns = {
            "symbols": np.asarray(symbol_list, dtype=np.int32),
            "offsets": offsets,
            "tids": np.ascontiguousarray(pairs[:, 0]),
            "positions": np.ascontiguousarray(pairs[:, 1]),
        }
        if sort_by_departure:
            columns["departures"] = np.fromiter(
                (dataset[tid].start_time for tid in columns["tids"].tolist()),
                dtype=np.float64,
                count=total,
            )
        meta: Dict[str, Any] = {
            "representation": dataset.representation,
            "sorted_by_departure": bool(sort_by_departure),
            "num_trajectories": len(dataset),
            "num_symbols": len(symbol_list),
            "num_postings": total,
        }
        if shard is not None:
            meta["shard"] = {
                "index": int(shard[0]),
                "of": int(shard[1]),
                "global_trajectories": int(
                    len(dataset) if global_trajectories is None else global_trajectories
                ),
            }
        return cls(columns, meta, build_seconds=time.perf_counter() - t0)

    # -- serialization -------------------------------------------------------

    def save(self, path: Union[str, Path]) -> int:
        """Write the single-file container (see ``docs/INDEX_FORMAT.md``)
        and return the bytes written.  The write goes to a ``.tmp``
        sibling first and renames into place, so a crashed build never
        leaves a half-written index at the target path."""
        path = Path(path)
        sections: Dict[str, Dict[str, Any]] = {}
        cursor = 0
        arrays = list(self._columns.items())
        for name, arr in arrays:
            cursor = _align_up(cursor)
            little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
            sections[name] = {
                "dtype": little.dtype.str,
                "shape": list(arr.shape),
                "offset": cursor,
                "nbytes": int(arr.nbytes),
            }
            cursor += arr.nbytes
        header = {**self._meta, "sections": sections}
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        data_start = _align_up(16 + len(raw))
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("wb") as f:
            f.write(MAGIC)
            f.write(FORMAT_VERSION.to_bytes(2, "little"))
            f.write(b"\x00\x00")  # reserved flags
            f.write(len(raw).to_bytes(4, "little"))
            f.write(raw)
            f.write(b"\x00" * (data_start - 16 - len(raw)))
            for name, arr in arrays:
                pad = data_start + sections[name]["offset"] - f.tell()
                f.write(b"\x00" * pad)
                f.write(
                    arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
                )
            total = f.tell()
        os.replace(tmp, path)
        return total

    @classmethod
    def open(cls, path: Union[str, Path]) -> "FrozenInvertedIndex":
        """Memory-map a file written by :meth:`save` — O(1) regardless of
        index size: only the header is read; array sections become typed
        views into one shared read-only mapping, paged in on demand by
        the OS (and shared across every process mapping the same file).

        Raises :class:`IndexFormatError` for non-index files, newer
        format versions, corrupted headers, and truncated files.
        """
        t0 = time.perf_counter()
        path = Path(path)
        with path.open("rb") as f:
            header, _, data_start = _read_header(f)
            handle = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        buffer = np.frombuffer(handle, dtype=np.uint8)
        views: Dict[str, np.ndarray] = {}
        # Only the sections this version names are mapped; a later
        # writer's optional sections are ignored.
        for name, dtype in _SECTION_DTYPES.items():
            sec = header["sections"].get(name)
            if sec is None:
                continue
            shape = tuple(int(n) for n in sec["shape"])
            views[name] = np.frombuffer(
                handle, dtype=np.dtype(dtype), count=int(np.prod(shape)),
                offset=data_start + int(sec["offset"]),
            ).reshape(shape)
        for required in ("symbols", "offsets", "tids", "positions"):
            if required not in views:
                raise IndexFormatError(
                    f"corrupted frozen index {path}: missing section "
                    f"{required!r}"
                )
        symbols, offsets = views["symbols"], views["offsets"]
        tids, positions = views["tids"], views["positions"]
        if (
            len(offsets) != len(symbols) + 1
            or len(tids) != len(positions)
            or (len(offsets) and int(offsets[-1]) != len(tids))
        ):
            raise IndexFormatError(
                f"corrupted frozen index {path}: inconsistent section shapes"
            )
        if header.get("sorted_by_departure") and "departures" not in views:
            raise IndexFormatError(
                f"corrupted frozen index {path}: departure-sorted header "
                "but no departures section"
            )
        meta = {k: v for k, v in header.items() if k != "sections"}
        return cls(
            views,
            meta,
            path=path,
            mmap_buffer=buffer,
            mmap_handle=handle,
            open_seconds=time.perf_counter() - t0,
        )

    # -- lookups -------------------------------------------------------------

    def _slice(self, symbol: int) -> Tuple[int, int]:
        i = int(np.searchsorted(self._symbols, symbol))
        if i >= len(self._symbols) or int(self._symbols[i]) != symbol:
            return 0, 0
        return int(self._offsets[i]), int(self._offsets[i + 1])

    def _pairs(self, lo: int, hi: int) -> Sequence[Posting]:
        """Rows ``lo:hi`` of the postings columns as python-int tuples."""
        if lo == hi:
            return _EMPTY
        return list(zip(self._tids[lo:hi].tolist(), self._positions[lo:hi].tolist()))

    def postings(self, symbol: int) -> Sequence[Posting]:
        """``L_q``: every ``(id, position)`` where ``symbol`` occurs, in
        the same order the dict index stores them."""
        return self._pairs(*self._slice(symbol))

    def frequency(self, symbol: int) -> int:
        """``n(q)``: total occurrence count of ``symbol`` in the dataset."""
        lo, hi = self._slice(symbol)
        return hi - lo

    def postings_departing_before(self, symbol: int, latest: float) -> Sequence[Posting]:
        """Postings of trajectories departing at or before ``latest``
        (requires a departure-sorted build; binary search, §4.3)."""
        if not self._sorted:
            raise ValueError("index not sorted by departure time")
        lo, hi = self._slice(symbol)
        cut = np.searchsorted(self._departures[lo:hi], latest, side="right")
        return self._pairs(lo, lo + int(cut))

    # -- introspection -------------------------------------------------------

    @property
    def sorted_by_departure(self) -> bool:
        """Whether postings are departure-ordered (closed to appends)."""
        return self._sorted

    @property
    def representation(self) -> Optional[str]:
        """The symbol alphabet the index was built over."""
        return self._meta.get("representation")

    @property
    def num_trajectories(self) -> int:
        """Trajectory count of the dataset this index was frozen from."""
        return int(self._meta.get("num_trajectories", 0))

    @property
    def num_symbols(self) -> int:
        """Distinct symbols with non-empty postings."""
        return len(self._symbols)

    @property
    def num_postings(self) -> int:
        """Total posting count (== total symbols in the dataset)."""
        return len(self._tids)

    @property
    def path(self) -> Optional[Path]:
        """The backing file, or ``None`` for an in-memory freeze."""
        return self._path

    @property
    def is_mmap(self) -> bool:
        """Whether the arrays are views into a shared file mapping."""
        return self._mmap_handle is not None

    @property
    def shard(self) -> Optional[Dict[str, int]]:
        """Shard provenance recorded at freeze time, if any."""
        return self._meta.get("shard")

    def memory_bytes(self) -> int:
        """Bytes held by the packed arrays (== file payload bytes; for a
        mapping this is *shared* address space, not private RSS)."""
        return int(sum(arr.nbytes for arr in self._columns.values()))

    def file_bytes(self) -> Optional[int]:
        """On-disk size of the backing file (``None`` when in-memory)."""
        if self._path is None:
            return None
        try:
            return self._path.stat().st_size
        except OSError:
            return None

    def resident_bytes(self) -> Optional[int]:
        """Page-cache residency of the mapping via ``mincore(2)``:
        how many of the mapped bytes are physically in memory right now.
        ``None`` for in-memory indexes and on platforms without the
        syscall."""
        if self._mmap_buffer is None:
            return None
        return _resident_bytes_of(self._mmap_buffer)

    def stats(self) -> Dict[str, Any]:
        """Counters for ``/healthz`` and the metrics collectors."""
        out: Dict[str, Any] = {
            "backend": "frozen",
            "num_symbols": self.num_symbols,
            "num_postings": self.num_postings,
            "bytes": self.memory_bytes(),
            "mmap": self.is_mmap,
            # 0 when in memory / unavailable: every index reports the
            # same counters, so the cross-shard totals have one shape.
            "file_bytes": self.file_bytes() or 0,
            "resident_bytes": self.resident_bytes() or 0,
        }
        if self._path is not None:
            out["path"] = str(self._path)
        return out


class DeltaOverlayIndex:
    """A frozen base plus an :class:`~repro.core.invindex.InvertedIndex`
    over the trajectories past it: the mutable front of
    ``index_backend="frozen"``.

    Lookups merge base postings (packed arrays) with delta postings
    (plain tuples): base first, then delta, which is the order the dict
    index would hold after the same appends — so both backends stay
    bit-identical through online inserts.  Appends are the delta's own
    (:meth:`~repro.core.invindex.InvertedIndex.append_trajectory`, atomic
    per trajectory).  The delta is built with the base's departure-sort
    flag: a sorted overlay prunes both halves by their own departure keys
    and, like the dict variant, rejects appends.
    """

    def __init__(self, base: FrozenInvertedIndex, dataset: TrajectoryDataset) -> None:
        self._base = base
        # Trajectories appended to the dataset after the freeze (none
        # when the file covers the whole dataset).
        self._delta = InvertedIndex(
            dataset,
            sort_by_departure=base.sorted_by_departure,
            first_tid=base.num_trajectories,
        )

    @property
    def sorted_by_departure(self) -> bool:
        """Whether postings are departure-ordered (closed to appends)."""
        return self._base.sorted_by_departure

    @property
    def delta_postings(self) -> int:
        """Postings of the trajectories the frozen base does not cover."""
        return self._delta.num_postings

    def append_trajectory(self, tid: int) -> None:
        """Index one trajectory appended to the dataset (delta only; the
        frozen base is never touched)."""
        self._delta.append_trajectory(tid)

    # -- lookups -------------------------------------------------------------

    @staticmethod
    def _merged(base: Sequence[Posting], delta: Sequence[Posting]) -> Sequence[Posting]:
        return [*base, *delta] if base and delta else base or delta

    def postings(self, symbol: int) -> Sequence[Posting]:
        """``L_q`` across base and delta (base postings first)."""
        return self._merged(self._base.postings(symbol), self._delta.postings(symbol))

    def frequency(self, symbol: int) -> int:
        """``n(q)`` across base and delta."""
        return self._base.frequency(symbol) + self._delta.frequency(symbol)

    def postings_departing_before(self, symbol: int, latest: float) -> Sequence[Posting]:
        """Temporal-pruned postings (sorted bases only), each half cut by
        its own departure keys."""
        return self._merged(
            self._base.postings_departing_before(symbol, latest),
            self._delta.postings_departing_before(symbol, latest),
        )

    # -- introspection -------------------------------------------------------

    @property
    def num_symbols(self) -> int:
        """Distinct symbols with non-empty postings (base ∪ delta)."""
        known = self._base.frequency
        return self._base.num_symbols + sum(
            1 for sym in self._delta.symbols() if not known(sym)
        )

    @property
    def num_postings(self) -> int:
        """Total posting count across base and delta."""
        return self._base.num_postings + self._delta.num_postings

    def memory_bytes(self) -> int:
        """Packed-array bytes plus the delta's object sizes."""
        return self._base.memory_bytes() + self._delta.memory_bytes()

    def stats(self) -> Dict[str, Any]:
        """Counters for ``/healthz`` and the metrics collectors (the
        base's, with the counts the delta adds)."""
        out = self._base.stats()
        out["delta_postings"] = self.delta_postings
        out["num_symbols"] = self.num_symbols
        out["num_postings"] = self.num_postings
        return out
