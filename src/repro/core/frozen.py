"""Frozen, array-packed, memory-mappable inverted index (ROADMAP §2).

The dict-backed :class:`~repro.core.invindex.InvertedIndex` stores one
Python tuple per posting — flexible, but every worker process that loads
it re-pickles and privately re-materializes the whole structure, which is
the main obstacle between reproduction scale (|T| ≈ 800) and the
10^5–10^6-trajectory production target.  This module packs the same
postings into flat ``numpy`` column arrays:

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
:class:`DeltaOverlayIndex` — a frozen base plus a dict-backed delta
overlay with the exact append semantics of the mutable index — which is
what :class:`~repro.core.engine.SubtrajectorySearch` uses for its
``index_backend="frozen"`` mode.  Both backends return bit-identical
query answers (hypothesis-pinned in ``tests/test_core_frozen.py``).
"""

from __future__ import annotations

import json
import mmap
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

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
        **{k: v for k, v in header.items()},
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
        *,
        symbols: np.ndarray,
        offsets: np.ndarray,
        tids: np.ndarray,
        positions: np.ndarray,
        departures: Optional[np.ndarray],
        meta: Dict[str, Any],
        path: Optional[Path] = None,
        mmap_buffer: Optional[np.ndarray] = None,
        mmap_handle=None,
        build_seconds: float = 0.0,
        open_seconds: float = 0.0,
    ) -> None:
        self._symbols = symbols
        self._offsets = offsets
        self._tids = tids
        self._positions = positions
        self._departures = departures
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

        The build walks trajectories in id order — exactly the traversal
        of the dict index — so per-symbol postings come out in the same
        ``(tid, position)`` order; ``sort_by_departure`` applies the same
        stable departure-time sort.  ``shard`` (``(index, of)``) and
        ``global_trajectories`` are optional provenance recorded in the
        header so a sharded deployment can detect mismatched files.
        """
        t0 = time.perf_counter()
        postings: Dict[int, List[Posting]] = {}
        for tid in range(len(dataset)):
            for pos, sym in enumerate(dataset.symbols(tid)):
                postings.setdefault(sym, []).append((tid, pos))
        symbol_list = sorted(postings)
        if symbol_list and not (
            -_INT32_MAX <= symbol_list[0] and symbol_list[-1] <= _INT32_MAX
        ):
            raise IndexError_("symbol ids do not fit int32")
        if len(dataset) > _INT32_MAX:
            raise IndexError_("trajectory ids do not fit int32")
        total = sum(len(p) for p in postings.values())
        symbols = np.asarray(symbol_list, dtype=np.int32)
        offsets = np.zeros(len(symbol_list) + 1, dtype=np.int64)
        tids = np.empty(total, dtype=np.int32)
        positions = np.empty(total, dtype=np.int32)
        departures = np.empty(total, dtype=np.float64) if sort_by_departure else None
        cursor = 0
        for i, sym in enumerate(symbol_list):
            plist = postings[sym]
            if sort_by_departure:
                plist.sort(key=lambda p: dataset[p[0]].start_time)
            end = cursor + len(plist)
            tids[cursor:end] = [p[0] for p in plist]
            positions[cursor:end] = [p[1] for p in plist]
            if departures is not None:
                departures[cursor:end] = [
                    dataset[p[0]].start_time for p in plist
                ]
            offsets[i + 1] = end
            cursor = end
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
        return cls(
            symbols=symbols,
            offsets=offsets,
            tids=tids,
            positions=positions,
            departures=departures,
            meta=meta,
            build_seconds=time.perf_counter() - t0,
        )

    # -- serialization -------------------------------------------------------

    def _sections(self) -> List[Tuple[str, np.ndarray]]:
        out = [
            ("symbols", self._symbols),
            ("offsets", self._offsets),
            ("tids", self._tids),
            ("positions", self._positions),
        ]
        if self._departures is not None:
            out.append(("departures", self._departures))
        return out

    def save(self, path: Union[str, Path]) -> int:
        """Write the single-file container (see ``docs/INDEX_FORMAT.md``)
        and return the bytes written.  The write goes to a ``.tmp``
        sibling first and renames into place, so a crashed build never
        leaves a half-written index at the target path."""
        path = Path(path)
        sections: Dict[str, Dict[str, Any]] = {}
        cursor = 0
        arrays = self._sections()
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
        departures = views.get("departures")
        if header.get("sorted_by_departure") and departures is None:
            raise IndexFormatError(
                f"corrupted frozen index {path}: departure-sorted header "
                "but no departures section"
            )
        meta = {k: v for k, v in header.items() if k != "sections"}
        return cls(
            symbols=symbols,
            offsets=offsets,
            tids=tids,
            positions=positions,
            departures=departures,
            meta=meta,
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

    def postings(self, symbol: int) -> Sequence[Posting]:
        """``L_q``: every ``(id, position)`` where ``symbol`` occurs, in
        the same order the dict index stores them."""
        lo, hi = self._slice(symbol)
        if lo == hi:
            return _EMPTY
        return list(
            zip(self._tids[lo:hi].tolist(), self._positions[lo:hi].tolist())
        )

    def postings_arrays(self, symbol: int) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(tids, positions)`` column views for ``symbol``
        (empty arrays when absent) — the array-native lookup the packed
        layout exists for.  Treat the views as read-only."""
        lo, hi = self._slice(symbol)
        return self._tids[lo:hi], self._positions[lo:hi]

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
        if lo == hi:
            return _EMPTY
        assert self._departures is not None
        cut = lo + int(
            np.searchsorted(self._departures[lo:hi], latest, side="right")
        )
        if cut == lo:
            return _EMPTY
        return list(
            zip(self._tids[lo:cut].tolist(), self._positions[lo:cut].tolist())
        )

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
        total = sum(arr.nbytes for _, arr in self._sections())
        return int(total)

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
        }
        if self._path is not None:
            out["path"] = str(self._path)
            out["file_bytes"] = self.file_bytes()
            resident = self.resident_bytes()
            if resident is not None:
                out["resident_bytes"] = resident
        return out


class DeltaOverlayIndex:
    """A frozen base with a dict-backed delta overlay: the mutable front
    of ``index_backend="frozen"``.

    Lookups merge base postings (packed arrays) with delta postings
    (plain tuples, exactly the mutable index's layout): base first, then
    delta, which is the order the dict index would hold after the same
    appends — so both backends stay bit-identical through online inserts.
    Appends publish one immutable tuple per symbol, preserving the
    per-symbol atomicity (and its documented per-trajectory race window)
    of :meth:`~repro.core.invindex.InvertedIndex.append_trajectory`.
    Departure-sorted bases reject appends, like the dict variant.
    """

    def __init__(self, base: FrozenInvertedIndex, dataset: TrajectoryDataset) -> None:
        self._base = base
        self._dataset = dataset
        self._delta: Dict[int, Tuple[Posting, ...]] = {}
        self._delta_postings = 0
        #: delta symbols the base has never seen (num_symbols = base + these)
        self._new_symbols = 0
        self._sorted = base.sorted_by_departure
        # Index any trajectories appended to the dataset after the freeze
        # (none when the engine validated counts at construction).
        for tid in range(base.num_trajectories, len(dataset)):
            self._index_one(tid)

    @property
    def base(self) -> FrozenInvertedIndex:
        """The immutable frozen base."""
        return self._base

    @property
    def sorted_by_departure(self) -> bool:
        """Whether postings are departure-ordered (closed to appends)."""
        return self._sorted

    @property
    def delta_postings(self) -> int:
        """Postings added by online inserts since the freeze."""
        return self._delta_postings

    # -- incremental updates -------------------------------------------------

    def _index_one(self, tid: int) -> None:
        # Atomic per-trajectory publication (mirrors the dict backend):
        # stage every touched symbol's new postings tuple, then install
        # them with one dict.update — a lock-free reader never observes a
        # half-indexed trajectory.
        staged: Dict[int, Tuple[Posting, ...]] = {}
        added = 0
        for pos, sym in enumerate(self._dataset.symbols(tid)):
            staged[sym] = staged.get(
                sym, self._delta.get(sym, _EMPTY)
            ) + ((tid, pos),)
            added += 1
        self._new_symbols += sum(
            1
            for sym in staged
            if sym not in self._delta and not self._base.frequency(sym)
        )
        self._delta.update(staged)
        self._delta_postings += added

    def append_trajectory(self, tid: int) -> None:
        """Index one trajectory appended to the dataset (delta only; the
        frozen base is never touched)."""
        if self._sorted:
            raise ValueError("cannot append to a departure-sorted index")
        self._index_one(tid)

    # -- lookups -------------------------------------------------------------

    def postings(self, symbol: int) -> Sequence[Posting]:
        """``L_q`` across base and delta (base postings first)."""
        base = self._base.postings(symbol)
        delta = self._delta.get(symbol)
        if delta is None:
            return base
        if not base:
            return delta
        return list(base) + list(delta)

    def frequency(self, symbol: int) -> int:
        """``n(q)`` across base and delta."""
        return self._base.frequency(symbol) + len(self._delta.get(symbol, _EMPTY))

    def postings_departing_before(self, symbol: int, latest: float) -> Sequence[Posting]:
        """Temporal-pruned postings (sorted bases only; a sorted base
        rejects appends, so the delta is empty by construction)."""
        if not self._sorted:
            raise ValueError("index not sorted by departure time")
        return self._base.postings_departing_before(symbol, latest)

    # -- introspection -------------------------------------------------------

    @property
    def num_symbols(self) -> int:
        """Distinct symbols with non-empty postings (base ∪ delta)."""
        return self._base.num_symbols + self._new_symbols

    @property
    def num_postings(self) -> int:
        """Total posting count across base and delta."""
        return self._base.num_postings + self._delta_postings

    def memory_bytes(self) -> int:
        """Packed-array bytes plus the delta overlay's object sizes."""
        total = self._base.memory_bytes() + sys.getsizeof(self._delta)
        for sym, plist in self._delta.items():
            total += sys.getsizeof(sym) + sys.getsizeof(plist)
            total += sum(sys.getsizeof(p) for p in plist)
        return total

    def stats(self) -> Dict[str, Any]:
        """Counters for ``/healthz`` and the metrics collectors."""
        out = self._base.stats()
        out["delta_postings"] = self._delta_postings
        out["num_symbols"] = self.num_symbols
        out["num_postings"] = self.num_postings
        return out
