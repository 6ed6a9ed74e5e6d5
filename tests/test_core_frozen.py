"""Frozen mmap-able index tier (ISSUE 7): frozen == dict, bit for bit.

The frozen backend packs the dict index's postings into flat arrays and
serves them from a memory-mapped single-file container
(``docs/INDEX_FORMAT.md``), with a dict-backed delta overlay as the
mutable front.  Packing and mapping are pure representation changes —
postings come back as the same python-int tuples in the same order — so
this suite pins:

- raw postings / frequency / departure-sorted lookups identical across
  dict, in-memory frozen, and mmap'd frozen, including the edge cases
  (empty dataset, absent symbols, symbol present only in the delta);
- engine answers (matches AND VerificationStats) bit-identical between
  ``index_backend="dict"`` and ``"frozen"`` via hypothesis over synthetic
  datasets, through save → mmap-open round trips and online inserts;
- the file format rejects corruption loudly: bad magic, future versions,
  truncated sections, malformed headers and hostile section tables (bad
  dtypes, missing fields, negative or overlapping offsets) all raise
  :class:`~repro.core.frozen.IndexFormatError` with a saying-something
  message, never garbage answers;
- the partitioned engine resolves per-shard files and validates shard
  provenance (wrong shard count fails at construction, not at query);
- the ``repro index build`` / ``index inspect`` CLI round-trips.
"""

import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.engine import SubtrajectorySearch
from repro.core.frozen import (
    FORMAT_VERSION,
    MAGIC,
    DeltaOverlayIndex,
    FrozenInvertedIndex,
    IndexFormatError,
    inspect_index,
    round_robin_shards,
    shard_index_path,
)
from repro.core.invindex import InvertedIndex
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.temporal import TimeInterval
from repro.distance.costs import LevenshteinCost
from repro.exceptions import QueryError
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.model import Trajectory

lev = LevenshteinCost()


@pytest.fixture()
def tiny_dataset(line_graph):
    ds = TrajectoryDataset(line_graph)
    ds.add(Trajectory([0, 1, 2], timestamps=[10.0, 11.0, 12.0]))
    ds.add(Trajectory([1, 2, 3], timestamps=[5.0, 6.0, 7.0]))
    ds.add(Trajectory([2, 1, 0], timestamps=[20.0, 21.0, 22.0]))
    return ds


def dataset_of(paths, graph):
    ds = TrajectoryDataset(graph)
    for path in paths:
        ds.add(Trajectory(list(path)))
    return ds


def assert_index_parity(dict_index, frozen_index, symbols):
    for sym in symbols:
        expect = list(dict_index.postings(sym))
        got = list(frozen_index.postings(sym))
        assert got == expect, sym
        assert all(
            isinstance(v, int) for p in got for v in p
        ), "postings must be python ints"
        assert frozen_index.frequency(sym) == dict_index.frequency(sym)
    assert frozen_index.num_symbols == dict_index.num_symbols
    assert frozen_index.num_postings == dict_index.num_postings


class TestFreezeParity:
    def test_postings_identical(self, vertex_dataset):
        dict_index = InvertedIndex(vertex_dataset)
        frozen = FrozenInvertedIndex.freeze(vertex_dataset)
        assert_index_parity(dict_index, frozen, range(80))

    def test_roundtrip_through_file(self, vertex_dataset, tmp_path):
        dict_index = InvertedIndex(vertex_dataset)
        frozen = FrozenInvertedIndex.freeze(vertex_dataset)
        path = tmp_path / "idx.reproidx"
        written = frozen.save(path)
        assert written == path.stat().st_size
        opened = FrozenInvertedIndex.open(path)
        assert opened.is_mmap
        assert opened.file_bytes() == written
        assert_index_parity(dict_index, opened, range(80))

    def test_departure_sorted_parity(self, tiny_dataset, tmp_path):
        dict_index = InvertedIndex(tiny_dataset, sort_by_departure=True)
        frozen = FrozenInvertedIndex.freeze(tiny_dataset, sort_by_departure=True)
        path = tmp_path / "sorted.reproidx"
        frozen.save(path)
        opened = FrozenInvertedIndex.open(path)
        assert opened.sorted_by_departure
        for index in (frozen, opened):
            assert_index_parity(dict_index, index, range(6))
            for sym in range(6):
                for latest in (0.0, 5.0, 10.0, 15.0, 25.0):
                    assert list(
                        index.postings_departing_before(sym, latest)
                    ) == list(dict_index.postings_departing_before(sym, latest))

    def test_unsorted_rejects_departure_lookup(self, tiny_dataset):
        frozen = FrozenInvertedIndex.freeze(tiny_dataset)
        with pytest.raises(ValueError, match="not sorted"):
            frozen.postings_departing_before(1, 10.0)

    def test_empty_dataset(self, line_graph, tmp_path):
        ds = TrajectoryDataset(line_graph)
        frozen = FrozenInvertedIndex.freeze(ds)
        assert frozen.num_symbols == 0
        assert frozen.num_postings == 0
        assert frozen.postings(0) == ()
        path = tmp_path / "empty.reproidx"
        frozen.save(path)
        opened = FrozenInvertedIndex.open(path)
        assert opened.num_postings == 0
        assert opened.postings(0) == ()
        assert opened.frequency(3) == 0

    def test_memory_well_under_dict(self, vertex_dataset, tmp_path):
        # The acceptance bar: packed file bytes <= 0.5x the dict index's
        # in-memory footprint (in practice far less).
        dict_bytes = InvertedIndex(vertex_dataset).memory_bytes()
        path = tmp_path / "idx.reproidx"
        written = FrozenInvertedIndex.freeze(vertex_dataset).save(path)
        assert written <= 0.5 * dict_bytes


class TestDeltaOverlay:
    def test_append_merges_after_base(self, line_graph):
        ds = dataset_of([[0, 1, 2]], line_graph)
        base = FrozenInvertedIndex.freeze(ds)
        overlay = DeltaOverlayIndex(base, ds)
        tid = ds.add(Trajectory([1, 2, 3]))
        overlay.append_trajectory(tid)
        # Mirror the same appends on a dict index: identical order.
        mirror = dataset_of([[0, 1, 2]], line_graph)
        dict_index = InvertedIndex(mirror)
        dict_index.append_trajectory(mirror.add(Trajectory([1, 2, 3])))
        assert_index_parity(dict_index, overlay, range(6))
        assert overlay.delta_postings == 3

    def test_symbol_only_in_delta(self, line_graph):
        ds = dataset_of([[0, 1]], line_graph)
        overlay = DeltaOverlayIndex(FrozenInvertedIndex.freeze(ds), ds)
        assert overlay.frequency(5) == 0
        tid = ds.add(Trajectory([4, 5]))
        overlay.append_trajectory(tid)
        assert list(overlay.postings(5)) == [(1, 1)]
        assert overlay.frequency(5) == 1
        # Base-only and base+delta symbols still merge base-first.
        assert list(overlay.postings(1)) == [(0, 1)]
        assert overlay.num_symbols == 4  # 0,1 in base; 4,5 delta-only

    def test_trailing_trajectories_indexed_at_construction(self, line_graph):
        ds = dataset_of([[0, 1]], line_graph)
        base = FrozenInvertedIndex.freeze(ds)
        ds.add(Trajectory([1, 2]))  # appended after the freeze
        overlay = DeltaOverlayIndex(base, ds)
        assert set(overlay.postings(1)) == {(0, 1), (1, 0)}
        assert overlay.delta_postings == 2

    def test_sorted_base_rejects_append(self, tiny_dataset):
        base = FrozenInvertedIndex.freeze(tiny_dataset, sort_by_departure=True)
        overlay = DeltaOverlayIndex(base, tiny_dataset)
        with pytest.raises(ValueError, match="departure-sorted"):
            overlay.append_trajectory(0)

    def test_sorted_overlay_prunes_the_tail_by_its_own_keys(self, tiny_dataset):
        base = FrozenInvertedIndex.freeze(tiny_dataset, sort_by_departure=True)
        tiny_dataset.add(Trajectory([1, 2], timestamps=[15.0, 16.0]))
        tiny_dataset.add(Trajectory([2, 1], timestamps=[8.0, 9.0]))
        overlay = DeltaOverlayIndex(base, tiny_dataset)
        assert overlay.sorted_by_departure and overlay.delta_postings == 4
        whole = InvertedIndex(tiny_dataset, sort_by_departure=True)
        for sym in range(6):
            assert sorted(overlay.postings(sym)) == sorted(whole.postings(sym))
            for latest in (0.0, 5.0, 8.0, 10.0, 15.0, 25.0):
                # Base-first, so the order differs from one global sort;
                # the postings are the same.
                assert sorted(overlay.postings_departing_before(sym, latest)) == sorted(
                    whole.postings_departing_before(sym, latest)
                ), (sym, latest)
        with pytest.raises(ValueError, match="departure-sorted"):
            overlay.append_trajectory(4)

    def test_figures_are_base_plus_an_index_over_the_tail(self, line_graph):
        ds = dataset_of([[0, 1, 2], [2, 1]], line_graph)
        base = FrozenInvertedIndex.freeze(ds)
        ds.add(Trajectory([2, 3, 4]))  # in the dataset when the overlay opens
        overlay = DeltaOverlayIndex(base, ds)
        for appended in ([], [[4, 5, 5]], [[0, 5]]):
            for path in appended:
                overlay.append_trajectory(ds.add(Trajectory(path)))
            tail = InvertedIndex(ds, first_tid=base.num_trajectories)
            new_symbols = [s for s in tail.symbols() if not base.frequency(s)]
            assert overlay.delta_postings == tail.num_postings
            assert overlay.num_postings == base.num_postings + tail.num_postings
            assert overlay.num_symbols == base.num_symbols + len(new_symbols)
            assert overlay.memory_bytes() == base.memory_bytes() + tail.memory_bytes()
            assert overlay.stats() == {
                **base.stats(),
                "delta_postings": tail.num_postings,
                "num_symbols": overlay.num_symbols,
                "num_postings": overlay.num_postings,
            }
        assert (overlay.num_symbols, overlay.num_postings) == (6, 13)

    def test_stats_shape(self, tiny_dataset):
        overlay = DeltaOverlayIndex(
            FrozenInvertedIndex.freeze(tiny_dataset), tiny_dataset
        )
        stats = overlay.stats()
        assert stats["backend"] == "frozen"
        assert stats["mmap"] is False
        assert stats["delta_postings"] == 0
        assert stats["num_postings"] == 9
        assert overlay.memory_bytes() > 0


def _edit(name, **fields):
    """A section-table rewrite: replace (or, with ``None``, drop) fields
    of one section."""

    def rewrite(sections):
        section = {**sections[name], **fields}
        sections[name] = {k: v for k, v in section.items() if v is not None}
        return sections

    return rewrite


#: case id -> (rewrite of the valid section table, the IndexFormatError
#: it must draw)
HOSTILE_SECTION_TABLES = {
    "table-is-a-list": (lambda sections: [1, 2], "section table is not an object"),
    "section-is-a-number": (lambda sections: {**sections, "tids": 7}, "'tids' is malformed"),
    "dtype-unparseable": (_edit("tids", dtype="zzz"), "'tids' is malformed"),
    "dtype-missing": (_edit("tids", dtype=None), "'tids' is malformed"),
    "dtype-not-a-string": (_edit("symbols", dtype=5), "'symbols' is malformed"),
    "shape-missing": (_edit("tids", shape=None), "'tids' is malformed"),
    "offset-not-a-number": (_edit("offsets", offset="x"), "'offsets' is malformed"),
    "tids-as-floats": (_edit("tids", dtype="<f4"), "'tids' must be <i4"),
    "offsets-as-int32": (_edit("offsets", dtype="<i4", nbytes=20), "'offsets' must be <i8"),
    "negative-offset": (_edit("symbols", offset=-64), "negative offset"),
    "negative-shape": (_edit("positions", shape=[-9]), "negative offset or shape"),
    "nbytes-disagrees": (_edit("positions", nbytes=35), "declares 35 bytes"),
    "sections-overlap": (_edit("positions", offset=64), "overlap"),
}


class TestFormatRejection:
    def make_file(self, dataset, tmp_path, name="idx.reproidx"):
        path = tmp_path / name
        FrozenInvertedIndex.freeze(dataset).save(path)
        return path

    def test_bad_magic(self, tiny_dataset, tmp_path):
        path = self.make_file(tiny_dataset, tmp_path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTANIDX"
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="bad magic"):
            FrozenInvertedIndex.open(path)

    def test_future_version(self, tiny_dataset, tmp_path):
        path = self.make_file(tiny_dataset, tmp_path)
        data = bytearray(path.read_bytes())
        data[8:10] = (FORMAT_VERSION + 1).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="newer than this reader"):
            FrozenInvertedIndex.open(path)

    def test_truncated_sections(self, tiny_dataset, tmp_path):
        path = self.make_file(tiny_dataset, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(IndexFormatError, match="truncated"):
            FrozenInvertedIndex.open(path)
        with pytest.raises(IndexFormatError, match="truncated"):
            inspect_index(path)

    def test_truncated_header(self, tiny_dataset, tmp_path):
        path = self.make_file(tiny_dataset, tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(IndexFormatError, match="truncated"):
            FrozenInvertedIndex.open(path)

    def test_corrupted_header_json(self, tiny_dataset, tmp_path):
        path = self.make_file(tiny_dataset, tmp_path)
        data = bytearray(path.read_bytes())
        data[16:20] = b"\xff\xfe\xfd\xfc"  # stomp the JSON header
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="corrupted"):
            FrozenInvertedIndex.open(path)

    def test_not_a_file_at_all(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"hello")
        with pytest.raises(IndexFormatError, match="bad magic"):
            FrozenInvertedIndex.open(path)

    @staticmethod
    def rewrite_sections(path, rewrite):
        """Replace only the JSON header's section table; the payload is
        carried over byte for byte behind the (re-aligned) new header."""
        data = path.read_bytes()
        header_len = int.from_bytes(data[12:16], "little")
        header = json.loads(data[16 : 16 + header_len])
        header["sections"] = rewrite(header["sections"])
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        align = lambda n: -(-n // 64) * 64  # noqa: E731
        path.write_bytes(
            data[:12]
            + len(raw).to_bytes(4, "little")
            + raw.ljust(align(16 + len(raw)) - 16, b"\x00")
            + data[align(16 + header_len):]
        )

    @pytest.mark.parametrize("reader", [FrozenInvertedIndex.open, inspect_index])
    @pytest.mark.parametrize("case", sorted(HOSTILE_SECTION_TABLES))
    def test_hostile_section_table(self, tiny_dataset, tmp_path, reader, case):
        rewrite, message = HOSTILE_SECTION_TABLES[case]
        path = self.make_file(tiny_dataset, tmp_path)
        self.rewrite_sections(path, rewrite)
        with pytest.raises(IndexFormatError, match=message):
            reader(path)

    def test_unknown_sections_are_ignored(self, tiny_dataset, tmp_path):
        """Forward compatibility: a later writer's optional section (here
        sharing no bytes with the others) neither fails nor is mapped."""
        path = self.make_file(tiny_dataset, tmp_path)

        def add_bloom(sections):
            end = max(s["offset"] + s["nbytes"] for s in sections.values())
            bloom = {"dtype": "|u1", "shape": [0], "offset": end, "nbytes": 0}
            return {**sections, "bloom": bloom}

        self.rewrite_sections(path, add_bloom)
        assert "bloom" in inspect_index(path)["sections"]
        assert FrozenInvertedIndex.open(path).num_postings == 9

    def test_inspect_reports_header(self, tiny_dataset, tmp_path):
        path = self.make_file(tiny_dataset, tmp_path)
        info = inspect_index(path)
        assert info["format_version"] == FORMAT_VERSION
        assert info["num_postings"] == 9
        assert info["num_trajectories"] == 3
        assert set(info["sections"]) == {
            "symbols", "offsets", "tids", "positions",
        }
        assert info["file_bytes"] == path.stat().st_size
        assert MAGIC == b"REPROIDX"


class TestEngineBackend:
    def query_of(self, dataset):
        return list(dataset.symbols(0))[:5]

    def test_engine_parity_in_memory(self, vertex_dataset):
        q = self.query_of(vertex_dataset)
        ref = SubtrajectorySearch(vertex_dataset, lev).query(q, tau=2.0)
        got = SubtrajectorySearch(
            vertex_dataset, lev, index_backend="frozen"
        ).query(q, tau=2.0)
        assert got.matches == ref.matches
        assert got.num_candidates == ref.num_candidates
        assert got.verification == ref.verification

    def test_engine_parity_from_file(self, vertex_dataset, tmp_path):
        path = tmp_path / "idx.reproidx"
        FrozenInvertedIndex.freeze(vertex_dataset).save(path)
        q = self.query_of(vertex_dataset)
        ref = SubtrajectorySearch(vertex_dataset, lev).query(q, tau=2.0)
        engine = SubtrajectorySearch(
            vertex_dataset, lev, index_backend="frozen", index_path=str(path)
        )
        got = engine.query(q, tau=2.0)
        assert got.matches == ref.matches
        assert got.verification == ref.verification
        stats = engine.status().index
        assert stats["backend"] == "frozen"
        assert stats["mmap"] is True
        assert stats["file_bytes"] == path.stat().st_size

    def test_engine_add_trajectory_on_frozen(self, line_graph):
        ds = dataset_of([[0, 1, 2], [2, 3, 4]], line_graph)
        mirror = dataset_of([[0, 1, 2], [2, 3, 4]], line_graph)
        frozen_engine = SubtrajectorySearch(ds, lev, index_backend="frozen")
        dict_engine = SubtrajectorySearch(mirror, lev)
        frozen_engine.add_trajectory(Trajectory([1, 2, 3]))
        dict_engine.add_trajectory(Trajectory([1, 2, 3]))
        ref = dict_engine.query([1, 2, 3], tau=1.0)
        got = frozen_engine.query([1, 2, 3], tau=1.0)
        assert got.matches == ref.matches
        assert frozen_engine.status().index["delta_postings"] == 3

    def test_dict_engine_rejects_index_path(self, vertex_dataset, tmp_path):
        with pytest.raises(QueryError, match="index_backend='frozen'"):
            SubtrajectorySearch(
                vertex_dataset, lev, index_path=str(tmp_path / "x")
            )
        with pytest.raises(QueryError, match="unknown index_backend"):
            SubtrajectorySearch(vertex_dataset, lev, index_backend="mmap")

    def test_validation_mismatches(self, vertex_dataset, line_graph, tmp_path):
        path = tmp_path / "idx.reproidx"
        FrozenInvertedIndex.freeze(vertex_dataset).save(path)
        # Fewer dataset trajectories than the index covers.
        small = dataset_of([[0, 1]], line_graph)
        with pytest.raises(QueryError, match="covers"):
            SubtrajectorySearch(
                small, lev, index_backend="frozen", index_path=str(path)
            )
        # Sort-flag mismatch, either way round; left unsaid, the flag is
        # what the file says.
        with pytest.raises(QueryError, match="sort_by_departure"):
            SubtrajectorySearch(
                vertex_dataset, lev, index_backend="frozen",
                index_path=str(path), sort_by_departure=True,
            )
        by_departure = tmp_path / "sorted.reproidx"
        FrozenInvertedIndex.freeze(vertex_dataset, sort_by_departure=True).save(by_departure)
        with pytest.raises(QueryError, match="sort_by_departure"):
            SubtrajectorySearch(
                vertex_dataset, lev, index_backend="frozen",
                index_path=str(by_departure), sort_by_departure=False,
            )
        for file, is_sorted in ((path, False), (by_departure, True)):
            engine = SubtrajectorySearch(
                vertex_dataset, lev, index_backend="frozen", index_path=str(file)
            )
            assert engine.index.sorted_by_departure is is_sorted
        assert not SubtrajectorySearch(vertex_dataset, lev).index.sorted_by_departure
        # A sharded file fed to an unsharded engine.
        sharded = tmp_path / "shard.reproidx"
        FrozenInvertedIndex.freeze(
            vertex_dataset, shard=(0, 2), global_trajectories=60
        ).save(sharded)
        with pytest.raises(QueryError, match="unsharded"):
            SubtrajectorySearch(
                vertex_dataset, lev, index_backend="frozen",
                index_path=str(sharded),
            )

    def test_index_stats_agree_across_backends_after_inserts(self, line_graph):
        """The same inserts read the same on both backends — a vertex no
        base trajectory visits included."""
        inserts = [[0, 1, 2], [4, 5], [5, 4, 2]]
        engines = {}
        for backend in ("dict", "frozen"):
            ds = dataset_of([[0, 1, 2, 3], [2, 1, 0]], line_graph)
            engines[backend] = SubtrajectorySearch(ds, lev, index_backend=backend)
        before = engines["dict"].status().index
        assert (before["num_symbols"], before["num_postings"]) == (4, 7)
        for path in inserts:
            stats = {}
            for backend, engine in engines.items():
                engine.add_trajectory(Trajectory(list(path)))
                stats[backend] = engine.status().index
            # Every index reports the same counters (one totals shape);
            # only the frozen tier has a freeze for inserts to be "since".
            assert set(stats["dict"]) == set(stats["frozen"])
            assert stats["dict"]["delta_postings"] == 0
            shared = set(stats["dict"]) - {"backend", "bytes", "delta_postings"}
            assert {"num_symbols", "num_postings", "mmap"} <= shared
            assert {k: stats["dict"][k] for k in shared} == {
                k: stats["frozen"][k] for k in shared
            }
        assert (stats["frozen"]["num_symbols"], stats["frozen"]["num_postings"]) == (6, 15)
        # ... because each index answers stats() itself: the engine holds
        # no per-backend branch.
        assert "isinstance" not in inspect.getsource(SubtrajectorySearch.status)

    def test_dict_index_stats(self, vertex_dataset):
        engine = SubtrajectorySearch(vertex_dataset, lev)
        stats = engine.status().index
        assert stats["backend"] == "dict"
        assert stats["mmap"] is False
        assert stats["bytes"] > 0
        # Memoized walk: a repeat probe reuses the byte figure.
        assert engine.status().index["bytes"] == stats["bytes"]
        assert engine.status().shards[0].index == engine.index.stats()


class TestPartitioned:
    def build_shards(self, dataset, stem, num_shards):
        for i, shard in enumerate(round_robin_shards(dataset, num_shards)):
            FrozenInvertedIndex.freeze(
                shard,
                shard=None if num_shards == 1 else (i, num_shards),
                global_trajectories=len(dataset),
            ).save(shard_index_path(stem, i, num_shards))

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_partitioned_parity(self, vertex_dataset, tmp_path, backend):
        stem = str(tmp_path / "idx.reproidx")
        self.build_shards(vertex_dataset, stem, 3)
        q = list(vertex_dataset.symbols(0))[:5]
        ref = SubtrajectorySearch(vertex_dataset, lev).query(q, tau=2.0)
        with PartitionedSubtrajectorySearch(
            vertex_dataset, lev, num_shards=3, backend=backend,
            index_backend="frozen", index_path=stem,
        ) as engine:
            got = engine.query(q, tau=2.0)
            assert got.matches == ref.matches
            stats = engine.status().index
            assert stats["backend"] == "frozen"
            assert stats["mmap"] is True
            assert stats["num_postings"] == vertex_dataset.total_symbols()
            assert stats["shards"] == stats["shards_reporting"] == 3
            assert stats["file_bytes"] == sum(
                shard.index["file_bytes"] for shard in engine.status().shards
            )

    def test_wrong_shard_count_fails_loudly(self, vertex_dataset, tmp_path):
        stem = str(tmp_path / "idx.reproidx")
        self.build_shards(vertex_dataset, stem, 2)
        with pytest.raises((QueryError, IndexFormatError, OSError)):
            PartitionedSubtrajectorySearch(
                vertex_dataset, lev, num_shards=3, backend="serial",
                index_backend="frozen", index_path=stem,
            )

    def test_index_path_requires_frozen(self, vertex_dataset, tmp_path):
        with pytest.raises(QueryError, match="index_backend='frozen'"):
            PartitionedSubtrajectorySearch(
                vertex_dataset, lev, num_shards=2,
                index_path=str(tmp_path / "x"),
            )

    def test_round_robin_matches_partitioner(self, vertex_dataset):
        shards = round_robin_shards(vertex_dataset, 3)
        assert sum(len(s) for s in shards) == len(vertex_dataset)
        for i, shard in enumerate(shards):
            for local, traj in enumerate(shard):
                assert traj.path == vertex_dataset[local * 3 + i].path

    def test_shard_index_path_naming(self):
        assert shard_index_path("idx", 0, 1) == "idx"
        assert shard_index_path("idx", 1, 4) == "idx.shard1-of-4"


class TestCLI:
    @pytest.fixture()
    def workspace(self, tmp_path):
        net = str(tmp_path / "net.json")
        trips = str(tmp_path / "trips.jsonl")
        assert main([
            "generate-network", "--style", "grid", "--rows", "8",
            "--cols", "8", "--seed", "3", "--out", net,
        ]) == 0
        assert main([
            "generate-trips", "--network", net, "--count", "40",
            "--seed", "4", "--out", trips,
        ]) == 0
        return net, trips

    def test_build_and_inspect(self, workspace, tmp_path, capsys):
        net, trips = workspace
        out = str(tmp_path / "idx.reproidx")
        assert main([
            "index", "build", "--network", net, "--trips", trips,
            "--out", out,
        ]) == 0
        built = json.loads(capsys.readouterr().out)
        assert built["shards"] == 1
        assert built["files"] == [out]
        assert built["file_bytes"] > 0
        assert main(["index", "inspect", out]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format_version"] == FORMAT_VERSION
        assert info["num_trajectories"] == 40

    def test_build_sharded(self, workspace, tmp_path, capsys):
        net, trips = workspace
        out = str(tmp_path / "idx.reproidx")
        assert main([
            "index", "build", "--network", net, "--trips", trips,
            "--out", out, "--shards", "2",
        ]) == 0
        built = json.loads(capsys.readouterr().out)
        assert built["shards"] == 2
        assert built["files"] == [
            f"{out}.shard0-of-2", f"{out}.shard1-of-2",
        ]

    def test_inspect_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not an index")
        with pytest.raises(SystemExit, match="cannot inspect"):
            main(["index", "inspect", str(bad)])

    def test_serve_self_test_with_index(self, workspace, tmp_path, capsys):
        net, trips = workspace
        out = str(tmp_path / "idx.reproidx")
        assert main([
            "index", "build", "--network", net, "--trips", trips,
            "--out", out,
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--network", net, "--trips", trips, "--index", out,
            "--self-test", "--function", "lev",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["self_test"] == "ok"

    def test_serve_self_test_with_sorted_index(self, workspace, tmp_path, capsys):
        """``index build --sort-by-departure`` writes a file ``serve
        --index`` takes as it is: the flag is read from the header."""
        net, trips = workspace
        out = str(tmp_path / "sorted.reproidx")
        assert main([
            "index", "build", "--network", net, "--trips", trips,
            "--out", out, "--sort-by-departure",
        ]) == 0
        capsys.readouterr()
        assert main(["index", "inspect", out]) == 0
        assert json.loads(capsys.readouterr().out)["sorted_by_departure"] is True
        assert main([
            "serve", "--network", net, "--trips", trips, "--index", out,
            "--self-test", "--function", "lev",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["self_test"] == "ok"


# -- hypothesis parity --------------------------------------------------------

path = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8)
paths = st.lists(path, min_size=1, max_size=8)
queries = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6)


class TestHypothesisParity:
    @settings(deadline=None, max_examples=40)
    @given(paths=paths, query=queries, tau=st.sampled_from([0.5, 1.0, 2.0]))
    def test_build_mmap_query_equals_dict(
        self, line_graph, tmp_path_factory, paths, query, tau
    ):
        tau = min(tau, float(len(query)))  # keep the query non-degenerate
        ds = dataset_of(paths, line_graph)
        dict_engine = SubtrajectorySearch(ds, lev)
        path = tmp_path_factory.mktemp("frozen") / "idx.reproidx"
        FrozenInvertedIndex.freeze(ds).save(path)
        frozen_engine = SubtrajectorySearch(
            ds, lev, index_backend="frozen", index_path=str(path)
        )
        ref = dict_engine.query(query, tau=tau)
        got = frozen_engine.query(query, tau=tau)
        assert got.matches == ref.matches
        assert got.num_candidates == ref.num_candidates
        assert got.verification == ref.verification
        assert got.used_fallback == ref.used_fallback

    @settings(deadline=None, max_examples=25)
    @given(
        paths=paths,
        extra=st.lists(
            st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6),
            min_size=1,
            max_size=3,
        ),
        query=queries,
    )
    def test_online_inserts_stay_identical(
        self, line_graph, paths, extra, query
    ):
        ds = dataset_of(paths, line_graph)
        mirror = dataset_of(paths, line_graph)
        frozen_engine = SubtrajectorySearch(ds, lev, index_backend="frozen")
        dict_engine = SubtrajectorySearch(mirror, lev)
        for p in extra:
            assert frozen_engine.add_trajectory(
                Trajectory(list(p))
            ) == dict_engine.add_trajectory(Trajectory(list(p)))
        tau = min(1.5, float(len(query)))  # keep the query non-degenerate
        ref = dict_engine.query(query, tau=tau)
        got = frozen_engine.query(query, tau=tau)
        assert got.matches == ref.matches
        assert got.verification == ref.verification

    @settings(deadline=None, max_examples=40)
    @given(
        timed=st.lists(
            st.tuples(path, st.integers(0, 30)),
            min_size=2,
            max_size=10,
        ),
        frozen_share=st.floats(0.1, 0.9),
        query=queries,
        window=st.tuples(st.integers(0, 40), st.integers(0, 40)).map(sorted),
        sort=st.booleans(),
    )
    def test_file_frozen_before_the_dataset_grew(
        self, line_graph, tmp_path_factory, timed, frozen_share, query, window, sort
    ):
        """A file frozen from a prefix of the dataset, opened after the
        dataset grew: the tail lives in the overlay's front, and interval
        queries must find it there — with the temporal filter on (which,
        on a sorted file, cuts each half by its own departure keys) and
        off."""
        ds = TrajectoryDataset(line_graph)
        path = tmp_path_factory.mktemp("grown") / "idx.reproidx"
        cut = max(1, int(len(timed) * frozen_share))
        for i, (symbols, departure) in enumerate(timed):
            if i == cut:
                FrozenInvertedIndex.freeze(ds, sort_by_departure=sort).save(path)
            ds.add(Trajectory(symbols, timestamps=[departure + j for j in range(len(symbols))]))
        dict_engine = SubtrajectorySearch(ds, lev, sort_by_departure=sort)
        frozen_engine = SubtrajectorySearch(
            ds, lev, sort_by_departure=sort, index_backend="frozen", index_path=str(path)
        )
        assert frozen_engine.index.delta_postings == sum(
            len(symbols) for symbols, _ in timed[cut:]
        )
        tau = min(1.5, float(len(query)))  # keep the query non-degenerate
        for temporal_filter in (True, False):
            asked = dict(
                tau=tau,
                time_interval=TimeInterval(*window),
                temporal_filter=temporal_filter,
            )
            ref = dict_engine.query(query, **asked)
            got = frozen_engine.query(query, **asked)
            assert got.matches == ref.matches, temporal_filter
            assert got.num_candidates == ref.num_candidates, temporal_filter
