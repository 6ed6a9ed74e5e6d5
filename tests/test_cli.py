"""CLI: end-to-end workflows through ``python -m repro``."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def workspace(tmp_path):
    net = tmp_path / "net.txt"
    trips = tmp_path / "trips.jsonl"
    assert main(
        [
            "generate-network",
            "--style",
            "grid",
            "--rows",
            "8",
            "--cols",
            "8",
            "--seed",
            "3",
            "--out",
            str(net),
        ]
    ) == 0
    assert main(
        [
            "generate-trips",
            "--network",
            str(net),
            "--count",
            "40",
            "--min-length",
            "6",
            "--max-length",
            "25",
            "--seed",
            "4",
            "--out",
            str(trips),
        ]
    ) == 0
    return net, trips


class TestGenerate:
    def test_network_file_loadable(self, workspace):
        from repro.network.io import load_network

        net, _ = workspace
        graph = load_network(net)
        assert graph.num_vertices == 64

    def test_trips_file_loadable(self, workspace):
        from repro.network.io import load_network
        from repro.trajectory.dataset import TrajectoryDataset

        net, trips = workspace
        ds = TrajectoryDataset.load(load_network(net), trips)
        assert len(ds) == 40

    def test_radial_and_random_styles(self, tmp_path):
        for style in ("radial", "random"):
            out = tmp_path / f"{style}.txt"
            assert main(
                ["generate-network", "--style", style, "--rows", "4",
                 "--cols", "8", "--out", str(out)]
            ) == 0


class TestStats:
    def test_stats_json(self, workspace, capsys):
        net, trips = workspace
        assert main(["stats", "--network", str(net), "--trips", str(trips)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["num_trajectories"] == 40
        assert out["num_vertices"] == 64


class TestQuery:
    def _query_of(self, workspace, length=5):
        from repro.network.io import load_network
        from repro.trajectory.dataset import TrajectoryDataset

        net, trips = workspace
        ds = TrajectoryDataset.load(load_network(net), trips)
        tid = max(range(len(ds)), key=lambda t: len(ds.symbols(t)))
        return ",".join(str(v) for v in list(ds.symbols(tid))[:length])

    def test_query_finds_source_trajectory(self, workspace, capsys):
        net, trips = workspace
        query = self._query_of(workspace)
        assert main(
            [
                "query",
                "--network",
                str(net),
                "--trips",
                str(trips),
                "--query",
                query,
                "--tau-ratio",
                "0.2",
                "--function",
                "edr",
                "--epsilon",
                "60",
            ]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total_matches"] >= 1
        assert out["candidates"] >= 1

    def test_query_with_explicit_tau(self, workspace, capsys):
        net, trips = workspace
        query = self._query_of(workspace)
        assert main(
            ["query", "--network", str(net), "--trips", str(trips),
             "--query", query, "--tau", "1.5", "--function", "lev"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tau"] == 1.5

    def test_surs_requires_edge_representation(self, workspace):
        net, trips = workspace
        query = self._query_of(workspace)
        with pytest.raises(SystemExit):
            main(
                ["query", "--network", str(net), "--trips", str(trips),
                 "--query", query, "--function", "surs"]
            )

    def test_temporal_flags_must_pair(self, workspace):
        net, trips = workspace
        query = self._query_of(workspace)
        with pytest.raises(SystemExit):
            main(
                ["query", "--network", str(net), "--trips", str(trips),
                 "--query", query, "--time-from", "0"]
            )

    def test_bad_query_string(self, workspace):
        net, trips = workspace
        with pytest.raises(SystemExit):
            main(
                ["query", "--network", str(net), "--trips", str(trips),
                 "--query", "1,banana"]
            )


class TestTravelTime:
    def test_estimate(self, workspace, capsys):
        net, trips = workspace
        query = TestQuery()._query_of(workspace, length=4)
        assert main(
            ["travel-time", "--network", str(net), "--trips", str(trips),
             "--query", query, "--function", "lev", "--tau-ratio", "0.3"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exact_occurrences"] >= 1
        assert out["estimate"] is not None


class TestErrorsAreOneLine:
    """Whatever the library refuses — a representation mismatch, a bad
    knob, a bad threshold, an unknown symbol, a missing file — leaves the
    CLI as one ``repro: ...`` line and a non-zero exit, never a
    traceback."""

    CASES = {
        "surs on a vertex dataset": ["travel-time", "--function", "surs"],
        "negative cache budget": ["query", "--trie-cache-mb", "-1"],
        "nan threshold": ["query", "--tau", "nan"],
        "out-of-alphabet symbol": ["query", "--query", "1,99999"],
        "missing network file": ["query", "--network", "/nonexistent/net.txt"],
        "zero shards": ["serve", "--shards", "0"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_with_one_line(self, workspace, case):
        import os
        import subprocess
        import sys

        import repro

        net, trips = workspace
        command, *flags = self.CASES[case]
        argv = [command, "--network", str(net), "--trips", str(trips)]
        if command != "serve":
            argv += ["--query", "1,2,3"]
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv, *flags],  # later flags win
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode != 0
        assert "Traceback" not in done.stderr
        assert len(done.stderr.strip().splitlines()) == 1, done.stderr
