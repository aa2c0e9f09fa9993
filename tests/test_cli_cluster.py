"""``repro run`` on cluster topologies, and cluster campaign plumbing."""

import pytest

from repro.cli import main as cli_main


class TestClusterCommand:
    def test_runs_and_reports_per_node_utilization(self, capsys):
        exit_code = cli_main([
            "run", "--workload", "memcached",
            "--nodes", "4", "--policy", "power-of-two",
            "--runs", "2", "--requests", "120",
            "--qps", "200000", "--seed", "3"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "4 nodes, power-of-two" in out
        assert "median p99 latency" in out
        assert "per-node utilization" in out
        for node in range(4):
            assert f"node {node}:" in out

    def test_default_qps_scales_with_nodes(self, capsys):
        exit_code = cli_main([
            "run", "--workload", "synthetic",
            "--nodes", "2", "--policy", "round-robin",
            "--runs", "1", "--requests", "60"])
        out = capsys.readouterr().out
        assert exit_code == 0
        # synthetic default_qps is 10K; two nodes double the offer.
        assert "@ 20000 QPS" in out

    def test_sharded_topology_runs(self, capsys):
        exit_code = cli_main([
            "run", "--workload", "hdsearch",
            "--nodes", "1", "--shards", "4", "--fanout", "2",
            "--quorum", "1", "--runs", "1", "--requests", "60",
            "--qps", "1000"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "4 shards (fanout 2, quorum 1)" in out

    def test_unknown_workload_fails_cleanly(self, capsys):
        exit_code = cli_main([
            "run", "--workload", "memcachex",
            "--runs", "1", "--requests", "30"])
        err = capsys.readouterr().err
        assert exit_code == 1
        assert "unknown workload" in err

    def test_invalid_topology_fails_cleanly(self, capsys):
        # flags -> the word the error must name.  Without --qps the
        # default load derives from the topology, so a bad --nodes
        # must be reported before that derivation.
        cases = [
            (["--shards", "2", "--fanout", "3"], "fanout"),
            (["--nodes", "0"], "nodes"),
        ]
        for flags, named in cases:
            exit_code = cli_main([
                "run", "--workload", "memcached", *flags,
                "--runs", "1", "--requests", "30"])
            err = capsys.readouterr().err
            assert exit_code == 1, flags
            assert named in err, (flags, err)

    def test_deterministic_across_invocations(self, capsys):
        argv = ["run", "--workload", "memcached", "--nodes", "2",
                "--policy", "random", "--runs", "1",
                "--requests", "80", "--qps", "100000"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == first


class TestClusterCampaignCli:
    def test_cluster_preset_runs_and_resumes(self, tmp_path, capsys):
        store = str(tmp_path / "cluster.sqlite")
        argv = ["campaign", "run", "--preset", "memcached-cluster",
                "--store", store, "--qps", "200000",
                "--runs", "1", "--requests", "60", "--serial"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert "2 conditions" in first
        assert cli_main(argv) == 0
        rerun = capsys.readouterr().out
        assert "2 cached, 0 executed" in rerun

    def test_plan_dry_run_shows_cluster_topology(self, capsys):
        exit_code = cli_main([
            "plan", "--preset", "hdsearch-cluster",
            "--runs", "2", "--qps", "1000"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "cluster topology:" in out
        assert "8 shards (fanout 4, quorum 4)" in out
        assert "nothing executed" in out


class TestClusterStudyFigures:
    def test_cluster_study_grid_and_rendering(self):
        from repro.analysis.figures import (
            cluster_study,
            render_cluster_series,
        )

        grid = cluster_study(
            workload="synthetic",
            nodes_list=(2, 3),
            policies=("round-robin", "least-outstanding"),
            qps_list=(10_000,),
            runs=1, num_requests=60)
        assert grid.qps_list == (10_000.0,)
        for nodes in (2, 3):
            for policy in ("round-robin", "least-outstanding"):
                value = grid.series(nodes, policy, "p99")[0][1]
                assert value > 0
                low, high = grid.node_utilization_spread(
                    nodes, policy, 10_000.0)
                assert 0 < low <= high < 1
        text = render_cluster_series(grid, "p99")
        assert "2n-round-robin" in text
        assert "3n-least-outstanding" in text

    def test_cluster_study_rejects_multiple_clients(self):
        from repro.analysis.figures import cluster_study
        from repro.config.presets import HP_CLIENT, LP_CLIENT
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="exactly one"):
            cluster_study(
                workload="synthetic", nodes_list=(2,),
                policies=("round-robin",), qps_list=(10_000,),
                runs=1, num_requests=40,
                clients={"LP": LP_CLIENT, "HP": HP_CLIENT})

    def test_cluster_study_unknown_cell_raises(self):
        from repro.analysis.figures import ClusterStudyGrid
        from repro.errors import ExperimentError

        grid = ClusterStudyGrid(
            workload="memcached", nodes_list=(2,),
            policies=("random",))
        with pytest.raises(ExperimentError, match="no result"):
            grid.result(2, "random", 1_000.0)
