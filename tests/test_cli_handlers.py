"""End-to-end tests for the ``capacity`` and ``tune --apply`` CLI
handlers, plus the ``--seed`` threading added with the campaign PR."""

import pytest

from repro.cli import main as cli_main

#: A tiny capacity grid: two load points, two runs, generous QoS so
#: both observers find nonzero capacity and the provisioning section
#: renders.
TINY_CAPACITY = [
    "capacity", "--qps", "20000", "40000", "--runs", "2",
    "--requests", "60", "--qos-p99", "5000",
    "--target-qps", "100000",
]


class TestCapacity:
    def test_capacity_end_to_end(self, capsys):
        assert cli_main(list(TINY_CAPACITY)) == 0
        output = capsys.readouterr().out
        # Both observers report a capacity under the QoS target...
        assert "LP: capacity" in output
        assert "HP: capacity" in output
        assert "p99 <= 5000 us" in output
        # ...and the fleet-provisioning comparison renders.
        assert "Fleet sizes for 100000 QPS:" in output
        assert "machines" in output
        assert "the optimistic observer" in output

    def test_capacity_sweep_limited_under_tight_qos(self, capsys):
        assert cli_main([
            "capacity", "--qps", "20000", "--runs", "2",
            "--requests", "60", "--qos-p99", "5000",
            "--target-qps", "100000"]) == 0
        # One sweep point means capacity equals the sweep edge.
        assert "sweep-limited" in capsys.readouterr().out

    def test_capacity_is_seed_deterministic(self, capsys):
        cli_main(list(TINY_CAPACITY) + ["--seed", "7"])
        first = capsys.readouterr().out
        cli_main(list(TINY_CAPACITY) + ["--seed", "7"])
        assert capsys.readouterr().out == first

    def test_capacity_seed_changes_the_samples(self, capsys):
        """Different base seeds draw different runs; the handler must
        actually thread --seed through to the experiment runner."""
        import numpy as np

        from repro.api import experiment

        def p99(seed):
            result = (experiment("memcached").client("LP")
                      .load(qps=20_000, num_requests=60)
                      .policy(runs=2, base_seed=seed).run())
            return float(np.median(result.p99_samples()))

        assert p99(0) != p99(1_000_000)


class TestTuneApply:
    def test_apply_plans_then_applies(self, capsys):
        assert cli_main(["tune", "--config", "HP", "--apply"]) == 0
        output = capsys.readouterr().out
        assert "Tuning plan" in output
        assert "applied" in output
        assert "dry run" not in output

    def test_apply_reports_reboot_for_boot_knobs(self, capsys):
        # HP wants idle=poll, a grub (boot-time) change on the fake
        # Skylake host, so apply must flag the reboot.
        assert cli_main(["tune", "--config", "HP", "--apply"]) == 0
        assert "reboot required" in capsys.readouterr().out

    def test_dry_run_performs_nothing(self, capsys):
        assert cli_main(["tune", "--config", "HP"]) == 0
        output = capsys.readouterr().out
        assert "dry run" in output
        assert "applied" not in output


class TestStudySeed:
    def test_study_accepts_seed(self, capsys):
        base = ["study", "--workload", "memcached", "--knob", "smt",
                "--qps", "20000", "--runs", "2", "--requests", "60"]
        assert cli_main(base + ["--seed", "11"]) == 0
        seeded = capsys.readouterr().out
        assert cli_main(base) == 0
        unseeded = capsys.readouterr().out
        assert seeded.splitlines()[0] == unseeded.splitlines()[0]
        assert seeded != unseeded


class TestErrorBoundary:
    @pytest.mark.parametrize("argv", [["tune", "--config", "XX"],
                                      ["recommend", "--target", "XX"]])
    def test_unknown_preset_exits_1_with_one_line(self, argv, capsys):
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: unknown client preset 'XX'; "
                                "expected one of ['HP', 'LP']\n")


class TestPlanFlags:
    #: One non-default value per plan-mapped flag.
    SAMPLES = {
        "hardware.client": "HP", "load.qps": 5e4,
        "load.num_requests": 10, "load.arrival": "diurnal",
        "policy.runs": 2, "policy.base_seed": 1,
        "policy.sink": "streaming", "policy.trace": True,
        "policy.engine": "vectorized", "policy.workers": 2,
        "graph": "memcached-cached", "cluster.nodes": 3,
        "cluster.lb_policy": "random", "cluster.shards": 2,
        "cluster.fanout": 2, "cluster.quorum": 1,
        "cluster.replication": 2,
    }

    def test_every_row_sets_its_plan_field(self):
        from repro.api import experiment
        from repro.cli import ARRIVAL_SHAPES, PLAN_FLAGS

        paths = [path for _, path, _, _ in PLAN_FLAGS]
        assert len(set(paths)) == len(paths)
        assert set(paths) == set(self.SAMPLES) | {"workload"}
        base = experiment("memcached").build().with_cluster(
            nodes=2, shards=4)
        for path, value in self.SAMPLES.items():
            if path == "load.arrival":
                value = ARRIVAL_SHAPES[value]
            changed = base.with_fields({path: value})
            assert changed.content_hash() != base.content_hash(), path

    def test_run_topologies_default_to_the_workload_request_count(
            self, capsys):
        assert cli_main(["run", "--workload", "synthetic", "--nodes", "2",
                         "--runs", "1"]) == 0
        assert "(1 runs x 2000 requests" in capsys.readouterr().out
