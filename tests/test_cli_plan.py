"""Tests for the ``repro plan`` dry-run subcommand."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlanPreset:
    def test_expands_without_running(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--preset", "memcached-smt",
            "--qps", "10000", "50000", "--runs", "3")
        assert code == 0
        assert "workload=memcached" in out
        assert "2 clients x 2 conditions x 2 loads = 8" in out
        assert "LP-SMToff" in out and "HP-SMTon" in out
        assert "nothing executed" in out

    def test_seed_schedule_printed(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--preset", "socialnetwork",
            "--qps", "100", "--runs", "2", "--seed", "5")
        assert code == 0
        # cell_seed(5, ...) spans two runs: "<base>..<base+1>".
        assert ".." in out

    def test_totals_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--preset", "synthetic",
            "--qps", "5000", "--runs", "2", "--requests", "100")
        assert code == 0
        # 2 clients x 1 condition x 1 qps x 2 runs = 4 runs.
        assert "totals: 4 runs, 400 simulated requests" in out


class TestPlanAdHoc:
    def test_workload_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--workload", "synthetic",
            "--param", "added_delay_us=200", "--qps", "5000",
            "--clients", "LP", "--runs", "2")
        assert code == 0
        assert "added_delay_us" in out
        assert "1 clients x 1 conditions x 1 loads = 1" in out

    def test_knob_builds_two_conditions(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--workload", "memcached",
            "--knob", "c1e", "--qps", "10000", "--runs", "1")
        assert code == 0
        assert "C1Eoff" in out and "C1Eon" in out

    def test_unknown_workload_is_a_validation_error(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", "--workload", "memcachd",
            "--qps", "1000")
        assert code == 1
        assert "did you mean 'memcached'" in err

    def test_unknown_param_is_a_validation_error(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", "--workload", "synthetic",
            "--param", "added_delay=5", "--qps", "1000")
        assert code == 1
        assert "unknown parameter" in err

    def test_unknown_client_preset_is_a_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", "--workload", "memcached",
            "--clients", "BOGUS", "--qps", "1000")
        assert code == 1
        assert "unknown client preset 'BOGUS'" in err

    def test_bad_param_syntax_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", "--workload", "synthetic",
            "--param", "nonsense", "--qps", "1000")
        assert code == 1
        assert "KEY=VALUE" in err


class TestPlanSpecFile:
    def test_spec_file_round_trip(self, tmp_path, capsys):
        spec = {
            "name": "file-plan",
            "workload": "memcached",
            "clients": ["LP"],
            "conditions": {"SMToff": {"knob": "smt", "enabled": False}},
            "qps": [50_000],
            "runs": 2,
            "num_requests": 100,
        }
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, "plan", "--spec", str(path))
        assert code == 0
        assert "campaign 'file-plan'" in out
        assert "nothing executed" in out

    @pytest.mark.parametrize("bad, message", [
        ({"runs": "three"}, "runs must be int, got 'three'"),
        ({"qps": ["fast"]}, "qps must be float, got 'fast'"),
        ({"qps": 50_000}, "qps_list must be a list of numbers, got 50000"),
        ({"extra": {"warmup_fraction": "x"}},
         "warmup_fraction must be float, got 'x'"),
    ], ids=["runs-word", "qps-word", "qps-scalar", "warmup-word"])
    def test_malformed_value_is_a_clean_error(self, tmp_path, capsys,
                                              bad, message):
        """A wrong-typed value fails like a misspelled key does: exit
        1 with an ``error:`` line naming it, never a traceback."""
        spec = {"name": "bad-value", "workload": "memcached",
                "conditions": {"baseline": "baseline"},
                "qps": [50_000], **bad}
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, "plan", "--spec", str(path))
        assert code == 1
        assert err.startswith("error:")
        assert message in err
        assert "Traceback" not in err

    def test_hashes_match_campaign_expansion(self, tmp_path, capsys):
        """The dry run prints the same condition hashes the store
        would be keyed by."""
        from repro.campaign.presets import campaign_by_name

        spec = campaign_by_name("memcached-smt").with_overrides(
            qps_list=(10_000.0,), runs=2)
        expected = [c.content_hash()[:12] for c in spec.expand()]
        code, out, _ = run_cli(
            capsys, "plan", "--preset", "memcached-smt",
            "--qps", "10000", "--runs", "2")
        assert code == 0
        for short_hash in expected:
            assert short_hash in out


class TestAdHocOnlyFlags:
    """--param/--knob/--clients must not be silently dropped when the
    campaign comes from --spec/--preset (a dry run that shows a
    different campaign than the flags describe is worse than an
    error)."""

    @pytest.mark.parametrize("flags", [
        ("--param", "added_delay_us=200"),
        ("--knob", "c1e"),
        ("--clients", "LP"),
    ])
    def test_rejected_with_preset(self, capsys, flags):
        code, _, err = run_cli(
            capsys, "plan", "--preset", "memcached-smt", *flags)
        assert code == 1
        assert "only applies to an ad-hoc --workload" in err


def test_adhoc_defaults_come_from_the_workload_definition(capsys):
    """Without --qps, the ad-hoc sweep is the workload's registered
    paper sweep, not a hardcoded fallback."""
    from repro.workloads.registry import workload_by_name

    sweep = workload_by_name("hdsearch").qps_sweep
    code, out, _ = run_cli(
        capsys, "plan", "--workload", "hdsearch",
        "--clients", "LP", "--runs", "1")
    assert code == 0
    assert f"{len(sweep)} loads" in out


def test_plan_requires_a_source():
    with pytest.raises(SystemExit):
        main(["plan"])
