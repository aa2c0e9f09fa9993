"""Tests of the benchmark itself.

Run from the repository root (they are not part of ``tests/``)::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.run import WORKLOAD_NAMES, tail  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300)


def tiny(workload, *extra, cwd=ROOT, env=None):
    return bench("--workload", workload, "--seed", "1", "--tiny",
                 *extra, cwd=cwd, env=env)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_line(proc):
    return next(line.split()[1] for line in proc.stdout.splitlines()
                if line.startswith("digest "))


def checkout_copy(tmp_path, with_src=True):
    """The files a checkout holds: BENCHMARK.json, perfbench/, src/."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if with_src:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = tiny(workload, "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = declared()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    lines = proc.stdout.splitlines()
    assert any(line.startswith("host {") for line in lines)
    for metric in metrics:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} = ")
                   and f" {metric['unit']}" in line for line in lines)


@pytest.mark.parametrize("workload", ["graph-cached", "campaign-resume"])
def test_digest_is_identical_across_hash_seeds(workload):
    digests = set()
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = tiny(workload, "--seconds", "0", cwd=ROOT, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.add(digest_line(proc))
    assert len(digests) == 1


def test_perturbed_digest_is_reported_as_a_failure(tmp_path):
    checkout = checkout_copy(tmp_path)
    path = checkout / "perfbench" / "digests.json"
    recorded = json.loads(path.read_text())
    good = recorded["tiny"]["memcached-lp"]["1"]
    bad = ("0" if good[0] != "0" else "1") + good[1:]
    recorded["tiny"]["memcached-lp"]["1"] = bad
    path.write_text(json.dumps(recorded))
    proc = tiny("memcached-lp", "--seconds", "0", cwd=checkout)
    assert proc.returncode == 1
    result = result_line(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "MISMATCH" in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    checkout = checkout_copy(tmp_path, with_src=False)
    proc = tiny("memcached-lp", "--seconds", "1", cwd=checkout)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reasons_cover_every_workload_and_layer_metric():
    with open(os.path.join(HERE, "reasons.json"), encoding="utf-8") as f:
        reasons = json.load(f)
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)
    assert sorted(reasons["workloads"]) == sorted(names)
    assert sorted(reasons["per_layer"]) == sorted(
        m["name"] for m in spec["per_layer"])
    for entry in reasons["per_layer"].values():
        assert set(entry["on"]) <= set(names)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    value, percentile = tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_times_subtract_children_and_coverage_counts_them():
    rec = SpanRecorder()
    rec.rep = 0
    with rec.span("rep"):
        with rec.span("a"):
            with rec.span("b"):
                pass
    own = rec.self_times()
    durations = [end - start for _, start, end, _, _ in rec.spans]
    assert own[0] == pytest.approx(durations[0] - durations[1])
    assert own[1] == pytest.approx(durations[1] - durations[2])
    assert own[2] == pytest.approx(durations[2])
    assert rec.coverage() == pytest.approx(durations[1] / durations[0])
