"""Byte-level goldens for the CLI's plan-running surface.

Pinned so a refactor of the command-line layer provably changes no
experiment: the dry-run listing of every campaign preset, the full
``repro run`` summary (single process and sharded), the plan hash of
every cluster and service-graph run in the CLI tests, and the
Chrome trace a traced run writes.
"""

import hashlib

import pytest

from repro.campaign.presets import preset_names
from repro.cli import main as cli_main

#: sha256 of ``repro plan --preset P`` stdout.
PLAN_PRESET_SHA256 = {
    "hdsearch-c1e":
        "401ff26592aece4e30698f40326cb039b82f3b95b2583568faa06df206098114",
    "hdsearch-cluster":
        "4a6d22bdb356ddb5c2a6a3b81c934b767922ca86300228d15c3019a5b9934df1",
    "hdsearch-graph":
        "bb5111a64b94863a102648dbecf808dc7e761b68379eafdabd1c1bb3ed15eb5f",
    "hdsearch-smt":
        "dda5e95dcefb17620eb236f97e201f3a9b3f4af1de61502f5137779f35d51734",
    "memcached-c1e":
        "7e46cbf3dcc90b63b324400df2874fb842afa5d5cc39110b87bc11fd6f1f87d5",
    "memcached-cached":
        "57b13a12a68973821bba2e042a61f79143b3538bf618af78fd6fe497b412e35c",
    "memcached-cluster":
        "99aed5df45ca5b26ea9a233481a04ddd0a847ae5d7fdc6594eb58cc7d715ef09",
    "memcached-smt":
        "fb5aa296b0ca9f2ff7b3f7e86a0ec0871e0f2ce829cc54ef7f1b1a2c257c12e8",
    "socialnetwork":
        "5c18f3dbd2714a267157c13dfa83eec9be10f1124319a2a08601cc6066cdb86d",
    "synthetic":
        "36ce8b7250f2053b1f89b62cdab5d48b76a3ec48ab5ef8f03eb5b826d6bed3bc",
}

RUN_ARGS = ["run", "--workload", "memcached", "--qps", "100000",
            "--requests", "200", "--runs", "2", "--seed", "3"]

RUN_STDOUT = """\
memcached @ 100000 QPS (2 runs x 200 requests, seed 3)
plan hash: 670f5a85c03b
  median avg latency:        85.6 us
  median p99 latency:        99.9 us
  median true p99:           49.2 us
  server utilization:       0.093
"""

SHARDED_RUN_STDOUT = """\
memcached @ 100000 QPS (2 runs x 200 requests, seed 3, 2 shard workers)
plan hash: 94e26aab4b17
  median avg latency:        89.3 us
  median p99 latency:       105.4 us
  median true p99:           50.0 us
  server utilization:       0.045
"""

#: The plan hash every cluster / service-graph invocation prints.
PLAN_HASHES = [
    (["run", "--workload", "memcached", "--nodes", "4",
      "--policy", "power-of-two", "--runs", "2", "--requests", "120",
      "--qps", "200000", "--seed", "3"], "8ab3de970757"),
    (["run", "--workload", "synthetic", "--nodes", "2",
      "--policy", "round-robin", "--runs", "1", "--requests", "60"],
     "3c208f538d07"),
    (["run", "--workload", "hdsearch", "--nodes", "1",
      "--shards", "4", "--fanout", "2", "--quorum", "1", "--runs", "1",
      "--requests", "60", "--qps", "1000"], "fe2ae858d742"),
    (["run", "--workload", "memcached", "--nodes", "2",
      "--policy", "random", "--runs", "1", "--requests", "80",
      "--qps", "100000"], "d1233ebb6667"),
    (["run", "--workload", "memcached", "--graph", "memcached-cached",
      "--runs", "2", "--requests", "150", "--qps", "50000",
      "--seed", "3"], "f418380bfae6"),
    (["run", "--graph", "memcached-cached", "--arrival", "diurnal",
      "--runs", "1", "--requests", "80", "--qps", "50000"],
     "c82dd5589036"),
    (["run", "--workload", "hdsearch", "--graph", "hdsearch-graph",
      "--runs", "1", "--requests", "60", "--qps", "1000"],
     "8f1247273a5a"),
    (["run", "--graph", "memcached-cached", "--engine", "vectorized",
      "--runs", "1", "--requests", "80", "--qps", "50000"],
     "b252d72e7ff5"),
]

TRACE_ARGS = ["run", "--workload", "memcached", "--qps", "50000",
              "--requests", "300", "--seed", "5", "--trace",
              "--runs", "1"]

TRACE_SHA256 = (
    "f14589152ce724d10df2737334507457e96756ac727345d5a6c09ffd97ad113e")


@pytest.mark.parametrize("preset", sorted(PLAN_PRESET_SHA256))
def test_plan_preset_output_is_byte_identical(preset, capsys):
    assert cli_main(["plan", "--preset", preset]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        PLAN_PRESET_SHA256[preset]


def test_every_preset_is_pinned():
    assert set(preset_names()) == set(PLAN_PRESET_SHA256)


def test_run_stdout_is_byte_identical(capsys):
    assert cli_main(list(RUN_ARGS)) == 0
    assert capsys.readouterr().out == RUN_STDOUT


def test_sharded_run_stdout_is_byte_identical(capsys):
    assert cli_main(RUN_ARGS + ["--workers", "2",
                                "--processes", "1"]) == 0
    assert capsys.readouterr().out == SHARDED_RUN_STDOUT


@pytest.mark.parametrize("argv, plan_hash", PLAN_HASHES,
                         ids=[f"invocation-{i}"
                              for i in range(len(PLAN_HASHES))])
def test_topology_plan_hash_is_pinned(argv, plan_hash, capsys):
    assert cli_main(list(argv)) == 0
    out = capsys.readouterr().out
    assert f"plan hash: {plan_hash}\n" in out


def test_trace_json_is_byte_identical(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert cli_main(TRACE_ARGS + ["--output", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == TRACE_SHA256
