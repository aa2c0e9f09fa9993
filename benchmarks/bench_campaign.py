"""Campaign orchestration: parallel speedup and store-replay cost.

Runs the same 12-condition Memcached SMT campaign three ways:

* serial inline (the pre-campaign figure-study path),
* fanned out over every core via the ProcessPoolExecutor path
  (persisting to the result store as it goes),
* replayed entirely from the store (cache hits only).

Asserted shapes: parallel results are bit-identical to serial ones,
and the replay touches zero simulations.  The printed table is the
number to quote: near-linear speedup with cores on multi-core hosts,
and a replay that costs milliseconds regardless of campaign size.
"""

import os
import time

from benchmarks.conftest import BENCH_REQUESTS, BENCH_RUNS, run_once
from repro.api import experiment
from repro.campaign.executor import execute_campaign
from repro.campaign.serialize import experiment_result_to_dict
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.config.presets import server_with_smt

QPS_LIST = (10_000, 100_000, 500_000)


def build_spec():
    return CampaignSpec(
        name="bench-campaign",
        plan=(experiment("memcached").load(num_requests=BENCH_REQUESTS)
              .policy(runs=BENCH_RUNS).build()),
        conditions={"SMToff": server_with_smt(False),
                    "SMTon": server_with_smt(True)},
        qps_list=QPS_LIST,
    )


def sample_map(outcome):
    return {h: result.avg_samples().tolist()
            for h, result in outcome.results().items()}


def test_campaign_parallel_speedup(benchmark, tmp_path):
    spec = build_spec()
    workers = os.cpu_count() or 1
    assert spec.size() == 12

    started = time.perf_counter()
    serial = execute_campaign(spec, max_workers=1)
    serial_s = time.perf_counter() - started

    with ResultStore(str(tmp_path / "bench.sqlite")) as store:
        parallel = run_once(
            benchmark,
            lambda: execute_campaign(
                spec, store=store, max_workers=workers))
        parallel_s = parallel.elapsed_s

        started = time.perf_counter()
        replay = execute_campaign(spec, store=store, max_workers=workers)
        replay_s = time.perf_counter() - started

    print()
    print(f"Campaign: {spec.size()} conditions x {spec.runs} runs "
          f"x {spec.num_requests} requests ({workers} workers)")
    print(f"{'path':<22}{'wall (s)':>10}{'speedup':>10}")
    print(f"{'serial inline':<22}{serial_s:>10.2f}{1.0:>10.2f}")
    print(f"{'parallel pool':<22}{parallel_s:>10.2f}"
          f"{serial_s / parallel_s:>10.2f}")
    print(f"{'store replay':<22}{replay_s:>10.2f}"
          f"{serial_s / replay_s:>10.2f}")

    # --- shape assertions -------------------------------------------------
    assert parallel.ok and len(parallel.executed) == 12
    assert sample_map(parallel) == sample_map(serial), \
        "parallel campaign must be bit-identical to the serial path"
    assert len(replay.hits) == 12 and not replay.executed, \
        "second invocation must be served entirely from the store"
    assert replay_s < serial_s / 5, \
        "store replay must be far cheaper than re-simulation"


def test_store_put_many_batching(tmp_path):
    """Micro-bench: one batched transaction vs. a commit per row.

    The campaign executor drains results through
    :meth:`ResultStore.put_many` in ``PERSIST_BATCH``-sized groups;
    this pins the reason -- on a file-backed WAL store, N one-row
    transactions pay N journal round-trips where the batch pays one.
    """
    conditions = CampaignSpec(
        name="bench-store",
        plan=(experiment("memcached").load(num_requests=40)
              .policy(runs=1).build()),
        conditions={"SMToff": server_with_smt(False)},
        qps_list=tuple(10_000.0 + 1_000.0 * i for i in range(96)),
    ).expand()
    result = conditions[0].to_plan().run()
    result_dict = experiment_result_to_dict(result)
    entries = [{"spec": condition, "result_dict": result_dict,
                "elapsed_s": 0.1} for condition in conditions]

    def best_of(runs, fn):
        best = min(fn() for _ in range(runs))
        return best

    def timed_loop():
        with ResultStore(str(tmp_path / "loop.sqlite")) as store:
            store.clear()
            started = time.perf_counter()
            for entry in entries:
                store.put(entry["spec"], result,
                          result_dict=result_dict, elapsed_s=0.1)
            elapsed = time.perf_counter() - started
            assert store.count() == len(entries)
        return elapsed

    def timed_batch():
        with ResultStore(str(tmp_path / "batch.sqlite")) as store:
            store.clear()
            started = time.perf_counter()
            store.put_many(entries)
            elapsed = time.perf_counter() - started
            assert store.count() == len(entries)
        return elapsed

    loop_s = best_of(3, timed_loop)
    batch_s = best_of(3, timed_batch)
    print()
    print(f"Store persistence, {len(entries)} rows (best of 3):")
    print(f"{'path':<28}{'wall (ms)':>10}{'speedup':>10}")
    print(f"{'put() per row':<28}{loop_s * 1e3:>10.2f}{1.0:>10.2f}")
    print(f"{'put_many() one txn':<28}{batch_s * 1e3:>10.2f}"
          f"{loop_s / batch_s:>10.2f}")
    assert batch_s < loop_s, \
        "batched persistence must beat a transaction per row"
