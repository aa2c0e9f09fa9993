"""The benchmark's workloads, driven only through the public API.

Every workload is open loop in simulated time: Poisson (or diurnal)
arrivals at a fixed offered rate, whatever the host does.  On the
host each repetition is a batch computation run from this process,
with at most ``min(2, nproc)`` pool processes.

A workload exposes the same small surface to ``run.py``:

* ``setup(rec)`` builds what the timed body needs (plans, a
  pre-seeded result store) and ``warmup()`` runs one untimed
  repetition on a seed outside the timed schedule;
* ``rep(i)`` runs timed repetition *i* with tracing off;
  ``traced_rep(i, rec)`` runs the same repetition with one span per
  layer call;
* ``oracle()`` recomputes one pass on the oracle path (the reference
  engine, serial shard placement, or the inline store-less executor).

A repetition returns *units* -- ``(key, runs)`` pairs of simulated
:class:`~repro.core.testbed.RunMetrics` -- which ``run.py`` digests,
plus the host-time samples that ``run_s`` is computed from.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import Experiment, experiment
from repro.campaign import CampaignExecutor, ResultStore, campaign_by_name
from repro.errors import ExperimentError
from repro.loadgen.interarrival import ArrivalSpec
from repro.parallel import (
    merged_run_metrics,
    run_shard,
    run_sharded,
    shard_layout,
)

from perfbench.spans import REP

QPS = 200_000.0
#: Seeds per pass of the single-plan workloads.
REPS_PER_PASS = 8
#: Offset of the warm-up seed from a pass's base seed.
WARMUP_OFFSET = 999

Unit = Tuple[Any, Optional[list]]


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass
class Rep:
    """What one repetition produced.

    Attributes:
        units: ``(key, runs)`` per simulated result; ``runs`` is None
            when that result failed.
        requests: simulated requests delivered (store hits included).
        samples: host seconds per run, the ``run_s`` samples.
        counters: simulated work counts (traced repetitions only).
        queue_waits: campaign pool queue waits, seconds.
        hits: campaign conditions served from the store.
        index: the repetition's index (its span repetition id).
    """

    units: List[Unit]
    requests: int
    samples: List[float]
    counters: Dict[str, float] = field(default_factory=dict)
    queue_waits: List[float] = field(default_factory=list)
    hits: int = 0
    index: int = -1


def _add(counters: Dict[str, float], key: str, value: float) -> None:
    counters[key] = counters.get(key, 0.0) + float(value)


def testbed_counters(testbed: Any, counters: Dict[str, float]) -> None:
    """Add a finished testbed's event, kernel and stream counts."""
    sim = testbed.sim
    _add(counters, "events", sim.events_processed)
    if hasattr(sim, "kernel_counters"):
        kernel = sim.kernel_counters()
        for key in ("batches", "batched_events", "scalar_fallbacks"):
            _add(counters, f"kernel.{key}", kernel[key])
    for name, stats in testbed.streams.batched_stats().items():
        purpose = name.rsplit("/", 1)[-1]
        _add(counters, f"streams.{purpose}.batched",
             stats["batched_served"])
        _add(counters, f"streams.{purpose}.scalar",
             stats["scalar_served"])


#: obs-metric ``(family, leaf)`` -> counter key, summed over components.
_OBS_COUNTERS = {
    ("cache", "hits"): "cache.hits",
    ("cache", "misses"): "cache.misses",
    ("fanout", "subs_issued"): "fanout.subs",
    ("fanout", "roots_completed"): "fanout.roots",
    ("resilience", "attempts_issued"): "resilience.attempts",
    ("resilience", "calls"): "resilience.calls",
}


def obs_counters(metrics: Any, counters: Dict[str, float]) -> None:
    """Add the graph-layer counts harvested into ``obs_metrics``."""
    for name, value in metrics.obs_metrics:
        parts = name.split(".")
        key = _OBS_COUNTERS.get((parts[0], parts[-1]))
        if key is not None:
            _add(counters, key, value)


def traced_testbed(plan: Any, seed: int, rec: Any,
                   counters: Dict[str, float]) -> Any:
    """``plan.testbed(seed)`` with its layer calls routed through spans.

    ``Testbed.run`` itself calls the wrapped functions, so the run is
    the library's own; only instance attributes are wrapped.  When the
    run ends the wrappers are removed again, which breaks the
    reference cycles they form, so the testbed is freed as promptly
    as an untraced one; its counts are added to *counters* first.
    """
    with rec.span("workloads.build"):
        testbed = plan.testbed(seed)
    wrapped = [(testbed.generator, "start", "loadgen.start"),
               (testbed.sim, "run", "sim.loop")]
    wrapped += [(testbed.generator.samples, accessor, "telemetry.summarize")
                for accessor in ("average_latency_us",
                                 "percentile_latency_us")]
    wrapped.append((testbed, "run", "core.testbed"))
    for obj, attr, name in wrapped:
        rec.wrap(obj, attr, name)
    run = testbed.run

    def run_then_unwrap() -> Any:
        try:
            return run()
        finally:
            for obj, attr, _ in wrapped:
                delattr(obj, attr)
            testbed_counters(testbed, counters)

    testbed.run = run_then_unwrap
    return testbed


class MemcachedLP:
    """Memcached ETC, LP client, baseline server, vectorized kernel."""

    name = "memcached-lp"
    engine = "vectorized"
    uses_pool = False
    units_per_rep = 1
    reps_per_pass = REPS_PER_PASS
    requests = {"full": 5_000, "tiny": 500}

    def __init__(self, seed: int, size: str, scratch: str) -> None:
        self.seed = int(seed)
        self.num_requests = self.requests[size]
        self.pass_keys = [self.seed * 1000 + k
                          for k in range(REPS_PER_PASS)]

    def builder(self) -> Any:
        return (experiment("memcached").client("LP")
                .load(qps=QPS, num_requests=self.num_requests)
                .policy(runs=1, engine=self.engine))

    def setup(self, rec: Any) -> None:
        with rec.span("api.plan"):
            self.plan = self.builder().build()
            self.plan.content_hash()
        self.traced_plan = self.plan

    def warmup(self) -> None:
        self._run(self.seed * 1000 + WARMUP_OFFSET)

    def _run(self, seed: int) -> Any:
        return self.plan.testbed(seed).run()

    def _key(self, index: int) -> int:
        return self.pass_keys[index % len(self.pass_keys)]

    def rep(self, index: int) -> Rep:
        seed = self._key(index)
        started = time.perf_counter()
        metrics = self._run(seed)
        wall = time.perf_counter() - started
        return Rep([(seed, [metrics])], self.num_requests, [wall])

    def traced_rep(self, index: int, rec: Any) -> Rep:
        seed = self._key(index)
        counters: Dict[str, float] = {}
        started = time.perf_counter()
        with rec.span(REP):
            metrics = traced_testbed(
                self.traced_plan, seed, rec, counters).run()
        wall = time.perf_counter() - started
        obs_counters(metrics, counters)
        return Rep([(seed, [metrics])], self.num_requests, [wall],
                   counters)

    def oracle(self) -> Tuple[List[Unit], Dict[Any, float]]:
        """One pass on the reference event loop."""
        plan = self.plan.with_policy(engine="reference")
        units: List[Unit] = []
        samples: Dict[Any, float] = {}
        for seed in self.pass_keys:
            started = time.perf_counter()
            units.append((seed, [plan.testbed(seed).run()]))
            samples[seed] = time.perf_counter() - started
        return units, samples

    def trace_baseline(self, body: Sequence[float],
                       oracle: Dict[Any, float]) -> List[float]:
        """Untraced samples on the traced run's own placement."""
        return list(body)


class GraphCached(MemcachedLP):
    """The same hardware on the ``memcached-cached`` service graph."""

    name = "graph-cached"
    # 3,000 requests at 200k QPS span 15 ms: three quarters of the
    # 20 ms diurnal period, from the mean rate through the peak to
    # the trough, so every repetition sees both rate extremes.
    requests = {"full": 3_000, "tiny": 300}

    def builder(self) -> Any:
        arrival = ArrivalSpec(shape="diurnal", period_us=20_000.0,
                              amplitude=0.5)
        return (experiment("memcached").client("LP")
                .load(qps=QPS, num_requests=self.num_requests,
                      arrival=arrival)
                .graph("memcached-cached")
                .policy(runs=1, engine=self.engine, sink="streaming"))

    def setup(self, rec: Any) -> None:
        super().setup(rec)
        # Harvest the cache/fan-out/resilience counts when traced.
        self.traced_plan = self.plan.with_policy(metrics=True)


class MemcachedSharded(MemcachedLP):
    """The ``memcached-lp`` plan as two shards in two processes."""

    name = "memcached-sharded"
    uses_pool = True
    requests = {"full": 10_000, "tiny": 1_000}
    workers = 2

    def builder(self) -> Any:
        return super().builder().policy(workers=self.workers)

    def setup(self, rec: Any) -> None:
        super().setup(rec)
        self.processes = min(2, nproc())
        self.layout = shard_layout(self.num_requests, self.workers)

    def _run(self, seed: int, processes: Optional[int] = None) -> Any:
        result = run_sharded(self.plan.with_seed(seed),
                             processes=processes or self.processes)
        return result.runs[0]

    def traced_rep(self, index: int, rec: Any) -> Rep:
        seed = self._key(index)
        payloads = []
        started = time.perf_counter()
        with rec.span(REP):
            for shard in self.layout:
                with rec.span("parallel.shard"):
                    payloads.append(run_shard(self.plan, seed, shard))
            with rec.span("parallel.merge"):
                metrics = merged_run_metrics(payloads, seed=seed)
        wall = time.perf_counter() - started
        counters = {"events": float(sum(p["events"] for p in payloads))}
        return Rep([(seed, [metrics])], self.num_requests, [wall],
                   counters)

    def oracle(self) -> Tuple[List[Unit], Dict[Any, float]]:
        """One pass with every shard run inline (``processes=1``)."""
        units: List[Unit] = []
        samples: Dict[Any, float] = {}
        for seed in self.pass_keys:
            started = time.perf_counter()
            units.append((seed, [self._run(seed, processes=1)]))
            samples[seed] = time.perf_counter() - started
        return units, samples

    def trace_baseline(self, body: Sequence[float],
                       oracle: Dict[Any, float]) -> List[float]:
        # Traced shards run serially, like the processes=1 oracle.
        return list(oracle.values())


class CampaignResume:
    """The ``memcached-smt`` campaign against a half-filled store."""

    name = "campaign-resume"
    engine = "reference"
    uses_pool = True
    reps_per_pass = 1
    sizes = {"full": (3, 500), "tiny": (1, 100)}
    #: Base-seed offset of the warm-up campaign.
    warmup_offset = 1_000_000

    def __init__(self, seed: int, size: str, scratch: str) -> None:
        self.seed = int(seed)
        self.runs, self.num_requests = self.sizes[size]
        self.scratch = scratch
        self.template = os.path.join(scratch, "template.sqlite")
        self.workers = min(2, nproc())

    def _spec(self, base_seed: int) -> Any:
        return campaign_by_name("memcached-smt").with_overrides(
            runs=self.runs, num_requests=self.num_requests,
            base_seed=base_seed)

    def setup(self, rec: Any) -> None:
        with rec.span("campaign.expand"):
            self.spec = self._spec(self.seed)
            conditions = self.spec.expand()
            self.pass_keys = [c.content_hash() for c in conditions]
        self.units_per_rep = len(conditions)
        # A fixed half is pre-seeded; the other half runs every rep.
        self.executed_keys = set(self.pass_keys[1::2])
        with rec.span("campaign.preseed"):
            with ResultStore(self.template) as store:
                outcomes = CampaignExecutor(
                    store, max_workers=self.workers).run_conditions(
                        conditions[::2], campaign=self.spec.name)
        failed = [o for o in outcomes if o.result is None]
        if failed:
            raise ExperimentError(
                f"pre-seeding failed: {failed[0].error}")

    def warmup(self) -> None:
        self._execute(self._spec(self.seed + self.warmup_offset))

    def _fresh_store(self) -> str:
        path = os.path.join(self.scratch, "rep.sqlite")
        shutil.copyfile(self.template, path)
        return path

    def _discard(self, path: str) -> None:
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)

    def _execute(self, spec: Any) -> Any:
        path = self._fresh_store()
        try:
            with ResultStore(path) as store:
                return CampaignExecutor(
                    store, max_workers=self.workers).run(spec)
        finally:
            self._discard(path)

    @staticmethod
    def _units(outcomes: Sequence[Any]) -> List[Unit]:
        return [(o.spec.content_hash(),
                 None if o.result is None else o.result.runs)
                for o in outcomes]

    def rep(self, index: int) -> Rep:
        outcome = self._execute(self.spec)
        delivered = sum(o.spec.runs * o.spec.num_requests
                        for o in outcome.outcomes if o.result is not None)
        return Rep(
            self._units(outcome.outcomes), delivered,
            [o.elapsed_s / o.spec.runs for o in outcome.executed],
            queue_waits=[o.queue_wait_s for o in outcome.executed],
            hits=len(outcome.hits))

    def traced_rep(self, index: int, rec: Any) -> Rep:
        """One repetition on the inline path, one span per layer call.

        The executor's pool hides its workers' layer calls, so the
        traced repetition runs the missing conditions in this process
        the way the inline executor does (``to_plan()`` then the
        repetition protocol), against a fresh copy of the store.
        """
        path = self._fresh_store()
        counters: Dict[str, float] = {}
        samples: List[float] = []
        try:
            with rec.span(REP):
                with rec.span("campaign.expand"):
                    conditions = self.spec.expand()
                    keys = [c.content_hash() for c in conditions]
                with rec.span("campaign.store_read"):
                    store = ResultStore(path)
                    missing = store.missing(conditions)
                    results = store.results_for(conditions)
                try:
                    entries = []
                    for condition in missing:
                        started = time.perf_counter()
                        with rec.span("campaign.execute"):
                            result = self._traced_condition(
                                condition, rec, counters)
                        elapsed = time.perf_counter() - started
                        samples.append(elapsed / condition.runs)
                        results[condition.content_hash()] = result
                        entries.append({"spec": condition,
                                        "result": result,
                                        "elapsed_s": elapsed})
                    with rec.span("campaign.store_write"):
                        store.put_many(entries, campaign=self.spec.name)
                finally:
                    store.close()
        finally:
            self._discard(path)
        delivered = sum(c.runs * c.num_requests
                        for c, key in zip(conditions, keys)
                        if key in results)
        units = [(key, results[key].runs if key in results else None)
                 for key in keys]
        return Rep(units, delivered, samples, counters,
                   hits=len(conditions) - len(missing))

    @staticmethod
    def _traced_condition(condition: Any, rec: Any,
                          counters: Dict[str, float]) -> Any:
        with rec.span("api.plan"):
            plan = condition.to_plan()
            plan.content_hash()
        return Experiment(
            lambda seed: traced_testbed(plan, seed, rec, counters),
            runs=plan.policy.runs, base_seed=plan.policy.base_seed,
            label=plan.policy.label).run()

    def oracle(self) -> Tuple[List[Unit], Dict[Any, float]]:
        """The whole campaign through the inline, store-less executor."""
        outcome = CampaignExecutor(None, max_workers=1).run(self.spec)
        samples = {o.spec.content_hash(): o.elapsed_s / o.spec.runs
                   for o in outcome.executed}
        return self._units(outcome.outcomes), samples

    def trace_baseline(self, body: Sequence[float],
                       oracle: Dict[Any, float]) -> List[float]:
        # The traced path is inline like the oracle; compare the
        # conditions both of them executed.
        return [oracle[key] for key in self.executed_keys
                if key in oracle]


WORKLOADS = {cls.name: cls for cls in (
    MemcachedLP, GraphCached, CampaignResume, MemcachedSharded)}
