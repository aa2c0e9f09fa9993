"""Benchmark: simulated requests per host second, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload memcached-lp --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off.  ``--trace 1`` is the separate traced run: untraced
repetitions alternate with the same repetitions traced (one span per
layer call), then one pass runs on the workload's oracle path; it
prints the per-layer metrics and writes the spans as Chrome
trace-event JSON under ``.perfbench/``.

Every repetition's simulated ``RunMetrics`` (``obs_metrics`` left
out) is digested with sha256.  A repetition that raises, or whose
digest differs from the first digest of the same input, counts as
failed; so does a pass whose digest differs from the one recorded in
``perfbench/digests.json`` for that workload and seed, and (traced
run) an oracle result that differs.  Any failure makes the command
exit 1.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.spans import (  # noqa: E402
    SETUP,
    NullRecorder,
    SpanRecorder,
)

# The keys of perfbench.workloads.WORKLOADS, spelled out so that the
# arguments parse before the timed ``import repro``.
WORKLOAD_NAMES = ("memcached-lp", "graph-cached", "campaign-resume",
                  "memcached-sharded")
#: Set-up samples per untraced run: this process plus the probes.
SETUP_SAMPLES = 3
#: Least share of the traced repetitions' wall time that layer spans
#: must cover.
MIN_COVERAGE = 0.95
OUTPUT_DIR = os.path.join(ROOT, ".perfbench")


def run_digest(runs) -> str:
    """sha256 over simulated run summaries, ``obs_metrics`` left out."""
    digest = hashlib.sha256()
    for metrics in runs:
        fields = asdict(metrics)
        fields.pop("obs_metrics")
        digest.update(json.dumps(fields, sort_keys=True).encode())
    return digest.hexdigest()


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer the
    maximum (0 when every repetition failed) is returned as
    percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


class Tally:
    """Attempted and failed results, checked against first digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def check(self, units):
        for key, runs in units:
            self.attempted += 1
            if runs is None:
                self.failed += 1
                continue
            digest = run_digest(runs)
            if self.digests.setdefault(key, digest) != digest:
                self.failed += 1

    def fail(self, count):
        self.attempted += count
        self.failed += count

    def pass_digest(self, keys):
        """Digest of one pass: the first digests of its keys, in order."""
        if any(key not in self.digests for key in keys):
            return None
        return hashlib.sha256("".join(
            self.digests[key] for key in keys).encode()).hexdigest()


def attempt(bench, index, tally, rec=None):
    """Repetition *index*, traced when *rec* is given; None if it raised."""
    try:
        if rec is None:
            rep = bench.rep(index)
        else:
            rec.rep = index
            rep = bench.traced_rep(index, rec)
    except Exception:  # noqa: BLE001 -- a failed repetition is counted
        traceback.print_exc(file=sys.stderr)
        tally.fail(bench.units_per_rep)
        return None
    tally.check(rep.units)
    rep.index = index
    return rep


def measure(bench, seconds, tally, rec=None):
    """Run repetitions for *seconds* (at least one full pass).

    With a recorder, each untraced repetition is followed by the same
    repetition traced, so drift in host speed hits both alike.
    Returns the untraced and the traced repetitions, and the seconds
    the loop took.
    """
    body, traced = [], []
    started = time.perf_counter()
    index = 0
    while (index < bench.reps_per_pass
           or time.perf_counter() - started < seconds):
        body.append(attempt(bench, index, tally))
        if rec is not None:
            traced.append(attempt(bench, index, tally, rec))
        index += 1
    elapsed = time.perf_counter() - started
    return ([r for r in body if r is not None],
            [r for r in traced if r is not None], elapsed)


def peak_rss_mb(with_children):
    """Peak resident MiB of this process (plus its largest child)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_metadata(bench):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "start_method": multiprocessing.get_start_method(),
        "engine": bench.engine,
        "platform": platform.platform(),
    }


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def recorded_digest(size, workload, seed):
    path = os.path.join(HERE, "digests.json")
    with open(path, encoding="utf-8") as f:
        recorded = json.load(f)
    return recorded.get(size, {}).get(workload, {}).get(str(seed))


def probe_setup(args):
    """Set-up seconds of one fresh interpreter running this workload."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    if args.tiny:
        command.append("--tiny")
    out = subprocess.run(command, capture_output=True, text=True,
                         timeout=150, check=True, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end_metrics(bench, reps, elapsed, tally, setup_samples,
                       rss_mb):
    samples = [s for rep in reps for s in rep.samples]
    tail_s, tail_pct = tail(samples)
    values = {
        "setup_s": median(setup_samples),
        "sim_requests_per_s": sum(r.requests for r in reps) / elapsed,
        "run_s.p50": median(samples),
        "run_s.tail": tail_s,
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "sim_requests_per_s": f"{len(reps)} repetitions in "
                              f"{elapsed:.2f} s",
        "run_s.p50": f"n={len(samples)}",
        "run_s.tail": f"p{tail_pct:.1f} of n={len(samples)}",
        "peak_rss_mb": ("this process + largest child"
                        if bench.uses_pool else "this process"),
        "ok_frac": f"failed_frac={tally.failed / tally.attempted!r}",
    }
    return values, notes


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(bench, rec, body, traced, oracle_samples, import_s):
    """The per-layer metrics of one traced run."""

    def layer_s(name):
        # Median over traced repetitions of the layer's time per
        # repetition; a layer called only during set-up reports that.
        totals = rec.per_rep(name)
        reps = [v for rep, v in totals.items() if rep != SETUP]
        return median(reps, totals.get(SETUP, 0.0))

    # Counts come from the first traced pass: they are fixed by the
    # inputs, whatever the host speed.
    counts = {}
    for rep in traced[:bench.reps_per_pass]:
        for key, value in rep.counters.items():
            counts[key] = counts.get(key, 0.0) + value
    events = counts.get("events", 0.0)
    loops = rec.per_rep("sim.loop")
    events_per_s = [rep.counters.get("events", 0.0) / loops[rep.index]
                    for rep in traced if loops.get(rep.index)]
    shard_s = median(max(d) for d in rec.durations("parallel.shard"))
    merge_s = layer_s("parallel.merge")
    body_samples = [s for rep in body for s in rep.samples]
    executed_waits = [w for rep in body for w in rep.queue_waits]
    conditions = sum(len(rep.units) for rep in body)
    traced_samples = [s for rep in traced for s in rep.samples]
    baseline = bench.trace_baseline(body_samples, oracle_samples)

    def stream_share(purpose):
        batched = counts.get(f"streams.{purpose}.batched", 0.0)
        scalar = counts.get(f"streams.{purpose}.scalar", 0.0)
        return _share(batched, batched + scalar)

    return {
        "setup.import_s": import_s,
        "api.plan_s": layer_s("api.plan"),
        "campaign.expand_s": layer_s("campaign.expand"),
        "workloads.build_s": layer_s("workloads.build"),
        "loadgen.start_s": layer_s("loadgen.start"),
        "sim.loop_s": layer_s("sim.loop"),
        "sim.events": events / max(1, len(traced[:bench.reps_per_pass])),
        "sim.events_per_s": median(events_per_s),
        "sim.kernel.batched_share": _share(
            counts.get("kernel.batched_events", 0.0), events),
        "sim.kernel.fallback_share": _share(
            counts.get("kernel.scalar_fallbacks", 0.0), events),
        "sim.kernel.mean_batch_len": _share(
            counts.get("kernel.batched_events", 0.0),
            counts.get("kernel.batches", 0.0)),
        "sim.streams.service.batched_share": stream_share("service"),
        "sim.streams.network.batched_share": stream_share("network"),
        "sim.streams.arrivals.batched_share": stream_share("arrivals"),
        "telemetry.summarize_s": layer_s("telemetry.summarize"),
        "graph.cache.hit_rate": _share(
            counts.get("cache.hits", 0.0),
            counts.get("cache.hits", 0.0) + counts.get("cache.misses", 0.0)),
        "graph.fanout.subs_per_root": _share(
            counts.get("fanout.subs", 0.0), counts.get("fanout.roots", 0.0)),
        "graph.resilience.attempts_per_call": _share(
            counts.get("resilience.attempts", 0.0),
            counts.get("resilience.calls", 0.0)),
        "parallel.shard_s": shard_s,
        "parallel.merge_s": merge_s,
        "parallel.overhead_s": (median(body_samples) - shard_s - merge_s
                                if shard_s else 0.0),
        "campaign.store_read_s": layer_s("campaign.store_read"),
        "campaign.store_write_s": layer_s("campaign.store_write"),
        "campaign.queue_wait_s": median(executed_waits),
        "campaign.hit_share": _share(sum(r.hits for r in body), conditions),
        "trace.overhead_frac": (median(traced_samples) / median(baseline)
                                - 1.0 if baseline else 0.0),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tenth-size inputs (the benchmark's tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    size = "tiny" if args.tiny else "full"
    rec = SpanRecorder() if args.trace else NullRecorder()
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUTPUT_DIR)
    try:
        with rec.span("setup"):
            import_started = time.perf_counter()
            with rec.span("setup.import"):
                import repro  # noqa: F401
            import_s = time.perf_counter() - import_started
            from perfbench.workloads import WORKLOADS

            bench = WORKLOADS[args.workload](args.seed, size, scratch)
            bench.setup(rec)
            with rec.span("setup.warmup"):
                bench.warmup()
        setup_s = time.perf_counter() - STARTED
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return run(args, size, bench, rec, setup_s, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, size, bench, rec, setup_s, import_s):
    tally = Tally()
    host = host_metadata(bench)
    print(f"perfbench {args.workload} seed={args.seed} size={size} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    problems = []
    if args.trace:
        reps, traced, _ = measure(bench, args.seconds, tally, rec)
        try:
            oracle_units, oracle_samples = bench.oracle()
        except Exception:  # noqa: BLE001 -- counted as failed
            traceback.print_exc(file=sys.stderr)
            oracle_units, oracle_samples = [], {}
            tally.fail(len(bench.pass_keys))
        before = tally.failed
        tally.check(oracle_units)
        if tally.failed > before:
            problems.append(f"{tally.failed - before} oracle results "
                            "differ from the measured path")
    else:
        reps, _, elapsed = measure(bench, args.seconds, tally)
        # Read before the set-up probes add children of their own.
        rss_mb = peak_rss_mb(bench.uses_pool)
    digest = tally.pass_digest(bench.pass_keys)
    recorded = recorded_digest(size, args.workload, args.seed)
    if recorded is not None and digest != recorded:
        tally.failed += len(bench.pass_keys)
        problems.append(f"pass digest {digest} != recorded {recorded}")
    print(f"digest {digest} ("
          + ("not recorded" if recorded is None
             else "recorded: " + ("match" if digest == recorded
                                  else "MISMATCH")) + ")")
    if args.trace:
        values = layer_metrics(bench, rec, reps, traced, oracle_samples,
                               import_s)
        coverage = rec.coverage()
        notes = {"trace.overhead_frac": f"layer coverage {coverage:.4f}"}
        trace_path = os.path.join(
            OUTPUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        payload = rec.chrome_trace(
            f"perfbench {args.workload}",
            dict(host, workload=args.workload, seed=args.seed,
                 coverage=coverage, metrics=values))
        from repro.obs.export import validate_chrome_trace

        events = validate_chrome_trace(payload)
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        print(f"trace {os.path.relpath(trace_path, ROOT)}: {events} "
              f"events, layer self time covers {100 * coverage:.2f}% "
              "of the traced repetitions")
        if coverage < MIN_COVERAGE:
            problems.append(f"layer spans cover {coverage:.4f} < "
                            f"{MIN_COVERAGE} of the traced wall time")
    else:
        setup_samples = [setup_s] + [probe_setup(args)
                                     for _ in range(SETUP_SAMPLES - 1)]
        values, notes = end_to_end_metrics(
            bench, reps, elapsed, tally, setup_samples, rss_mb)
    first = [m for rep in reps[:bench.reps_per_pass]
             for _, runs in rep.units if runs for m in runs]
    for name in ("avg_us", "p99_us", "client_bias_avg_us"):
        value = median(getattr(m, name) for m in first)
        print(f"sim.{name} = {value!r} us (median over one pass)")
    declared = declared_metrics(args.trace)
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        note = notes.get(name)
        print(f"{name} = {values[name]!r} {unit}"
              + (f"  ({note})" if note else ""))
    for problem in problems:
        print(f"FAILED: {problem}")
    correct = tally.failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
