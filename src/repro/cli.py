"""Command-line interface.

Eight subcommands mirror the library's faces::

    repro run --workload memcached --qps 100000 --workers 4
    repro run --workload memcached --nodes 4 --policy power-of-two
    repro run --graph memcached-cached --arrival diurnal
    repro run --workload memcached --trace --runs 1 --output trace.json
    repro study --workload memcached --knob smt --qps 10000 100000
    repro tune --config HP [--real] [--apply]
    repro autotune --tunable hardware.server.smt=bool --search grid
    repro recommend --loop open --interarrival block-wait
    repro capacity --qos-p99 400 --target-qps 1000000
    repro campaign run --preset memcached-smt --store results.sqlite
    repro plan --preset memcached-smt

``repro run`` executes one experiment and prints the repetition
summary.  What it prints follows from the plan it builds: a cluster
topology (``--nodes``/``--shards``/...) adds per-node utilization, a
service graph (``--graph``) its tiers and cache/retry/hedge counters,
``--trace`` a Chrome trace-event JSON of the first repetition (load
it at https://ui.perfetto.dev) plus a per-stage latency breakdown,
and ``--workers`` shards each run across worker processes (see
:mod:`repro.parallel`).  ``repro study`` runs a scaled study grid and
prints the paper-style series; ``repro tune`` plans (and optionally
applies) a host configuration; ``repro autotune`` searches a
declared tunable space for the max-capacity configuration (see
:mod:`repro.tune`); ``repro recommend`` prints the Section VI advice;
``repro capacity`` runs the provisioning analysis of Section V-A;
``repro campaign`` runs declarative experiment sweeps in parallel
against a persistent result store (``run``/``status``/``report``) --
killed campaigns resume, finished ones are served from cache; ``repro
plan`` validates and expands a campaign into its condition list with
content hashes and seed schedules *without running anything* (the
dry run for expensive sweeps).

Every experiment the CLI launches is constructed through the
:mod:`repro.api` plan layer, and every flag that sets a plan field is
declared once, in :data:`PLAN_FLAGS`.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.analysis.figures import (
    hdsearch_study,
    memcached_study,
    render_latency_series,
    render_ratio_series,
    socialnetwork_study,
)
from repro.cluster.spec import LB_POLICIES
from repro.config.presets import client_by_name
from repro.core.provisioning import (
    capacity_under_qos,
    provisioning_error,
    provisioning_plan,
)
from repro.core.recommendations import recommend
from repro.errors import ExperimentError, ReproError
from repro.host.filesystem import (
    FakeFilesystem,
    RealFilesystem,
    make_skylake_tree,
)
from repro.host.tuner import HostTuner
from repro.loadgen.base import GeneratorDesign

#: ``--arrival`` shapes, as :class:`~repro.api.ArrivalSpec` dicts.
ARRIVAL_SHAPES: Dict[str, Optional[Dict[str, Any]]] = {
    "poisson": None,
    "diurnal": {"shape": "diurnal", "period_us": 20_000.0,
                "amplitude": 0.5},
    "flash-crowd": {"shape": "flash-crowd", "spike_start_us": 5_000.0,
                    "spike_duration_us": 5_000.0, "spike_factor": 4.0},
}


def _arrival(name: str) -> Optional[Dict[str, Any]]:
    if name not in ARRIVAL_SHAPES:
        raise argparse.ArgumentTypeError(
            f"choose from {', '.join(ARRIVAL_SHAPES)}")
    return ARRIVAL_SHAPES[name]


#: Every flag that sets a plan field: ``(flag, dotted plan path, type,
#: help)``.  The path is the parsed dest, as in
#: :func:`repro.tune.tunables.validate_field`; verbs pick their rows
#: with :func:`_add_plan_flags` and read them back with
#: :func:`_plan_overrides`, which applies them in this order (``graph``
#: before the cluster rows, so a graph plus a cluster is an error
#: rather than a silently dropped topology).
PLAN_FLAGS = (
    ("--workload", "workload", str, "registered workload name"),
    ("--client", "hardware.client", str, "client preset (LP or HP)"),
    ("--qps", "load.qps", float, "offered load, or the load sweep"),
    ("--requests", "load.num_requests", int, "requests per run"),
    ("--arrival", "load.arrival", _arrival,
     "poisson (default), diurnal or flash-crowd"),
    ("--runs", "policy.runs", int, "repetitions (the paper: 50)"),
    ("--seed", "policy.base_seed", int, "base seed of the repetitions"),
    ("--sink", "policy.sink", str, "telemetry sink: columnar, streaming"),
    ("--trace", "policy.trace", bool, "record request-lifecycle spans "
     "('repro run' writes a Chrome trace to --output)"),
    ("--engine", "policy.engine", str, "reference or vectorized"),
    ("--workers", "policy.workers", int, "shard width W: W striped "
     "full-replica shards at qps/W (part of the plan hash)"),
    ("--graph", "graph", str, "service-graph preset, e.g. "
     "memcached-cached (harvests the tier counters)"),
    ("--nodes", "cluster.nodes", int, "server groups behind the LB"),
    ("--policy", "cluster.lb_policy", str,
     "load-balancing policy: " + ", ".join(LB_POLICIES)),
    ("--shards", "cluster.shards", int, "shards per server group"),
    ("--fanout", "cluster.fanout", int, "shards per request (0 = all)"),
    ("--quorum", "cluster.quorum", int, "responses that complete a "
     "request (0 = fanout)"),
    ("--replication", "cluster.replication", int, "replicas per shard"),
)


def _add_plan_flags(parser, *flags: str, sweep: bool = False,
                    defaults: Optional[Mapping[str, Any]] = None
                    ) -> None:
    """Declare the :data:`PLAN_FLAGS` rows named by *flags*.

    ``sweep`` makes ``--qps`` a list (a load sweep); *defaults* maps
    a flag to the verb's default (unset flags keep the plan's).
    """
    defaults = defaults or {}
    for flag, path, kind, help_text in PLAN_FLAGS:
        if flag not in flags:
            continue
        shape = (dict(action="store_true") if kind is bool else dict(
            type=kind, metavar=flag[2:].upper(),
            nargs="+" if sweep and flag == "--qps" else None))
        if flag in defaults:
            help_text += " (default: %(default)s)"
        parser.add_argument(flag, dest=path, default=defaults.get(flag),
                            help=help_text, **shape)


def _plan_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    """Dotted plan path -> value of every plan flag that is set."""
    values = vars(args)
    return {path: values[path] for _, path, _, _ in PLAN_FLAGS
            if values.get(path) is not None}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Client-side hardware configuration toolkit "
                    "(IISWC'24 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run one experiment on one server, a cluster or a "
                    "service graph, optionally traced or sharded",
        description="Unset flags keep the workload's defaults; the "
                    "default load is the workload's times --nodes.")
    _add_plan_flags(run, *(row[0] for row in PLAN_FLAGS), defaults={
        "--workload": "memcached", "--client": "LP", "--runs": 5,
        "--policy": "power-of-two"})
    run.add_argument("--processes", type=int, default=None,
                     help="processes to spread shards over (default: "
                          "min(workers, cores); placement-invariant)")
    run.add_argument("--output", "-o", default="trace.json",
                     help="Chrome trace JSON output path (--trace)")

    study = commands.add_parser(
        "study", help="run a client-vs-server study grid")
    _add_plan_flags(study, "--workload", "--qps", "--runs", "--requests",
                    "--seed", sweep=True, defaults={
                        "--workload": "memcached", "--runs": 10,
                        "--qps": [10_000, 100_000, 500_000],
                        "--requests": 500, "--seed": 0})
    study.add_argument("--knob", default="smt",
                       choices=["smt", "c1e"],
                       help="server-side knob under study")
    study.add_argument("--metric", default="avg",
                       choices=["avg", "p99", "true_avg", "stdev_avg"])

    tune = commands.add_parser(
        "tune",
        help="plan/apply a host configuration (the measurement-"
             "config advisor; for the capacity optimizer see "
             "'repro autotune')",
        description="Plan (and optionally apply) the paper's "
                    "measurement host configuration on /sys.  To "
                    "*search* the simulated policy space for a "
                    "max-capacity configuration instead, see "
                    "'repro autotune'.")
    tune.add_argument("--config", default="HP",
                      help="LP or HP")
    tune.add_argument("--real", action="store_true",
                      help="operate on the live /sys and /dev/cpu "
                           "(requires root) instead of a fake host")
    tune.add_argument("--apply", action="store_true",
                      help="apply the plan (default: dry run)")

    from repro.tune.cli import add_autotune_parser
    add_autotune_parser(commands)

    advise = commands.add_parser(
        "recommend", help="Section VI configuration recommendation")
    advise.add_argument("--loop", default="open",
                        choices=["open", "closed"])
    advise.add_argument("--interarrival", default="block-wait",
                        choices=["block-wait", "busy-wait"])
    advise.add_argument("--target", default=None,
                        help="known target environment (LP/HP)")

    capacity = commands.add_parser(
        "capacity", help="QoS capacity + provisioning analysis")
    capacity.add_argument("--qos-p99", type=float, default=400.0,
                          help="99th-percentile QoS target in us")
    capacity.add_argument("--target-qps", type=float,
                          default=1_000_000.0)
    _add_plan_flags(capacity, "--qps", "--runs", "--requests", "--seed",
                    sweep=True, defaults={
                        "--qps": [100_000, 200_000, 300_000, 400_000,
                                  500_000],
                        "--runs": 10, "--requests": 500, "--seed": 0})

    campaign = commands.add_parser(
        "campaign", help="parallel, resumable experiment sweeps")
    campaign_commands = campaign.add_subparsers(
        dest="campaign_command", required=True)
    for verb, help_text in (
            ("run", "execute a campaign (skips stored conditions)"),
            ("status", "show completion state against the store"),
            ("report", "render paper-style series from the store")):
        sub = campaign_commands.add_parser(verb, help=help_text)
        _add_campaign_source(sub)
        sub.add_argument("--store", default="campaign-results.sqlite",
                         help="SQLite result store path")
        _add_plan_flags(sub, "--qps", "--runs", "--requests", "--seed",
                        "--engine", sweep=True)
        if verb == "run":
            parallelism = sub.add_mutually_exclusive_group()
            parallelism.add_argument(
                "--workers", type=int, default=None,
                help="worker processes (default: all cores)")
            parallelism.add_argument(
                "--serial", action="store_true",
                help="run inline in this process")
        if verb == "report":
            sub.add_argument("--metric", default="avg",
                             choices=["avg", "p99", "true_avg",
                                      "stdev_avg"])

    plan = commands.add_parser(
        "plan", help="validate + expand a campaign without running "
                     "(dry run)")
    # --workload: an ad-hoc campaign instead of --spec/--preset.
    _add_plan_flags(_add_campaign_source(plan), "--workload")
    plan.add_argument("--knob", default=None,
                      choices=["smt", "c1e"],
                      help="server knob for an ad-hoc --workload "
                           "campaign (default: baseline server only)")
    plan.add_argument("--clients", nargs="+", default=None,
                      metavar="NAME",
                      help="client presets for an ad-hoc campaign "
                           "(default: LP HP)")
    plan.add_argument("--param", action="append", default=[],
                      metavar="KEY=VALUE",
                      help="workload parameter, e.g. "
                           "added_delay_us=200 (repeatable)")
    _add_plan_flags(plan, "--qps", "--runs", "--requests", "--seed",
                    "--sink", "--trace", "--engine", "--graph",
                    sweep=True)
    plan.add_argument("--tunable", action="append", default=None,
                      metavar="FIELD=SPEC",
                      help="validate an autotune tunable against the "
                           "campaign's plans (repeatable; unknown "
                           "fields fail with a did-you-mean before "
                           "anything executes -- see "
                           "'repro autotune')")
    return parser


def _add_campaign_source(parser):
    """The required ``--spec FILE | --preset NAME`` choice."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", metavar="FILE",
                        help="campaign spec JSON file")
    source.add_argument("--preset", help="named preset, e.g. "
                                         "memcached-smt")
    return source


def _cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment and print the sections its plan calls for."""
    from repro.api import experiment
    from repro.core.experiment import Experiment

    overrides = _plan_overrides(args)
    graph_name = overrides.get("graph")
    if graph_name is not None:
        # The tier counters printed below are harvested metrics.
        overrides["policy.metrics"] = True
    plan = experiment(overrides.pop("workload")).build()
    plan = plan.with_fields(overrides)
    if "load.qps" not in overrides:
        # A cluster's default offer scales with its server groups.
        plan = plan.with_qps(plan.load.qps * plan.cluster.nodes)
    policy = plan.policy
    traced = []
    if policy.workers > 1:
        if policy.trace:
            raise ExperimentError(
                "--trace exports one process's spans; drop --workers")
        from repro.parallel.runner import run_sharded
        result = run_sharded(plan, processes=args.processes)
    elif policy.trace:
        build = plan.builder()

        def build_first_traced(seed: int):
            testbed = build(seed)
            if not traced:
                traced.append(testbed)
            return testbed

        result = Experiment(build_first_traced, policy.runs,
                            policy.base_seed, policy.label).run()
    else:
        result = plan.run()

    workload = plan.workload.name
    where = (f" on service graph {graph_name!r}" if graph_name
             else "" if plan.cluster.is_single_server
             else f" on {plan.cluster.describe()}")
    sharding = (f", {policy.workers} shard workers"
                if policy.workers > 1 else "")
    print(f"{workload}{where} @ {plan.load.qps:g} QPS "
          f"({policy.runs} runs x {plan.load.num_requests} requests, "
          f"seed {policy.base_seed}{sharding})")
    if plan.graph is not None:
        print(textwrap.indent(plan.graph.describe(), "  "))
    if plan.load.arrival is not None:
        print(f"arrival process: {plan.load.arrival.describe()}")
    print(f"plan hash: {plan.content_hash()[:12]}")
    for label, samples in (("avg latency:", result.avg_samples()),
                           ("p99 latency:", result.p99_samples()),
                           ("true p99:", result.true_p99_samples())):
        print(f"  median {label:<14}{np.median(samples):10.1f} us")
    if plan.cluster.is_single_server:
        print(f"  server utilization:  "
              f"{result.mean_server_utilization():10.3f}")
    else:
        print(f"  per-node utilization "
              f"(mean {result.mean_server_utilization():.3f}):")
        for index, value in enumerate(result.mean_node_utilizations()):
            print(f"    node {index}: {value:.3f}")
    first = result.runs[0]
    _print_counters(f"  tier counters (seed {first.seed} run):", first,
                    ("cache.", "resilience."), indent="    ")
    if traced:
        _print_trace(traced[0], first, args.output,
                     label=f"{workload} @ {plan.load.qps:g} QPS "
                           f"(seed {first.seed})")
    return 0


def _print_trace(testbed, metrics, path: str, label: str) -> None:
    """Write one traced run's Chrome trace; print its breakdowns."""
    from repro.obs.export import (
        latency_breakdown,
        render_breakdown_table,
        write_chrome_trace,
    )

    tracer = testbed.sim.obs.tracer
    payload = write_chrome_trace(tracer, path, label=label)
    print(f"wrote {len(payload['traceEvents'])} trace events to "
          f"{path} (load at https://ui.perfetto.dev)")
    if tracer.dropped:
        print(f"warning: {tracer.dropped} spans dropped at the "
              f"{tracer.max_spans} span cap")
    breakdown = latency_breakdown(tracer)
    print()
    print(render_breakdown_table(
        breakdown, breakdown.get("request", {}).get("total_us")))
    _print_counters("\nvectorized kernel engagement:", metrics,
                    ("engine.kernel.",), indent="  ")


def _print_counters(title: str, metrics, prefixes, indent: str) -> None:
    """The run's harvested counters named by *prefixes*, if any."""
    rows = [(name, value) for name, value in metrics.obs_metrics
            if name.startswith(prefixes)]
    if rows:
        print(title)
        for name, value in rows:
            print(f"{indent}{name:<34} {value:>12g}")


def _cmd_study(args: argparse.Namespace) -> int:
    plan = _plan_overrides(args)
    sweep = dict(qps_list=plan["load.qps"], runs=plan["policy.runs"],
                 num_requests=plan["load.num_requests"],
                 base_seed=plan["policy.base_seed"])
    builders = {
        "memcached": lambda: memcached_study(knob=args.knob, **sweep),
        "hdsearch": lambda: hdsearch_study(knob=args.knob, **sweep),
        "socialnetwork": lambda: socialnetwork_study(**sweep),
    }
    if plan["workload"] not in builders:
        raise ExperimentError(
            f"no study for workload {plan['workload']!r}; choose from "
            f"{', '.join(builders)}")
    grid = builders[plan["workload"]]()
    print(render_latency_series(grid, args.metric))
    conditions = list(grid.conditions)
    if len(conditions) == 2:
        print()
        print(render_ratio_series(
            grid, conditions[0], conditions[1], "avg"))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    config = client_by_name(args.config)
    fs = RealFilesystem() if args.real else FakeFilesystem(
        make_skylake_tree())
    tuner = HostTuner(fs)
    plan = tuner.plan(config)
    print(plan.render())
    if args.apply:
        result = tuner.apply(plan)
        print(f"\napplied {len(result.performed)} actions"
              + ("; reboot required for boot-time knobs"
                 if result.needs_reboot else ""))
    else:
        print("\n(dry run; pass --apply to execute)")
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    """Closed-loop policy search; the heavy lifting lives in
    :mod:`repro.tune.cli` to keep this module import-light."""
    from repro.tune.cli import cmd_autotune

    return cmd_autotune(args)


def _cmd_recommend(args: argparse.Namespace) -> int:
    design = GeneratorDesign(
        loop=args.loop,
        time_sensitive=args.interarrival == "block-wait")
    target = client_by_name(args.target) if args.target else None
    advice = recommend(design, target_config=target,
                       target_known=target is not None)
    print(f"Generator design: {design.describe()} "
          f"({design.interarrival_impl})\n")
    print(advice.render())
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from repro.api import experiment

    overrides = _plan_overrides(args)
    sweep = overrides.pop("load.qps")
    observers = {}
    for name in ("LP", "HP"):
        base_plan = experiment("memcached").build().with_fields(
            {**overrides, "hardware.client": name})
        latency_by_qps = {}
        for qps in sweep:
            result = base_plan.with_qps(qps).run()
            latency_by_qps[qps] = float(
                np.median(result.p99_samples()))
        observers[name] = capacity_under_qos(
            latency_by_qps, args.qos_p99, metric="p99")
        capacity = observers[name]
        print(f"{name}: capacity {capacity.capacity_qps:g} QPS under "
              f"p99 <= {args.qos_p99:g} us"
              + (" (sweep-limited)" if capacity.sweep_limited else ""))

    usable = {name: cap for name, cap in observers.items()
              if cap.capacity_qps > 0}
    if len(usable) >= 2:
        ratios = provisioning_error(usable, args.target_qps)
        print(f"\nFleet sizes for {args.target_qps:g} QPS:")
        for name, capacity in usable.items():
            plan = provisioning_plan(args.target_qps, capacity)
            print(f"  {name}: {plan.machines} machines "
                  f"({ratios[name]:.2f}x the optimistic observer)")
    return 0


def _with_plan_flags(spec, args: argparse.Namespace):
    """*spec* with the plan flags applied: ``--qps`` replaces the load
    sweep (and the template's load, which is the sweep's first point),
    every other flag sets its field of the template plan."""
    overrides = _plan_overrides(args)
    overrides.pop("workload", None)
    qps_list = overrides.get("load.qps") or spec.qps_list
    if "load.qps" in overrides:
        overrides["load.qps"] = qps_list[0]
    return replace(spec, plan=spec.plan.with_fields(overrides),
                   qps_list=qps_list)


def _load_campaign_spec(args: argparse.Namespace):
    """The campaign spec named by --spec/--preset, with overrides."""
    from repro.campaign.presets import campaign_by_name
    from repro.campaign.spec import CampaignSpec

    spec = (CampaignSpec.load(args.spec) if args.spec
            else campaign_by_name(args.preset))
    return _with_plan_flags(spec, args)


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign.executor import CampaignExecutor
    from repro.campaign.report import (
        render_campaign_report,
        render_campaign_status,
    )
    from repro.campaign.store import ResultStore, require_store

    spec = _load_campaign_spec(args)
    if args.campaign_command == "run":
        workers = 1 if args.serial else args.workers
        with ResultStore(args.store) as store:
            executor = CampaignExecutor(store=store, max_workers=workers)

            def progress(outcome, completed, total):
                condition = outcome.spec
                timing = ("cached" if outcome.status == "hit"
                          else f"{outcome.elapsed_s:.2f}s")
                detail = (f" [{outcome.error}]"
                          if outcome.status == "failed" else "")
                print(f"[{completed}/{total}] {outcome.status:<6} "
                      f"{condition.label} @ {condition.qps:g} "
                      f"({timing}){detail}")

            outcome = executor.run(spec, progress=progress)
        print()
        print(outcome.summary())
        print(f"store: {args.store}")
        return 0 if outcome.ok else 1
    with require_store(args.store) as store:
        if args.campaign_command == "status":
            print(render_campaign_status(spec, store))
            return 0
        print(render_campaign_report(spec, store, args.metric))
        return 0


def _parse_param(text: str):
    """``KEY=VALUE`` -> (key, value), numbers parsed as floats."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ExperimentError(
            f"--param expects KEY=VALUE, got {text!r}")
    try:
        value = float(raw)
    except ValueError:
        value = raw
    return key, value


def _plan_campaign_spec(args: argparse.Namespace):
    """The campaign named by --spec/--preset, or an ad-hoc one."""
    from repro.campaign.spec import CampaignSpec
    from repro.config.presets import SERVER_BASELINE, knob_conditions
    from repro.workloads.registry import workload_by_name

    if args.workload is None:
        # A dry run must never show a different campaign than the
        # flags describe: the ad-hoc-only flags are meaningless next
        # to --spec/--preset, so reject them instead of dropping them.
        for flag, value in (("--param", args.param or None),
                            ("--knob", args.knob),
                            ("--clients", args.clients),
                            ("--graph", args.graph)):
            if value is not None:
                raise ExperimentError(
                    f"{flag} only applies to an ad-hoc --workload "
                    f"campaign; a --spec/--preset campaign already "
                    f"defines it")
        return _load_campaign_spec(args)
    definition = workload_by_name(args.workload)
    fields = {
        "name": f"{args.workload}-plan",
        "workload": args.workload,
        "conditions": (knob_conditions(args.knob)
                       if args.knob is not None
                       else {"baseline": SERVER_BASELINE}),
        "qps_list": definition.qps_sweep or (definition.default_qps,),
        "extra": dict(_parse_param(p) for p in args.param),
        "clients": args.clients,
    }
    return _with_plan_flags(CampaignSpec.from_dict(fields), args)


def _cmd_plan(args: argparse.Namespace) -> int:
    """Dry run: validate, expand and print -- simulate nothing."""
    from repro.obs.sinks import describe_sink
    from repro.sim.kernel import describe_engine

    # Validate declared tunables and every plan flag (sink, engine,
    # graph preset: did-you-mean on a typo) before any output.
    tune_space = None
    if args.tunable:
        from repro.tune.cli import space_from_tunable_args
        tune_space = space_from_tunable_args(args.tunable)
    spec = _plan_campaign_spec(args)
    conditions = spec.expand()
    if tune_space is not None:
        # Prove the space applies to this campaign's plans (field
        # paths, workload params, graph presets) -- still a dry
        # run; nothing simulates.
        tune_space.validate_against(conditions[0].plan)
    total_runs = sum(c.runs for c in conditions)
    total_requests = sum(c.runs * c.num_requests for c in conditions)
    template = spec.plan
    print(f"campaign {spec.name!r}: workload={spec.workload}, "
          f"{len(spec.clients)} clients x {len(spec.conditions)} "
          f"conditions x {len(spec.qps_list)} loads = "
          f"{len(conditions)} experiments")
    print(f"totals: {total_runs} runs, {total_requests} simulated "
          f"requests")
    extra = spec.to_dict()["extra"]
    if extra:
        print(f"workload parameters: {extra}")
    if not template.cluster.is_single_server:
        print(f"cluster topology: {template.cluster.describe()}")
    if template.graph is not None:
        print("service graph:")
        print(textwrap.indent(template.graph.describe(), "  "))
    if template.load.arrival is not None:
        print(f"arrival process: {template.load.arrival.describe()}")
    if tune_space is not None:
        print(f"tunable space ({tune_space.size()} candidates):")
        print(textwrap.indent(tune_space.describe(), "  "))
    # The template keeps the --sink/--trace preview; the conditions
    # always run at the default observability.
    policy = template.policy
    print(f"observability: sink={policy.sink} "
          f"({describe_sink(policy.sink)}), "
          f"tracing={'on' if policy.trace else 'off'}"
          + ("" if policy.observed
             else " -- hot path runs unobserved"))
    print(f"engine: {policy.engine} ({describe_engine(policy.engine)})")
    print()
    print(f"{'#':>4} {'label':<16}{'qps':>10}  {'seed schedule':<24}"
          f"{'condition hash':<16}{'plan hash':<16}")
    for index, condition in enumerate(conditions, start=1):
        seeds = condition.plan.policy.seed_schedule()
        schedule = (f"{seeds[0]}" if len(seeds) == 1
                    else f"{seeds[0]}..{seeds[-1]}")
        print(f"{index:>4} {condition.label:<16}{condition.qps:>10g}  "
              f"{schedule:<24}{condition.content_hash()[:12]:<16}"
              f"{condition.plan.content_hash()[:12]:<16}")
    print()
    print(f"dry run: validated {len(conditions)} plans; nothing executed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; any library error exits 1 with one line."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "study": _cmd_study,
        "tune": _cmd_tune,
        "autotune": _cmd_autotune,
        "recommend": _cmd_recommend,
        "capacity": _cmd_capacity,
        "campaign": _cmd_campaign,
        "plan": _cmd_plan,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
