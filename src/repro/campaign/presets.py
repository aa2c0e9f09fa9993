"""Named campaign presets mirroring the paper's figure studies.

Each preset is the declarative form of one study grid, at the paper's
default scale (50 runs, full QPS sweep).  The CLI exposes them so a
full figure campaign is one command::

    repro campaign run --preset memcached-smt --store results.sqlite

Scale overrides (``runs``, ``num_requests``, ``qps_list``,
``base_seed``, ``engine``, ...) are campaign-file keys applied on top
via :meth:`CampaignSpec.with_overrides`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.api.builder import experiment
from repro.api.specs import ExperimentPlan
from repro.campaign.spec import CampaignSpec
from repro.cluster.spec import LB_POWER_OF_TWO, ClusterSpec
from repro.config.knobs import HardwareConfig
from repro.config.presets import SERVER_BASELINE, knob_conditions
from repro.errors import ExperimentError
from repro.loadgen.interarrival import ArrivalSpec
from repro.workloads.registry import DEFAULT_QPS_SWEEPS

_SMT = knob_conditions("smt")
_C1E = knob_conditions("c1e")
_BASELINE = {"baseline": SERVER_BASELINE}


def _plan(workload: str, num_requests: int,
          **params: Any) -> ExperimentPlan:
    """A preset's template: paper-default runs and seed."""
    return experiment(workload, **params).load(
        num_requests=num_requests).build()


def _campaign(name: str, plan: ExperimentPlan,
              conditions: Mapping[str, HardwareConfig],
              qps_list: Optional[Sequence[float]] = None
              ) -> CampaignSpec:
    """A preset over *plan*; the sweep defaults to the paper's."""
    return CampaignSpec(
        name=name, plan=plan, conditions=dict(conditions),
        qps_list=(DEFAULT_QPS_SWEEPS[plan.workload.name]
                  if qps_list is None else qps_list))


_PRESETS: Dict[str, Callable[[], CampaignSpec]] = {
    # Fig. 2 / Fig. 3: the Memcached knob studies.
    "memcached-smt": lambda: _campaign(
        "memcached-smt", _plan("memcached", 2_000), _SMT),
    "memcached-c1e": lambda: _campaign(
        "memcached-c1e", _plan("memcached", 2_000), _C1E),
    # Fig. 4: HDSearch.
    "hdsearch-smt": lambda: _campaign(
        "hdsearch-smt", _plan("hdsearch", 1_000), _SMT),
    "hdsearch-c1e": lambda: _campaign(
        "hdsearch-c1e", _plan("hdsearch", 1_000), _C1E),
    # Fig. 6: Social Network, baseline server only.
    "socialnetwork": lambda: _campaign(
        "socialnetwork", _plan("socialnetwork", 800), _BASELINE),
    # Fig. 7 (one delay point): the synthetic sensitivity workload.
    "synthetic": lambda: _campaign(
        "synthetic", _plan("synthetic", 2_000, added_delay_us=200.0),
        _BASELINE),
    # Cluster-scale testbeds: the paper's workloads deployed the way
    # production runs them.  The memcached sweep is scaled by the
    # node count so per-node load matches the paper's single-box
    # operating points.
    "memcached-cluster": lambda: _campaign(
        "memcached-cluster",
        _plan("memcached", 2_000).with_cluster(
            ClusterSpec(nodes=4, lb_policy=LB_POWER_OF_TWO)),
        _BASELINE,
        qps_list=tuple(4 * q for q in DEFAULT_QPS_SWEEPS["memcached"])),
    # No lb_policy: one node, no replicas -> no balancer runs
    # (ClusterSpec canonicalizes a dead policy away anyway).
    "hdsearch-cluster": lambda: _campaign(
        "hdsearch-cluster",
        _plan("hdsearch", 1_000).with_cluster(
            ClusterSpec(shards=8, fanout=4)),
        _BASELINE),
    # Service-graph testbeds: multi-tier DAG deployments with cache
    # tiers, tail-resilience policies and time-varying load -- the
    # QoS-capacity territory past the paper's single-box scope.  One
    # diurnal cycle per ~50ms of simulated time at the sweep's
    # midpoint load, so every run sees both rate extremes.
    "memcached-cached": lambda: _campaign(
        "memcached-cached",
        _plan("memcached", 2_000).with_graph("memcached-cached")
        .with_load(arrival=ArrivalSpec(
            shape="diurnal", period_us=20_000.0, amplitude=0.5)),
        _BASELINE),
    "hdsearch-graph": lambda: _campaign(
        "hdsearch-graph",
        _plan("hdsearch", 1_000).with_graph("hdsearch-graph"),
        _BASELINE),
}


def preset_names() -> tuple:
    """Sorted names of all campaign presets."""
    return tuple(sorted(_PRESETS))


def campaign_by_name(name: str) -> CampaignSpec:
    """Build the preset campaign called *name*.

    Raises:
        ExperimentError: on an unknown preset name.
    """
    try:
        build = _PRESETS[str(name)]
    except KeyError:
        raise ExperimentError(
            f"unknown campaign preset {name!r}; available: "
            f"{', '.join(preset_names())}"
        ) from None
    return build()
