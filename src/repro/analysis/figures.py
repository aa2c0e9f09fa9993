"""Study engines and series renderers for the paper's figures.

A *study* is a grid of experiments: client configuration x server
condition x offered load, each cell being N repetitions.  One grid
feeds several figures (e.g. the Memcached SMT grid produces Fig. 2a-d,
Fig. 5a, Fig. 8, Fig. 9 and half of Table IV), so benchmarks build the
grid once and render multiple artifacts from it.

Every study is a thin wrapper over a declarative
:class:`~repro.campaign.spec.CampaignSpec` executed through the
shared campaign path, whose conditions compile into
:class:`~repro.api.ExperimentPlan`s -- the single execution surface
everything in the library funnels through.  The same specs can run
in parallel, memoized in a :class:`~repro.campaign.store.ResultStore`,
via ``repro campaign``; ``repro plan`` prints a grid's expansion
without running it.  Seeds are cell-identity-derived
(:func:`repro.campaign.spec.cell_seed`), so a study grid and a
campaign of the same conditions are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.builder import experiment
from repro.api.specs import ExperimentPlan
from repro.campaign.executor import execute_campaign
from repro.campaign.spec import CampaignSpec
from repro.cluster.spec import LB_POLICIES, ClusterSpec
from repro.config.knobs import HardwareConfig
from repro.config.presets import (
    HP_CLIENT,
    LP_CLIENT,
    SERVER_BASELINE,
    knob_conditions,
)
from repro.core.comparison import Comparison, compare_conditions
from repro.core.experiment import ExperimentResult
from repro.core.provisioning import CapacityResult, capacity_under_qos
from repro.errors import ExperimentError
from repro.workloads.registry import DEFAULT_QPS_SWEEPS

#: The paper's load sweeps.
MEMCACHED_QPS = DEFAULT_QPS_SWEEPS["memcached"]
HDSEARCH_QPS = DEFAULT_QPS_SWEEPS["hdsearch"]
SOCIALNETWORK_QPS = DEFAULT_QPS_SWEEPS["socialnetwork"]
SYNTHETIC_QPS = DEFAULT_QPS_SWEEPS["synthetic"]
SYNTHETIC_DELAYS = (0, 100, 200, 300, 400)

CLIENTS: Dict[str, HardwareConfig] = {"LP": LP_CLIENT, "HP": HP_CLIENT}


@dataclass
class StudyGrid:
    """Results of one study: (client, condition) x QPS -> experiment.

    Attributes:
        workload: workload name.
        conditions: condition label -> server HardwareConfig.
        cells: ``(client_label, condition_label)`` ->
            {qps -> ExperimentResult}.
        qps_list: the load sweep, ascending.
    """

    workload: str
    conditions: Dict[str, HardwareConfig]
    cells: Dict[Tuple[str, str], Dict[float, ExperimentResult]] = field(
        default_factory=dict)
    qps_list: Tuple[float, ...] = ()

    # ------------------------------------------------------------------
    def result(self, client: str, condition: str,
               qps: float) -> ExperimentResult:
        """One cell of the grid."""
        try:
            return self.cells[(client, condition)][qps]
        except KeyError:
            raise ExperimentError(
                f"no result for ({client}, {condition}) @ {qps}"
            ) from None

    def series(self, client: str, condition: str,
               metric: str = "avg") -> List[Tuple[float, float]]:
        """(qps, median-of-metric) pairs for one grid line.

        ``metric`` is ``"avg"``, ``"p99"``, ``"true_avg"``,
        ``"stdev_avg"`` or ``"true_p99"``.
        """
        points = []
        for qps in self.qps_list:
            result = self.result(client, condition, qps)
            points.append((qps, _metric_value(result, metric)))
        return points

    def ratio_series(self, client: str, condition_num: str,
                     condition_den: str, metric: str = "avg"
                     ) -> List[Tuple[float, float]]:
        """(qps, mean(num)/mean(den)) -- the Fig. 2c/2d ratio lines."""
        points = []
        for qps in self.qps_list:
            numerator = self.result(client, condition_num, qps)
            denominator = self.result(client, condition_den, qps)
            num = float(np.mean(_metric_samples(numerator, metric)))
            den = float(np.mean(_metric_samples(denominator, metric)))
            points.append((qps, num / den))
        return points

    def client_gap_series(self, condition: str, metric: str = "avg"
                          ) -> List[Tuple[float, float]]:
        """(qps, LP/HP) for one condition -- the Fig. 6a/7a lines."""
        points = []
        for qps in self.qps_list:
            lp = float(np.mean(_metric_samples(
                self.result("LP", condition, qps), metric)))
            hp = float(np.mean(_metric_samples(
                self.result("HP", condition, qps), metric)))
            points.append((qps, lp / hp))
        return points

    def comparisons(self, client: str, condition_a: str,
                    condition_b: str, metric: str = "avg",
                    confidence: float = 0.95
                    ) -> Dict[float, Comparison]:
        """CI-overlap comparisons per QPS, as one client sees them."""
        output: Dict[float, Comparison] = {}
        for qps in self.qps_list:
            samples_a = _metric_samples(
                self.result(client, condition_a, qps), metric)
            samples_b = _metric_samples(
                self.result(client, condition_b, qps), metric)
            output[qps] = compare_conditions(
                samples_a, samples_b,
                label_a=condition_a, label_b=condition_b,
                confidence=confidence)
        return output


#: metric name -> unbound ExperimentResult accessor.  The accessors
#: serve cached read-only arrays, so series/ratio/comparison renderers
#: that revisit the same cell never rebuild the sample array.
_METRIC_ACCESSORS = {
    "avg": ExperimentResult.avg_samples,
    "p99": ExperimentResult.p99_samples,
    "true_avg": ExperimentResult.true_avg_samples,
    "true_p99": ExperimentResult.true_p99_samples,
}


def _metric_samples(result: ExperimentResult, metric: str) -> np.ndarray:
    accessor = _METRIC_ACCESSORS.get(metric)
    if accessor is None:
        raise ExperimentError(f"unknown metric {metric!r}")
    return accessor(result)


def _metric_value(result: ExperimentResult, metric: str) -> float:
    if metric == "stdev_avg":
        return result.stdev_avg_us()
    return float(np.median(_metric_samples(result, metric)))


def _template(workload: str, runs: int, num_requests: int,
              base_seed: int, **params: Any) -> ExperimentPlan:
    """A study's template plan; the campaign axes own qps and hardware."""
    return (experiment(workload, **params)
            .load(num_requests=num_requests)
            .policy(runs=runs, base_seed=base_seed)
            .build())


def _run_grid(workload: str,
              conditions: Dict[str, HardwareConfig],
              qps_list: Sequence[float],
              runs: int, num_requests: int, base_seed: int,
              clients: Optional[Dict[str, HardwareConfig]] = None,
              **params) -> StudyGrid:
    """Run one study grid through the shared campaign path (inline)."""
    from repro.campaign.report import grid_from_outcome

    spec = CampaignSpec(
        name=f"{workload}-study",
        plan=_template(workload, runs, num_requests, base_seed,
                       **params),
        conditions=dict(conditions),
        qps_list=qps_list,
        clients=dict(clients or CLIENTS),
    )
    # fail_fast restores the pre-campaign study behavior: a broken
    # cell raises its original exception immediately instead of
    # simulating the rest of the grid first.
    outcome = execute_campaign(spec, max_workers=1, fail_fast=True)
    return grid_from_outcome(spec, outcome)


# ----------------------------------------------------------------- studies
def memcached_study(knob: str = "smt",
                    qps_list: Sequence[float] = MEMCACHED_QPS,
                    runs: int = 50, num_requests: int = 2_000,
                    base_seed: int = 0) -> StudyGrid:
    """The Fig. 2 (knob="smt") / Fig. 3 (knob="c1e") Memcached grid."""
    return _run_grid("memcached", knob_conditions(knob), qps_list,
                     runs, num_requests, base_seed)


def hdsearch_study(knob: str = "smt",
                   qps_list: Sequence[float] = HDSEARCH_QPS,
                   runs: int = 50, num_requests: int = 1_000,
                   base_seed: int = 0) -> StudyGrid:
    """The Fig. 4 HDSearch grid (SMT or C1E server conditions)."""
    return _run_grid("hdsearch", knob_conditions(knob), qps_list,
                     runs, num_requests, base_seed)


def socialnetwork_study(qps_list: Sequence[float] = SOCIALNETWORK_QPS,
                        runs: int = 50, num_requests: int = 800,
                        base_seed: int = 0) -> StudyGrid:
    """The Fig. 6 Social Network grid (baseline server only)."""
    conditions = {"baseline": SERVER_BASELINE}
    return _run_grid("socialnetwork", conditions, qps_list, runs,
                     num_requests, base_seed)


def synthetic_study(delays_us: Sequence[float] = SYNTHETIC_DELAYS,
                    qps_list: Sequence[float] = SYNTHETIC_QPS,
                    runs: int = 20, num_requests: int = 2_000,
                    base_seed: int = 0) -> Dict[float, StudyGrid]:
    """The Fig. 7 sensitivity grids: one StudyGrid per added delay.

    The paper's Fig. 7 uses 20 runs per point (Section V-B).
    """
    grids: Dict[float, StudyGrid] = {}
    for delay in delays_us:
        grids[float(delay)] = _run_grid(
            "synthetic", {"baseline": SERVER_BASELINE},
            qps_list, runs, num_requests, base_seed,
            added_delay_us=float(delay))
    return grids


# ---------------------------------------------------------- cluster study
@dataclass
class ClusterStudyGrid:
    """Results of a cluster-scale study: (nodes, policy) x QPS.

    Attributes:
        workload: workload name.
        nodes_list: cluster sizes swept, ascending.
        policies: LB policies swept, in sweep order.
        cells: ``(nodes, policy)`` -> {qps -> ExperimentResult}.
        qps_list: the load sweep, ascending.
    """

    workload: str
    nodes_list: Tuple[int, ...]
    policies: Tuple[str, ...]
    cells: Dict[Tuple[int, str], Dict[float, ExperimentResult]] = field(
        default_factory=dict)
    qps_list: Tuple[float, ...] = ()

    def result(self, nodes: int, policy: str,
               qps: float) -> ExperimentResult:
        """One cell of the grid."""
        try:
            return self.cells[(nodes, policy)][qps]
        except KeyError:
            raise ExperimentError(
                f"no result for ({nodes} nodes, {policy}) @ {qps}"
            ) from None

    def series(self, nodes: int, policy: str,
               metric: str = "p99") -> List[Tuple[float, float]]:
        """(qps, median-of-metric) pairs for one topology line."""
        return [(qps, _metric_value(
            self.result(nodes, policy, qps), metric))
            for qps in self.qps_list]

    def node_utilization_spread(self, nodes: int, policy: str,
                                qps: float) -> Tuple[float, float]:
        """(min, max) per-node utilization -- LB fairness at a glance."""
        utils = self.result(nodes, policy, qps).mean_node_utilizations()
        if not utils:
            raise ExperimentError(
                f"({nodes} nodes, {policy}) @ {qps} carries no "
                f"per-node utilization")
        return (min(utils), max(utils))


def cluster_study(workload: str = "memcached",
                  nodes_list: Sequence[int] = (2, 4, 8),
                  policies: Sequence[str] = LB_POLICIES,
                  qps_list: Optional[Sequence[float]] = None,
                  runs: int = 10, num_requests: int = 500,
                  base_seed: int = 0,
                  shards: int = 1, fanout: int = 0, quorum: int = 0,
                  clients: Optional[Dict[str, HardwareConfig]] = None,
                  ) -> ClusterStudyGrid:
    """Sweep cluster size x LB policy for one workload.

    Each (nodes, policy) topology runs as its own campaign through
    the shared executor path (cell-identity seeds, store-compatible
    hashes), with the QPS sweep scaled by the node count so per-node
    load stays at the paper's operating points.
    """
    from repro.campaign.report import grid_from_outcome

    if qps_list is None:
        from repro.workloads.registry import workload_by_name
        definition = workload_by_name(workload)
        qps_list = definition.qps_sweep or (definition.default_qps,)
    clients = dict(clients or {"LP": LP_CLIENT})
    if len(clients) != 1:
        # The grid is keyed (nodes, policy) for one observer; a
        # multi-client sweep would silently discard all but the
        # first client's runs.
        raise ExperimentError(
            f"cluster_study sweeps topologies for exactly one "
            f"client, got {len(clients)}: {', '.join(clients)}")
    client_label = next(iter(clients))
    nodes_list = tuple(int(n) for n in nodes_list)
    policies = tuple(str(p) for p in policies)
    grid = ClusterStudyGrid(
        workload=workload, nodes_list=nodes_list, policies=policies)
    template = _template(workload, runs, num_requests, base_seed)
    for nodes in nodes_list:
        scaled_qps = tuple(float(q) * nodes for q in qps_list)
        for policy in policies:
            spec = CampaignSpec(
                name=f"{workload}-cluster-n{nodes}-{policy}",
                plan=template.with_cluster(ClusterSpec(
                    nodes=nodes, lb_policy=policy, shards=shards,
                    fanout=fanout, quorum=quorum)),
                conditions={"baseline": SERVER_BASELINE},
                qps_list=scaled_qps,
                clients=dict(clients),
            )
            outcome = execute_campaign(
                spec, max_workers=1, fail_fast=True)
            study = grid_from_outcome(spec, outcome)
            cell: Dict[float, ExperimentResult] = {}
            for scaled, original in zip(scaled_qps, qps_list):
                # Key cells by the *per-node* load so different
                # cluster sizes line up on one axis.
                cell[float(original)] = study.result(
                    client_label, "baseline", scaled)
            grid.cells[(nodes, policy)] = cell
    grid.qps_list = tuple(float(q) for q in qps_list)
    return grid


def render_cluster_series(grid: ClusterStudyGrid,
                          metric: str = "p99",
                          title: str = "") -> str:
    """Print one metric's series for every (nodes, policy) line.

    Columns are per-node QPS, so cluster sizes are comparable."""
    lines = [title or (f"{grid.workload} cluster: {metric} by "
                       f"per-node QPS")]
    header = f"{'topology':<28}" + "".join(
        f"{_format_qps(qps):>10}" for qps in grid.qps_list)
    lines.append(header)
    for nodes in grid.nodes_list:
        for policy in grid.policies:
            values = grid.series(nodes, policy, metric)
            row = f"{f'{nodes}n-{policy}':<28}" + "".join(
                f"{value:>10.1f}" for _, value in values)
            lines.append(row)
    return "\n".join(lines)


# ------------------------------------------------------------ graph study
@dataclass
class GraphStudyGrid:
    """Results of a service-graph QoS-capacity study: topology x QPS.

    Attributes:
        workload: workload name.
        topologies: topology labels swept, in sweep order.
        cells: topology label -> {qps -> ExperimentResult}.
        qps_list: the load sweep, ascending.
    """

    workload: str
    topologies: Tuple[str, ...]
    cells: Dict[str, Dict[float, ExperimentResult]] = field(
        default_factory=dict)
    qps_list: Tuple[float, ...] = ()

    def result(self, topology: str, qps: float) -> ExperimentResult:
        """One cell of the grid."""
        try:
            return self.cells[topology][qps]
        except KeyError:
            raise ExperimentError(
                f"no result for {topology!r} @ {qps}") from None

    def series(self, topology: str,
               metric: str = "p99") -> List[Tuple[float, float]]:
        """(qps, median-of-metric) pairs for one topology line."""
        return [(qps, _metric_value(self.result(topology, qps), metric))
                for qps in self.qps_list]

    def capacity_result(self, topology: str, target_us: float,
                        metric: str = "p99",
                        interpolate: bool = True) -> CapacityResult:
        """Full :func:`capacity_under_qos` search for one topology.

        Delegates to the provisioning-layer search over this
        topology's measured sweep, so the figures layer and the
        capacity analysis give the same answer -- including the
        interpolated QoS crossing -- for the same data.
        """
        latency_by_qps = dict(self.series(topology, metric))
        return capacity_under_qos(
            latency_by_qps, float(target_us), metric=metric,
            interpolate=interpolate)

    def qos_capacity(self, topology: str, target_us: float,
                     metric: str = "p99",
                     interpolate: bool = False) -> float:
        """Highest load whose *metric* stays within *target_us*.

        The QoS-capacity number: how much load a topology sustains
        before its tail blows the SLO.  Delegates to
        :func:`capacity_under_qos` (first-crossing semantics, same as
        the provisioning analysis) instead of the old grid-only
        ``max(passing qps)`` scan; ``interpolate=True`` returns the
        interpolated crossing when the sweep brackets one.  Returns
        0.0 when even the lightest swept load misses the target,
        including non-positive targets.
        """
        if float(target_us) <= 0:
            return 0.0
        result = self.capacity_result(
            topology, target_us, metric=metric, interpolate=interpolate)
        return (result.best_capacity_qps if interpolate
                else result.capacity_qps)


def graph_study(workload: str = "memcached",
                graphs: Optional[Sequence[str]] = None,
                qps_list: Optional[Sequence[float]] = None,
                runs: int = 10, num_requests: int = 500,
                base_seed: int = 0,
                arrival: Optional[Any] = None,
                clients: Optional[Dict[str, HardwareConfig]] = None,
                ) -> GraphStudyGrid:
    """Sweep service-graph topologies x QPS for one workload.

    *graphs* names graph presets (default: every preset); each
    topology runs as its own campaign through the shared executor
    path, so the cells are bit-identical to a ``repro campaign`` of
    the same conditions and land under the same store keys.
    """
    from repro.campaign.report import grid_from_outcome
    from repro.graph.presets import graph_preset_names

    if qps_list is None:
        from repro.workloads.registry import workload_by_name
        definition = workload_by_name(workload)
        qps_list = definition.qps_sweep or (definition.default_qps,)
    clients = dict(clients or {"LP": LP_CLIENT})
    if len(clients) != 1:
        # Keyed by topology for one observer, like cluster_study.
        raise ExperimentError(
            f"graph_study sweeps topologies for exactly one "
            f"client, got {len(clients)}: {', '.join(clients)}")
    client_label = next(iter(clients))
    topologies = tuple(str(g) for g in (graphs or graph_preset_names()))
    grid = GraphStudyGrid(
        workload=workload, topologies=topologies,
        qps_list=tuple(float(q) for q in qps_list))
    template = _template(workload, runs, num_requests,
                         base_seed).with_load(arrival=arrival)
    for topology in topologies:
        spec = CampaignSpec(
            name=f"{workload}-graph-{topology}",
            plan=template.with_graph(topology),
            conditions={"baseline": SERVER_BASELINE},
            qps_list=qps_list,
            clients=dict(clients),
        )
        outcome = execute_campaign(spec, max_workers=1, fail_fast=True)
        study = grid_from_outcome(spec, outcome)
        grid.cells[topology] = {
            float(qps): study.result(client_label, "baseline", float(qps))
            for qps in qps_list}
    return grid


def render_graph_series(grid: GraphStudyGrid,
                        metric: str = "p99",
                        title: str = "") -> str:
    """Print one metric's series for every topology line."""
    lines = [title or f"{grid.workload} graphs: {metric} by QPS"]
    header = f"{'topology':<28}" + "".join(
        f"{_format_qps(qps):>10}" for qps in grid.qps_list)
    lines.append(header)
    for topology in grid.topologies:
        values = grid.series(topology, metric)
        row = f"{topology:<28}" + "".join(
            f"{value:>10.1f}" for _, value in values)
        lines.append(row)
    return "\n".join(lines)


def render_graph_capacity(grid: GraphStudyGrid, target_us: float,
                          metric: str = "p99",
                          title: str = "") -> str:
    """Print each topology's QoS capacity, grid and interpolated.

    The ``interp`` column is the linear QoS crossing from
    :func:`capacity_under_qos` -- blank (``-``) when the sweep never
    bracketed a violation (sweep-limited) or never passed at all.
    """
    lines = [title or (f"{grid.workload} graphs: capacity @ "
                       f"{metric} <= {target_us:g}us")]
    lines.append(f"{'topology':<28}{'grid':>10}{'interp':>10}")
    for topology in grid.topologies:
        result = grid.capacity_result(
            topology, target_us, metric=metric, interpolate=True)
        interp = (f"{result.interpolated_capacity_qps:>10.0f}"
                  if result.interpolated_capacity_qps is not None
                  else f"{'-':>10}")
        lines.append(
            f"{topology:<28}{result.capacity_qps:>10.0f}{interp}")
    return "\n".join(lines)


# --------------------------------------------------------------- rendering
def _format_qps(qps: float) -> str:
    return f"{qps / 1000:g}K" if qps >= 1000 else f"{qps:g}"


def render_latency_series(grid: StudyGrid, metric: str = "avg",
                          unit: str = "us",
                          title: str = "") -> str:
    """Print one metric's series for every (client, condition) line."""
    lines = [title or f"{grid.workload}: {metric} ({unit}) by QPS"]
    header = f"{'series':<16}" + "".join(
        f"{_format_qps(qps):>10}" for qps in grid.qps_list)
    lines.append(header)
    for (client, condition), _ in grid.cells.items():
        values = grid.series(client, condition, metric)
        row = f"{client + '-' + condition:<16}" + "".join(
            f"{value:>10.1f}" for _, value in values)
        lines.append(row)
    return "\n".join(lines)


def render_ratio_series(grid: StudyGrid, condition_num: str,
                        condition_den: str, metric: str = "avg",
                        title: str = "") -> str:
    """Print the per-client ratio lines (Fig. 2c/2d style)."""
    lines = [title or (f"{grid.workload}: {condition_num}/{condition_den} "
                       f"ratio ({metric})")]
    header = f"{'client':<10}" + "".join(
        f"{_format_qps(qps):>10}" for qps in grid.qps_list)
    lines.append(header)
    clients = sorted({client for client, _ in grid.cells})
    for client in clients:
        ratios = grid.ratio_series(
            client, condition_num, condition_den, metric)
        row = f"{client:<10}" + "".join(
            f"{ratio:>10.3f}" for _, ratio in ratios)
        lines.append(row)
    return "\n".join(lines)
