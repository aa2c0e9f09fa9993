"""Declarative campaign specifications.

A *campaign* is the paper's methodology written down as data: a
cartesian sweep of workloads x client configurations x server knob
conditions x offered loads, each cell repeated N times from a
deterministic seed block.  :class:`CampaignSpec` describes the sweep;
:meth:`CampaignSpec.expand` flattens it into an ordered list of
:class:`ConditionSpec` -- one experiment each -- with stable content
hashes that key the result store and make re-runs, resumes and
cross-campaign sharing possible.

Specs are data, not code: :meth:`CampaignSpec.from_dict` accepts plain
dicts/JSON with preset shorthands (clients by Table II name, server
conditions by knob), so a campaign can live in a ``.json`` file next
to the figures it feeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.specs import (
    ExperimentPlan,
    HardwareSpec,
    LoadSpec,
    RunPolicy,
    WorkloadSpec,
    _check_keys,
)
from repro.campaign.serialize import (
    content_hash,
    hardware_config_from_dict,
    hardware_config_to_dict,
)
from repro.cluster.spec import ClusterSpec, as_cluster_spec
from repro.config.knobs import HardwareConfig
from repro.config.presets import (
    HP_CLIENT,
    LP_CLIENT,
    server_with_c1e,
    server_with_smt,
)
from repro.core.experiment import DEFAULT_RUNS
from repro.errors import ExperimentError
from repro.graph.spec import ServiceGraphSpec, as_graph_spec
from repro.loadgen.interarrival import ArrivalSpec, as_arrival_spec
from repro.sim.kernel import DEFAULT_ENGINE, validate_engine_name
from repro.sim.random import _stable_name_key
from repro.workloads.registry import (
    UNIVERSAL_BUILDER_PARAMS,
    find_workload,
)

#: The default client sweep: both Table II configurations.
DEFAULT_CLIENTS: Dict[str, HardwareConfig] = {
    "LP": LP_CLIENT, "HP": HP_CLIENT}


def _normalize_extra(extra) -> Dict[str, Any]:
    """Canonicalize extra builder kwargs for hashing.

    JSON has one number type, so ``{"added_delay_us": 200}`` and
    ``{"added_delay_us": 200.0}`` must be the *same* condition --
    otherwise a spec file written with integer literals would miss
    every store row a preset-built campaign produced.
    """
    out: Dict[str, Any] = {}
    for key, value in dict(extra).items():
        if isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        out[str(key)] = value
    return out


def cell_seed(base_seed: int, client: str, condition: str,
              qps: float) -> int:
    """Deterministic, condition-unique seed block for one grid cell.

    Derived from the cell's identity (not its position in the sweep),
    so adding or removing QPS points never perturbs other cells' seeds
    -- the property that makes store hits and resumed campaigns exact.
    """
    key = _stable_name_key(f"{client}/{condition}/{qps:g}")
    return base_seed + (key % 1_000_003) * 10_000


def _split_extra(extra: Mapping[str, Any]
                 ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split an ``extra`` dict into (workload params, LoadSpec fields).

    Every universal builder param maps to the LoadSpec field of the
    same name (the contract a new ``UNIVERSAL_BUILDER_PARAMS`` entry
    must uphold); everything left is a workload parameter.
    """
    params = dict(extra)
    load = {spec.name: params.pop(spec.name)
            for spec in UNIVERSAL_BUILDER_PARAMS if spec.name in params}
    return params, load


@dataclass(frozen=True)
class ConditionSpec:
    """One fully-resolved experimental condition: the plan it runs.

    The plan is the single source of truth.  :meth:`to_dict` renders
    it into the campaign *store-key layout* -- workload, client and
    server labels and configs, qps, runs, num_requests, base_seed and
    ``extra`` (the workload parameters plus ``warmup_fraction`` when
    set), with ``cluster`` / ``engine`` / ``graph`` / ``arrival`` /
    ``workers`` present only when non-default -- so a new plan field
    left at its default never re-keys a stored result.
    :meth:`from_dict` is its inverse.

    The plan's ``policy.label`` is the condition :attr:`label`; the
    observability knobs (sink, trace, metrics) are not part of the
    key and stay at their defaults.
    """

    plan: ExperimentPlan

    @property
    def label(self) -> str:
        """The condition's series label, e.g. ``"LP-SMToff"``."""
        hardware = self.plan.hardware
        return f"{hardware.client_label}-{hardware.server_label}"

    @property
    def qps(self) -> float:
        """Offered load."""
        return self.plan.load.qps

    @property
    def runs(self) -> int:
        """Repetitions."""
        return self.plan.policy.runs

    @property
    def num_requests(self) -> int:
        """Requests per run."""
        return self.plan.load.num_requests

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON store-key layout (the hash input)."""
        plan = self.plan
        extra = plan.workload.param_dict()
        for spec in UNIVERSAL_BUILDER_PARAMS:
            value = getattr(plan.load, spec.name)
            if value is not None:
                extra[spec.name] = value
        data = {
            "workload": plan.workload.name,
            "client_label": plan.hardware.client_label,
            "client_config": hardware_config_to_dict(plan.hardware.client),
            "condition_label": plan.hardware.server_label,
            "server_config": hardware_config_to_dict(plan.hardware.server),
            "qps": plan.load.qps,
            "runs": plan.policy.runs,
            "num_requests": plan.load.num_requests,
            "base_seed": plan.policy.base_seed,
            "extra": _normalize_extra(extra),
        }
        if not plan.cluster.is_single_server:
            data["cluster"] = plan.cluster.to_dict()
        if plan.policy.engine != DEFAULT_ENGINE:
            data["engine"] = plan.policy.engine
        if plan.graph is not None:
            data["graph"] = plan.graph.to_dict()
        if plan.load.arrival is not None:
            data["arrival"] = plan.load.arrival.to_dict()
        if plan.policy.workers != 1:
            data["workers"] = plan.policy.workers
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConditionSpec":
        """Rebuild a condition (and its plan) from the store layout."""
        try:
            params, load = _split_extra(data.get("extra", {}))
            client_label = str(data["client_label"])
            condition_label = str(data["condition_label"])
            return cls(ExperimentPlan(
                workload=WorkloadSpec.create(str(data["workload"]),
                                             **params),
                load=LoadSpec(qps=data["qps"],
                              num_requests=data["num_requests"],
                              arrival=data.get("arrival"), **load),
                hardware=HardwareSpec(
                    client=data["client_config"],
                    server=data["server_config"],
                    client_label=client_label,
                    server_label=condition_label),
                policy=RunPolicy(
                    runs=data["runs"], base_seed=data["base_seed"],
                    label=f"{client_label}-{condition_label}",
                    engine=data.get("engine", DEFAULT_ENGINE),
                    workers=data.get("workers", 1)),
                cluster=data.get("cluster"),
                graph=data.get("graph"),
            ))
        except KeyError as exc:
            raise ExperimentError(
                f"invalid condition spec: missing {exc}") from exc

    def content_hash(self) -> str:
        """Stable identity of this condition across processes/sessions."""
        return content_hash(self.to_dict())

    def to_plan(self) -> ExperimentPlan:
        """The :class:`~repro.api.ExperimentPlan` this condition runs."""
        return self.plan


def _coerce_server_condition(
        label: str,
        value: Union[str, Mapping[str, Any], HardwareConfig],
        ) -> HardwareConfig:
    """One server condition from config, preset name, or knob shorthand.

    Shorthand: ``{"knob": "smt"|"c1e", "enabled": bool}`` derives the
    Table II baseline exactly like the figure studies do.
    """
    if isinstance(value, HardwareConfig):
        return value
    if isinstance(value, str):
        return hardware_config_from_dict(value)
    if "knob" in value:
        knob = str(value["knob"]).lower()
        enabled = bool(value.get("enabled", False))
        if knob == "smt":
            return server_with_smt(enabled)
        if knob == "c1e":
            return server_with_c1e(enabled)
        raise ExperimentError(
            f"unknown knob {knob!r} in condition {label!r}; "
            f"expected 'smt' or 'c1e'")
    return hardware_config_from_dict(dict(value))


def _coerce_clients(
        value: Union[Sequence[str], Mapping[str, Any], None],
        ) -> Dict[str, HardwareConfig]:
    if value is None:
        return dict(DEFAULT_CLIENTS)
    if isinstance(value, Mapping):
        return {str(label): (config if isinstance(config, HardwareConfig)
                             else hardware_config_from_dict(config))
                for label, config in value.items()}
    return {str(name): hardware_config_from_dict(str(name))
            for name in value}


#: Keys a campaign spec file may carry: the :meth:`CampaignSpec.to_dict`
#: layout plus ``qps``, the alias for ``qps_list``.
_CAMPAIGN_KEYS = ("name", "workload", "clients", "conditions", "qps_list",
                  "qps", "runs", "num_requests", "base_seed", "extra",
                  "cluster", "engine", "graph", "arrival")


@dataclass
class CampaignSpec:
    """A declarative cartesian sweep of experimental conditions.

    Attributes:
        name: campaign name (labels the store rows and reports).
        workload: registered workload name.
        clients: client label -> hardware config (default: LP and HP).
        conditions: server condition label -> hardware config.
        qps_list: the load sweep, in paper order.
        runs: repetitions per condition.
        num_requests: requests per run.
        base_seed: campaign-wide base seed; per-condition blocks are
            derived via :func:`cell_seed`.
        extra: extra kwargs forwarded to the testbed builder.
        cluster: server-side topology every condition deploys on
            (spec, dict, or ``None`` for single-server).
        engine: event-loop engine every condition runs on (``None``
            for the reference loop).  Validated here, before any
            condition executes, with a did-you-mean hint.
        graph: service-graph topology every condition deploys on
            (spec, dict, or ``None``); validated here, before
            expansion, with did-you-mean hints for tier references.
        arrival: time-varying arrival shape every condition drives
            (spec, dict, shape name, or ``None`` for Poisson).
    """

    name: str
    workload: str
    conditions: Dict[str, HardwareConfig]
    qps_list: Tuple[float, ...]
    clients: Dict[str, HardwareConfig] = field(
        default_factory=lambda: dict(DEFAULT_CLIENTS))
    runs: int = DEFAULT_RUNS
    num_requests: int = 1_000
    base_seed: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)
    cluster: Optional[ClusterSpec] = None
    engine: Optional[str] = None
    graph: Optional[ServiceGraphSpec] = None
    arrival: Optional[ArrivalSpec] = None

    def __post_init__(self) -> None:
        if self.cluster is not None:
            cluster = as_cluster_spec(self.cluster)
            self.cluster = (None if cluster.is_single_server
                            else cluster)
        if self.engine is not None:
            engine = validate_engine_name(self.engine)
            self.engine = (None if engine == DEFAULT_ENGINE
                           else engine)
        self.graph = as_graph_spec(self.graph)
        self.arrival = as_arrival_spec(self.arrival)
        if self.graph is not None and self.cluster is not None:
            raise ExperimentError(
                "a campaign deploys either a service graph or a "
                "cluster, not both")
        self.qps_list = tuple(float(q) for q in self.qps_list)
        if not self.name:
            raise ExperimentError("campaign name must be non-empty")
        if self.runs < 1:
            raise ExperimentError(f"runs must be >= 1, got {self.runs}")
        if self.num_requests < 1:
            raise ExperimentError(
                f"num_requests must be >= 1, got {self.num_requests}")
        if not self.qps_list:
            raise ExperimentError("qps_list must be non-empty")
        if not self.conditions:
            raise ExperimentError("conditions must be non-empty")
        if not self.clients:
            raise ExperimentError("clients must be non-empty")
        self.extra = _normalize_extra(self.extra)
        # Validate extra against the workload's registered parameter
        # schema *now*, naming the offending key -- not at execution
        # time deep inside a worker process.  A workload the driving
        # process has not registered (a plugin the executor imports)
        # defers validation to expansion.
        definition = find_workload(self.workload)
        if definition is not None:
            self.extra = definition.validate_params(
                self.extra, include_universal=True)

    # ------------------------------------------------------------------
    def expand(self) -> List[ConditionSpec]:
        """The sweep, flattened in deterministic paper order.

        Order is clients x conditions x qps -- the same nesting the
        serial figure studies use, so a campaign-built grid renders
        its series in the same order.
        """
        # One validated template; each cell swaps in its client,
        # server, qps and seed block.
        params, load = _split_extra(self.extra)
        template = ExperimentPlan(
            workload=WorkloadSpec.create(self.workload, **params),
            load=LoadSpec(qps=self.qps_list[0],
                          num_requests=self.num_requests,
                          arrival=self.arrival, **load),
            hardware=HardwareSpec(client=LP_CLIENT),
            policy=RunPolicy(runs=self.runs,
                             engine=self.engine or DEFAULT_ENGINE),
            cluster=as_cluster_spec(self.cluster),
            graph=self.graph,
        )
        out: List[ConditionSpec] = []
        for client_label, client_config in self.clients.items():
            client = template.with_client(client_config, client_label)
            for condition_label, server_config in self.conditions.items():
                cell = client.with_server(server_config, condition_label)
                for qps in self.qps_list:
                    out.append(ConditionSpec(
                        cell.with_qps(qps).with_policy(
                            base_seed=cell_seed(
                                self.base_seed, client_label,
                                condition_label, qps),
                            label=f"{client_label}-{condition_label}")))
        return out

    def size(self) -> int:
        """Number of conditions in the sweep."""
        return len(self.clients) * len(self.conditions) * len(self.qps_list)

    def with_overrides(self, **kwargs: Any) -> "CampaignSpec":
        """Copy of this spec with some fields replaced (CLI overrides)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form of the whole campaign."""
        data = {
            "name": self.name,
            "workload": self.workload,
            "clients": {label: hardware_config_to_dict(config)
                        for label, config in self.clients.items()},
            "conditions": {label: hardware_config_to_dict(config)
                           for label, config in self.conditions.items()},
            "qps_list": list(self.qps_list),
            "runs": self.runs,
            "num_requests": self.num_requests,
            "base_seed": self.base_seed,
            "extra": dict(self.extra),
        }
        if self.cluster is not None:
            data["cluster"] = self.cluster.to_dict()
        if self.engine is not None:
            data["engine"] = self.engine
        if self.graph is not None:
            data["graph"] = self.graph.to_dict()
        if self.arrival is not None:
            data["arrival"] = self.arrival.to_dict()
        return data

    def to_json(self, indent: int = 2) -> str:
        """JSON text form (what a campaign file contains)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Build a campaign from a plain dict.

        Accepts the shorthands documented in the module docstring:
        clients as a list of preset names, server conditions as knob
        dicts or preset names, ``qps`` as an alias for ``qps_list``.
        Unknown keys are rejected with a did-you-mean hint.
        """
        _check_keys(data, _CAMPAIGN_KEYS, "campaign")
        try:
            name = str(data["name"])
            workload = str(data["workload"])
            raw_conditions = data["conditions"]
        except KeyError as exc:
            raise ExperimentError(
                f"invalid campaign spec: missing {exc}") from exc
        qps_list = data.get("qps_list", data.get("qps"))
        if qps_list is None:
            raise ExperimentError(
                "invalid campaign spec: missing 'qps_list'")
        conditions = {
            str(label): _coerce_server_condition(str(label), value)
            for label, value in dict(raw_conditions).items()}
        return cls(
            name=name,
            workload=workload,
            clients=_coerce_clients(data.get("clients")),
            conditions=conditions,
            qps_list=tuple(float(q) for q in qps_list),
            runs=int(data.get("runs", DEFAULT_RUNS)),
            num_requests=int(data.get("num_requests", 1_000)),
            base_seed=int(data.get("base_seed", 0)),
            extra=dict(data.get("extra", {})),
            cluster=data.get("cluster"),
            engine=data.get("engine"),
            graph=data.get("graph"),
            arrival=data.get("arrival"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Build a campaign from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(
                f"campaign spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        """Build a campaign from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def content_hash(self) -> str:
        """Stable identity of the whole campaign."""
        return content_hash(self.to_dict())
