"""Declarative campaign specifications.

A *campaign* is the paper's methodology written down as data: one
template :class:`~repro.api.ExperimentPlan` swept over client
configurations x server knob conditions x offered loads, each cell
repeated N times from a deterministic seed block.
:class:`CampaignSpec` is the template plus those three axes;
:meth:`CampaignSpec.expand` derives one :class:`ConditionSpec` per
cell from the template -- one experiment each -- with stable content
hashes that key the result store and make re-runs, resumes and
cross-campaign sharing possible.

The campaign file and the condition store key render the plan's
shared sections (workload, runs, requests, seed, parameters and the
optional topology/engine/arrival/workers fields) with one pair of
helpers, so a plan field is declared once.

Specs are data, not code: :meth:`CampaignSpec.from_dict` accepts plain
dicts/JSON with preset shorthands (clients by Table II name, server
conditions by knob), so a campaign can live in a ``.json`` file next
to the figures it feeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
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
    _coerce,
)
from repro.campaign.serialize import (
    content_hash,
    hardware_config_from_dict,
    hardware_config_to_dict,
)
from repro.config.knobs import HardwareConfig
from repro.config.presets import (
    HP_CLIENT,
    LP_CLIENT,
    server_with_c1e,
    server_with_smt,
)
from repro.core.experiment import DEFAULT_RUNS
from repro.errors import ExperimentError, SpecValidationError
from repro.obs.sinks import DEFAULT_SINK
from repro.sim.kernel import DEFAULT_ENGINE
from repro.sim.random import _stable_name_key
from repro.workloads.registry import UNIVERSAL_BUILDER_PARAMS

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


def _plan_sections(plan: ExperimentPlan) -> Dict[str, Any]:
    """The plan sections a campaign file and a condition key share.

    ``workload``, ``runs``, ``num_requests``, ``base_seed`` and
    ``extra`` (the workload parameters plus ``warmup_fraction`` when
    set), with ``cluster`` / ``engine`` / ``graph`` / ``arrival`` /
    ``workers`` present only when non-default -- so a new plan field
    left at its default never re-keys a stored result.
    """
    extra = plan.workload.param_dict()
    for spec in UNIVERSAL_BUILDER_PARAMS:
        value = getattr(plan.load, spec.name)
        if value is not None:
            extra[spec.name] = value
    data: Dict[str, Any] = {
        "workload": plan.workload.name,
        "runs": plan.policy.runs,
        "num_requests": plan.load.num_requests,
        "base_seed": plan.policy.base_seed,
        "extra": extra,
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


def _plan_from_sections(data: Mapping[str, Any], *, qps: Any,
                        hardware: HardwareSpec,
                        label: str = "") -> ExperimentPlan:
    """Inverse of :func:`_plan_sections`, completed by the sweep cell
    (qps, hardware pair, label) the sections do not carry."""
    params, load = _split_extra(data.get("extra", {}))
    return ExperimentPlan(
        workload=WorkloadSpec.create(str(data["workload"]), **params),
        load=LoadSpec(qps=qps, num_requests=data["num_requests"],
                      arrival=data.get("arrival"), **load),
        hardware=hardware,
        policy=RunPolicy(runs=data["runs"], base_seed=data["base_seed"],
                         label=label,
                         engine=data.get("engine", DEFAULT_ENGINE),
                         workers=data.get("workers", 1)),
        cluster=data.get("cluster"),
        graph=data.get("graph"),
    )


@dataclass(frozen=True)
class ConditionSpec:
    """One fully-resolved experimental condition: the plan it runs.

    The plan is the single source of truth.  :meth:`to_dict` renders
    it into the campaign *store-key layout*: the sections it shares
    with the campaign file (see :func:`_plan_sections`, with ``extra``
    canonicalized by :func:`_normalize_extra`) plus client and server
    labels and configs and qps.  :meth:`from_dict` is its inverse.

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
        hardware = self.plan.hardware
        data = _plan_sections(self.plan)
        data.update(
            client_label=hardware.client_label,
            client_config=hardware_config_to_dict(hardware.client),
            condition_label=hardware.server_label,
            server_config=hardware_config_to_dict(hardware.server),
            qps=self.plan.load.qps,
            extra=_normalize_extra(data["extra"]))
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConditionSpec":
        """Rebuild a condition (and its plan) from the store layout."""
        try:
            client_label = str(data["client_label"])
            condition_label = str(data["condition_label"])
            return cls(_plan_from_sections(
                data, qps=data["qps"],
                hardware=HardwareSpec(
                    client=data["client_config"],
                    server=data["server_config"],
                    client_label=client_label,
                    server_label=condition_label),
                label=f"{client_label}-{condition_label}"))
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


def _qps_tuple(value: Any) -> Tuple[float, ...]:
    """The load sweep as floats; a non-list or non-numeric entry is a
    :class:`SpecValidationError`, not a traceback."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise SpecValidationError(
            f"qps_list must be a list of numbers, got {value!r}")
    qps_list = tuple(_coerce(float, qps, "qps") for qps in value)
    if not qps_list:
        raise SpecValidationError("qps_list must be non-empty")
    return qps_list


#: Campaign-file values for sections a file may leave out.
_SECTION_DEFAULTS = {"runs": DEFAULT_RUNS, "num_requests": 1_000,
                     "base_seed": 0}

#: Keys a campaign spec file may carry: the :meth:`CampaignSpec.to_dict`
#: layout plus ``qps``, the alias for ``qps_list``.
_CAMPAIGN_KEYS = ("name", "workload", "clients", "conditions", "qps_list",
                  "qps", "runs", "num_requests", "base_seed", "extra",
                  "cluster", "engine", "graph", "arrival", "workers")


@dataclass
class CampaignSpec:
    """A declarative cartesian sweep: one template plan plus three axes.

    Attributes:
        name: campaign name (labels the store rows and reports).
        plan: the template every condition derives from -- workload
            and parameters, requests per run, warmup fraction,
            arrival shape, runs, engine, workers, cluster or graph,
            and the campaign-wide base seed (``plan.policy.base_seed``;
            per-condition blocks are derived via :func:`cell_seed`).
            The axes own its qps, hardware pair and label, and its
            observability knobs (sink, trace, metrics) never reach a
            condition.
        conditions: server condition label -> hardware config.
        qps_list: the load sweep, in paper order.
        clients: client label -> hardware config (default: LP and HP).
    """

    name: str
    plan: ExperimentPlan
    conditions: Dict[str, HardwareConfig]
    qps_list: Tuple[float, ...]
    clients: Dict[str, HardwareConfig] = field(
        default_factory=lambda: dict(DEFAULT_CLIENTS))

    def __post_init__(self) -> None:
        self.qps_list = _qps_tuple(self.qps_list)
        if not self.name:
            raise ExperimentError("campaign name must be non-empty")
        if not self.conditions:
            raise ExperimentError("conditions must be non-empty")
        if not self.clients:
            raise ExperimentError("clients must be non-empty")

    @property
    def workload(self) -> str:
        """The template's workload name."""
        return self.plan.workload.name

    @property
    def runs(self) -> int:
        """Repetitions per condition."""
        return self.plan.policy.runs

    @property
    def num_requests(self) -> int:
        """Requests per run."""
        return self.plan.load.num_requests

    # ------------------------------------------------------------------
    def expand(self) -> List[ConditionSpec]:
        """The sweep, flattened in deterministic paper order.

        Order is clients x conditions x qps -- the same nesting the
        serial figure studies use, so a campaign-built grid renders
        its series in the same order.
        """
        template = self.plan.with_policy(
            sink=DEFAULT_SINK, trace=False, metrics=False)
        base_seed = self.plan.policy.base_seed
        out: List[ConditionSpec] = []
        for client_label, client_config in self.clients.items():
            client = template.with_client(client_config, client_label)
            for condition_label, server_config in self.conditions.items():
                cell = client.with_server(server_config, condition_label)
                for qps in self.qps_list:
                    out.append(ConditionSpec(
                        cell.with_qps(qps).with_policy(
                            base_seed=cell_seed(
                                base_seed, client_label,
                                condition_label, qps),
                            label=f"{client_label}-{condition_label}")))
        return out

    def size(self) -> int:
        """Number of conditions in the sweep."""
        return len(self.clients) * len(self.conditions) * len(self.qps_list)

    def with_overrides(self, **keys: Any) -> "CampaignSpec":
        """Copy with campaign-file keys replaced (CLI overrides).

        Keys are those of :meth:`to_dict` (``runs``, ``base_seed``,
        ``qps_list``, ``engine``, ``clients``, ...); a misspelled one
        gets the file loader's did-you-mean.
        """
        data = self.to_dict()
        if "qps" in keys:  # the alias replaces the sweep too
            del data["qps_list"]
        return CampaignSpec.from_dict({**data, **keys})

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form of the whole campaign."""
        data = _plan_sections(self.plan)
        data.update(
            name=self.name,
            clients={label: hardware_config_to_dict(config)
                     for label, config in self.clients.items()},
            conditions={label: hardware_config_to_dict(config)
                        for label, config in self.conditions.items()},
            qps_list=list(self.qps_list))
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
        qps_list = data.get("qps_list", data.get("qps"))
        try:
            if qps_list is None:
                raise KeyError("qps_list")
            qps_list = _qps_tuple(qps_list)
            conditions = {
                str(label): _coerce_server_condition(str(label), value)
                for label, value in dict(data["conditions"]).items()}
            return cls(
                name=str(data["name"]),
                plan=_plan_from_sections(
                    {**_SECTION_DEFAULTS, **data}, qps=qps_list[0],
                    hardware=HardwareSpec(client=LP_CLIENT)),
                conditions=conditions,
                qps_list=qps_list,
                clients=_coerce_clients(data.get("clients")),
            )
        except KeyError as exc:
            raise ExperimentError(
                f"invalid campaign spec: missing {exc}") from exc

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
