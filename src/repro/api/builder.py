"""Fluent construction of :class:`~repro.api.specs.ExperimentPlan`.

The chainable front door for interactive use and examples::

    from repro.api import experiment

    result = (experiment("memcached")
              .client("LP")
              .load(qps=100_000, num_requests=1_000)
              .policy(runs=10)
              .run())

Every step validates immediately (an unknown workload or parameter
fails on the ``experiment(...)`` call, not deep inside a worker), and
:meth:`PlanBuilder.build` returns the frozen plan for hashing,
serialization or sweeping.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Union

from repro.api.specs import (
    ExperimentPlan,
    HardwareSpec,
    LoadSpec,
    WorkloadSpec,
)
from repro.cluster.spec import ClusterSpec
from repro.config.knobs import HardwareConfig
from repro.config.presets import LP_CLIENT
from repro.core.experiment import ExperimentResult
from repro.graph.spec import ServiceGraphSpec

__all__ = ["PlanBuilder", "experiment"]


def _kept(changes: Mapping[str, Any]) -> dict:
    """The changes that replace a field: ``None`` means "keep"."""
    return {name: value for name, value in changes.items()
            if value is not None}


class PlanBuilder:
    """Accumulates an :class:`ExperimentPlan`, one chained call at a time.

    Defaults: LP client (the paper's "untuned experimenter"
    baseline), server baseline, the workload's own default load and
    request count, and the paper's 50-run policy.  Each step is the
    matching :class:`ExperimentPlan` copy (``with_params``,
    ``with_load``, ...), so a new plan field needs no builder edit.
    """

    def __init__(self, workload: str, **params: Any) -> None:
        spec = WorkloadSpec.create(workload, **params)
        self._plan = ExperimentPlan(
            workload=spec,
            load=LoadSpec(
                qps=spec.definition.default_qps,
                num_requests=spec.definition.default_num_requests),
            hardware=HardwareSpec(client=LP_CLIENT))

    # ------------------------------------------------------------------
    def params(self, **params: Any) -> "PlanBuilder":
        """Merge workload parameters (validated against the schema)."""
        self._plan = self._plan.with_params(**params)
        return self

    def client(self, config: Union[str, HardwareConfig],
               label: str = "") -> "PlanBuilder":
        """Set the client configuration (preset name or config)."""
        self._plan = self._plan.with_client(config, label)
        return self

    def server(self, config: Union[str, HardwareConfig],
               label: str = "") -> "PlanBuilder":
        """Set the server configuration (preset name or config)."""
        self._plan = self._plan.with_server(config, label)
        return self

    def load(self, **changes: Any) -> "PlanBuilder":
        """Set :class:`LoadSpec` fields; ``None`` keeps a value."""
        self._plan = self._plan.with_load(**_kept(changes))
        return self

    def policy(self, **changes: Any) -> "PlanBuilder":
        """Set :class:`RunPolicy` fields; ``None`` keeps a value."""
        self._plan = self._plan.with_policy(**_kept(changes))
        return self

    def cluster(self,
                spec: Optional[Union[ClusterSpec,
                                     Mapping[str, Any]]] = None,
                **fields: Any) -> "PlanBuilder":
        """Deploy on a cluster topology (spec, dict, or fields)::

            experiment("memcached").cluster(
                nodes=4, lb_policy="power-of-two")

        Fields merge into the topology accumulated so far; with no
        arguments the current topology is kept unchanged (unlike
        ``ExperimentPlan.with_cluster()``, which resets).
        """
        if spec is not None or fields:
            self._plan = self._plan.with_cluster(spec, **fields)
        return self

    def graph(self,
              spec: Optional[Union[ServiceGraphSpec, str,
                                   Mapping[str, Any]]] = None
              ) -> "PlanBuilder":
        """Deploy on a service-graph topology::

            experiment("memcached").graph("memcached-cached")

        Accepts a :class:`~repro.graph.spec.ServiceGraphSpec`, its
        dict form, or a graph preset name.  Setting a graph resets
        the cluster to single-server (each tier carries its own
        shape); calling with no argument clears the graph.
        """
        self._plan = self._plan.with_graph(spec)
        return self

    # ------------------------------------------------------------------
    def build(self) -> ExperimentPlan:
        """The frozen, validated plan."""
        return self._plan

    def run(self) -> ExperimentResult:
        """Build and execute in one step."""
        return self.build().run()


def experiment(workload: str, **params: Any) -> PlanBuilder:
    """Start a fluent plan for *workload* (the public entry point)."""
    return PlanBuilder(workload, **params)
