"""Search spaces: ordered tunable sets applied to experiment plans.

A :class:`SearchSpace` composes :class:`~repro.tune.tunables.Tunable`
definitions into the candidate grid a search driver walks.  The space
is pure data -- JSON round-trip, stable content hash -- and the only
way values reach a plan is :meth:`SearchSpace.apply`, which writes
them through :meth:`ExperimentPlan.with_fields` (dict surgery on
``plan.to_dict()``, rebuilt through
:meth:`ExperimentPlan.from_dict`), so every candidate is re-validated
by the same spec layer that guards hand-written plans (unknown
workload params, bad engine names, graph/cluster exclusivity all fail
with the plan layer's own errors before anything simulates).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.api.specs import ExperimentPlan
from repro.config.serialize import canonical_json, content_hash
from repro.errors import SpecValidationError
from repro.tune.tunables import Tunable, as_tunable, thaw


@dataclass(frozen=True)
class SearchSpace:
    """An ordered, duplicate-free set of tunables.

    Grid order is the cartesian product in declaration order (last
    tunable fastest), so two processes constructing the same space
    enumerate candidates identically -- the property the determinism
    and resume guarantees stand on.
    """

    tunables: Tuple[Tunable, ...]

    def __post_init__(self) -> None:
        tunables = tuple(self.tunables)
        if not tunables:
            raise SpecValidationError(
                "a search space needs at least one tunable")
        for attr in ("name", "field"):
            seen: Dict[str, str] = {}
            for tunable in tunables:
                value = getattr(tunable, attr)
                if value in seen:
                    raise SpecValidationError(
                        f"duplicate tunable {attr} {value!r}")
                seen[value] = value
        object.__setattr__(self, "tunables", tunables)

    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        """Tunable names, in declaration order."""
        return tuple(t.name for t in self.tunables)

    def size(self) -> int:
        """Number of grid candidates (product of domain sizes)."""
        total = 1
        for tunable in self.tunables:
            total *= len(tunable.grid_values())
        return total

    def grid(self) -> List[Dict[str, Any]]:
        """Every grid assignment, in deterministic product order."""
        domains = [t.grid_values() for t in self.tunables]
        return [dict(zip(self.names, combo))
                for combo in itertools.product(*domains)]

    def sample(self, rng: random.Random) -> Dict[str, Any]:
        """One random assignment (each tunable draws independently)."""
        return {t.name: t.sample(rng) for t in self.tunables}

    def validate_assignment(self, assignment: Mapping[str, Any]) -> None:
        """Check *assignment* covers every tunable with in-domain values."""
        expected = set(self.names)
        got = set(assignment)
        if got != expected:
            missing = ", ".join(sorted(expected - got)) or "-"
            extra = ", ".join(sorted(got - expected)) or "-"
            raise SpecValidationError(
                f"assignment does not match the space "
                f"(missing: {missing}; unknown: {extra})")
        for tunable in self.tunables:
            value = assignment[tunable.name]
            if not tunable.contains(value):
                raise SpecValidationError(
                    f"value {value!r} is outside tunable "
                    f"{tunable.name!r}'s domain")

    # ------------------------------------------------------------------
    def apply(self, plan: ExperimentPlan,
              assignment: Mapping[str, Any]) -> ExperimentPlan:
        """Build the candidate plan for one assignment.

        Values land in the plan's dict form and the result is rebuilt
        through :meth:`ExperimentPlan.from_dict`, so plan-layer
        validation runs on every candidate.
        """
        self.validate_assignment(assignment)
        return plan.with_fields({
            tunable.field: thaw(assignment[tunable.name])
            for tunable in self.tunables})

    def validate_against(self, plan: ExperimentPlan) -> None:
        """Prove the space is applicable to *plan* before any search.

        Applies the first grid candidate, which exercises every
        tunable's field path (including ``workload.<param>`` registry
        validation and graph preset resolution) without simulating
        anything.
        """
        self.apply(plan, {t.name: t.grid_values()[0]
                          for t in self.tunables})

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form."""
        return {"tunables": [t.to_dict() for t in self.tunables]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchSpace":
        """Rebuild a space from its dict form (strict keys)."""
        unknown = sorted(set(data) - {"tunables"})
        if unknown:
            raise SpecValidationError(
                "unknown key(s) in search space: "
                + ", ".join(repr(k) for k in unknown))
        raw = data.get("tunables")
        if not isinstance(raw, (list, tuple)):
            raise SpecValidationError(
                "search space needs a 'tunables' list")
        return cls(tunables=tuple(as_tunable(item) for item in raw))

    def to_json(self, indent: int = 2) -> str:
        """JSON text form (what a ``--space`` file contains)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SearchSpace":
        """Rebuild a space from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(
                f"search space is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def content_hash(self) -> str:
        """Stable identity of the space definition."""
        return content_hash(self.to_dict())

    def assignment_key(self, assignment: Mapping[str, Any]) -> str:
        """Canonical JSON identity of one assignment (dedup key)."""
        return canonical_json(
            {name: thaw(assignment[name]) for name in self.names})

    def describe(self) -> str:
        """Human summary: one line per tunable plus the grid size."""
        lines = [t.describe() for t in self.tunables]
        lines.append(f"grid: {self.size()} candidates")
        return "\n".join(lines)

