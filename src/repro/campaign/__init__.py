"""Campaign orchestration: declarative, parallel, resumable sweeps.

The paper's methodology is many repetitions across a grid of
conditions -- workloads x client/server knobs x QPS points x 50 seeds.
This package turns those ad-hoc loops into *campaigns*:

* :mod:`repro.campaign.spec` -- :class:`CampaignSpec` is a template
  :class:`~repro.api.ExperimentPlan` plus client, server-condition
  and qps sweep axes (dict/JSON-loadable); it expands into
  content-hashed :class:`ConditionSpec` experiments.
* :mod:`repro.campaign.store` -- :class:`ResultStore` persists each
  condition's result in SQLite keyed by its hash, enabling cache
  hits, mid-run resume and store-backed analysis.
* :mod:`repro.campaign.executor` -- :class:`CampaignExecutor` fans
  conditions out over a process pool, one plan per task (each
  experiment is seed-deterministic and embarrassingly parallel), with
  per-condition failure isolation and batched store writes.
* :mod:`repro.campaign.presets` -- the paper's figure studies as
  named campaigns.
* :mod:`repro.campaign.report` -- status and store-backed rendering
  back into the :class:`~repro.analysis.figures.StudyGrid` shape.

Quickstart::

    from repro.campaign import (
        CampaignExecutor, CampaignSpec, ResultStore, campaign_by_name)

    spec = campaign_by_name("memcached-smt").with_overrides(
        runs=10, num_requests=500)
    with ResultStore("results.sqlite") as store:
        outcome = CampaignExecutor(store, max_workers=8).run(spec)
    print(outcome.summary())
"""

from repro.campaign.executor import (
    CampaignExecutor,
    CampaignOutcome,
    ConditionOutcome,
    execute_campaign,
    run_condition,
)
from repro.campaign.presets import campaign_by_name, preset_names
from repro.campaign.report import (
    grid_from_outcome,
    grid_from_store,
    render_campaign_report,
    render_campaign_status,
)
from repro.campaign.spec import CampaignSpec, ConditionSpec, cell_seed
from repro.campaign.store import ResultStore, open_store, require_store

__all__ = [
    "CampaignExecutor",
    "CampaignOutcome",
    "CampaignSpec",
    "ConditionOutcome",
    "ConditionSpec",
    "ResultStore",
    "campaign_by_name",
    "cell_seed",
    "execute_campaign",
    "grid_from_outcome",
    "grid_from_store",
    "open_store",
    "preset_names",
    "render_campaign_report",
    "render_campaign_status",
    "require_store",
    "run_condition",
]
