"""Tests for campaign specs: expansion, hashing, dict/JSON loading."""

import dataclasses
import hashlib
import json

import pytest

from repro.api import experiment
from repro.campaign.serialize import (
    experiment_result_from_dict,
    experiment_result_to_dict,
    hardware_config_from_dict,
    hardware_config_to_dict,
    run_metrics_from_dict,
    run_metrics_to_dict,
)
from repro.campaign.presets import campaign_by_name, preset_names
from repro.campaign.spec import CampaignSpec, ConditionSpec, cell_seed
from repro.config.presets import (
    HP_CLIENT,
    LP_CLIENT,
    SERVER_BASELINE,
    server_with_smt,
)
from repro.core.testbed import RunMetrics
from repro.errors import ExperimentError


def small_spec(**overrides):
    fields = dict(
        name="test-campaign",
        workload="memcached",
        conditions={"SMToff": server_with_smt(False),
                    "SMTon": server_with_smt(True)},
        qps_list=(10_000, 50_000),
        clients={"LP": LP_CLIENT, "HP": HP_CLIENT},
        runs=3,
        num_requests=80,
    )
    fields.update(overrides)
    return CampaignSpec.from_dict(fields)


class TestHardwareConfigSerialization:
    def test_round_trip(self):
        for config in (LP_CLIENT, HP_CLIENT, SERVER_BASELINE,
                       server_with_smt(True)):
            data = hardware_config_to_dict(config)
            assert hardware_config_from_dict(data) == config

    def test_round_trip_survives_json(self):
        data = json.loads(json.dumps(hardware_config_to_dict(HP_CLIENT)))
        assert hardware_config_from_dict(data) == HP_CLIENT

    def test_preset_names(self):
        assert hardware_config_from_dict("LP") == LP_CLIENT
        assert hardware_config_from_dict("HP") == HP_CLIENT
        assert hardware_config_from_dict("baseline") == SERVER_BASELINE

    def test_unknown_preset_rejected(self):
        with pytest.raises(ExperimentError):
            hardware_config_from_dict("XP")

    def test_invalid_dict_rejected(self):
        with pytest.raises(ExperimentError):
            hardware_config_from_dict({"name": "broken"})


class TestResultSerialization:
    def metrics(self):
        return RunMetrics(avg_us=91.25, p99_us=210.5, true_avg_us=88.0,
                          true_p99_us=205.125, requests=72, seed=17,
                          server_utilization=0.23)

    def test_run_metrics_round_trip(self):
        metrics = self.metrics()
        assert run_metrics_from_dict(
            run_metrics_to_dict(metrics)) == metrics

    def test_experiment_result_round_trip_is_exact(self):
        result = (experiment("memcached").client(LP_CLIENT)
                  .load(qps=50_000, num_requests=60)
                  .policy(runs=3, base_seed=5, label="LP-test")
                  .run())
        data = json.loads(json.dumps(experiment_result_to_dict(result)))
        rebuilt = experiment_result_from_dict(data)
        assert rebuilt.label == result.label
        assert rebuilt.workload == result.workload
        assert rebuilt.qps == result.qps
        # JSON floats round-trip IEEE doubles exactly.
        assert rebuilt.runs == result.runs


class TestExpansion:
    def test_cartesian_size_and_order(self):
        spec = small_spec()
        conditions = spec.expand()
        assert len(conditions) == spec.size() == 2 * 2 * 2
        # Clients x conditions x qps, in declaration order.
        assert [(c.plan.hardware.client_label,
                 c.plan.hardware.server_label, c.qps)
                for c in conditions[:3]] == [
                    ("LP", "SMToff", 10_000.0),
                    ("LP", "SMToff", 50_000.0),
                    ("LP", "SMTon", 10_000.0)]

    def test_seeds_match_the_figure_studies(self):
        """Campaign seeds must equal the legacy grid seeds, or store
        hits would not be interchangeable with study cells."""
        for condition in small_spec().expand():
            hardware = condition.plan.hardware
            assert condition.plan.policy.base_seed == cell_seed(
                0, hardware.client_label, hardware.server_label,
                condition.qps)

    def test_seed_depends_on_identity_not_position(self):
        wide = {c.content_hash(): c for c in small_spec().expand()}
        narrow = small_spec(qps_list=(50_000,)).expand()
        for condition in narrow:
            assert condition.content_hash() in wide

    def test_base_seed_shifts_all_conditions(self):
        base0 = small_spec().expand()
        base9 = small_spec(base_seed=9).expand()
        for a, b in zip(base0, base9):
            assert (b.plan.policy.base_seed
                    == a.plan.policy.base_seed + 9)
            assert a.content_hash() != b.content_hash()

    def test_extra_kwargs_flow_into_conditions(self):
        spec = small_spec(workload="synthetic",
                          extra={"added_delay_us": 100.0})
        condition = spec.expand()[0]
        assert condition.plan.workload.param_dict() == {
            "added_delay_us": 100.0}
        assert condition.to_dict()["extra"] == {"added_delay_us": 100.0}

    def test_label(self):
        condition = small_spec().expand()[0]
        assert condition.label == "LP-SMToff"


class TestContentHash:
    def test_stable_across_instances(self):
        a = small_spec().expand()[0]
        b = small_spec().expand()[0]
        assert a.content_hash() == b.content_hash()

    def test_round_trip_preserves_hash(self):
        condition = small_spec().expand()[0]
        rebuilt = ConditionSpec.from_dict(
            json.loads(json.dumps(condition.to_dict())))
        assert rebuilt == condition
        assert rebuilt.content_hash() == condition.content_hash()

    @pytest.mark.parametrize("override", [
        {"runs": 4}, {"num_requests": 81}, {"base_seed": 1},
        {"workload": "synthetic"},
        # A universal param valid for memcached: proves `extra` alone
        # perturbs the hash, with no other knob changing.
        {"extra": {"warmup_fraction": 0.2}},
        {"workload": "synthetic", "extra": {"added_delay_us": 10.0}},
    ])
    def test_hash_tracks_every_knob(self, override):
        baseline = {c.content_hash() for c in small_spec().expand()}
        changed = small_spec(**override).expand()
        assert all(c.content_hash() not in baseline for c in changed)

    def test_shared_qps_points_share_hashes(self):
        """A different sweep still hits the store for overlapping
        points -- condition identity ignores sweep membership."""
        baseline = {c.content_hash() for c in small_spec().expand()}
        changed = small_spec(qps_list=(10_000, 60_000)).expand()
        shared = [c for c in changed if c.qps == 10_000]
        fresh = [c for c in changed if c.qps == 60_000]
        assert all(c.content_hash() in baseline for c in shared)
        assert all(c.content_hash() not in baseline for c in fresh)

    def test_campaign_hash_stable(self):
        assert (small_spec().content_hash()
                == small_spec().content_hash())

    def test_int_and_float_extras_are_the_same_condition(self):
        """JSON has one number type: a spec file with integer extras
        must hit the store rows a float-built campaign produced."""
        as_int = small_spec(workload="synthetic",
                            extra={"added_delay_us": 200})
        as_float = small_spec(workload="synthetic",
                              extra={"added_delay_us": 200.0})
        assert ([c.content_hash() for c in as_int.expand()]
                == [c.content_hash() for c in as_float.expand()])


class TestFromDict:
    def spec_dict(self):
        return {
            "name": "file-campaign",
            "workload": "memcached",
            "clients": ["LP", "HP"],
            "conditions": {
                "SMToff": {"knob": "smt", "enabled": False},
                "SMTon": {"knob": "smt", "enabled": True},
            },
            "qps": [10_000, 50_000],
            "runs": 3,
            "num_requests": 80,
        }

    def test_shorthand_equals_programmatic(self):
        from_file = CampaignSpec.from_dict(self.spec_dict())
        programmatic = small_spec(name="file-campaign")
        assert ([c.content_hash() for c in from_file.expand()]
                == [c.content_hash() for c in programmatic.expand()])

    def test_json_round_trip(self):
        spec = small_spec()
        rebuilt = CampaignSpec.from_json(spec.to_json())
        assert rebuilt.content_hash() == spec.content_hash()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self.spec_dict()))
        spec = CampaignSpec.load(str(path))
        assert spec.name == "file-campaign"
        assert spec.size() == 8

    def test_clients_default_to_lp_hp(self):
        data = self.spec_dict()
        del data["clients"]
        spec = CampaignSpec.from_dict(data)
        assert list(spec.clients) == ["LP", "HP"]

    def test_c1e_shorthand(self):
        data = self.spec_dict()
        data["conditions"] = {"C1Eon": {"knob": "c1e", "enabled": True}}
        spec = CampaignSpec.from_dict(data)
        assert "C1E" in spec.conditions["C1Eon"].enabled_cstates

    def test_baseline_shorthand(self):
        data = self.spec_dict()
        data["conditions"] = {"baseline": "baseline"}
        spec = CampaignSpec.from_dict(data)
        assert spec.conditions["baseline"] == SERVER_BASELINE

    def test_unknown_knob_rejected(self):
        data = self.spec_dict()
        data["conditions"] = {"x": {"knob": "turbo"}}
        with pytest.raises(ExperimentError):
            CampaignSpec.from_dict(data)
        # A misspelled top-level key fails too, instead of silently
        # planning with the default it was meant to override.
        data = self.spec_dict()
        del data["num_requests"]
        data.update(num_request=100, engin="vectorized")
        with pytest.raises(ExperimentError) as exc:
            CampaignSpec.from_dict(data)
        assert "'num_request' (did you mean 'num_requests'?)" in str(
            exc.value)
        assert "'engin' (did you mean 'engine'?)" in str(exc.value)

    def test_missing_fields_rejected(self):
        with pytest.raises(ExperimentError):
            CampaignSpec.from_dict({"name": "x", "workload": "memcached"})

    def test_invalid_json_rejected(self):
        with pytest.raises(ExperimentError):
            CampaignSpec.from_json("{not json")


class TestValidation:
    @pytest.mark.parametrize("override", [
        {"runs": 0}, {"num_requests": 0}, {"qps_list": ()},
        {"conditions": {}}, {"clients": {}}, {"name": ""},
    ])
    def test_bad_specs_rejected(self, override):
        with pytest.raises(ExperimentError):
            small_spec(**override)

    def test_with_overrides(self):
        spec = small_spec().with_overrides(runs=7, base_seed=3)
        assert spec.runs == 7 and spec.plan.policy.base_seed == 3
        assert small_spec().runs == 3  # original untouched

    def test_with_overrides_takes_campaign_file_keys(self):
        assert small_spec().with_overrides(qps=(20_000,)).qps_list == (
            20_000.0,)
        with pytest.raises(ExperimentError,
                           match="did you mean 'num_requests'"):
            small_spec().with_overrides(num_request=5)


class TestTemplatePlan:
    """A campaign is a template plan plus client, server and qps axes."""

    @staticmethod
    def template(**policy):
        return (experiment("memcached").load(num_requests=80)
                .policy(runs=3, **policy).build())

    @staticmethod
    def campaign(plan):
        return CampaignSpec(
            name="template", plan=plan,
            conditions={"SMToff": server_with_smt(False),
                        "SMTon": server_with_smt(True)},
            qps_list=(10_000, 50_000))

    def test_fields_are_a_template_plus_axes(self):
        assert [f.name for f in dataclasses.fields(CampaignSpec)] == [
            "name", "plan", "conditions", "qps_list", "clients"]

    def test_template_equals_file_form(self):
        assert ([c.content_hash()
                 for c in self.campaign(self.template()).expand()]
                == [c.content_hash() for c in small_spec().expand()])

    def test_observability_never_reaches_a_condition(self):
        plain = self.campaign(self.template()).expand()
        observed = self.campaign(self.template(
            sink="streaming", trace=True, metrics=True)).expand()
        for condition in observed:
            policy = condition.plan.policy
            assert (policy.sink, policy.trace, policy.metrics) == (
                "columnar", False, False)
        assert ([c.content_hash() for c in observed]
                == [c.content_hash() for c in plain])
        assert ([c.plan.content_hash() for c in observed]
                == [c.plan.content_hash() for c in plain])

    def test_template_workers_round_trip_into_every_key(self):
        spec = self.campaign(self.template(workers=2))
        rebuilt = CampaignSpec.from_json(spec.to_json())
        assert rebuilt.to_dict() == spec.to_dict()
        assert json.loads(spec.to_json())["workers"] == 2
        # to_json sorts keys, so match conditions by cell, not order.
        single = {(c.label, c.qps): c
                  for c in self.campaign(self.template()).expand()}
        for two in rebuilt.expand():
            one = single.pop((two.label, two.qps))
            assert two.to_dict()["workers"] == 2
            assert two.content_hash() == ConditionSpec(
                one.plan.with_policy(workers=2)).content_hash()
        assert not single

    def test_file_keys_are_what_to_dict_emits(self):
        from repro.campaign.spec import _CAMPAIGN_KEYS

        clustered = (self.template(engine="vectorized", workers=2)
                     .with_cluster(nodes=2)
                     .with_load(warmup_fraction=0.2, arrival={
                         "shape": "diurnal", "period_us": 20_000.0}))
        graphed = self.template().with_graph("memcached-cached")
        emitted = (set(self.campaign(clustered).to_dict())
                   | set(self.campaign(graphed).to_dict()))
        assert emitted | {"qps"} == set(_CAMPAIGN_KEYS)


def test_cell_seed_scheme_is_pinned():
    """The seed derivation is a compatibility contract: changing it
    would orphan every stored result.  Pin it to the formula the seed
    repo's figure grids used."""
    from repro.sim.random import _stable_name_key

    key = _stable_name_key("LP/SMToff/10000")
    assert cell_seed(0, "LP", "SMToff", 10_000) == (key % 1_000_003) * 10_000
    assert cell_seed(7, "LP", "SMToff", 10_000) == (
        7 + (key % 1_000_003) * 10_000)


#: Every preset's campaign identity, captured at commit 2fd9712
#: (before campaigns became template plans).  Per preset: (campaign
#: ``content_hash()``, sha256 of the newline-joined condition hashes)
#: as built, then the same pair under :data:`IDENTITY_OVERRIDES`.
IDENTITY_OVERRIDES = dict(runs=3, num_requests=500, base_seed=7,
                          engine="vectorized", qps_list=(1000.0, 2000.0))
PRESET_IDENTITY = {
    "hdsearch-c1e": (
        ("dc37491301e0f67e476ee8aaa90dd7918915d0ce34157ccb3cc9832d4919cfc4",
         "2727352a887b0c60d76a106263544d49acb96b0de975d97044a1869b83f12318"),
        ("052ab8189e8e51ebd78fbd2bae49d89a347043203b6face2c644e8f92898c56c",
         "0fe1d3ea740c71abda3ebcd9ca486d6386a3222e36c75b628af0e548f27068be")),
    "hdsearch-cluster": (
        ("b1e50818ee247e772bd85031183a307e73603afac5f51759d038c7ae098890d1",
         "a6653341d3c89103ad81cf58c387cdefc89a2f20b60af80c0f9bddbb2924f7df"),
        ("9f0378d227d2d3ea674703c8efc69202b078843fd45906e11d5fdee6eaefd0db",
         "6a51ca0f33c485a328a3d5ee17f17463c03f3671741721025faf95727c8fe278")),
    "hdsearch-graph": (
        ("721833c265dcb08dd6eac3b61901fa622de6011e56a49f28326f0a7e02c1fc48",
         "e6c35a4252e2c346c4aba70d945a85499767bb3e405526fe4e7d653bf3a43100"),
        ("a8a62920cc15312ad9cb2887275d971737410b77870346558639af910f8561e2",
         "f1a5d65daebf78e05d93c823b64ab83c8211160550836f94d40c7d3a271842d9")),
    "hdsearch-smt": (
        ("20777029a11f779eae56be46b8a3cabd04456108da82ff392256c963b0577a5d",
         "db854e6dd4d1a4ab25ff114856d0f98b3d7d6036eb424f4dd417b613ebb4b80f"),
        ("549b81168d531b3db6c7f528c57eb3384014e874266a25d78b012bd7e71499dd",
         "5e46063a1d4555bbb38aa7861af9c11225ef94e19c93d3addbe4e13f9f410cc7")),
    "memcached-c1e": (
        ("29a322d7c306fb613b9ff7a1b9b66aaebcbe81ddf266142a7e53b1448beef69f",
         "bfcabcd1ff100e8a8e49428c8029e092c30e3bc6bc0d9a6ef10217d01f9a6fe4"),
        ("d6636422541577dcce95079848a525d43f37b289048f8d9261974b34db6e7133",
         "8cbb2fcf3c2234375ab7ddc848b953e51fc1d5cec8f637c7e9dd8bcb4dc0ad85")),
    "memcached-cached": (
        ("8e993a777ac3ab5a470a910bdcd570907034963af758438e7ceffd2683dbceb7",
         "5c25aec73cce4c11e32b4e22c9258e359a8cc16883b49b01636ce5e80f45ff41"),
        ("fe443639bb398cb6276c4a9782a03a3b7efc98e3cb8a136dac4e0b463efa74d0",
         "f99c083cf32905cb2340cccccb04e20404b76e9e4ef42d23ebee22b91620ed51")),
    "memcached-cluster": (
        ("8ef4de944ee5a994eef7aa25fbd88cd02a194b48a97d88e3df6a446ef4020222",
         "12d850c58abd5bfc3544349b82af4e87ef6fbf714a09a28bcc553ac43c800e6c"),
        ("76c7ad0801d11573875b7e3bebc86e2672c6475c54d370ab35a2e7caa790b643",
         "ef6f6ed776560fb62088211c6f093ce2b5839e497720428a34d9f383e69e7adc")),
    "memcached-smt": (
        ("e5ab7fde42f9b5a11df455ee6bee31f6b55cf66165093899481b41cd8e2be622",
         "d9337e91cc4e0a04ecb6ac11fbd62330d06ffcff4291d9d8260d26c9ff49ac50"),
        ("63405efc69cfe2a149ab39b495d89ebd58f8bae71da21733a68ba2206a2f76e1",
         "c2e9c169e41c430ac65d354cdb6e87f91025be09b6f4bf70985a39a97962d784")),
    "socialnetwork": (
        ("f78fa5ef09a15adc16131c109dc23fcabefa6bb2b82ac3ce3377f4c198d23f92",
         "d959db4007376eb2db6de4bb2caef1f83f16646a3101e5686e6565d189603c46"),
        ("da45decf839864dab51fb4bd3ed147ec12c3812802493648c3a3f6bdab9ca89d",
         "aae832e8ba8d0e6bcec0c9db7c782c3ab0bde7d604a4787234c52822a1539921")),
    "synthetic": (
        ("12c2469650c1fa86dc23ce7a37ad0fa5a53d2638ea633f93546810db818816dc",
         "05b917324ca3ba1c9a63f38f37da7d6508d76756ff614a65dd70ba0a53c17e84"),
        ("53234f1fbdf7b82abb74ae5978ae3d7bb2f096290e27b4aedfd411ed6e6845e1",
         "11f9fbbf7eb46bfb4716cf870f8c577f3fe10b1ea13754ada6c668ec98884437")),
}


def _campaign_identity(spec):
    joined = "\n".join(c.content_hash() for c in spec.expand())
    return (spec.content_hash(),
            hashlib.sha256(joined.encode()).hexdigest())


@pytest.mark.parametrize("name", preset_names())
def test_preset_identity_is_byte_stable(name):
    """A preset's campaign hash and every condition store key are a
    compatibility contract: a drift orphans stored results."""
    spec = campaign_by_name(name)
    assert (_campaign_identity(spec),
            _campaign_identity(spec.with_overrides(
                **IDENTITY_OVERRIDES))) == PRESET_IDENTITY[name]
