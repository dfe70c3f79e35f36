"""ElasticityPolicy.from_env: env knobs, CLI override precedence, provenance."""

import dataclasses

import pytest

from repro.elastic import ElasticityPolicy
from repro.pubsub import HubConfig

#: Every knob with an env var, a non-default raw string, and the value
#: it must resolve to (exercises the per-type env parsers).
ENV_CASES = [
    ("signals", "cpu,slo,spill", ("cpu", "slo", "spill")),
    ("target_utilization", "0.6", 0.6),
    ("scale_out_threshold", "0.8", 0.8),
    ("scale_in_threshold", "0.2", 0.2),
    ("local_overload_threshold", "0.9", 0.9),
    ("grace_period_s", "45", 45.0),
    ("min_hosts", "2", 2),
    ("backlog_aware_scaling", "0", False),
    ("max_scale_out_factor", "2.5", 2.5),
    ("slo_p99_s", "0.75", 0.75),
    ("slo_window_s", "60", 60.0),
    ("slo_min_samples", "5", 5),
    ("slo_sustain_rounds", "3", 3),
    ("slo_release_fraction", "0.4", 0.4),
    ("slo_veto_max_rounds", "6", 6),
    ("spill_depth_limit", "100", 100),
    ("spill_starved_limit", "3", 3),
    ("spill_sustain_rounds", "4", 4),
    ("spill_hold_rounds", "2", 2),
    ("symptom_target_fraction", "0.8", 0.8),
]


def test_env_case_table_covers_every_knob():
    assert {name for name, _, _ in ENV_CASES} == {
        spec.name for spec in dataclasses.fields(ElasticityPolicy)
    }


@pytest.mark.parametrize("knob,raw,expected", ENV_CASES)
def test_every_env_knob_is_read(monkeypatch, knob, raw, expected):
    monkeypatch.setenv(ElasticityPolicy.env_var(knob), raw)
    assert getattr(ElasticityPolicy.from_env(), knob) == expected


@pytest.mark.parametrize("knob,raw,expected", ENV_CASES)
def test_unset_env_keeps_the_default(monkeypatch, knob, raw, expected):
    monkeypatch.delenv(ElasticityPolicy.env_var(knob), raising=False)
    assert getattr(ElasticityPolicy.from_env(), knob) == getattr(
        ElasticityPolicy(), knob
    )


def test_cli_override_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_POLICY_SLO_P99_S", "2.0")
    monkeypatch.setenv("REPRO_POLICY_SIGNALS", "cpu,slo")
    config = ElasticityPolicy.from_env(slo_p99_s=0.5, signals="cpu,spill")
    assert config.slo_p99_s == 0.5
    assert config.signals == ("cpu", "spill")


def test_none_override_falls_through_to_env(monkeypatch):
    monkeypatch.setenv("REPRO_POLICY_MIN_HOSTS", "3")
    assert ElasticityPolicy.from_env(min_hosts=None).min_hosts == 3


def test_unknown_override_is_rejected():
    with pytest.raises(TypeError, match="unknown ElasticityPolicy knob"):
        ElasticityPolicy.from_env(not_a_knob=1)


def test_invalid_env_value_fails_policy_validation(monkeypatch):
    monkeypatch.setenv("REPRO_POLICY_SIGNALS", "cpu,bogus")
    with pytest.raises(ValueError, match="unknown policy signal"):
        ElasticityPolicy.from_env()
    monkeypatch.delenv("REPRO_POLICY_SIGNALS")
    monkeypatch.setenv("REPRO_POLICY_SCALE_IN_THRESHOLD", "0.9")
    with pytest.raises(ValueError):
        ElasticityPolicy.from_env()


def clear_policy_env(monkeypatch):
    """Unset every ``REPRO_POLICY_*`` knob (CI legs export some)."""
    for spec in dataclasses.fields(ElasticityPolicy):
        monkeypatch.delenv(ElasticityPolicy.env_var(spec.name), raising=False)


def test_policy_builds_the_matching_elasticity_policy(monkeypatch):
    clear_policy_env(monkeypatch)
    policy = ElasticityPolicy.from_env(
        signals=("cpu", "slo"), slo_p99_s=0.8, min_hosts=2
    )
    assert isinstance(policy, ElasticityPolicy)
    assert policy == ElasticityPolicy(
        signals=("cpu", "slo"), slo_p99_s=0.8, min_hosts=2
    )
    # Untouched knobs keep the paper defaults.
    assert policy.scale_out_threshold == 0.70


def test_signals_accept_csv_string():
    assert ElasticityPolicy(signals="spill, cpu").signals == ("spill", "cpu")


class TestProvenance:
    def test_sources_reflect_where_each_value_came_from(self, monkeypatch):
        clear_policy_env(monkeypatch)
        monkeypatch.setenv("REPRO_POLICY_SLO_WINDOW_S", "45")
        rows = {
            knob: (value, source)
            for knob, value, source in ElasticityPolicy.provenance(
                slo_p99_s=0.25
            )
        }
        assert rows["slo_p99_s"] == (0.25, "cli")
        assert rows["slo_window_s"] == (
            45.0, "env:REPRO_POLICY_SLO_WINDOW_S"
        )
        assert rows["min_hosts"] == (1, "default")
        assert rows["signals"] == ("cpu", "default")

    def test_every_knob_has_a_row(self):
        rows = ElasticityPolicy.provenance()
        assert [knob for knob, _, _ in rows] == [
            name for name, _, _ in ENV_CASES
        ]


class TestHubConfigPrecedence:
    def test_hub_defaults_pick_up_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_POLICY_SIGNALS", "cpu,slo")
        monkeypatch.setenv("REPRO_POLICY_SLO_P99_S", "0.9")
        config = HubConfig()
        assert config.policy.signals == ("cpu", "slo")
        assert config.policy.slo_p99_s == 0.9

    def test_explicit_policy_group_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_POLICY_SIGNALS", "cpu,slo,spill")
        config = HubConfig(policy=ElasticityPolicy(signals=("cpu",)))
        assert config.policy.signals == ("cpu",)

    def test_default_policy_group_is_the_paper_policy(self, monkeypatch):
        clear_policy_env(monkeypatch)
        config = HubConfig()
        assert config.policy == ElasticityPolicy()
