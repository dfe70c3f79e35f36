"""One environment reader for every knob group (``repro.config.EnvConfig``).

Each row names a group field, its ``REPRO_*`` variable (spelled out, so a
renamed variable fails here), a raw env value with what it parses to, and
an override that must beat it.
"""

import dataclasses

import pytest

from repro.elastic import ElasticityPolicy
from repro.filtering import StoreConfig
from repro.pubsub import MatchConfig
from repro.transport import TransportConfig

CASES = [
    # 0 is the only value MatchConfig accepts (matching runs inline).
    (MatchConfig, "workers", "REPRO_MATCH_WORKERS", "0", 0, 0),
    (StoreConfig, "chunk_rows", "REPRO_STORE_CHUNK_ROWS", "2048", 2048, 128),
    (StoreConfig, "memory_budget_mb", "REPRO_STORE_MEMORY_BUDGET_MB", "8", 8.0, 4.0),
    (StoreConfig, "compact_dead_ratio", "REPRO_STORE_COMPACT_DEAD_RATIO",
     "0.25", 0.25, 0.75),
    (StoreConfig, "spill_dir", "REPRO_STORE_SPILL_DIR", "spill-env", "spill-env",
     "spill-cli"),
    (TransportConfig, "flush_mode", "REPRO_NET_FLUSH_MODE", "adaptive", "adaptive",
     "fixed"),
    (TransportConfig, "flush_s", "REPRO_NET_FLUSH_S", "0.02", 0.02, 0.05),
    (TransportConfig, "flush_max_batch", "REPRO_NET_FLUSH_MAX_BATCH", "32", 32, 4),
    (TransportConfig, "backpressure", "REPRO_NET_BACKPRESSURE", "yes", True, False),
    (TransportConfig, "credit_window", "REPRO_NET_CREDIT_WINDOW", "12", 12, 3),
    (TransportConfig, "breaker_probe_s", "REPRO_NET_BREAKER_PROBE_S", "2.0", 2.0,
     0.25),
    (ElasticityPolicy, "signals", "REPRO_POLICY_SIGNALS", "cpu,slo,spill",
     ("cpu", "slo", "spill"), ("spill",)),
    (ElasticityPolicy, "target_utilization", "REPRO_POLICY_TARGET_UTILIZATION",
     "0.6", 0.6, 0.4),
    (ElasticityPolicy, "scale_out_threshold", "REPRO_POLICY_SCALE_OUT_THRESHOLD",
     "0.8", 0.8, 0.75),
    (ElasticityPolicy, "scale_in_threshold", "REPRO_POLICY_SCALE_IN_THRESHOLD",
     "0.2", 0.2, 0.4),
    (ElasticityPolicy, "local_overload_threshold",
     "REPRO_POLICY_LOCAL_OVERLOAD_THRESHOLD", "0.9", 0.9, 0.95),
    (ElasticityPolicy, "grace_period_s", "REPRO_POLICY_GRACE_PERIOD_S", "45",
     45.0, 10.0),
    (ElasticityPolicy, "min_hosts", "REPRO_POLICY_MIN_HOSTS", "2", 2, 3),
    (ElasticityPolicy, "backlog_aware_scaling", "REPRO_POLICY_BACKLOG_AWARE", "0",
     False, True),
    (ElasticityPolicy, "max_scale_out_factor", "REPRO_POLICY_MAX_SCALE_OUT_FACTOR",
     "2.5", 2.5, 3.0),
    (ElasticityPolicy, "slo_p99_s", "REPRO_POLICY_SLO_P99_S", "0.75", 0.75, 0.5),
    (ElasticityPolicy, "slo_window_s", "REPRO_POLICY_SLO_WINDOW_S", "60", 60.0,
     10.0),
    (ElasticityPolicy, "slo_min_samples", "REPRO_POLICY_SLO_MIN_SAMPLES", "5", 5,
     7),
    (ElasticityPolicy, "slo_sustain_rounds", "REPRO_POLICY_SLO_SUSTAIN_ROUNDS",
     "3", 3, 2),
    (ElasticityPolicy, "slo_release_fraction", "REPRO_POLICY_SLO_RELEASE_FRACTION",
     "0.4", 0.4, 0.6),
    (ElasticityPolicy, "slo_veto_max_rounds", "REPRO_POLICY_SLO_VETO_MAX_ROUNDS",
     "6", 6, 0),
    (ElasticityPolicy, "spill_depth_limit", "REPRO_POLICY_SPILL_DEPTH_LIMIT",
     "100", 100, 10),
    (ElasticityPolicy, "spill_starved_limit", "REPRO_POLICY_SPILL_STARVED_LIMIT",
     "3", 3, 2),
    (ElasticityPolicy, "spill_sustain_rounds", "REPRO_POLICY_SPILL_SUSTAIN_ROUNDS",
     "4", 4, 1),
    (ElasticityPolicy, "spill_hold_rounds", "REPRO_POLICY_SPILL_HOLD_ROUNDS", "2",
     2, 0),
    (ElasticityPolicy, "symptom_target_fraction",
     "REPRO_POLICY_SYMPTOM_TARGET_FRACTION", "0.8", 0.8, 0.5),
]

GROUPS = (MatchConfig, StoreConfig, TransportConfig, ElasticityPolicy)


def test_case_table_covers_every_field():
    covered = {(group, name) for group, name, *_ in CASES}
    assert covered == {
        (group, spec.name) for group in GROUPS for spec in dataclasses.fields(group)
    }


@pytest.mark.parametrize(
    "group,name,var,raw,parsed,override",
    CASES,
    ids=[f"{group.__name__}.{name}" for group, name, *_ in CASES],
)
def test_group_field_reads_env_under_overrides(
    monkeypatch, group, name, var, raw, parsed, override
):
    monkeypatch.setenv(var, raw)
    assert group.env_var(name) == var
    # The environment value is read ...
    assert getattr(group.from_env(), name) == parsed
    # ... an explicit override beats it ...
    assert getattr(group.from_env(**{name: override}), name) == override
    # ... a None override (an unset CLI flag) keeps it ...
    assert getattr(group.from_env(**{name: None}), name) == parsed
    # ... and a misspelled knob is rejected, not silently dropped.
    with pytest.raises(TypeError, match=f"{name}_typo"):
        group.from_env(**{f"{name}_typo": override})


@pytest.mark.parametrize("group", GROUPS, ids=lambda group: group.__name__)
def test_malformed_env_value_names_the_variable(monkeypatch, group):
    spec = next(
        spec for spec in dataclasses.fields(group)
        if isinstance(spec.default, (int, float))
    )
    var = group.env_var(spec.name)
    monkeypatch.setenv(var, "not-a-number")
    with pytest.raises(ValueError, match=var):
        group.from_env()
