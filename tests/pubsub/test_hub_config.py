"""Tests for HubConfig derivations and hub accessors."""

import pytest

from repro.engine import MigrationCosts
from repro.filtering import CostModel
from repro.pubsub import HubConfig, MatchConfig, Subscription
from repro.transport import TransportConfig

from .conftest import HubHarness, small_exact_config, small_sampled_config


def test_defaults_match_paper_setup():
    config = HubConfig.sampled(0.01)
    assert (config.ap_slices, config.m_slices, config.ep_slices) == (8, 16, 8)
    assert config.parallelism == 8
    assert config.encrypted is True


def test_migration_costs_derived_from_cost_model():
    cost_model = CostModel()
    config = HubConfig.sampled(0.01, cost_model=cost_model)
    costs = config.migration_costs()
    assert isinstance(costs, MigrationCosts)
    assert costs.pre_s + costs.post_s == pytest.approx(cost_model.migration_overhead_s)
    # Per-byte serialization equals the per-subscription cost spread over
    # the per-subscription state size.
    assert costs.serialize_s_per_byte * cost_model.subscription_bytes == pytest.approx(
        cost_model.migration_serialize_sub_s
    )


def test_sampled_factory_builds_independent_backends():
    config = HubConfig.sampled(0.5)
    a = config.backend_factory(0)
    b = config.backend_factory(1)
    a.store(1, None)
    assert b.subscription_count() == 0


def test_published_and_subscribed_counters():
    h = HubHarness(small_sampled_config())
    assert h.hub.published_count == 0
    h.hub.subscribe(Subscription(1, 1, None))
    assert h.hub.subscribed_count == 1


def test_duplicate_notification_suppression_counter():
    from repro.pubsub import Notification

    h = HubHarness(small_sampled_config())
    notification = Notification(7, 3, None, published_at=0.0)
    h.hub._collect(notification, now=1.0)
    h.hub._collect(notification, now=2.0)
    assert h.hub.notified_publications == 1
    assert h.hub.duplicate_notifications == 1


def test_match_knob_validation_rejects_bad_values():
    for workers in (-1, 1, 4):
        with pytest.raises(ValueError, match="match_workers .* must be 0"):
            small_exact_config(match=MatchConfig(workers=workers))


def test_match_knobs_default_from_environment(monkeypatch):
    # An explicit zero is the one value the variable accepts.
    monkeypatch.setenv("REPRO_MATCH_WORKERS", "0")
    config = small_exact_config()
    assert config.match == MatchConfig(workers=0)


def test_match_knobs_defaults_without_environment(monkeypatch):
    monkeypatch.delenv("REPRO_MATCH_WORKERS", raising=False)
    config = small_exact_config()
    assert config.match == MatchConfig()
    assert config.match.workers == 0


def test_nonzero_match_workers_env_is_refused(monkeypatch):
    monkeypatch.setenv("REPRO_MATCH_WORKERS", "4")
    with pytest.raises(ValueError, match="REPRO_MATCH_WORKERS.*match inline"):
        small_exact_config()


def test_match_workers_env_rejects_non_integers(monkeypatch):
    monkeypatch.setenv("REPRO_MATCH_WORKERS", "many")
    with pytest.raises(ValueError, match="REPRO_MATCH_WORKERS"):
        small_exact_config()


def test_net_group_reads_every_transport_variable(monkeypatch):
    monkeypatch.setenv("REPRO_NET_BREAKER_PROBE_S", "2.0")
    config = HubConfig.sampled(0.01)
    assert config.net.breaker_probe_s == 2.0
    assert config.net == TransportConfig.from_env()
    h = HubHarness(small_sampled_config())
    assert h.hub.runtime.transport.config.breaker_probe_s == 2.0


def test_policy_group_defaults_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_POLICY_SIGNALS", "cpu,spill")
    monkeypatch.setenv("REPRO_POLICY_SPILL_DEPTH_LIMIT", "75")
    config = small_exact_config()
    assert config.policy.signals == ("cpu", "spill")
    assert config.policy.spill_depth_limit == 75


def test_deploy_all_on_places_engine_and_sink_separately():
    h = HubHarness(small_exact_config(), engine_hosts=2)
    placement = h.hub.runtime.placement()
    engine_hosts = {placement[s] for s in h.hub.engine_slice_ids()}
    assert h.sink_host.host_id not in engine_hosts
    assert placement["SINK:0"] == h.sink_host.host_id
