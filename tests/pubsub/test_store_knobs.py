"""Tests for the HubConfig / environment packed-row store knobs."""

import pytest

from repro.filtering import AspeLibrary, ExactBackend, StoreConfig
from repro.pubsub import HubConfig

from .conftest import HubHarness, small_exact_config


def test_store_defaults_keep_chunks_in_ram(monkeypatch):
    for var in ("REPRO_STORE_CHUNK_ROWS", "REPRO_STORE_MEMORY_BUDGET_MB",
                "REPRO_STORE_COMPACT_DEAD_RATIO", "REPRO_STORE_SPILL_DIR"):
        monkeypatch.delenv(var, raising=False)
    config = HubConfig(ap_slices=1, m_slices=1, ep_slices=1, sink_slices=1)
    store = config.store
    assert store == StoreConfig()
    assert not store.spills
    assert store.spill_dir is None
    assert store.chunk_rows == 65536
    assert store.memory_budget_mb == 0.0
    assert store.compact_dead_ratio == 0.5


def test_env_variables_drive_defaults(monkeypatch):
    monkeypatch.setenv("REPRO_STORE_CHUNK_ROWS", "2048")
    monkeypatch.setenv("REPRO_STORE_MEMORY_BUDGET_MB", "8")
    monkeypatch.setenv("REPRO_STORE_COMPACT_DEAD_RATIO", "0.25")
    config = HubConfig(ap_slices=1, m_slices=1, ep_slices=1, sink_slices=1)
    store = config.store
    assert store == StoreConfig(
        chunk_rows=2048, memory_budget_mb=8.0, compact_dead_ratio=0.25,
    )
    assert store.spills
    # Explicit overrides beat the environment.
    config = HubConfig(
        ap_slices=1, m_slices=1, ep_slices=1, sink_slices=1,
        store=StoreConfig.from_env(memory_budget_mb=0.0, compact_dead_ratio=0.75),
    )
    store = config.store
    assert not store.spills
    assert store.compact_dead_ratio == 0.75
    assert store.chunk_rows == 2048  # env still fills the rest


def test_invalid_knobs_rejected_at_config_time():
    with pytest.raises(ValueError, match="store_memory_budget_mb"):
        HubConfig(ap_slices=1, m_slices=1, ep_slices=1, sink_slices=1,
                  store=StoreConfig(memory_budget_mb=-1.0))
    with pytest.raises(ValueError, match="store_compact_dead_ratio"):
        HubConfig(ap_slices=1, m_slices=1, ep_slices=1, sink_slices=1,
                  store=StoreConfig(compact_dead_ratio=0.0))
    with pytest.raises(ValueError, match="store_chunk_rows"):
        HubConfig(ap_slices=1, m_slices=1, ep_slices=1, sink_slices=1,
                  store=StoreConfig(chunk_rows=0))


def test_matcher_libraries_use_configured_backend():
    config = HubConfig(
        ap_slices=1, m_slices=2, ep_slices=1, sink_slices=1,
        store=StoreConfig.from_env(chunk_rows=128, memory_budget_mb=8.0),
        backend_factory=lambda index: ExactBackend(AspeLibrary()),
    )
    h = HubHarness(config)
    for index in range(2):
        handler = h.hub.runtime.handler_of(f"M:{index}")
        stats = handler.backend.library.store_stats()
        assert stats["spills"] is True
        assert stats["chunk_rows"] == 128


def test_non_aspe_backend_ignores_store_config():
    # BruteForceLibrary has no configure_store; the knob must not break it.
    h = HubHarness(small_exact_config(
        store=StoreConfig.from_env(memory_budget_mb=8.0)
    ))
    assert h.hub.runtime.handler_of("M:0") is not None
