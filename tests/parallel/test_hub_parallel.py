"""Hub-level determinism of parallel matching execution.

Full pipeline runs (AP → M → EP → SINK) must emit *byte-identical*
notification logs whether matching executes inline or on worker
processes — including with a live M-slice migration mid-run, which tears
the old channel down (cancelling in-flight futures) and resyncs the new
instance's matrix from scratch.
"""

import random

import pytest

from repro.cluster import CloudProvider, HostSpec
from repro.filtering import AspeCipher, AspeKey, AspeLibrary, ExactBackend
from repro.parallel import MatchConfig, create_executor
from repro.pubsub import HubConfig, Publication, StreamHub, Subscription
from repro.sim import Environment

from .conftest import PARALLEL_BACKENDS, random_filter

SUBSCRIPTIONS = 48
PUBLICATIONS = 120


def workload(cipher):
    rng = random.Random(3)
    subs = [
        cipher.encrypt_subscription(random_filter(rng))
        for _ in range(SUBSCRIPTIONS)
    ]
    pubs = [
        cipher.encrypt_publication([rng.uniform(0.0, 100.0) for _ in range(4)])
        for _ in range(PUBLICATIONS)
    ]
    return subs, pubs


def run_hub(cipher, executor=None, workers=0, migrate=False):
    encrypted_subs, encrypted_pubs = workload(cipher)
    env = Environment()
    cloud = CloudProvider(env, spec=HostSpec(cores=8), max_hosts=8)
    hosts = [cloud.provision_now() for _ in range(4)]
    config = HubConfig(
        ap_slices=2,
        m_slices=4,
        ep_slices=2,
        sink_slices=1,
        encrypted=False,
        backend_factory=lambda index: ExactBackend(AspeLibrary()),
        matcher_batch_limit=4,
        # workers=None falls through to REPRO_MATCH_WORKERS.
        match=MatchConfig.from_env(workers=workers, chunk_rows=8),
        match_executor=executor,
    )
    hub = StreamHub(env, cloud.network, config)
    hub.deploy_all_on(hosts[:2], [hosts[2]])
    for sub_id, encrypted in enumerate(encrypted_subs):
        hub.subscribe(Subscription(sub_id, 1000 + sub_id, encrypted))
    env.run()

    def publish_all():
        for pub_id, encrypted in enumerate(encrypted_pubs):
            hub.publish(Publication(pub_id, payload=encrypted, published_at=env.now))
            yield env.timeout(0.0005)

    env.process(publish_all())
    if migrate:

        def migrate_m1():
            yield env.timeout(0.02)
            report = yield hub.runtime.migrate("M:1", hosts[3])
            assert report.destination_host == hosts[3].host_id

        env.process(migrate_m1())
    env.run()
    offloaded = sum(
        hub.runtime.handler_of(f"M:{i}").batches_offloaded
        for i in range(config.m_slices)
    )
    return (
        sorted(
            (n.pub_id, n.count, tuple(sorted(n.subscriber_ids)))
            for n in hub.notification_log
        ),
        offloaded,
    )


@pytest.fixture(scope="module")
def inline_log(cipher):
    log, offloaded = run_hub(cipher)
    assert offloaded == 0
    return log


@pytest.fixture(scope="module")
def inline_migrated_log(cipher):
    log, _ = run_hub(cipher, migrate=True)
    return log


def test_parallel_run_is_byte_identical(cipher, process_executor, inline_log):
    log, offloaded = run_hub(cipher, executor=process_executor, workers=2)
    assert offloaded > 0
    assert log == inline_log


def test_parallel_run_with_live_migration_is_byte_identical(
    cipher, process_executor, inline_migrated_log
):
    before = process_executor.resync_count
    log, offloaded = run_hub(
        cipher, executor=process_executor, workers=2, migrate=True
    )
    assert offloaded > 0
    assert log == inline_migrated_log
    # The migrated M:1 rebuilt its handler → fresh channel → full resync
    # on its first post-migration batch (plus the other slices' firsts).
    assert process_executor.resync_count > before


def test_inline_executor_pipeline_matches_backend_only_run(cipher, inline_log):
    """workers>0 with the inline executor runs the snapshot/chunk/merge
    pipeline in-process — same notifications as the plain backend path."""
    executor = create_executor(0, "inline", 8)
    log, offloaded = run_hub(cipher, executor=executor, workers=0)
    # An injected executor engages the offload path even at workers=0.
    assert offloaded > 0
    assert log == inline_log
    executor.shutdown()


@pytest.mark.skipif(not PARALLEL_BACKENDS, reason="no process backends here")
def test_shared_env_knob_smoke(cipher, monkeypatch):
    """The REPRO_MATCH_WORKERS env default engages the executor path."""
    monkeypatch.setenv("REPRO_MATCH_WORKERS", "1")
    monkeypatch.setenv("REPRO_MATCH_CHUNK_ROWS", "8")
    log, offloaded = run_hub(cipher, executor=None, workers=None)
    assert offloaded > 0
    baseline, _ = run_hub(cipher)
    assert log == baseline
