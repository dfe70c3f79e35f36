"""Tests for key-range sharding with runtime split/merge."""

import random

import pytest

from repro.filtering import (
    AspeCipher,
    AspeKey,
    AspeLibrary,
    Op,
    Predicate,
    PredicateSet,
    ShardedAspeLibrary,
    StoreConfig,
)


@pytest.fixture(scope="module")
def cipher():
    key = AspeKey.generate(dimensions=4, rng=random.Random(42))
    return AspeCipher(key, rng=random.Random(17))


@pytest.fixture(scope="module")
def workload(cipher):
    """24 band subscriptions and 8 publications, pre-encrypted."""
    rng = random.Random(3)
    subs = {}
    for sub_id in range(24):
        low = rng.uniform(0, 80)
        subs[sub_id] = cipher.encrypt_subscription(
            PredicateSet.of(
                Predicate(0, Op.GE, low), Predicate(0, Op.LE, low + 20)
            )
        )
    pubs = [
        cipher.encrypt_publication([rng.uniform(0, 100), 0.0, 0.0, 0.0])
        for _ in range(8)
    ]
    return subs, pubs


def fill(library, subs, order=None):
    for sub_id in order if order is not None else subs:
        library.store(sub_id, subs[sub_id])


def test_sharded_matches_single_library_order(workload):
    subs, pubs = workload
    order = list(subs)
    random.Random(9).shuffle(order)
    single = AspeLibrary()
    sharded = ShardedAspeLibrary(store_config=StoreConfig(chunk_rows=8))
    fill(single, subs, order)
    fill(sharded, subs, order)
    sharded.split_shard()
    sharded.split_shard()
    assert sharded.shard_count() == 3
    for pub in pubs:
        assert sharded.match(pub) == single.match(pub)
    assert sharded.match_batch(pubs) == single.match_batch(pubs)
    assert sharded.subscription_count() == single.subscription_count()


def test_split_defaults_most_populated_median(workload):
    subs, _ = workload
    sharded = ShardedAspeLibrary()
    fill(sharded, subs)
    result = sharded.split_shard()
    assert result.op == "split"
    assert result.shards_before == 1 and result.shards_after == 2
    assert result.pivot_key == sorted(subs)[len(subs) // 2]
    bounds = sharded.shard_bounds()
    assert bounds[0][:2] == (None, result.pivot_key)
    assert bounds[1][:2] == (result.pivot_key, None)
    assert bounds[0][2] + bounds[1][2] == len(subs)
    # The next default split cuts whichever shard is now biggest.
    second = sharded.split_shard()
    assert second.shards_after == 3
    cuts = [b[0] for b in sharded.shard_bounds()[1:]]
    assert cuts == sorted(cuts)


def test_split_validation_errors(workload):
    subs, _ = workload
    sharded = ShardedAspeLibrary()
    with pytest.raises(ValueError, match="at least 2"):
        sharded.split_shard()  # empty
    fill(sharded, subs)
    with pytest.raises(ValueError, match="outside"):
        sharded.split_shard(index=3)
    with pytest.raises(ValueError, match="does not separate"):
        sharded.split_shard(pivot_key=min(subs))  # nothing would stay
    with pytest.raises(ValueError, match="does not separate"):
        sharded.split_shard(pivot_key=max(subs) + 1)


def test_ordered_load_split_is_boundary_detach(workload):
    subs, pubs = workload
    config = StoreConfig(chunk_rows=8)
    sharded = ShardedAspeLibrary(store_config=config)
    sharded.store_many(sorted(subs.items()))  # key-ordered bulk load
    result = sharded.split_shard()
    # The moving rows are a contiguous suffix: at most the one chunk the
    # boundary cuts through is copied, never the whole moving set.
    assert result.rows_rewritten <= config.chunk_rows
    assert result.moved_subscriptions == 12
    single = AspeLibrary()
    fill(single, subs, sorted(subs))
    assert sharded.match_batch(pubs) == single.match_batch(pubs)


def test_interleaved_load_split_falls_back_to_rebuild(workload):
    subs, pubs = workload
    sharded = ShardedAspeLibrary()
    order = list(subs)
    random.Random(5).shuffle(order)
    fill(sharded, subs, order)
    result = sharded.split_shard()
    # No clean row boundary: every moving subscription's rows rewrite.
    assert result.rows_rewritten == 2 * result.moved_subscriptions
    single = AspeLibrary()
    fill(single, subs, order)
    assert sharded.match_batch(pubs) == single.match_batch(pubs)


def test_merge_adopts_chunks_zero_rewrites(workload):
    subs, pubs = workload
    sharded = ShardedAspeLibrary(store_config=StoreConfig(chunk_rows=8))
    sharded.store_many(sorted(subs.items()))
    sharded.split_shard()
    sharded.split_shard()
    baseline = sharded.match_batch(pubs)
    result = sharded.merge_shards(index=0)
    assert result.op == "merge"
    assert result.rows_rewritten == 0 and result.bytes_rewritten == 0
    assert result.shards_after == 2
    assert sharded.match_batch(pubs) == baseline
    # Bounds joined seamlessly: left keeps lo, absorbs right's hi.
    result = sharded.merge_shards()
    assert sharded.shard_count() == 1
    assert sharded.shard_bounds()[0][:2] == (None, None)
    assert sharded.match_batch(pubs) == baseline


def test_merge_default_picks_smallest_pair(workload):
    subs, _ = workload
    sharded = ShardedAspeLibrary()
    fill(sharded, subs)
    keys = sorted(subs)
    # Uneven thirds: [0, 4), [4, 8), [8, 24).
    sharded.split_shard(pivot_key=keys[8])
    sharded.split_shard(index=0, pivot_key=keys[4])
    result = sharded.merge_shards()
    assert result.shard_index == 0  # 4 + 4 < 4 + 16
    with pytest.raises(ValueError, match="outside"):
        sharded.merge_shards(index=1)
    sharded.merge_shards()
    with pytest.raises(ValueError, match="at least 2"):
        sharded.merge_shards()


def test_can_split_can_merge_transitions(workload):
    subs, _ = workload
    sharded = ShardedAspeLibrary()
    assert not sharded.can_split() and not sharded.can_merge()
    items = list(subs.items())
    sharded.store(*items[0])
    assert not sharded.can_split()
    sharded.store(*items[1])
    assert sharded.can_split()
    sharded.split_shard()
    assert sharded.can_merge()
    assert not sharded.can_split()  # both shards now hold one sub each


def test_remove_and_restore_across_shards(workload):
    subs, pubs = workload
    single = AspeLibrary()
    sharded = ShardedAspeLibrary()
    fill(single, subs)
    fill(sharded, subs)
    sharded.split_shard()
    victim = sorted(subs)[18]  # lives in the right shard
    single.remove(victim)
    sharded.remove(victim)
    assert sharded.match_batch(pubs) == single.match_batch(pubs)
    with pytest.raises(KeyError):
        sharded.remove(victim)
    # Re-storing moves the id to the end of the result order — in both.
    single.store(victim, subs[victim])
    sharded.store(victim, subs[victim])
    assert sharded.match_batch(pubs) == single.match_batch(pubs)


def test_export_import_roundtrip(workload):
    subs, pubs = workload
    sharded = ShardedAspeLibrary()
    order = list(subs)
    random.Random(11).shuffle(order)
    fill(sharded, subs, order)
    sharded.split_shard()
    state = sharded.export_state()
    restored = ShardedAspeLibrary()
    restored.import_state(state)
    assert restored.shard_count() == 2
    assert restored.match_batch(pubs) == sharded.match_batch(pubs)
    # A plain {sub_id: subscription} export (non-sharded peer) is adopted
    # as one full-range shard with its insertion order.
    single = AspeLibrary()
    fill(single, subs, order)
    adopter = ShardedAspeLibrary()
    adopter.import_state(single.export_state())
    assert adopter.shard_count() == 1
    assert adopter.match_batch(pubs) == single.match_batch(pubs)


def test_store_stats_aggregates_across_shards(workload):
    subs, _ = workload
    sharded = ShardedAspeLibrary(store_config=StoreConfig(chunk_rows=8))
    sharded.store_many(sorted(subs.items()))
    sharded.split_shard()
    stats = sharded.store_stats()
    assert stats["spills"] is False
    assert stats["shards"] == 2
    assert stats["rows"] == 2 * len(subs)
    assert stats["chunks"] >= 2
