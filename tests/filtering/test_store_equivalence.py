"""Property suite: every store shape decides exactly like the ASPE oracle.

The oracle is the per-pair :func:`match_encrypted` loop — one ciphertext
pair at a time, no packing, no chunks — over a dict mirroring the
library's subscriptions in insertion order.  Random churn sequences
(store / remove / bulk-store, with the compaction threshold lowered so
compactions actually fire) drive libraries over three store shapes in
lockstep — one in-RAM chunk, tiny in-RAM chunks, and tiny chunks spilled
to memory-mapped files under a budget of about two chunks — plus a
spilling :class:`ShardedAspeLibrary` that additionally splits and merges
shards mid-sequence.  After every operation all of them must equal the
oracle, ``match(p)`` must equal ``match_batch([p])[0]``, and the
``AspeLibrary`` variants must hold bit-identical rows, compared through
``ChunkedMatrixStore.export_rows()`` (the pickle format).  Deterministic
cases pin the layouts random churn reaches only by chance: spans straddling chunk boundaries, spans longer than a chunk,
and the in-RAM tail chunk growing.
"""

import random

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.filtering.aspe import match_encrypted

_KEY = AspeKey.generate(dimensions=2, rng=random.Random(202))
_CIPHER = AspeCipher(_KEY, rng=random.Random(303))
_RNG = random.Random(404)
_SUBS = {
    sub_id: _CIPHER.encrypt_subscription(
        PredicateSet.of(
            Predicate(0, Op.GE, low := _RNG.uniform(0, 80)),
            Predicate(0, Op.LE, low + 25),
        )
    )
    for sub_id in range(10)
}
_PUBS = [
    _CIPHER.encrypt_publication([_RNG.uniform(0, 100), 0.0]) for _ in range(6)
]

# Low thresholds so tiny sequences cross chunk and compaction boundaries.
_CONFIGS = {
    "one_chunk": StoreConfig(compact_dead_ratio=0.3),
    "small_chunks": StoreConfig(chunk_rows=3, compact_dead_ratio=0.3),
    "spilling": StoreConfig(chunk_rows=3,
                            memory_budget_mb=0.0002,  # ~2 chunks at width 5
                            compact_dead_ratio=0.3),
}


def oracle(model, publications):
    """Per-pair reference: ids in insertion order whose conjunction holds."""
    return [
        [sub_id for sub_id, sub in model.items() if match_encrypted(pub, sub)]
        for pub in publications
    ]


def assert_single_equals_batch(library, publications):
    batch = library.match_batch(publications)
    assert [library.match(pub) for pub in publications] == batch


def assert_same_rows(library, other):
    """Same subscriptions, spans and bit-identical packed rows."""
    assert library.subscription_ids() == other.subscription_ids()
    assert library._spans == other._spans
    rows, other_rows = library._store.export_rows(), other._store.export_rows()
    if rows is None or other_rows is None:
        assert rows is other_rows is None
        return
    for array, other_array in zip(rows, other_rows):
        assert np.array_equal(array, other_array)


ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.integers(0, 9)),
        st.tuples(st.just("remove"), st.integers(0, 9)),
        st.tuples(st.just("bulk"), st.integers(0, 9)),
        st.tuples(st.just("split"), st.integers(0, 9)),
        st.tuples(st.just("merge"), st.integers(0, 9)),
        st.tuples(st.just("match"), st.integers(0, 5)),
    ),
    min_size=1,
    max_size=40,
)


@given(ops)
@settings(max_examples=40, deadline=None)
def test_backends_and_shards_agree_under_churn(sequence):
    libraries = {
        name: AspeLibrary(store_config=config)
        for name, config in _CONFIGS.items()
    }
    sharded = ShardedAspeLibrary(store_config=_CONFIGS["spilling"])
    everything = list(libraries.values()) + [sharded]
    model = {}

    def check():
        expected = oracle(model, _PUBS)
        for lib in everything:
            assert lib.match_batch(_PUBS) == expected

    for op, arg in sequence:
        if op == "store":
            for lib in everything:
                lib.store(arg, _SUBS[arg])
            model[arg] = _SUBS[arg]
        elif op == "remove":
            if arg not in model:
                continue
            for lib in everything:
                lib.remove(arg)
            del model[arg]
        elif op == "bulk":
            items = [(i, _SUBS[i]) for i in range(arg, min(arg + 4, 10))]
            for lib in everything:
                lib.store_many(items)
            model.update(items)
        elif op == "split":
            if sharded.can_split():
                sharded.split_shard()
        elif op == "merge":
            if sharded.can_merge():
                sharded.merge_shards()
        elif op == "match":
            (expected,) = oracle(model, [_PUBS[arg]])
            for lib in everything:
                assert lib.match(_PUBS[arg]) == expected
            continue
        check()
    for lib in everything:
        assert_single_equals_batch(lib, _PUBS)

    # Every store shape also holds bit-identical row data.
    base, *others = libraries.values()
    for lib in others:
        assert_same_rows(lib, base)


@given(ops)
@settings(max_examples=25, deadline=None)
def test_library_split_merge_keeps_stores_in_lockstep(sequence):
    """detach_suffix/absorb (the shard fast paths) on churned libraries
    keep in-RAM and spilling stores in lockstep and equal to the oracle."""
    ram = AspeLibrary(store_config=_CONFIGS["small_chunks"])
    spilled = AspeLibrary(store_config=_CONFIGS["spilling"])
    stored = []
    for op, arg in sequence:
        if op in ("store", "bulk") and arg not in stored:
            ram.store(arg, _SUBS[arg])
            spilled.store(arg, _SUBS[arg])
            stored.append(arg)
        elif op == "remove" and arg in stored:
            ram.remove(arg)
            spilled.remove(arg)
            stored.remove(arg)
    if len(stored) < 2:
        return
    pivot = sorted(stored)[len(stored) // 2]
    moving = [i for i in stored if i >= pivot]
    for lib in (ram, spilled):
        boundary = ShardedAspeLibrary._span_boundary(lib, moving)
        if boundary is not None:
            other, _ = lib.detach_suffix(boundary, moving)
        else:
            other = AspeLibrary(store_config=lib.store_config)
            items = [(i, lib.get_subscription(i)) for i in moving]
            for i in moving:
                lib.remove(i)
            other.store_many(items)
        lib.absorb(other)  # merge it straight back
    assert ram.match_batch(_PUBS) == spilled.match_batch(_PUBS)
    assert_same_rows(ram, spilled)
    # Detach+absorb reorders rows (moving ids land behind staying ids), so
    # compare match *sets* per publication against the oracle.
    expected = oracle({i: _SUBS[i] for i in stored}, _PUBS)
    assert [sorted(ids) for ids in ram.match_batch(_PUBS)] == [
        sorted(ids) for ids in expected
    ]
    assert_single_equals_batch(ram, _PUBS)
    assert_single_equals_batch(spilled, _PUBS)


# -- deterministic layouts -----------------------------------------------------

_KEY4 = AspeKey.generate(dimensions=4, rng=random.Random(7))
_CIPHER4 = AspeCipher(_KEY4, rng=random.Random(8))


def _random_subscriptions(count, seed):
    """Subscriptions of 1-3 predicates; equality ones expand to 2 rows."""
    rng = random.Random(seed)
    subs = {}
    for sub_id in range(count):
        predicates = [
            Predicate(
                rng.randrange(4),
                rng.choice([Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ]),
                float(rng.randrange(0, 100)) if rng.random() < 0.3
                else rng.uniform(0.0, 100.0),
            )
            for _ in range(rng.randint(1, 3))
        ]
        subs[sub_id] = _CIPHER4.encrypt_subscription(PredicateSet.of(*predicates))
    return subs


def _publications(count, seed):
    rng = random.Random(seed)
    # Integer-valued attributes sometimes hit the equality constants.
    return [
        _CIPHER4.encrypt_publication(
            [float(rng.randrange(0, 100)) if rng.random() < 0.3
             else rng.uniform(0.0, 100.0) for _ in range(4)]
        )
        for _ in range(count)
    ]


_SHAPES = {
    "one_chunk": StoreConfig(),
    "chunks_of_2": StoreConfig(chunk_rows=2),
    "chunks_of_5": StoreConfig(chunk_rows=5),
    "spilling_chunks_of_5": StoreConfig(chunk_rows=5, memory_budget_mb=0.001),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("bulk", [False, True], ids=["store", "store_many"])
def test_straddling_and_oversized_spans_match_the_oracle(shape, bulk, tmp_path):
    """Chunks of 2 and 5 rows cut through most multi-row spans, and 4-6
    row spans (equality predicates) outgrow a 2-row chunk entirely."""
    config = _SHAPES[shape]
    if config.spills:
        config = StoreConfig(chunk_rows=config.chunk_rows,
                             memory_budget_mb=config.memory_budget_mb,
                             spill_dir=str(tmp_path))
    subs = _random_subscriptions(60, seed=11)
    pubs = _publications(12, seed=12)
    library = AspeLibrary(store_config=config)
    if bulk:
        library.store_many(subs.items())
    else:
        for sub_id, sub in subs.items():
            library.store(sub_id, sub)
    stats = library.store_stats()
    assert (stats["chunks"] == 1) == (shape == "one_chunk")
    assert stats["spills"] == config.spills
    assert library.match_batch(pubs) == oracle(subs, pubs)
    assert_single_equals_batch(library, pubs)
    # Tombstones and a compaction keep straddling spans correct.
    for sub_id in range(0, 60, 3):
        library.remove(sub_id)
        del subs[sub_id]
    library._compact()
    assert library.match_batch(pubs) == oracle(subs, pubs)
    assert_single_equals_batch(library, pubs)
    if config.spills:
        assert library.store_stats()["evictions"] > 0


def test_tail_chunk_growth_keeps_decisions_and_views():
    """One-by-one stores grow the in-RAM tail 64 -> 128 -> 256 rows, then
    open a second chunk; every step decides like the oracle."""
    subs = _random_subscriptions(220, seed=21)
    pubs = _publications(8, seed=22)
    library = AspeLibrary(store_config=StoreConfig(chunk_rows=256))
    model = {}
    footprints = []
    for sub_id, sub in subs.items():
        library.store(sub_id, sub)
        model[sub_id] = sub
        stats = library.store_stats()
        if not footprints or footprints[-1] != (stats["chunks"], stats["resident_bytes"]):
            footprints.append((stats["chunks"], stats["resident_bytes"]))
            assert library.match_batch(pubs) == oracle(model, pubs)
    row_bytes = (_KEY4.cipher_dimensions + 2) * 8
    assert footprints[:3] == [
        (1, 64 * row_bytes), (1, 128 * row_bytes), (1, 256 * row_bytes),
    ]
    assert footprints[-1][0] >= 2
    assert library.match_batch(pubs) == oracle(model, pubs)
    assert_single_equals_batch(library, pubs)
    # The grown store packs the same rows as a bulk-loaded one.
    bulk = AspeLibrary(store_config=StoreConfig(chunk_rows=256))
    bulk.store_many(subs.items())
    assert_same_rows(library, bulk)
