"""Pickling contract of `AspeLibrary`: no scratch state in the blob.

Migration state copies serialize the library, so `__getstate__` must
exclude everything recomputable — workspace buffers, the span index, the
tolerance columns, the chunk layout — and serialize the packed rows as
one block trimmed to the rows in use (no spare tail-chunk capacity).  These tests pin that
contract: matching activity must not grow the pickle, and a restored
library must decide identically.
"""

import pickle
import random

import numpy as np
import pytest

from repro.filtering import (
    AspeCipher,
    AspeKey,
    AspeLibrary,
    Op,
    Predicate,
    PredicateSet,
)


@pytest.fixture
def cipher():
    key = AspeKey.generate(dimensions=4, rng=random.Random(42))
    return AspeCipher(key, rng=random.Random(17))


def random_filter(rng):
    predicates = []
    for _ in range(rng.randint(1, 3)):
        attribute = rng.randrange(4)
        op = rng.choice([Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ])
        predicates.append(Predicate(attribute, op, rng.uniform(0.0, 100.0)))
    return PredicateSet.of(*predicates)


def build_library(cipher, count=60, seed=3):
    rng = random.Random(seed)
    library = AspeLibrary()
    for sub_id in range(count):
        library.store(sub_id, cipher.encrypt_subscription(random_filter(rng)))
    return library, rng


def test_matching_does_not_grow_the_pickle(cipher):
    library, rng = build_library(cipher)
    before = len(pickle.dumps(library, protocol=pickle.HIGHEST_PROTOCOL))
    # A large batch allocates B x rows workspace buffers — scratch that a
    # naive pickle would serialize at many times the matrix size.
    batch = [
        cipher.encrypt_publication([rng.uniform(0.0, 100.0) for _ in range(4)])
        for _ in range(64)
    ]
    library.match_batch(batch)
    assert library.workspace_allocations, "expected match_batch to allocate scratch"
    after = len(pickle.dumps(library, protocol=pickle.HIGHEST_PROTOCOL))
    assert after == before


def test_getstate_drops_scratch_and_trims_buffers(cipher):
    library, rng = build_library(cipher)
    library.match_batch(
        [cipher.encrypt_publication([1.0, 2.0, 3.0, 4.0])]
    )
    library.match(cipher.encrypt_publication([4.0, 3.0, 2.0, 1.0]))
    rows, width = library._store.rows, library._store.width
    state = library.__getstate__()
    # The one pickle format: no store object, no scratch, and the rows as
    # a trimmed (matrix, strict, alive) block.
    assert "_store" not in state
    assert state["_ws"] == {}
    assert state["_index"] is None
    matrix, strict, alive = state["_packed"]
    # The growing tail chunk's spare capacity is trimmed to the rows in use.
    assert rows < library.store_stats()["resident_bytes"] // ((width + 2) * 8)
    assert matrix.shape == (rows, width)
    assert strict.shape == alive.shape == (rows,)
    blocks = library._store.blocks()
    assert np.array_equal(matrix, np.concatenate([b.matrix for b in blocks]))


def test_roundtrip_decides_identically(cipher):
    library, rng = build_library(cipher)
    # Churn so tombstones (and possibly a compaction) are in the state.
    for sub_id in range(0, 30, 2):
        library.remove(sub_id)
    restored = pickle.loads(pickle.dumps(library, protocol=pickle.HIGHEST_PROTOCOL))
    batch = [
        cipher.encrypt_publication([rng.uniform(0.0, 100.0) for _ in range(4)])
        for _ in range(32)
    ]
    assert restored.match_batch(batch) == library.match_batch(batch)
    for publication in batch[:8]:
        assert restored.match(publication) == library.match(publication)
    assert restored.subscription_count() == library.subscription_count()


def test_restored_library_keeps_serving_churn(cipher):
    library, rng = build_library(cipher, count=20)
    restored = pickle.loads(pickle.dumps(library))
    # The restored copy accepts new stores/removes and stays consistent
    # with the original receiving the same mutations.
    extra = cipher.encrypt_subscription(random_filter(rng))
    for target in (library, restored):
        target.store(100, extra)
        target.remove(3)
    batch = [
        cipher.encrypt_publication([rng.uniform(0.0, 100.0) for _ in range(4)])
        for _ in range(8)
    ]
    assert restored.match_batch(batch) == library.match_batch(batch)
