"""Unit tests for the chunked packed-row store, in RAM and spilled."""

import os

import numpy as np
import pytest

from repro.filtering.store import ChunkedMatrixStore, StoreConfig


#: The two store shapes: chunks held in RAM ("chunked"), and chunks
#: spilled to memory-mapped files under a budget too large to evict
#: anything ("mmap").
_BUDGETS_MB = {"chunked": 0.0, "mmap": 1024.0}


def make_store(kind="chunked", chunk_rows=4, budget_mb=None, spill_dir=None):
    return ChunkedMatrixStore(
        StoreConfig(
            chunk_rows=chunk_rows,
            memory_budget_mb=_BUDGETS_MB[kind] if budget_mb is None else budget_mb,
            spill_dir=spill_dir,
        )
    )


def rows(count, width=3, base=0.0):
    matrix = (
        np.arange(count * width, dtype=np.float64).reshape(count, width) + base
    )
    strict = (np.arange(count) % 2).astype(bool)
    tol_base = np.arange(count, dtype=np.float64) + base
    tol_signed = -tol_base
    return matrix, strict, tol_base, tol_signed


def contents(store):
    """Concatenated (matrix, strict, tol_base, tol_signed, alive)."""
    parts = list(store.blocks())
    if not parts:
        return None
    return (
        np.concatenate([b.matrix for b in parts]),
        np.concatenate([b.strict for b in parts]),
        np.concatenate([b.tol_base for b in parts]),
        np.concatenate([b.tol_signed for b in parts]),
        np.concatenate([b.alive for b in parts]),
    )


@pytest.mark.parametrize("kind", ["chunked", "mmap"])
def test_append_spans_and_blocks_roundtrip(kind, tmp_path):
    store = make_store(kind, chunk_rows=4, spill_dir=str(tmp_path))
    m, s, tb, ts = rows(6)
    assert store.append(m, s, tb, ts) == (0, 6)
    m2, s2, tb2, ts2 = rows(3, base=100.0)
    assert store.append(m2, s2, tb2, ts2) == (6, 9)
    assert store.rows == 9
    assert store.chunk_count == 3  # 4 + 4 + 1
    got = contents(store)
    np.testing.assert_array_equal(got[0], np.concatenate([m, m2]))
    np.testing.assert_array_equal(got[1], np.concatenate([s, s2]))
    np.testing.assert_array_equal(got[2], np.concatenate([tb, tb2]))
    np.testing.assert_array_equal(got[3], np.concatenate([ts, ts2]))
    assert got[4].all()
    # Blocks tile [0, rows) without gaps.
    spans = [(b.start, b.stop) for b in store.blocks()]
    assert spans[0][0] == 0 and spans[-1][1] == 9
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


def test_width_mismatch_rejected():
    store = make_store()
    store.append(*rows(2, width=3))
    with pytest.raises(ValueError, match="width"):
        store.append(*rows(2, width=5))


def test_mark_dead_touches_only_flags():
    store = make_store(chunk_rows=4)
    m, s, tb, ts = rows(10)
    store.append(m, s, tb, ts)
    store.mark_dead(3, 7)  # crosses the first chunk boundary
    assert store.dead_rows == 4
    got = contents(store)
    np.testing.assert_array_equal(got[0], m)  # row data untouched
    expected_alive = np.ones(10, dtype=bool)
    expected_alive[3:7] = False
    np.testing.assert_array_equal(got[4], expected_alive)


@pytest.mark.parametrize("kind", ["chunked", "mmap"])
def test_compact_preserves_live_order_and_remaps(kind, tmp_path):
    store = make_store(kind, chunk_rows=4, spill_dir=str(tmp_path))
    m, s, tb, ts = rows(12)
    store.append(m, s, tb, ts)
    store.mark_dead(0, 4)  # whole first chunk dies
    store.mark_dead(5, 7)
    offsets = store.compact()
    assert store.rows == 6
    assert store.dead_rows == 0
    keep = np.array([4, 7, 8, 9, 10, 11])
    got = contents(store)
    np.testing.assert_array_equal(got[0], m[keep])
    assert got[4].all()
    # The returned prefix sums remap old span boundaries like the dense
    # path: boundary b -> offsets[b].
    assert offsets.shape == (13,)
    assert offsets[4] == 0 and offsets[5] == 1 and offsets[12] == 6
    # The all-dead chunk was dropped outright.
    assert store.chunk_count == 2


def test_mmap_eviction_respects_budget_and_refaults(tmp_path):
    # chunk = 4 rows x 5 cols x 8 B = 160 B; budget of 400 B holds 2.
    store = make_store("mmap", chunk_rows=4, budget_mb=400 / (1024 * 1024),
                       spill_dir=str(tmp_path))
    m, s, tb, ts = rows(16)
    store.append(m, s, tb, ts)
    assert store.chunk_count == 4
    assert store.resident_chunks <= 2
    assert store.eviction_count > 0
    before = store.fault_count
    got = contents(store)  # streams every chunk, faulting evicted ones in
    np.testing.assert_array_equal(got[0], m)
    assert store.fault_count > before
    assert store.resident_bytes <= 400
    # A freshly appended chunk is tracked before the next eviction pass,
    # so the peak may overshoot the budget by at most one chunk.
    assert store.resident_peak_bytes <= 2 * 160 + 160
    stats = store.stats()
    assert stats["spills"] is True
    assert stats["faults"] == store.fault_count


def test_budget_below_one_chunk_never_evicts_touched_chunk(tmp_path):
    store = make_store("mmap", chunk_rows=4, budget_mb=1 / (1024 * 1024),
                       spill_dir=str(tmp_path))
    m, s, tb, ts = rows(9)
    store.append(m, s, tb, ts)
    got = contents(store)
    np.testing.assert_array_equal(got[0], m)
    # The chunk being read is pinned; the floor is one resident chunk.
    assert store.resident_chunks >= 1


@pytest.mark.parametrize("kind", ["chunked", "mmap"])
def test_adopt_moves_chunks_without_rewriting(kind, tmp_path):
    left = make_store(kind, chunk_rows=4, spill_dir=str(tmp_path))
    right = make_store(kind, chunk_rows=4, spill_dir=str(tmp_path))
    ml, *restl = rows(5)
    mr, *restr = rows(6, base=50.0)
    left.append(ml, *restl)
    right.append(mr, *restr)
    moved_chunks = list(right._chunks)
    base = left.adopt(right)
    assert base == 5
    assert left.rows == 11
    assert right.rows == 0 and right.chunk_count == 0
    # The very same chunk objects changed owner — no row was copied.
    assert left._chunks[-len(moved_chunks):] == moved_chunks
    got = contents(left)
    np.testing.assert_array_equal(got[0], np.concatenate([ml, mr]))
    if kind == "mmap":
        # Spill files were renamed into the adopter's directory.
        for chunk in moved_chunks:
            assert os.path.dirname(chunk.path) == left._dir
            assert os.path.exists(chunk.path)


@pytest.mark.parametrize("kind", ["chunked", "mmap"])
def test_split_at_chunk_boundary_copies_nothing(kind, tmp_path):
    store = make_store(kind, chunk_rows=4, spill_dir=str(tmp_path))
    m, s, tb, ts = rows(12)
    store.append(m, s, tb, ts)
    suffix_chunks = store._chunks[1:]
    other, copied = store.split_at(4)
    assert copied == 0
    assert store.rows == 4 and other.rows == 8
    assert other._chunks == suffix_chunks  # adopted, not copied
    np.testing.assert_array_equal(contents(store)[0], m[:4])
    np.testing.assert_array_equal(contents(other)[0], m[4:])


def test_split_at_mid_chunk_copies_only_the_cut_chunk():
    store = make_store("chunked", chunk_rows=4)
    m, s, tb, ts = rows(12)
    store.append(m, s, tb, ts)
    store.mark_dead(5, 6)  # a tombstone that must survive the cut
    other, copied = store.split_at(6)
    assert copied == 2  # rows 6..7 of the cut chunk; chunk 3 just moved
    assert store.rows == 6 and other.rows == 6
    assert store.dead_rows == 1 and other.dead_rows == 0
    np.testing.assert_array_equal(contents(store)[0], m[:6])
    np.testing.assert_array_equal(contents(other)[0], m[6:])
    assert not contents(store)[4][5]  # tombstone stayed with the prefix


def test_split_at_bounds_checked():
    store = make_store()
    store.append(*rows(4))
    with pytest.raises(ValueError):
        store.split_at(5)
    other, copied = store.split_at(4)  # empty suffix is legal
    assert copied == 0 and other.rows == 0


def test_clear_unlinks_spill_files(tmp_path):
    store = make_store("mmap", chunk_rows=4, spill_dir=str(tmp_path))
    store.append(*rows(10))
    paths = [chunk.path for chunk in store._chunks]
    assert all(os.path.exists(p) for p in paths)
    store.clear()
    assert store.rows == 0 and store.chunk_count == 0
    assert store.resident_bytes == 0
    assert not any(os.path.exists(p) for p in paths)


def test_from_env_rejects_bad_values(monkeypatch):
    monkeypatch.setenv("REPRO_STORE_CHUNK_ROWS", "lots")
    with pytest.raises(ValueError, match="REPRO_STORE_CHUNK_ROWS"):
        StoreConfig.from_env()
    monkeypatch.setenv("REPRO_STORE_CHUNK_ROWS", "1024")
    monkeypatch.setenv("REPRO_STORE_MEMORY_BUDGET_MB", "-1")
    with pytest.raises(ValueError, match="store_memory_budget_mb"):
        StoreConfig.from_env()


def test_config_validation():
    with pytest.raises(ValueError):
        StoreConfig(chunk_rows=0)
    with pytest.raises(ValueError):
        StoreConfig(memory_budget_mb=-1)
    with pytest.raises(ValueError):
        StoreConfig(compact_dead_ratio=0.0)
    with pytest.raises(ValueError):
        StoreConfig(compact_dead_ratio=1.5)
    assert StoreConfig(compact_dead_ratio=1.0).compact_dead_ratio == 1.0


def test_ram_tail_chunk_grows_by_doubling_up_to_chunk_rows():
    store = make_store(chunk_rows=300)
    store.append(*rows(1))
    assert store.resident_bytes == 64 * 5 * 8  # a small first tail
    store.append(*rows(70, base=1.0))
    assert store.chunk_count == 1
    assert store.resident_bytes == 128 * 5 * 8
    store.append(*rows(200, base=2.0))  # 271 rows: capped at chunk_rows
    assert store.chunk_count == 1
    assert store.resident_bytes == 300 * 5 * 8
    store.append(*rows(40, base=3.0))  # spills over into a second chunk
    assert store.chunk_count == 2
    got = contents(store)
    assert got[0].shape == (311, 3)
    np.testing.assert_array_equal(got[0][271:], rows(40, base=3.0)[0])


def test_spilled_chunk_is_one_file_of_three_regions(tmp_path):
    store = make_store("mmap", chunk_rows=4, spill_dir=str(tmp_path))
    m, s, tb, ts = rows(3)
    store.append(m, s, tb, ts)
    (path,) = [chunk.path for chunk in store._chunks]
    flat = np.fromfile(path, dtype=np.float64)
    assert flat.size == 4 * (3 + 2)  # full chunk_rows, no tail growth
    np.testing.assert_array_equal(flat[:9].reshape(3, 3), m)
    np.testing.assert_array_equal(flat[12:15], tb)
    np.testing.assert_array_equal(flat[16:19], ts)


@pytest.mark.parametrize("kind", ["chunked", "mmap"])
def test_reserve_commit_writes_in_place_or_declines_a_straddle(kind, tmp_path):
    store = make_store(kind, chunk_rows=4, spill_dir=str(tmp_path))
    chunk = store.reserve(3, width=3)
    m, s, tb, ts = rows(3)
    assert chunk.used == 0
    chunk.matrix[:3] = m
    chunk.strict[:3] = s
    chunk.tol_base[:3] = tb
    chunk.tol_signed[:3] = ts
    assert store.commit(3) == (0, 3)
    assert store.reserve(2, width=3) is None  # would straddle two chunks
    assert store.rows == 3
    got = contents(store)
    np.testing.assert_array_equal(got[0], m)
    np.testing.assert_array_equal(got[3], ts)
    assert got[4].all()
