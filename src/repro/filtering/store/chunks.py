"""Chunked, optionally memory-mapped backing store for packed predicate rows.

The packed predicate matrix is split into *row chunks* of at most
``chunk_rows`` rows.  Each chunk keeps three separate contiguous arrays —
the ``(capacity, width)`` direction-folded query rows, the per-row
tolerance base and the sign-folded tolerance — so the matching kernel
reads a chunk's rows in place, with no per-call copy.  The per-row
``strict`` and ``alive`` flags always stay in RAM (2 bytes/row), so
tombstoning never faults a chunk in.

A store with ``memory_budget_mb == 0`` keeps every chunk in RAM.  Its tail
chunk starts small and doubles up to ``chunk_rows`` as rows arrive, so a
small library never reserves a full chunk.

A store with ``memory_budget_mb > 0`` *spills*: every chunk is one
``numpy.memmap`` file holding the three regions back to back, and an
LRU-ordered resident set bounds how much chunk data is mapped at once.
Faulting a chunk in past the budget flushes and *drops the Python
references to* the least-recently-used mapping.  Dropping the references
is the whole eviction protocol — any caller still holding a row view keeps
the old mapping alive through ordinary refcounting (no use-after-free, no
torn reads), the OS writes the pages back lazily, and the next fault
simply remaps the same file.  Matching walks the store chunk by chunk
through :meth:`ChunkedMatrixStore.block`, so the working set stays within
the budget regardless of total subscription count.

Chunks are also the shard transfer format: :meth:`adopt` moves whole
chunk objects (and renames their spill files — a rename keeps open
mappings valid, the inode is unchanged) into another store without
rewriting a single row, and :meth:`split_at` hands off every chunk past
a row boundary the same way, copying only the rows of the one chunk the
boundary cuts through.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref

from collections import OrderedDict
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .config import StoreConfig

__all__ = ["ChunkedMatrixStore", "RowBlock"]

#: Initial row capacity of an in-RAM tail chunk (it doubles from here).
_MIN_TAIL_ROWS = 64


class RowBlock(NamedTuple):
    """One contiguous run of packed rows, as views into a chunk."""

    start: int
    stop: int
    matrix: np.ndarray
    strict: np.ndarray
    tol_base: np.ndarray
    tol_signed: np.ndarray
    alive: np.ndarray


class _Chunk:
    """One run of rows; its float data may be evicted to its spill file.

    ``matrix``/``tol_base``/``tol_signed`` are ``None`` while evicted.
    ``data`` is the flat ``numpy.memmap`` the three views share (``None``
    for an in-RAM chunk).
    """

    __slots__ = (
        "capacity", "used", "strict", "alive", "path",
        "data", "matrix", "tol_base", "tol_signed",
    )

    def __init__(self, capacity: int, path: Optional[str]) -> None:
        self.capacity = capacity
        self.used = 0
        self.strict = np.zeros(capacity, dtype=bool)
        self.alive = np.zeros(capacity, dtype=bool)
        self.path = path
        self.data = None
        self.matrix = self.tol_base = self.tol_signed = None


class ChunkedMatrixStore:
    """Row-chunked packed-matrix storage with an LRU-bounded resident set.

    Row addressing is positional and global: row ``i`` lives in the chunk
    whose cumulative ``used`` range covers ``i``.  Interior chunks may be
    partially filled after a split, adoption or compaction; appends only
    ever extend the last chunk.
    """

    def __init__(self, config: StoreConfig) -> None:
        self.config = config
        self._spills = config.spills
        self.width: Optional[int] = None
        self._chunks: List[_Chunk] = []
        self._rows = 0
        self._dead = 0
        #: Cached cumulative chunk starts (len(chunks) + 1 entries).
        self._offsets: Optional[np.ndarray] = None
        #: Resident chunks in least-recently-used-first order.
        self._lru: "OrderedDict[_Chunk, None]" = OrderedDict()
        self._resident_bytes = 0
        self.resident_peak_bytes = 0
        self.fault_count = 0
        self.eviction_count = 0
        self._dir: Optional[str] = None
        self._finalizer = None
        self._chunk_seq = 0
        self._telemetry = None
        self._label = "aspe"

    # -- observability --------------------------------------------------------

    def bind_telemetry(self, telemetry, label: str = "aspe") -> None:
        """Record faults/evictions/residency into a telemetry bundle."""
        self._telemetry = telemetry
        self._label = label
        self._update_gauges()

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def dead_rows(self) -> int:
        return self._dead

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    @property
    def resident_chunks(self) -> int:
        return len(self._lru)

    @property
    def row_bytes(self) -> int:
        """Bytes one row occupies: float data plus the strict/alive flags."""
        return 0 if self.width is None else (self.width + 2) * 8 + 2

    def stats(self) -> dict:
        return {
            "spills": self._spills,
            "chunk_rows": self.config.chunk_rows,
            "chunks": len(self._chunks),
            "rows": self._rows,
            "dead_rows": self._dead,
            "resident_chunks": len(self._lru),
            "resident_bytes": self._resident_bytes,
            "resident_peak_bytes": self.resident_peak_bytes,
            "faults": self.fault_count,
            "evictions": self.eviction_count,
        }

    # -- residency ------------------------------------------------------------

    def _ensure_dir(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(
                prefix="aspe-store-", dir=self.config.spill_dir
            )
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._dir, True
            )
        return self._dir

    def _next_path(self) -> str:
        path = os.path.join(self._ensure_dir(), f"chunk-{self._chunk_seq:06d}.f64")
        self._chunk_seq += 1
        return path

    def _chunk_bytes(self, chunk: _Chunk) -> int:
        return chunk.capacity * (self.width + 2) * 8

    def _map(self, chunk: _Chunk, mode: str) -> None:
        """Map ``chunk``'s spill file as its three row-data views."""
        capacity, width = chunk.capacity, self.width
        data = np.memmap(
            chunk.path, dtype=np.float64, mode=mode,
            shape=(capacity * (width + 2),),
        )
        split = capacity * width
        chunk.data = data
        chunk.matrix = data[:split].reshape(capacity, width)
        chunk.tol_base = data[split : split + capacity]
        chunk.tol_signed = data[split + capacity :]

    def _new_chunk(self, rows: int) -> _Chunk:
        """Open a new tail chunk sized for ``rows`` pending rows."""
        limit = self.config.chunk_rows
        if self._spills:
            chunk = _Chunk(limit, self._next_path())
            self._map(chunk, "w+")
        else:
            chunk = _Chunk(min(limit, max(_MIN_TAIL_ROWS, rows)), None)
            chunk.matrix = np.empty((chunk.capacity, self.width))
            chunk.tol_base = np.empty(chunk.capacity)
            chunk.tol_signed = np.empty(chunk.capacity)
        self._chunks.append(chunk)
        self._offsets = None
        self._track_resident(chunk)
        self._evict(exclude=chunk)
        return chunk

    def _grow(self, chunk: _Chunk, rows: int) -> None:
        """Double an in-RAM tail chunk until it holds ``rows`` (capped)."""
        capacity = chunk.capacity
        while capacity < rows:
            capacity *= 2
        capacity = min(capacity, self.config.chunk_rows)
        used = chunk.used
        for name in ("matrix", "tol_base", "tol_signed", "strict", "alive"):
            old = getattr(chunk, name)
            # Row data past ``used`` is never read, so the float arrays
            # skip zero-filling (a zeroed heap block would be resident in
            # full); the flags must start False.
            grown = (np.zeros if old.dtype == bool else np.empty)(
                (capacity,) + old.shape[1:], dtype=old.dtype
            )
            grown[:used] = old[:used]
            setattr(chunk, name, grown)
        added = (capacity - chunk.capacity) * (self.width + 2) * 8
        chunk.capacity = capacity
        self._resident_bytes += added
        self._note_peak()

    def _track_resident(self, chunk: _Chunk) -> None:
        self._lru[chunk] = None
        self._resident_bytes += self._chunk_bytes(chunk)
        self._note_peak()

    def _note_peak(self) -> None:
        if self._resident_bytes > self.resident_peak_bytes:
            self.resident_peak_bytes = self._resident_bytes
        self._update_gauges()

    def _touch(self, chunk: _Chunk) -> None:
        """Make ``chunk``'s row data resident (faulting it in if evicted)."""
        if chunk.matrix is None:
            self._map(chunk, "r+")
            self.fault_count += 1
            telemetry = self._telemetry
            if telemetry is not None and telemetry.store_chunk_faults is not None:
                telemetry.store_chunk_faults.labels(store=self._label).inc()
            self._track_resident(chunk)
        elif self._spills:
            self._lru.move_to_end(chunk)
        self._evict(exclude=chunk)

    def _evict(self, exclude: Optional[_Chunk]) -> None:
        if not self._spills:
            return
        budget = self.config.memory_budget_bytes
        evicted = 0
        while self._resident_bytes > budget:
            victim = None
            for candidate in self._lru:
                # Never evict the chunk being touched, and never a chunk
                # without a backing file (adopted from an in-RAM store).
                if candidate is not exclude and candidate.path is not None:
                    victim = candidate
                    break
            if victim is None:
                break
            del self._lru[victim]
            victim.data.flush()
            self._resident_bytes -= self._chunk_bytes(victim)
            victim.data = victim.matrix = victim.tol_base = victim.tol_signed = None
            self.eviction_count += 1
            evicted += 1
        if evicted:
            telemetry = self._telemetry
            if telemetry is not None and telemetry.store_chunk_evictions is not None:
                telemetry.store_chunk_evictions.labels(store=self._label).inc(evicted)
            self._update_gauges()

    def _update_gauges(self) -> None:
        telemetry = self._telemetry
        if telemetry is None or telemetry.store_resident_chunks is None:
            return
        telemetry.store_resident_chunks.labels(store=self._label).set(
            len(self._lru)
        )
        telemetry.store_resident_bytes.labels(store=self._label).set(
            self._resident_bytes
        )

    def _forget(self, chunk: _Chunk) -> None:
        """Drop a chunk from residency accounting (it is leaving the store)."""
        if chunk in self._lru:
            del self._lru[chunk]
            self._resident_bytes -= self._chunk_bytes(chunk)
        self._update_gauges()

    def _drop_chunk(self, chunk: _Chunk) -> None:
        self._forget(chunk)
        chunk.data = chunk.matrix = chunk.tol_base = chunk.tol_signed = None
        if chunk.path is not None:
            try:
                os.unlink(chunk.path)
            except OSError:
                pass

    # -- row addressing -------------------------------------------------------

    def offsets(self) -> np.ndarray:
        """Cumulative chunk row starts: chunk ``i`` holds rows
        ``[offsets[i], offsets[i + 1])``."""
        if self._offsets is None:
            offsets = np.zeros(len(self._chunks) + 1, dtype=np.int64)
            for index, chunk in enumerate(self._chunks):
                offsets[index + 1] = offsets[index] + chunk.used
            self._offsets = offsets
        return self._offsets

    # -- mutation -------------------------------------------------------------

    def _check_width(self, width: int) -> None:
        if self.width is None:
            self.width = int(width)
        elif int(width) != self.width:
            raise ValueError(
                f"ciphertext width {width} does not match stored width "
                f"{self.width}"
            )

    def _tail(self, rows: int) -> _Chunk:
        """The resident tail chunk, grown or opened to take up to ``rows``."""
        chunk = self._chunks[-1] if self._chunks else None
        if chunk is not None:
            need = chunk.used + rows
            if (
                need > chunk.capacity
                and chunk.path is None
                and chunk.capacity < self.config.chunk_rows
            ):
                self._grow(chunk, need)
            if chunk.used < chunk.capacity:
                self._touch(chunk)
                return chunk
        return self._new_chunk(rows)

    def reserve(self, count: int, width: int) -> Optional[_Chunk]:
        """The resident tail chunk with room for ``count`` more rows.

        The per-subscription fast path: the caller writes the rows
        ``[used, used + count)`` of the chunk's ``matrix``, ``strict``,
        ``tol_base`` and ``tol_signed`` in place, then calls
        :meth:`commit`.  Returns ``None`` when the rows would straddle a
        chunk boundary; the caller then goes through :meth:`append`.
        """
        chunk = self._chunks[-1] if self._chunks else None
        if (
            chunk is None
            or chunk.used + count > chunk.capacity
            or width != self.width
            or self._spills
        ):
            self._check_width(width)
            chunk = self._tail(count)
            if chunk.used + count > chunk.capacity:
                return None
        return chunk

    def commit(self, count: int) -> Tuple[int, int]:
        """Mark the ``count`` rows written after :meth:`reserve` alive."""
        chunk = self._chunks[-1]
        lo = chunk.used
        chunk.alive[lo : lo + count] = True
        chunk.used = lo + count
        start = self._rows
        # One int object serves as this span's stop, the row count and
        # the next span's start: spans are held per subscription.
        self._rows = stop = start + count
        self._offsets = None
        return (start, stop)

    def append(
        self,
        matrix: np.ndarray,
        strict: np.ndarray,
        tol_base: np.ndarray,
        tol_signed: np.ndarray,
    ) -> Tuple[int, int]:
        """Append rows (marked alive); returns their [start, stop) span."""
        count = int(matrix.shape[0])
        start = self._rows
        if count == 0:
            return (start, start)
        self._check_width(matrix.shape[1])
        written = 0
        while written < count:
            chunk = self._tail(count - written)
            take = min(count - written, chunk.capacity - chunk.used)
            lo = chunk.used
            hi = lo + take
            chunk.matrix[lo:hi] = matrix[written : written + take]
            chunk.tol_base[lo:hi] = tol_base[written : written + take]
            chunk.tol_signed[lo:hi] = tol_signed[written : written + take]
            chunk.strict[lo:hi] = strict[written : written + take]
            chunk.alive[lo:hi] = True
            chunk.used = hi
            written += take
        self._rows += count
        self._offsets = None
        return (start, start + count)

    def mark_dead(self, start: int, stop: int) -> None:
        """Tombstone rows [start, stop) — touches only the in-RAM flags."""
        if stop <= start:
            return
        offsets = self.offsets()
        index = int(np.searchsorted(offsets, start, side="right")) - 1
        row = start
        while row < stop:
            chunk = self._chunks[index]
            base = int(offsets[index])
            lo = row - base
            hi = min(stop - base, chunk.used)
            chunk.alive[lo:hi] = False
            row = base + hi
            index += 1
        self._dead += stop - start

    def _recount_dead(self) -> None:
        self._dead = self._rows - sum(
            int(chunk.alive[: chunk.used].sum()) for chunk in self._chunks
        )

    def compact(self) -> np.ndarray:
        """Drop tombstoned rows chunk by chunk, preserving live-row order.

        Returns the (old_rows + 1)-entry exclusive alive-prefix-sum: the
        caller remaps span boundary ``b`` to ``offsets[b]``, valid because
        per-chunk compaction keeps the global relative order of live rows.
        """
        old_rows = self._rows
        offsets = np.zeros(old_rows + 1, dtype=np.int64)
        if old_rows:
            alive_all = np.concatenate(
                [chunk.alive[: chunk.used] for chunk in self._chunks]
            )
            np.cumsum(alive_all, out=offsets[1:])
        kept: List[_Chunk] = []
        for chunk in self._chunks:
            used = chunk.used
            alive = chunk.alive[:used]
            live = int(alive.sum())
            if live == 0:
                self._drop_chunk(chunk)
                continue
            if live < used:
                keep = np.nonzero(alive)[0]
                self._touch(chunk)
                # Fancy-index RHS gathers into a temporary first, so the
                # in-place move is overlap-safe.
                chunk.matrix[:live] = chunk.matrix[keep]
                chunk.tol_base[:live] = chunk.tol_base[keep]
                chunk.tol_signed[:live] = chunk.tol_signed[keep]
                chunk.strict[:live] = chunk.strict[keep]
                chunk.used = live
                chunk.alive[:live] = True
                chunk.alive[live:] = False
            kept.append(chunk)
        self._chunks = kept
        self._rows = int(offsets[old_rows])
        self._dead = 0
        self._offsets = None
        return offsets

    def clear(self) -> None:
        for chunk in self._chunks:
            self._drop_chunk(chunk)
        self._chunks = []
        self._rows = 0
        self._dead = 0
        self._offsets = None

    # -- reading --------------------------------------------------------------

    def block(self, index: int) -> RowBlock:
        """Chunk ``index``'s rows as views (faulting it in if evicted).

        Views stay valid even if the chunk is evicted afterwards — the
        mapping lives until the view is dropped.
        """
        chunk = self._chunks[index]
        self._touch(chunk)
        used = chunk.used
        start = int(self.offsets()[index])
        return RowBlock(
            start=start,
            stop=start + used,
            matrix=chunk.matrix[:used],
            strict=chunk.strict[:used],
            tol_base=chunk.tol_base[:used],
            tol_signed=chunk.tol_signed[:used],
            alive=chunk.alive[:used],
        )

    def blocks(self) -> Iterator[RowBlock]:
        """Stream the store's non-empty chunks as blocks (faulting lazily)."""
        for index, chunk in enumerate(self._chunks):
            if chunk.used:
                yield self.block(index)

    def export_rows(self):
        """Trimmed (matrix, strict, alive) over all rows — the pickle
        format of :class:`~repro.filtering.AspeLibrary`.  Views of the
        chunk when the store is one chunk; otherwise contiguous copies,
        streamed chunk by chunk."""
        if self.width is None:
            return None
        fields = ("matrix", "strict", "alive")
        if len(self._chunks) == 1:
            block = self.block(0)
            return tuple(np.ascontiguousarray(getattr(block, f)) for f in fields)
        out = (
            np.empty((self._rows, self.width)),
            np.empty(self._rows, dtype=bool),
            np.empty(self._rows, dtype=bool),
        )
        for block in self.blocks():
            for array, name in zip(out, fields):
                array[block.start : block.stop] = getattr(block, name)
        return out

    # -- shard transfer -------------------------------------------------------

    def _adopt_chunk(self, chunk: _Chunk, source: "ChunkedMatrixStore") -> None:
        """Move one chunk object (and its file) from ``source`` into self."""
        source._forget(chunk)
        if chunk.path is not None:
            new_path = self._next_path()
            # A rename keeps any open mapping valid: same inode, new name.
            os.replace(chunk.path, new_path)
            chunk.path = new_path
        self._chunks.append(chunk)
        if chunk.matrix is not None:
            self._track_resident(chunk)

    def adopt(self, other: "ChunkedMatrixStore") -> int:
        """Append every chunk of ``other`` without rewriting rows.

        Returns the row offset its rows now start at; ``other`` is left
        empty.  This is the merge half of shard split/merge: O(chunks)
        bookkeeping and file renames, zero row data moved.
        """
        if other.width is not None:
            self._check_width(other.width)
        base = self._rows
        for chunk in list(other._chunks):
            self._adopt_chunk(chunk, other)
        self._rows += other._rows
        self._dead += other._dead
        other._chunks = []
        other._rows = 0
        other._dead = 0
        other._offsets = None
        self._offsets = None
        self._evict(exclude=None)
        return base

    def split_at(self, row: int) -> Tuple["ChunkedMatrixStore", int]:
        """Detach rows [row, rows) into a new store of the same config.

        Whole chunks past the boundary are *moved* (adopted); only the
        rows of the single chunk the boundary cuts through are copied.
        Returns ``(new_store, copied_rows)``.
        """
        if not 0 <= row <= self._rows:
            raise ValueError(f"split row {row} outside [0, {self._rows}]")
        other = ChunkedMatrixStore(self.config)
        other.width = self.width
        other._telemetry = self._telemetry
        other._label = self._label
        if row == self._rows:
            return other, 0
        offsets = self.offsets()
        index = int(np.searchsorted(offsets, row, side="right")) - 1
        local = row - int(offsets[index])
        copied = 0
        move_from = index
        if local > 0:
            chunk = self._chunks[index]
            used = chunk.used
            self._touch(chunk)
            tail_alive = chunk.alive[local:used].copy()
            other.append(
                chunk.matrix[local:used],
                chunk.strict[local:used],
                chunk.tol_base[local:used],
                chunk.tol_signed[local:used],
            )
            # append marks everything alive; restore the real flags.
            cursor = 0
            for dest in other._chunks:
                take = min(dest.used, tail_alive.size - cursor)
                dest.alive[:take] = tail_alive[cursor : cursor + take]
                cursor += take
            copied = used - local
            chunk.used = local
            chunk.alive[local:] = False
            chunk.strict[local:] = False
            move_from = index + 1
        for chunk in list(self._chunks[move_from:]):
            other._adopt_chunk(chunk, self)
        del self._chunks[move_from:]
        self._offsets = None
        other._offsets = None
        self._rows = sum(chunk.used for chunk in self._chunks)
        other._rows = sum(chunk.used for chunk in other._chunks)
        self._recount_dead()
        other._recount_dead()
        return other, copied
