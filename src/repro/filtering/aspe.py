"""ASPE encrypted content-based filtering.

Implements asymmetric scalar-product-preserving encryption (ASPE, Wong et
al., adapted to pub/sub filtering by Choi et al. — the paper's ref [11]).
Matching happens on ciphertexts only; neither publication attribute values
nor subscription constants are revealed to the matching host.

Construction
------------
Let ``d`` be the number of attributes.  The secret key is a random
invertible matrix ``M`` of size ``n×n`` with ``n = d + 3`` (d attribute
coordinates, one constant coordinate, two noise coordinates).

* A publication with attributes ``x ∈ R^d`` is encoded as the plaintext
  vector ``u = r · (x₁, …, x_d, 1, α, γ)`` with secret per-encryption
  randomness ``r > 0`` and noise ``α, γ``; its ciphertext is ``û = Mᵀ u``.
* A subscription predicate ``x_i op c`` is encoded as
  ``q = s · (δ₁, …, δ_d, −c, 0, 0)`` with ``δ_j = 1`` iff ``j = i`` and
  secret ``s > 0``; its ciphertext is ``q̂ = M⁻¹ q``.

Then ``û · q̂ = uᵀ M M⁻¹ q = r·s·(x_i − c)``: the *sign* of the inner
product decides the comparison while the magnitude is blinded by ``r·s``
and the ciphertext coordinates are mixed by ``M``.  Each predicate check is
an ``n``-dimensional inner product, so matching one publication against a
subscription with ``k`` predicates costs ``O(k·d)`` multiplications —
``O(d²)`` for the typical ``k ≈ d``, matching the paper's cost statement.

Equality predicates are evaluated as the conjunction of ``≥`` and ``≤``
using two query vectors.  Floating-point noise from the two matrix
multiplications is absorbed by a relative tolerance on the decision
boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import FilteringLibrary
from .predicates import Op, Predicate, PredicateSet
from .store.chunks import ChunkedMatrixStore
from .store.config import StoreConfig

__all__ = [
    "AspeKey",
    "AspeCipher",
    "EncryptedPublication",
    "EncryptedPredicate",
    "EncryptedSubscription",
    "AspeLibrary",
    "match_packed",
]

# Boundary tolerance: |û·q̂| below tol·scale counts as "equal".  The scale
# is carried with each ciphertext pair via the blinding bounds.  The value
# must sit between the dot-product rounding error (~n·eps·‖û‖·‖q̂‖ ≈
# 3e-15·‖û‖·‖q̂‖) and the smallest genuine decision margin, which is
# r·s·|value − constant| ≥ 0.25·|value − constant| and does *not* grow
# with the ciphertext norms — a tolerance much above the rounding error
# flips true non-matches near the boundary into matches.
_REL_TOL = 1e-13

@dataclass(frozen=True)
class AspeKey:
    """The secret key: dimension and the invertible mixing matrix."""

    dimensions: int
    matrix: np.ndarray
    inverse: np.ndarray

    @classmethod
    def generate(cls, dimensions: int, rng: Optional[random.Random] = None) -> "AspeKey":
        """Generate a fresh key for a ``dimensions``-attribute schema."""
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        rng = rng or random.Random()
        n = dimensions + 3
        np_rng = np.random.default_rng(rng.getrandbits(63))
        while True:
            matrix = np_rng.uniform(-1.0, 1.0, size=(n, n))
            # Reject ill-conditioned draws to keep decisions numerically crisp.
            if np.linalg.cond(matrix) < 1e4:
                break
        inverse = np.linalg.inv(matrix)
        return cls(dimensions=dimensions, matrix=matrix, inverse=inverse)

    @property
    def cipher_dimensions(self) -> int:
        return self.dimensions + 3


@dataclass(frozen=True)
class EncryptedPublication:
    """Ciphertext of one publication (``û = Mᵀ u``)."""

    vector: np.ndarray

    @property
    def size_bytes(self) -> int:
        return self.vector.nbytes + 16


@dataclass(frozen=True)
class EncryptedPredicate:
    """Ciphertext of one predicate: query vector(s) + comparison direction.

    ``op_code`` keeps only the comparison *direction and strictness* —
    which attribute and constant are compared is hidden inside the vector.
    """

    op_code: str  # one of 'gt', 'ge', 'lt', 'le'
    vector: np.ndarray


@dataclass(frozen=True)
class EncryptedSubscription:
    """Ciphertext of a subscription: conjunction of encrypted predicates."""

    predicates: Tuple[EncryptedPredicate, ...]

    @property
    def size_bytes(self) -> int:
        return sum(p.vector.nbytes + 24 for p in self.predicates) + 16


class AspeCipher:
    """Encrypts publications and subscriptions under an :class:`AspeKey`."""

    def __init__(self, key: AspeKey, rng: Optional[random.Random] = None):
        self.key = key
        self._rng = rng or random.Random()

    # -- encryption -----------------------------------------------------------

    def encrypt_publication(self, attributes: Sequence[float]) -> EncryptedPublication:
        d = self.key.dimensions
        if len(attributes) != d:
            raise ValueError(f"expected {d} attributes, got {len(attributes)}")
        r = self._rng.uniform(0.5, 2.0)
        alpha = self._rng.uniform(-10.0, 10.0)
        gamma = self._rng.uniform(-10.0, 10.0)
        u = np.empty(d + 3)
        u[:d] = attributes
        u[d] = 1.0
        u[d + 1] = alpha
        u[d + 2] = gamma
        u *= r
        return EncryptedPublication(vector=self.key.matrix.T @ u)

    def encrypt_predicate(self, predicate: Predicate) -> List[EncryptedPredicate]:
        """Encrypt one predicate (two ciphertexts for equality)."""
        d = self.key.dimensions
        if predicate.attribute >= d:
            raise ValueError(
                f"predicate attribute {predicate.attribute} outside schema of {d}"
            )
        if predicate.op is Op.EQ:
            return [
                self._encrypt_comparison(predicate.attribute, predicate.constant, "ge"),
                self._encrypt_comparison(predicate.attribute, predicate.constant, "le"),
            ]
        op_code = {Op.GT: "gt", Op.GE: "ge", Op.LT: "lt", Op.LE: "le"}[predicate.op]
        return [self._encrypt_comparison(predicate.attribute, predicate.constant, op_code)]

    def encrypt_subscription(self, predicate_set: PredicateSet) -> EncryptedSubscription:
        encrypted: List[EncryptedPredicate] = []
        for predicate in predicate_set:
            encrypted.extend(self.encrypt_predicate(predicate))
        return EncryptedSubscription(predicates=tuple(encrypted))

    def encrypt_subscriptions(
        self, predicate_sets: Sequence[PredicateSet]
    ) -> List[EncryptedSubscription]:
        """Encrypt many subscriptions with one matrix-matrix product.

        Builds every (EQ-expanded) query vector into one stacked block
        and applies ``M⁻¹`` as a single gemm — the trace-scale (1M+)
        subscription generation path.  Per-predicate blinding factors
        draw from the same stream in the same order as the scalar path,
        so the construction (and its security argument) is unchanged.
        """
        d = self.key.dimensions
        op_codes = {Op.GT: "gt", Op.GE: "ge", Op.LT: "lt", Op.LE: "le"}
        specs: List[Tuple[str, int, float]] = []
        counts: List[int] = []
        for predicate_set in predicate_sets:
            before = len(specs)
            for predicate in predicate_set:
                if predicate.attribute >= d:
                    raise ValueError(
                        f"predicate attribute {predicate.attribute} outside "
                        f"schema of {d}"
                    )
                if predicate.op is Op.EQ:
                    specs.append(("ge", predicate.attribute, predicate.constant))
                    specs.append(("le", predicate.attribute, predicate.constant))
                else:
                    specs.append(
                        (op_codes[predicate.op], predicate.attribute, predicate.constant)
                    )
            counts.append(len(specs) - before)
        queries = np.zeros((len(specs), d + 3))
        rng = self._rng
        for row, (_, attribute, constant) in enumerate(specs):
            s = rng.uniform(0.5, 2.0)
            queries[row, attribute] = 1.0
            queries[row, d] = -constant
            queries[row] *= s
        vectors = queries @ self.key.inverse.T
        out: List[EncryptedSubscription] = []
        row = 0
        for count in counts:
            out.append(
                EncryptedSubscription(
                    predicates=tuple(
                        EncryptedPredicate(
                            op_code=specs[row + i][0], vector=vectors[row + i]
                        )
                        for i in range(count)
                    )
                )
            )
            row += count
        return out

    def encrypt_publications(
        self, attribute_rows: Sequence[Sequence[float]]
    ) -> List[EncryptedPublication]:
        """Encrypt many publications with one matrix-matrix product."""
        d = self.key.dimensions
        rows = np.asarray(attribute_rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != d:
            raise ValueError(
                f"expected (count, {d}) attribute rows, got {rows.shape}"
            )
        count = rows.shape[0]
        u = np.empty((count, d + 3))
        u[:, :d] = rows
        u[:, d] = 1.0
        rng = self._rng
        for i in range(count):
            r = rng.uniform(0.5, 2.0)
            u[i, d + 1] = rng.uniform(-10.0, 10.0)
            u[i, d + 2] = rng.uniform(-10.0, 10.0)
            u[i] *= r
        encrypted = u @ self.key.matrix
        return [EncryptedPublication(vector=vector) for vector in encrypted]

    def _encrypt_comparison(self, attribute: int, constant: float, op_code: str) -> EncryptedPredicate:
        d = self.key.dimensions
        s = self._rng.uniform(0.5, 2.0)
        q = np.zeros(d + 3)
        q[attribute] = 1.0
        q[d] = -constant
        q *= s
        return EncryptedPredicate(op_code=op_code, vector=self.key.inverse @ q)


def _decide(op_code: str, product: float, tolerance: float) -> bool:
    if op_code == "gt":
        return product > tolerance
    if op_code == "ge":
        return product >= -tolerance
    if op_code == "lt":
        return product < -tolerance
    if op_code == "le":
        return product <= tolerance
    raise ValueError(f"unknown op code {op_code!r}")


def match_encrypted(
    publication: EncryptedPublication, subscription: EncryptedSubscription
) -> bool:
    """Evaluate the encrypted conjunction: does the publication match?"""
    u = publication.vector
    scale = float(np.linalg.norm(u)) + 1.0
    for predicate in subscription.predicates:
        product = float(u @ predicate.vector)
        tolerance = _REL_TOL * scale * (float(np.linalg.norm(predicate.vector)) + 1.0)
        if not _decide(predicate.op_code, product, tolerance):
            return False
    return True


#: Comparison direction per op code: +1 keeps the product sign, −1 flips
#: it, so every decision reduces to ``sign·product {>, ≥−} tolerance``.
_OP_SIGN = {"gt": 1.0, "ge": 1.0, "lt": -1.0, "le": -1.0}
#: Strict comparisons exclude the tolerance band, non-strict include it.
_OP_STRICT = {"gt": True, "ge": False, "lt": True, "le": False}


def _fold_rows(predicates, matrix: np.ndarray, strict: np.ndarray) -> None:
    """Write ``predicates`` as direction-folded rows plus strict flags.

    A ``lt``/``le`` query vector is negated on the way in.  Folding the
    ±1 comparison direction into the row is exact: IEEE negation
    commutes with sums and products bit-for-bit.
    """
    for row, predicate in enumerate(predicates):
        if _OP_SIGN[predicate.op_code] < 0.0:
            np.negative(predicate.vector, out=matrix[row])
        else:
            matrix[row] = predicate.vector
        strict[row] = _OP_STRICT[predicate.op_code]


def _tolerances(matrix, strict, tol_base, tol_signed) -> None:
    """Fill the per-row tolerance base ``_REL_TOL · (‖q̂‖ + 1)`` and its
    sign-folded copy (``+base`` for strict rows, ``−base`` otherwise).

    Per-row norms reduce element-independently, so any row blocking of
    the same rows yields bit-identical values.  Folding the decision side
    into the sign is exact too (``s·(−a) == −(s·a)``), which lets
    :func:`match_packed` decide every row with one comparison pass.
    """
    np.multiply(_REL_TOL, np.linalg.norm(matrix, axis=1) + 1.0, out=tol_base)
    tol_signed[:] = np.where(strict, tol_base, -tol_base)


def _pack(groups, total: int, width: int):
    """Stage the rows of several predicate tuples as one block:
    ``(matrix, strict, tol_base, tol_signed)``."""
    matrix = np.empty((total, width))
    strict = np.empty(total, dtype=bool)
    row = 0
    for predicates in groups:
        stop = row + len(predicates)
        _fold_rows(predicates, matrix[row:stop], strict[row:stop])
        row = stop
    tol_base = np.empty(total)
    tol_signed = np.empty(total)
    _tolerances(matrix, strict, tol_base, tol_signed)
    return matrix, strict, tol_base, tol_signed


def _local_bounds(bounds: np.ndarray, base: int, rows: int) -> np.ndarray:
    """Sorted row ``bounds`` relative to a chunk of ``rows`` rows starting
    at row ``base``, clipped to it — a view when nothing shifts or clips
    (a store held in one chunk)."""
    if base == 0 and bounds[-1] <= rows:
        return bounds
    return np.clip(bounds - base, 0, rows)


def _fresh_workspace(name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """Workspace provider allocating a fresh buffer per request."""
    return np.empty(shape, dtype=dtype)


def match_packed(
    matrix: np.ndarray,
    strict: np.ndarray,
    tol_signed: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    batch: np.ndarray,
    workspace=None,
    counts: bool = False,
) -> np.ndarray:
    """Evaluate packed (direction-folded) predicate rows against a batch.

    The one matching kernel: ``matrix`` is a ``(rows, n)`` block of
    direction-folded query-vector rows with per-row ``strict`` flags and
    sign-folded tolerance bases ``tol_signed``; ``starts``/``stops`` are
    per-span row offsets *relative to this block*; ``batch`` is the
    ``(B, n)`` stack of publication ciphertext vectors.  Returns the
    ``(B, len(starts))`` boolean span-conjunction matrix — or, with
    ``counts=True``, the int32 per-span counts of unsatisfied rows, so a
    caller whose spans cross several blocks sums each span's counts and
    tests the sum for zero.

    This function is *pure* — a deterministic function of its array
    arguments with no hidden state.  ``workspace`` optionally supplies
    reusable scratch buffers (``(name, shape, dtype) -> ndarray``); the
    default allocates fresh ones, which is bit-wise equivalent.
    """
    if workspace is None:
        workspace = _fresh_workspace
    count = batch.shape[0]
    rows = matrix.shape[0]
    # Publication-major layout: every downstream reduction then runs
    # over contiguous per-publication rows.  All (B × rows) temporaries
    # come from the workspace and every ufunc writes in place.
    products = workspace("products", (count, rows), np.float64)
    np.matmul(batch, matrix.T, out=products)
    scales = np.linalg.norm(batch, axis=1)
    scales += 1.0
    thresholds = workspace("thresholds", (count, rows), np.float64)
    np.multiply(scales[:, None], tol_signed[None, :], out=thresholds)
    # Strict rows require product > scale·tol_base; non-strict rows
    # product ≥ −scale·tol_base.  With the sign folded into the
    # threshold both become "product > threshold", plus boundary
    # equality for the non-strict rows only.
    satisfied = workspace("satisfied", (count, rows), np.bool_)
    np.greater(products, thresholds, out=satisfied)
    boundary = workspace("boundary", (count, rows), np.bool_)
    np.equal(products, thresholds, out=boundary)
    np.logical_and(boundary, ~strict[None, :], out=boundary)
    np.logical_or(satisfied, boundary, out=satisfied)
    # Span conjunction via exclusive prefix sums of unsatisfied rows: the
    # [start, stop) difference counts a span's unsatisfied rows and skips
    # tombstoned gaps between spans without touching them.
    np.logical_not(satisfied, out=boundary)
    prefix = workspace("prefix", (count, rows + 1), np.int32)
    prefix[:, 0] = 0
    np.cumsum(boundary, axis=1, out=prefix[:, 1:])
    # ``take`` along the row axis gathers ~3x faster than ``[:, idx]``.
    unsatisfied = np.take(prefix, stops, axis=1) - np.take(prefix, starts, axis=1)
    return unsatisfied if counts else unsatisfied == 0


#: Compact once dead rows outnumber live ones (and exceed this floor), so
#: the store never carries more than 2× the live predicate rows.
_COMPACT_MIN_DEAD = 64


class AspeLibrary(FilteringLibrary):
    """Filtering library over ASPE ciphertexts.

    Because ciphertexts reveal nothing exploitable for indexing, every
    publication must be matched against *every* stored subscription — the
    property that makes encrypted filtering computationally heavy and the
    paper's experiments workload-independent.

    The predicate ciphertexts of all stored subscriptions live in one
    packed row matrix held by a :class:`ChunkedMatrixStore` and maintained
    *incrementally*: ``store`` writes rows straight into the store's tail
    chunk, ``remove`` tombstones the subscription's row span, and
    compaction runs only when dead rows outnumber live ones — store/remove
    churn costs amortized O(rows touched), never a full repack.  Rows are
    direction-folded with their tolerances precomputed, and
    :func:`match_packed` — the one kernel — evaluates a whole batch of
    publications against each chunk as a single matrix-matrix product.
    """

    def __init__(self, store_config: Optional[StoreConfig] = None) -> None:
        self._subs: Dict[int, EncryptedSubscription] = {}
        self._store_config = (
            store_config if store_config is not None else StoreConfig.from_env()
        )
        #: The packed rows (see repro.filtering.store): in RAM, or spilled
        #: to memory-mapped chunk files when the config sets a budget.
        self._store = ChunkedMatrixStore(self._store_config)
        self._telemetry = None
        #: sub_id → [start, stop) row span in the packed matrix.
        self._spans: Dict[int, Tuple[int, int]] = {}
        #: Lazily built span index and per-chunk plan (see _span_index).
        self._index = None
        #: Reusable scratch buffers for :func:`match_packed` (name → flat
        #: array).  The batch temporaries are large enough (B × rows) to
        #: defeat numpy's small-allocation cache; reusing them removes the
        #: per-call mmap churn.
        self._ws: Dict[str, np.ndarray] = {}
        # Instrumentation: churn benchmarks assert store/remove stays
        # incremental (appends, occasional compactions, no full repacks),
        # and that scratch buffers are not reallocated on every match.
        self.rows_appended = 0
        self.compaction_count = 0
        self.full_pack_count = 0
        self.workspace_allocations = 0

    @property
    def _rows(self) -> int:
        """Packed rows in use (live + tombstoned)."""
        return self._store.rows

    @property
    def _dead_rows(self) -> int:
        return self._store.dead_rows

    # -- storage --------------------------------------------------------------

    def store(self, sub_id: int, filter_data: EncryptedSubscription) -> None:
        if not isinstance(filter_data, EncryptedSubscription):
            raise TypeError(
                f"expected EncryptedSubscription, got {type(filter_data).__name__}"
            )
        if sub_id in self._subs:
            self._tombstone(sub_id)
        self._subs[sub_id] = filter_data
        self._append_rows(sub_id, filter_data.predicates)
        self._index = None
        self._maybe_compact()

    def remove(self, sub_id: int) -> None:
        del self._subs[sub_id]  # KeyError if unknown
        self._tombstone(sub_id)
        self._index = None
        self._maybe_compact()

    # -- matching -------------------------------------------------------------

    def match(self, publication_data: EncryptedPublication) -> List[int]:
        return self.match_batch([publication_data])[0]

    def match_batch(
        self, publications: Sequence[EncryptedPublication]
    ) -> List[List[int]]:
        for publication in publications:
            if not isinstance(publication, EncryptedPublication):
                raise TypeError(
                    f"expected EncryptedPublication, got {type(publication).__name__}"
                )
        if not publications:
            return []
        if not self._subs:
            return [[] for _ in publications]
        ids, positions, starts, plan = self._span_index()
        if starts.size == 0:
            # Only empty (vacuously true) subscriptions are stored.
            return [list(ids) for _ in publications]
        batch = np.stack([p.vector for p in publications])  # (B, n)
        ok = self._match_rows(batch, starts.size, plan)
        result = np.ones((batch.shape[0], len(ids)), dtype=bool)
        result[:, positions] = ok
        return [[ids[i] for i in np.nonzero(row)[0]] for row in result]

    def _match_rows(self, batch: np.ndarray, spans: int, plan) -> np.ndarray:
        """The ``(B, spans)`` span-conjunction matrix over every chunk."""
        store = self._store
        if len(plan) == 1 and plan[0][2] - plan[0][1] == spans:
            index, _, _, lo, hi = plan[0]
            block = store.block(index)
            # A one-publication match over one chunk allocates row-sized
            # temporaries once per call; keeping them would pin scratch
            # in every idle library.
            return match_packed(
                block.matrix, block.strict, block.tol_signed, lo, hi, batch,
                workspace=self._workspace if batch.shape[0] > 1 else None,
            )
        # Spans may straddle chunk boundaries: sum each span's unsatisfied
        # rows over its chunks.  Integer sums keep the result exact.
        unsatisfied = np.zeros((batch.shape[0], spans), dtype=np.int32)
        for index, j0, j1, lo, hi in plan:
            block = store.block(index)
            unsatisfied[:, j0:j1] += match_packed(
                block.matrix, block.strict, block.tol_signed, lo, hi, batch,
                workspace=self._workspace, counts=True,
            )
        return unsatisfied == 0

    # -- bookkeeping ----------------------------------------------------------

    def subscription_count(self) -> int:
        return len(self._subs)

    def state_size_bytes(self) -> int:
        return sum(s.size_bytes for s in self._subs.values())

    def export_state(self) -> Dict[int, EncryptedSubscription]:
        return dict(self._subs)

    def import_state(self, state: Dict[int, EncryptedSubscription]) -> None:
        self._subs = {}
        self._store.clear()
        self._spans = {}
        self._index = None
        for sub_id, subscription in state.items():
            self._subs[sub_id] = subscription
            self._append_rows(sub_id, subscription.predicates)
        self.full_pack_count += 1

    # -- bulk ingest and shard transfer ---------------------------------------

    def store_many(self, items) -> int:
        """Bulk-store ``(sub_id, EncryptedSubscription)`` pairs.

        One staging block, one norm reduction and one store append for
        the whole batch — the 1M-subscription load path.
        The resulting packed rows, spans and match decisions are
        identical to storing the items one by one; batches containing
        duplicate or already-stored ids fall back to exactly that.
        """
        items = list(items)
        for _, subscription in items:
            if not isinstance(subscription, EncryptedSubscription):
                raise TypeError(
                    f"expected EncryptedSubscription, got "
                    f"{type(subscription).__name__}"
                )
        if not items:
            return 0
        ids = [sub_id for sub_id, _ in items]
        if len(set(ids)) != len(ids) or any(i in self._subs for i in ids):
            for sub_id, subscription in items:
                self.store(sub_id, subscription)
            return len(items)
        groups = [subscription.predicates for _, subscription in items]
        total = sum(len(predicates) for predicates in groups)
        row = self._store.rows
        if total:
            width = next(p[0].vector.shape[0] for p in groups if p)
            row, _ = self._store.append(*_pack(groups, total, width))
            self.rows_appended += total
        for (sub_id, subscription), predicates in zip(items, groups):
            self._subs[sub_id] = subscription
            self._spans[sub_id] = (row, row + len(predicates))
            row += len(predicates)
        self._index = None
        self._maybe_compact()
        return len(items)

    def absorb(self, other: "AspeLibrary") -> int:
        """Adopt every subscription (and packed row) of ``other``.

        The merge half of shard split/merge: the rows transfer as whole
        chunk objects — zero rows rewritten.  ``other`` is left empty.
        Returns the number of rows adopted.
        """
        if other is self:
            raise ValueError("cannot absorb a library into itself")
        overlap = self._subs.keys() & other._subs.keys()
        if overlap:
            raise ValueError(
                f"cannot absorb: {len(overlap)} overlapping subscription ids"
            )
        moved = other._store.rows
        base = self._store.adopt(other._store)
        for sub_id, subscription in other._subs.items():
            start, stop = other._spans[sub_id]
            self._subs[sub_id] = subscription
            self._spans[sub_id] = (base + start, base + stop)
        self._index = None
        other._reset_empty()
        return moved

    def detach_suffix(self, boundary: int, sub_ids) -> Tuple["AspeLibrary", int]:
        """Split the store at row ``boundary``, moving ``sub_ids`` out.

        The split half of shard split/merge: every chunk fully past the
        boundary is *moved* into the new library; only the rows of the
        chunk the boundary cuts through are copied.  Every moving
        subscription's non-empty span must lie at or past the boundary
        and every staying one's before it.  Returns ``(new_library,
        copied_rows)``.
        """
        moving = set(sub_ids)
        for sub_id in moving:
            if sub_id not in self._subs:
                raise KeyError(sub_id)
        if not 0 <= boundary <= self._store.rows:
            raise ValueError(
                f"split boundary {boundary} outside [0, {self._store.rows}]"
            )
        for sub_id, (start, stop) in self._spans.items():
            if stop <= start:
                continue
            if sub_id in moving:
                if start < boundary:
                    raise ValueError(
                        f"moving subscription {sub_id} has rows below the "
                        f"split boundary"
                    )
            elif stop > boundary:
                raise ValueError(
                    f"staying subscription {sub_id} has rows at or past "
                    f"the split boundary"
                )
        new_lib = AspeLibrary(store_config=self._store_config)
        new_lib._telemetry = self._telemetry
        new_lib._store, copied = self._store.split_at(boundary)
        for sub_id in [s for s in self._subs if s in moving]:
            subscription = self._subs.pop(sub_id)
            start, stop = self._spans.pop(sub_id)
            new_lib._subs[sub_id] = subscription
            if stop > start:
                new_lib._spans[sub_id] = (start - boundary, stop - boundary)
            else:
                new_lib._spans[sub_id] = (0, 0)
        self._index = None
        return new_lib, copied

    def _reset_empty(self) -> None:
        """Empty this library in place (its state moved elsewhere)."""
        self._subs = {}
        self._spans = {}
        self._store.clear()
        self._index = None
        self._ws = {}

    # -- store configuration and observability --------------------------------

    @property
    def store_config(self) -> StoreConfig:
        return self._store_config

    @property
    def row_bytes(self) -> int:
        """Bytes one packed row occupies (0 before the first store)."""
        return self._store.row_bytes

    def configure_store(self, config: StoreConfig) -> None:
        """Reshape the backing store (only while the library is empty)."""
        if config == self._store_config:
            return
        if self._subs or self._store.rows:
            raise ValueError(
                "cannot reconfigure the store of a non-empty library"
            )
        self._store_config = config
        self._store = ChunkedMatrixStore(config)
        if self._telemetry is not None:
            self._store.bind_telemetry(self._telemetry)

    def bind_telemetry(self, telemetry, label: str = "aspe") -> None:
        """Record store residency/fault/eviction activity into a bundle."""
        self._telemetry = telemetry
        self._store.bind_telemetry(telemetry, label)

    def store_stats(self) -> Dict[str, object]:
        """Backing-store residency statistics (see OBSERVABILITY.md)."""
        return self._store.stats()

    def subscription_ids(self) -> List[int]:
        """Stored subscription ids in insertion order."""
        return list(self._subs)

    def get_subscription(self, sub_id: int) -> EncryptedSubscription:
        return self._subs[sub_id]

    # -- pickling -------------------------------------------------------------

    def __getstate__(self):
        """Serialize the packed rows as one trimmed flat block.

        ``export_state`` copies made during migration must not serialize
        dead weight: the workspace buffers (B × rows scratch), the span
        index, the tolerance columns (recomputed bit-identically from the
        rows), the unused tail-chunk capacity and the chunk layout and
        residency (process-local, rebuilt on restore) are all omitted.  ``_packed``
        is ``(matrix, strict, alive)`` over the rows in use, or ``None``.
        """
        state = self.__dict__.copy()
        state["_ws"] = {}
        state["_index"] = None
        state["_telemetry"] = None
        del state["_store"]
        state["_packed"] = self._store.export_rows() if self._store.rows else None
        return state

    def __setstate__(self, state):
        packed = state.pop("_packed")
        self.__dict__.update(state)
        self._store = ChunkedMatrixStore(self._store_config)
        if packed is None:
            return
        matrix, strict, alive = packed
        tol_base = np.empty(matrix.shape[0])
        tol_signed = np.empty(matrix.shape[0])
        _tolerances(matrix, strict, tol_base, tol_signed)
        self._store.append(matrix, strict, tol_base, tol_signed)
        dead = np.flatnonzero(~alive)
        if dead.size:
            breaks = np.flatnonzero(np.diff(dead) > 1)
            heads = np.concatenate(([0], breaks + 1))
            tails = np.concatenate((breaks, [dead.size - 1]))
            for head, tail in zip(heads, tails):
                self._store.mark_dead(int(dead[head]), int(dead[tail]) + 1)

    # -- packed-state maintenance ---------------------------------------------

    def _workspace(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A reusable scratch array of ``shape``/``dtype`` (contents stale).

        Buffers grow with 25% headroom: a store between two matches adds
        a few rows, and an exact-fit buffer would be reallocated on every
        such match.  Growth is geometric, so a store+match loop
        reallocates O(log rows) times.
        """
        size = 1
        for extent in shape:
            size *= extent
        buffer = self._ws.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = np.empty(max(size + size // 4, 1), dtype=dtype)
            self._ws[name] = buffer
            self.workspace_allocations += 1
        return buffer[:size].reshape(shape)

    def _append_rows(self, sub_id: int, predicates) -> None:
        count = len(predicates)
        store = self._store
        if count == 0:
            self._spans[sub_id] = (store.rows, store.rows)
            return
        width = predicates[0].vector.shape[0]
        chunk = store.reserve(count, width)
        if chunk is None:
            # The rows straddle a chunk boundary: stage and append them.
            span = store.append(*_pack([predicates], count, width))
        else:
            lo = chunk.used
            hi = lo + count
            matrix = chunk.matrix[lo:hi]
            strict = chunk.strict[lo:hi]
            _fold_rows(predicates, matrix, strict)
            _tolerances(matrix, strict, chunk.tol_base[lo:hi], chunk.tol_signed[lo:hi])
            span = store.commit(count)
        self._spans[sub_id] = span
        self.rows_appended += count

    def _tombstone(self, sub_id: int) -> None:
        start, stop = self._spans.pop(sub_id)
        self._store.mark_dead(start, stop)

    def _maybe_compact(self) -> None:
        # Compact once dead/(dead+live) exceeds the configured ratio (and
        # a fixed floor).  The default ratio of 0.5 solves to
        # ``dead > max(live, 64)``.
        dead = self._store.dead_rows
        ratio = self._store_config.compact_dead_ratio
        if dead <= _COMPACT_MIN_DEAD or ratio >= 1.0:
            return
        live = self._store.rows - dead
        if dead > live * ratio / (1.0 - ratio):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned rows, preserving the relative order of live ones.

        A subscription's rows are tombstoned all-or-nothing, so remapping
        the span boundaries through the live-row prefix sums keeps every
        span contiguous.
        """
        offsets = self._store.compact()
        self._spans = {
            sub_id: (int(offsets[start]), int(offsets[stop]))
            for sub_id, (start, stop) in self._spans.items()
        }
        self._index = None
        self.compaction_count += 1

    def _span_index(self):
        """Cached reduction index: (ids, positions, starts, plan).

        ``ids`` lists stored subscription ids in dict (insertion) order;
        ``starts`` holds the row offsets of all *non-empty* spans, sorted,
        ready for the prefix-sum span reduction;
        ``positions[j]`` is the index into ``ids`` of the span whose
        reduction lands in slot ``j``.  Empty spans are left out — their
        subscriptions match vacuously.  ``plan`` lists, per chunk holding
        span rows, ``(chunk, j0, j1, lo, hi)``: spans ``[j0, j1)`` overlap
        the chunk, and ``lo``/``hi`` are their bounds relative to it,
        clipped to its rows.  Rebuilding is O(#subscriptions), done lazily
        once per mutation; match itself is already Ω(#subscriptions).
        """
        if self._index is None:
            ids: List[int] = []
            span_starts: List[int] = []
            span_stops: List[int] = []
            span_positions: List[int] = []
            for position, sub_id in enumerate(self._subs):
                ids.append(sub_id)
                start, stop = self._spans[sub_id]
                if stop > start:
                    span_starts.append(start)
                    span_stops.append(stop)
                    span_positions.append(position)
            starts = np.asarray(span_starts, dtype=np.int64)
            stops = np.asarray(span_stops, dtype=np.int64)
            positions = np.asarray(span_positions, dtype=np.int64)
            order = np.argsort(starts, kind="stable")
            starts, stops = starts[order], stops[order]
            # Spans are disjoint and sorted by start, so stops are sorted
            # too: each chunk's overlapping spans are one binary search
            # per bound away.
            offsets = self._store.offsets()
            lows, highs = offsets[:-1], offsets[1:]
            first = np.searchsorted(stops, lows, side="right")
            last = np.searchsorted(starts, highs, side="left")
            plan = []
            for chunk in np.flatnonzero((first < last) & (highs > lows)):
                j0, j1 = int(first[chunk]), int(last[chunk])
                base = int(lows[chunk])
                rows = int(highs[chunk]) - base
                plan.append((
                    int(chunk), j0, j1,
                    _local_bounds(starts[j0:j1], base, rows),
                    _local_bounds(stops[j0:j1], base, rows),
                ))
            self._index = (ids, positions[order], starts, plan)
        return self._index
