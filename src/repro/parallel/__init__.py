"""Parallel matching execution: real cores under a deterministic DES.

The paper's M operator is the engine's CPU bottleneck, and the discrete
event simulation runs on one thread — so until this package, concurrent
M slices only *pretended* to overlap.  ``repro.parallel`` dispatches the
slices' ``match_batch`` work to a pool of worker processes while leaving
the simulation bit-deterministic: workers are pure functions of (packed
matrix epoch, publication batch), submission happens at dequeue time via
the engine's ``prepare_batch`` hook, and results rejoin exactly at the
batch's already-scheduled virtual completion time.  Serial and parallel
runs therefore produce byte-identical notifications and CPU accounting;
only wall-clock time changes.

Select a backend through ``HubConfig(match=MatchConfig(workers=...,
backend=...))`` or the ``REPRO_MATCH_WORKERS`` / ``REPRO_MATCH_BACKEND``
environment variables; DESIGN.md ("Parallel matching execution")
documents the epoch/delta protocol and the determinism argument, and
OBSERVABILITY.md the worker-pool metric families.
"""

from .executor import (
    BACKENDS,
    InlineMatchExecutor,
    MatchChannel,
    MatchExecutor,
    MatchFuture,
    ProcessPoolMatchExecutor,
    SharedMemoryMatchExecutor,
    available_backends,
    create_executor,
    plan_chunks,
    resolve_backend,
    shared_executor,
)
from .config import MatchConfig
from .rendezvous import CompletionRendezvous
from .snapshot import PackedSnapshot, encode_batch, match_span_range

__all__ = [
    "BACKENDS",
    "CompletionRendezvous",
    "InlineMatchExecutor",
    "MatchChannel",
    "MatchConfig",
    "MatchExecutor",
    "MatchFuture",
    "PackedSnapshot",
    "ProcessPoolMatchExecutor",
    "SharedMemoryMatchExecutor",
    "available_backends",
    "create_executor",
    "encode_batch",
    "match_span_range",
    "plan_chunks",
    "resolve_backend",
    "shared_executor",
]
