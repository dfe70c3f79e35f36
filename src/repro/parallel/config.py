"""The parallel-matching knob group (``REPRO_MATCH_*``).

One of :class:`~repro.pubsub.HubConfig`'s grouped sub-configs: workers,
execution backend and chunking of the worker-pool ``match_batch`` path.
Validation messages name each knob as ``match_<field>`` — the stem of its
``REPRO_MATCH_<FIELD>`` variable and its ``--match-<field>`` CLI flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import EnvConfig

__all__ = ["MatchConfig"]


@dataclass(frozen=True)
class MatchConfig(EnvConfig):
    """Validated parallel-matching configuration."""

    env_prefix = "REPRO_MATCH_"

    #: Worker processes for parallel matching execution (0 = inline).
    workers: int = 0
    #: Execution backend: ``auto`` (shm where available, else pool),
    #: ``shm``, ``pool`` or ``inline``.
    backend: str = "auto"
    #: Minimum packed-matrix rows per worker chunk.
    chunk_rows: int = 4096

    def __post_init__(self):
        if self.workers < 0:
            raise ValueError(
                f"match_workers must be >= 0 (0 disables parallel matching), "
                f"got {self.workers}"
            )
        if self.chunk_rows < 1:
            raise ValueError(
                f"match_chunk_rows must be >= 1, got {self.chunk_rows}"
            )
        from . import BACKENDS

        if self.backend not in BACKENDS:
            raise ValueError(
                f"match_backend must be one of {BACKENDS}, "
                f"got {self.backend!r}"
            )
