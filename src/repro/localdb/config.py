"""Configuration of a local database engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.storage.disk import StorageConfig


@dataclass
class LocalDBConfig:
    """Tunables of one site's engine.

    Attributes
    ----------
    scheduler:
        ``"2pl"`` for strict two-phase locking, ``"occ"`` for optimistic
        (backward-validation) concurrency control.  The paper's §3.2
        explicitly considers locals "aborted by an optimistic scheduler
        since the transaction did not survive the validation phase".
    lock_timeout:
        Maximum simulated time a lock request may wait before the
        transaction aborts with a timeout -- one of the paper's sources
        of *erroneous* local aborts.  ``None`` disables timeouts.
    buffer_capacity:
        Buffer-pool frames.
    """

    storage: StorageConfig = field(default_factory=StorageConfig)
    scheduler: str = "2pl"
    lock_timeout: Optional[float] = 50.0
    buffer_capacity: int = 64
    #: Group-commit gathering window (0 = force immediately).  A
    #: positive window trades commit latency for fewer forced writes
    #: when commits arrive concurrently.
    group_commit_window: float = 0.0

    def __post_init__(self) -> None:
        if self.scheduler not in ("2pl", "occ"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
