"""Deterministic discrete-event simulation kernel.

All higher layers (storage, local databases, network, protocols) execute
as generator-based processes inside a :class:`~repro.sim.kernel.Kernel`.
Processes yield *effects* -- a number of time units to sleep, a
:class:`~repro.sim.events.Future`, a
:class:`~repro.sim.events.TimedWait` (the one wait with a deadline), or
another process -- and are resumed by the kernel when the effect
completes.  Ties in the event queue are broken by insertion order, so
a run is reproducible bit-for-bit given the same seed.
"""

from repro.sim.events import Future, TimedWait
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceLog, TraceRecord

__all__ = [
    "Future",
    "Kernel",
    "Process",
    "RandomStreams",
    "TimedWait",
    "TraceLog",
    "TraceRecord",
]
