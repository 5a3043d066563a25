"""Golden byte-identity: calendar-queue kernel vs the heap reference.

The calendar-queue run loop (slot-local FIFO drains + a heap of
distinct timestamps) replaced the seed's single ``heapq`` of events.
The rewrite's contract is *byte identity* on the default path: same
event order, same trace bytes, same RNG draws, same outcomes -- the
data structure changed, the schedule did not.

:class:`HeapKernel` below is the seed's run loop, kept verbatim as an
executable reference (heap of ``(time, seq, fn, args)``, per-event
pops).  Every test runs the same federation workload under both
kernels -- the reference is injected by monkeypatching the ``Kernel``
name Federation instantiates -- and demands identical fingerprints for
every protocol in ``PROTOCOL_REGISTRY`` x {1, 2, 8} coordinators, plus
identical ``repro.check`` DFS exploration statistics (the
controlled-scheduling path).

The reference stays honest because everything the production kernel
queues funnels through two methods: ``_schedule``, which
:class:`HeapKernel` overrides, and ``_resume``, whose live-slot append
only happens while ``Kernel.run`` drains a slot -- ``HeapKernel.run``
never sets ``_live``, so under it every resume is an ordinary
``_schedule(0.0, ...)`` onto the heap.  ``Kernel.run_alone`` -- the
counter-site loader -- asks the queue what is due through
``_next_due``, which :class:`HeapKernel` also overrides.
"""

from __future__ import annotations

import heapq

import pytest

import repro.integration.federation as federation_module
from repro.check import CheckSpec, explore
from repro.core.gtm import GTMConfig
from repro.core.protocols import PROTOCOL_REGISTRY
from repro.errors import KernelStopped, SimulationError
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment
from repro.net.message import reset_message_ids
from repro.sim.kernel import Kernel

N_SITES = 3
N_KEYS = 8
N_TXNS = 18

#: Every registered protocol at its registry granularity: a new
#: registry row is diffed against the reference automatically.
PROTOCOLS = [(info.name, info.granularity) for info in PROTOCOL_REGISTRY.values()]
COORDINATORS = [1, 2, 8]
#: Everything but paxos: the paxos wiring must be inert here.
CLASSIC_PROTOCOLS = [entry for entry in PROTOCOLS if entry[0] != "paxos"]


class HeapKernel(Kernel):
    """The seed tree's event loop, preserved as the identity reference."""

    __slots__ = ("_heap",)

    def __init__(self, seed: int = 0):
        super().__init__(seed=seed)
        self._heap: list = []

    @property
    def queued(self) -> int:
        return len(self._heap)

    def _next_due(self):
        return self._heap[0][0] if self._heap else None

    def _schedule(self, delay, callback, *args):
        if self._stopped:
            raise KernelStopped("kernel already stopped")
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._sequence += 1
        heapq.heappush(self._heap, (self._now + delay, self._sequence, callback, args))

    def run(self, until=None, raise_failures=True):
        if self.scheduler is not None:
            return self._run_controlled(until, raise_failures)
        queue = self._heap
        pop = heapq.heappop
        fire_timer = self._fire_timer
        dispatched = 0
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    self._now = until
                    break
                time, _seq, fn, args = pop(queue)
                if fn is fire_timer and args[0]._done:
                    continue  # cancelled timer: skip without advancing the clock
                self._now = time
                dispatched += 1
                fn(*args)
        finally:
            self.events_dispatched += dispatched
        if raise_failures:
            for process, exc in self.failures:
                if not process._observed:
                    raise exc
        return self._now

    def _run_controlled(self, until, raise_failures):
        queue = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        fire_timer = self._fire_timer
        scheduler = self.scheduler
        while queue:
            time = queue[0][0]
            if until is not None and time > until:
                self._now = until
                break
            batch = []
            while queue and queue[0][0] == time:
                entry = pop(queue)
                if entry[2] is fire_timer and entry[3][0]._done:
                    continue  # cancelled timer: never offered as a choice
                batch.append(entry)
            if not batch:
                continue
            chosen = scheduler.pick(self, batch) if len(batch) > 1 else batch[0]
            for entry in batch:
                if entry is not chosen:
                    push(queue, entry)
            self._now = time
            self.events_dispatched += 1
            chosen[2](*chosen[3])
        if raise_failures:
            for process, exc in self.failures:
                if not process._observed:
                    raise exc
        return self._now

    def stop(self) -> None:
        self._heap.clear()
        self._stopped = True


# ---------------------------------------------------------------------------


def _build(
    protocol: str, granularity: str, coordinators: int, paxos_f: int = 1
) -> Federation:
    preparable = PROTOCOL_REGISTRY[protocol].requires_prepare
    specs = [
        SiteSpec(
            f"s{i}",
            tables={f"t{i}": {f"k{j}": 100 for j in range(N_KEYS)}},
            preparable=preparable,
        )
        for i in range(N_SITES)
    ]
    return Federation(
        specs,
        FederationConfig(
            seed=11,
            coordinators=coordinators,
            paxos_f=paxos_f,
            gtm=GTMConfig(protocol=protocol, granularity=granularity),
        ),
    )


def _workload() -> list[dict]:
    """Partially overlapping transfers: several txns share an arrival
    instant, so same-timestamp frontiers (the calendar queue's slot
    drains) actually occur."""
    batches = []
    for index in range(N_TXNS):
        src = index % N_SITES
        dst = (index + 1) % N_SITES
        batches.append({
            "operations": [
                increment(f"t{src}", f"k{index % N_KEYS}", -1),
                increment(f"t{dst}", f"k{index % N_KEYS}", 1),
            ],
            "name": f"G{index}",
            "delay": (index % 6) * 3.0,
        })
    return batches


def _fingerprint(
    protocol: str, granularity: str, coordinators: int, paxos_f: int = 1
) -> dict:
    """Everything observable about one run, byte for byte."""
    reset_message_ids()
    fed = _build(protocol, granularity, coordinators, paxos_f=paxos_f)
    outcomes = fed.run_transactions(_workload())
    return {
        "outcomes": [outcome.committed for outcome in outcomes],
        "trace": [str(record) for record in fed.kernel.trace.records],
        "events_dispatched": fed.kernel.events_dispatched,
        "end_time": fed.kernel.now,
        "sent": fed.network.sent,
        "delivered": fed.network.delivered,
        # One draw from a fresh named stream: equal only if both runs
        # consumed the kernel's RNG streams identically.
        "rng_probe": fed.kernel.rng.stream("golden-probe").random(),
    }


@pytest.mark.parametrize("coordinators", COORDINATORS)
@pytest.mark.parametrize("protocol,granularity", PROTOCOLS)
def test_calendar_kernel_matches_heap_reference(
    monkeypatch, protocol, granularity, coordinators
):
    calendar = _fingerprint(protocol, granularity, coordinators)
    with monkeypatch.context() as patch:
        patch.setattr(federation_module, "Kernel", HeapKernel)
        reference = _fingerprint(protocol, granularity, coordinators)
    # Trace bytes first: on mismatch the diff pinpoints the first
    # diverging event, which names the reordered dispatch.
    assert calendar["trace"] == reference["trace"]
    assert calendar == reference


@pytest.mark.parametrize("protocol,granularity", CLASSIC_PROTOCOLS)
def test_paxos_wiring_is_inert_on_classic_protocols(protocol, granularity):
    """The paxos knob must not move a single byte of a classic run.

    Acceptors are only ever built for ``protocol="paxos"``, so varying
    ``paxos_f`` on any other protocol has to produce byte-identical
    traces, outcomes and RNG draws -- the regression that catches a
    future leak of paxos wiring into the classic paths.
    """
    default = _fingerprint(protocol, granularity, 2)
    widened = _fingerprint(protocol, granularity, 2, paxos_f=3)
    assert default["trace"] == widened["trace"]
    assert default == widened


def test_classic_runs_build_no_acceptors():
    fed = _build("2pc", "per_site", 2)
    assert fed.acceptors is None
    assert all(gtm.acceptors is None for gtm in fed.coordinators)
    assert not any(name.startswith("acceptor") for name in fed.nodes)


@pytest.mark.parametrize("protocol", ["2pc", "before", "paxos"])
def test_dfs_exploration_counts_match_heap_reference(monkeypatch, protocol):
    """The controlled-scheduling path explores the same schedule tree."""
    spec = CheckSpec(protocol=protocol)
    calendar = explore(spec, depth=4, budget=80).summary()
    with monkeypatch.context() as patch:
        patch.setattr(federation_module, "Kernel", HeapKernel)
        reference = explore(spec, depth=4, budget=80).summary()
    assert calendar == reference
    assert calendar["executions"] > 1


def test_heap_reference_is_actually_used(monkeypatch):
    """Guard the harness itself: the patch must reach Federation."""
    with monkeypatch.context() as patch:
        patch.setattr(federation_module, "Kernel", HeapKernel)
        fed = _build("2pc", "per_site", 1)
    assert isinstance(fed.kernel, HeapKernel)
