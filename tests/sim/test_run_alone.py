"""Set-up off the calendar, byte for byte.

The counter-site loader drives its generator in place with
:meth:`Kernel.run_alone` instead of spawning a process and running the
calendar.  :class:`SpawnKernel` keeps the calendar path as the
executable reference -- spawn, run, ``.value`` -- in the way
``tests/sim/test_golden_identity.py`` keeps the heap loop.

The federation's initial load takes no simulated time at all: each
table is built as its final state (``LocalDatabase.load_table``).  Its
reference is the calendar: :func:`_calendar_load` creates every table
with ``create_table`` and fills each with one spawned begin / insert /
commit.  Every federation below is built both ways and must come out
identical -- clock, dispatch count, trace, site metrics, stable logs,
stable pages and buffer pools -- except the kernel's sequence number,
which differs by exactly the steps the calendar charged.
"""

from __future__ import annotations

import pytest

from repro.core.gtm import GTMConfig
from repro.core.redo import COMMITLOG_TABLE
from repro.dataplane import PlacementSpec
from repro.errors import KernelStopped, SimulationError
from repro.faults.chaos import ChaosSpec, build_chaos_federation
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.net.message import reset_message_ids
from repro.sim.events import Future
from repro.sim.kernel import Kernel
from repro.workloads.counters import build_counter_site


class SpawnKernel(Kernel):
    """``run_alone`` as a spawned process on the calendar: the reference."""

    __slots__ = ()

    def run_alone(self, generator):
        process = self.spawn(generator, name="alone")
        self.run()
        return process.value


def _kernel_state(kernel: Kernel) -> dict:
    return {
        "now": kernel.now,
        "sequence": kernel._sequence,
        "events_dispatched": kernel.events_dispatched,
        "queued": kernel.queued,
        "trace": [str(record) for record in kernel.trace.records],
    }


def _engine_state(engine) -> dict:
    catalog = engine.catalog
    stable = {
        page_id: engine.disk.stable_page(page_id)
        for table in catalog.table_names()
        for page_id in catalog.heap(table)
    }
    return {
        "metrics": engine.metrics(),
        "stable_log": [repr(record) for record in engine.disk.stable_log()],
        "pages": {page_id: (page.records, page.page_lsn) for page_id, page in stable.items()},
        "frames": list(engine.buffer._frames),
        "dirty": sorted(engine.buffer._dirty),
        "rec_lsn": dict(engine.buffer._rec_lsn),
    }


def _fingerprint(fed: Federation) -> dict:
    return {
        **_kernel_state(fed.kernel),
        "sites": {name: _engine_state(engine) for name, engine in fed.engines.items()},
    }


def _calendar_load(fed: Federation, site_specs: list[SiteSpec]) -> None:
    """The reference loader: set-up as simulated work on the calendar.

    One spawned process creates every table (``create_table``: an empty
    page write per page), then one spawned begin / insert / commit per
    table fills it, each run to the end before the next.  Records the
    sequence numbers each phase took on ``fed.charged``.
    """
    kernel = fed.kernel
    kernel.run()
    trace = kernel.trace
    tracing, trace.enabled = trace.enabled, False
    tables = []  # (engine, table, buckets, rows), in the loader's order
    for spec in site_specs:
        engine = fed.engines[spec.name]
        if fed.config.log_placement == "indb":
            tables.append((engine, COMMITLOG_TABLE, 2, {}))
        tables.extend((engine, table, spec.buckets, rows) for table, rows in spec.tables.items())
    if fed.dataplane is not None:
        for partition in fed.dataplane.map.partitions:
            spec = fed.dataplane.map.spec_for(partition.table)
            rows = fed.dataplane.map.initial_rows(partition)
            tables.extend(
                (fed.engines[member], partition.local_table, spec.buckets, rows)
                for member in partition.members
            )

    def create():
        for engine, table, buckets, _rows in tables:
            yield from engine.create_table(table, buckets)

    def fill(engine, table, rows):
        txn = engine.begin()
        for key, value in rows.items():
            yield from engine.insert(txn, table, key, value)
        yield from engine.commit(txn)

    start = kernel._sequence
    kernel.spawn(create(), name="create")
    kernel.run()
    created = kernel._sequence - start
    for engine, table, _buckets, rows in tables:
        if rows:
            kernel.spawn(fill(engine, table, rows), name="fill")
            kernel.run()
    fed.charged = {
        "pages": sum(buckets for _e, _t, buckets, _r in tables),
        "create": created,
        "fill": kernel._sequence - start - created,
    }
    trace.enabled = tracing
    kernel._now = 0.0
    kernel.events_dispatched = 0
    for engine in fed.engines.values():
        engine.zero_counters()


def _paged() -> Federation:
    """4 sites x 512 one-row pages through 64 frames: the load evicts."""
    specs = [
        SiteSpec(
            f"s{i}", tables={f"t{i}": {f"k{j}": 1000 for j in range(512)}},
            preparable=True, buckets=512,
        )
        for i in range(4)
    ]
    return Federation(specs, FederationConfig(seed=3, gtm=GTMConfig(protocol="2pc")))


def _placed() -> Federation:
    """2 partitions x 2 replicas: the load also seeds partition tables."""
    specs = [SiteSpec(f"s{i}", tables={}, preparable=True) for i in range(3)]
    placement = [
        PlacementSpec(
            table="acct", partitions=2, replication=2,
            rows={f"k{j}": 100 for j in range(24)},
        )
    ]
    return Federation(specs, FederationConfig(seed=5, placement=placement))


def _paxos() -> Federation:
    specs = [
        SiteSpec(f"s{i}", tables={f"t{i}": {f"k{j}": 100 for j in range(16)}},
                 preparable=True)
        for i in range(3)
    ]
    return Federation(
        specs,
        FederationConfig(
            seed=7, coordinators=2, paxos_f=1, gtm=GTMConfig(protocol="paxos")
        ),
    )


def _chaos() -> Federation:
    return build_chaos_federation(
        ChaosSpec(protocol="before", seed=3, coordinators=2, metrics=True)
    )


@pytest.mark.parametrize("build", [_paged, _placed, _paxos, _chaos])
def test_federation_load_matches_the_calendar(monkeypatch, build):
    reset_message_ids()
    as_state = _fingerprint(build())
    with monkeypatch.context() as patch:
        patch.setattr(Federation, "_load_initial_data", _calendar_load)
        reset_message_ids()
        fed = build()
        reference = _fingerprint(fed)
    charged = fed.charged
    # The calendar charges the create process's spawn and one step per
    # empty-page write; the fills charge their own steps.
    assert charged["create"] == 1 + charged["pages"]
    assert reference.pop("sequence") - as_state.pop("sequence") == (
        charged["create"] + charged["fill"]
    )
    assert as_state["trace"] == reference["trace"]
    assert as_state == reference


def test_paged_load_evicts():
    """Guard the fixture: the 512-page load must overflow 64 frames.

    Set-up counters are zeroed, so eviction is read from state: every
    row whose page left the pool is on that page's stable image.
    """
    engine = _paged().engines["s0"]
    heap = engine.catalog.heap("t0")
    evicted = [
        key for key in (f"k{j}" for j in range(512))
        if not engine.buffer.resident(heap.page_of(key))
    ]
    assert len(engine.buffer._frames) == 64
    assert evicted
    for key in evicted:
        assert engine.disk.stable_page(heap.page_of(key)).get(key) == 1000


@pytest.mark.parametrize("same_page", [True, False])
def test_counter_site_load_matches_the_calendar(same_page):
    states = []
    for kernel in (Kernel(seed=9), SpawnKernel(seed=9)):
        engine, keys = build_counter_site(kernel, n_counters=4, same_page=same_page)
        states.append((_kernel_state(kernel), _engine_state(engine), keys))
    assert states[0] == states[1]


# ---------------------------------------------------------------------------
# The alone-ness condition
# ---------------------------------------------------------------------------


def _delays(*durations):
    for duration in durations:
        yield duration
    return "done"


def test_numeric_steps_are_charged_like_the_calendar():
    alone, spawned = Kernel(seed=1), SpawnKernel(seed=1)
    assert alone.run_alone(_delays(1, 2.5, 0, True)) == "done"
    assert spawned.run_alone(_delays(1, 2.5, 0, True)) == "done"
    assert _kernel_state(alone) == _kernel_state(spawned)
    assert (alone.now, alone._sequence, alone.events_dispatched) == (4.5, 5, 5)


@pytest.mark.parametrize("due", [0.0, 2.0, 3.0])
def test_an_entry_due_before_the_next_wake_up_raises(kernel, due):
    fired = []
    kernel._schedule(due, fired.append, "other")
    with pytest.raises(SimulationError, match="would run before"):
        kernel.run_alone(_delays(3))
    assert fired == []


def test_an_entry_due_after_the_return_stays_queued(kernel):
    fired = []
    kernel._schedule(10.0, fired.append, "later")
    assert kernel.run_alone(_delays(3, 4)) == "done"
    assert kernel.now == 7.0
    kernel.run()
    assert fired == ["later"] and kernel.now == 10.0


def test_a_non_numeric_yield_raises_and_unwinds(kernel):
    unwound = []

    def waits_on_a_future():
        try:
            yield 1
            yield Future(label="never")
        finally:
            unwound.append(kernel.now)

    with pytest.raises(SimulationError, match="unsupported effect"):
        kernel.run_alone(waits_on_a_future())
    assert unwound == [1.0]


def test_a_negative_delay_raises(kernel):
    with pytest.raises(SimulationError, match="negative delay"):
        kernel.run_alone(_delays(-1))


def test_generator_errors_propagate(kernel):
    def fails():
        yield 1
        raise KeyError("boom")

    with pytest.raises(KeyError):
        kernel.run_alone(fails())


def test_refused_on_a_stopped_kernel(kernel):
    kernel.stop()
    with pytest.raises(KernelStopped):
        kernel.run_alone(_delays(1))


def test_refused_inside_a_run(kernel):
    caught = []

    def nested():
        try:
            kernel.run_alone(_delays(1))
        except SimulationError as exc:
            caught.append(exc)

    kernel._schedule(0.0, nested)
    kernel.run()
    assert len(caught) == 1
