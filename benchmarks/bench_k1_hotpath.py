"""EXP-K1 -- kernel hot path: calendar queue, park/wake, message path.

Wall-clock microbenchmarks of the event loop, each aimed at one
mechanism.  Unlike every other benchmark here these measure *host*
time, not simulated time.  (End-to-end wall-clock cost per committed
transaction, by layer, is the commit ledger's job:
``python -m benchmarks.ledger``.)

* **same-slot frontier** -- hundreds of processes waking at identical
  timestamps.  The calendar queue drains a whole slot as one FIFO list
  (one heap pop per *distinct* timestamp); the seed kernel paid one
  heap sift per event.
* **staggered delays** -- processes yielding bare delays of seven
  different lengths, so most events open a slot of their own: the
  ``_schedule`` + heap-of-timestamps path.  (The former
  ``bench_kernel_wallclock`` kernel loop; the seed tree measured
  ~610k events/s on it.)
* **timeout race** -- a ``TimedWait`` whose wake beats its deadline:
  the deadline entry is skipped by the run loop because the wake
  settled the wait.
* **one-way send** -- unbatched star traffic with nobody receiving:
  ``Network.send`` -> ``_deliver_all`` -> ``Mailbox.put``.  (The former
  ``bench_kernel_wallclock`` network loop, ~228k messages/s on the
  seed tree; reported here as dispatched events/s like every row.)
* **message ping** -- request/reply over the simulated network,
  tracing off: ``Message`` construction (handwritten ``__slots__``
  class), delivery scheduling and mailbox park/wake.
* **federation 8-shard** -- the end-to-end hot path of
  ``bench_s1_sharded_gtm``: an 8-coordinator federation under the
  fixed-total-window open-loop load, trace off.

Run standalone for profiling::

    PYTHONPATH=src python benchmarks/bench_k1_hotpath.py --profile

``--profile`` reruns the federation scenario (the representative mix)
under ``cProfile``, prints the top functions by own-time, and saves
the raw stats to ``benchmarks/results/k1_hotpath.prof`` -- load it
with ``pstats``, ``snakeviz`` or ``flameprof`` for a flamegraph.
"""

from __future__ import annotations

import gc
import sys
import time

from repro.bench import format_table
from repro.net.message import Message
from repro.net.network import FixedLatency, Network
from repro.net.node import Node
from repro.sim.events import TIMED_OUT, TimedWait
from repro.sim.kernel import Kernel

from benchmarks._common import RESULTS_DIR, run_once, save_result

N_FRONTIER_PROCS = 400
#: Long enough (~0.25s) that one timed run amortises scheduler jitter;
#: the perf-smoke regression gate compares best-of-N runs of this.
FRONTIER_ROUNDS = 600
N_STAGGERED_PROCS = 200
STAGGERED_YIELDS = 500
N_TIMEOUT_RACES = 30_000
N_SENDS = 50_000
N_PINGS = 25_000

#: Per-scenario repetitions; wall-clock noise is one-sided (slow
#: machine moments), so each scenario keeps its best run.
BEST_OF = 3

#: Headline numbers of the last ``run_experiment`` call (run_all.py).
METRICS: dict = {}


def measure_frontier() -> dict:
    """Many processes waking at the same instants: slot-drain dispatch."""
    kernel = Kernel(seed=1)
    kernel.trace.enabled = False

    def proc():
        for _ in range(FRONTIER_ROUNDS):
            yield 1.0  # every process lands in the same 1.0-spaced slot

    for i in range(N_FRONTIER_PROCS):
        kernel.spawn(proc(), name=f"f{i}")
    start = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - start
    events = kernel.events_dispatched
    return {"events": events, "elapsed": elapsed, "rate": events / elapsed}


def measure_staggered() -> dict:
    """Bare delays of mixed lengths: mostly one event per slot."""
    kernel = Kernel(seed=1)
    kernel.trace.enabled = False

    def proc(offset: float):
        for _ in range(STAGGERED_YIELDS):
            yield offset

    for i in range(N_STAGGERED_PROCS):
        kernel.spawn(proc(0.5 + (i % 7) * 0.25), name=f"p{i}")
    start = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - start
    events = kernel.events_dispatched
    return {"events": events, "elapsed": elapsed, "rate": events / elapsed}


def measure_timeout_race() -> dict:
    """A TimedWait won by its wake: the deadline is cancelled."""
    kernel = Kernel(seed=1)
    kernel.trace.enabled = False

    def proc():
        for _ in range(N_TIMEOUT_RACES):
            wait = TimedWait(10.0)
            kernel.call_at(kernel.now + 1.0, wait.wake)
            assert (yield wait) is not TIMED_OUT

    kernel.spawn(proc(), name="racer")
    start = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - start
    events = kernel.events_dispatched
    return {"events": events, "elapsed": elapsed, "rate": events / elapsed}


def measure_one_way_send() -> dict:
    """Send/deliver loop: unbatched star traffic, nobody receiving."""
    kernel = Kernel(seed=1)
    kernel.trace.enabled = False
    net = Network(kernel, latency=FixedLatency(1.0))
    net.add_node(Node(kernel, "central", is_central=True))
    net.add_node(Node(kernel, "site"))

    def sender():
        for i in range(N_SENDS):
            net.send(Message(kind="ping", sender="central", dest="site"))
            if i % 100 == 99:
                yield 1.0  # drain the queue periodically

    kernel.spawn(sender(), name="sender")
    start = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - start
    events = kernel.events_dispatched
    return {"events": events, "elapsed": elapsed, "rate": events / elapsed}


def measure_message_ping() -> dict:
    """Request/reply over the network, trace off."""
    kernel = Kernel(seed=1)
    kernel.trace.enabled = False
    net = Network(kernel, latency=FixedLatency(1.0))
    central = Node(kernel, "central", is_central=True)
    site = Node(kernel, "site")
    net.add_node(central)
    net.add_node(site)

    def echo():
        while True:
            message = yield from site.recv()
            if message.kind == "stop":
                return
            net.send(message.reply("pong"))

    def pinger():
        for _ in range(N_PINGS):
            net.send(Message(kind="ping", sender="central", dest="site"))
            yield from central.recv()
        net.send(Message(kind="stop", sender="central", dest="site"))

    kernel.spawn(echo(), name="echo")
    kernel.spawn(pinger(), name="pinger")
    start = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - start
    events = kernel.events_dispatched
    return {"events": events, "elapsed": elapsed, "rate": events / elapsed}


def _federation_run():
    """One 8-coordinator fixed-window open-loop run (trace off)."""
    from benchmarks.bench_s1_sharded_gtm import (
        ARRIVAL_RATE,
        N_TXNS,
        TOTAL_WINDOW,
        build_sharded,
        traffic,
    )
    from repro.workloads.open_loop import OpenLoopDriver, OpenLoopSpec

    fed = build_sharded("2pc", "per_site", coordinators=8)
    fed.kernel.trace.enabled = False
    driver = OpenLoopDriver(
        fed,
        OpenLoopSpec(
            arrival_rate=ARRIVAL_RATE,
            n_txns=N_TXNS,
            window_per_coordinator=TOTAL_WINDOW // 8,
        ),
    )
    batches = traffic(N_TXNS)
    start = time.perf_counter()
    driver.run(batches)
    elapsed = time.perf_counter() - start
    return fed.kernel.events_dispatched, elapsed


def measure_federation() -> dict:
    events, elapsed = _federation_run()
    return {"events": events, "elapsed": elapsed, "rate": events / elapsed}


SCENARIOS = [
    ("same-slot frontier", measure_frontier),
    ("staggered delays", measure_staggered),
    ("timeout race", measure_timeout_race),
    ("one-way send", measure_one_way_send),
    ("message ping", measure_message_ping),
    ("federation 8-shard", measure_federation),
]


def _best_of(measure) -> dict:
    gc.collect()
    gc.disable()
    try:
        measure()  # warm-up
        return max((measure() for _ in range(BEST_OF)), key=lambda m: m["rate"])
    finally:
        gc.enable()


def run_experiment() -> str:
    METRICS.clear()
    rows = []
    for label, measure in SCENARIOS:
        best = _best_of(measure)
        METRICS[label.replace(" ", "_")] = round(best["rate"])
        rows.append([
            label,
            best["events"],
            f"{best['elapsed'] * 1000.0:.1f}ms",
            f"{best['rate'] / 1e3:.0f}k/s",
        ])
    return format_table(
        ["scenario", "events dispatched", "best wall", "events/s"],
        rows,
        title=f"EXP-K1: kernel hot-path throughput (trace off, best of {BEST_OF})",
    )


def profile_federation(top: int = 25) -> str:
    """cProfile the federation scenario; stats file + own-time table."""
    import cProfile
    import io
    import pstats

    gc.collect()
    gc.disable()
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        _federation_run()
        profiler.disable()
    finally:
        gc.enable()
    RESULTS_DIR.mkdir(exist_ok=True)
    stats_path = RESULTS_DIR / "k1_hotpath.prof"
    profiler.dump_stats(stats_path)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("tottime").print_stats(top)
    return (
        f"profile written to {stats_path} "
        f"(pstats / snakeviz / flameprof compatible)\n\n" + buffer.getvalue()
    )


def hotpath_headline() -> dict:
    """The BENCH_perf.json "kernel_hotpath" section (runs if needed)."""
    if not METRICS:
        run_experiment()
    return dict(METRICS)


def test_k1_hotpath(benchmark):
    save_result("k1_hotpath", run_once(benchmark, run_experiment))


if __name__ == "__main__":
    print(run_experiment())
    if "--profile" in sys.argv:
        print()
        print(profile_federation())
