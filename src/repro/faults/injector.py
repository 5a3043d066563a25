"""Fault injection.

Models the paper's failure sources:

* **Erroneous local aborts after the ready answer** (§3.2): "the
  transaction may still be aborted by the local transaction manager,
  e.g. because of time out, by an optimistic scheduler ..., or by a
  system crash."  :meth:`FaultInjector.erroneous_aborts_after_ready`
  hooks the exact window -- after a communication manager voted ready,
  before the decision lands -- and kills the still-running local
  transaction with probability ``p``.
* **Site crashes** at chosen or random times, with recovery after a
  configurable outage.  A :class:`CrashPoint` is one scheduled crash of
  a named node -- data site, coordinator shard or acceptor alike --
  and is what a checker counterexample records and replays.
* **Direct system aborts** of a running subtransaction.

All randomness comes from named kernel streams, so fault schedules are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.localdb.txn import LocalAbortReason
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.integration.federation import Federation


@dataclass
class CrashPoint:
    """One crash of node ``site`` at ``at``, restarted ``restart_after`` later.

    ``restart_after <= 0`` means the node stays down for the rest of
    the run -- the shape of the non-blocking question.
    """

    site: str
    at: float
    restart_after: float = 60.0

    def schedule(
        self,
        federation: "Federation",
        on_crash: Optional[Callable[["CrashPoint"], None]] = None,
    ) -> None:
        """Arm the crash and its restart; ``on_crash`` runs as it lands.

        Crash and restart are routed by name (:meth:`Federation.crash_site`),
        so a data site, coordinator shard or acceptor all work.  A crash
        landing inside another outage only extends the downtime
        (:meth:`Federation.hold_down`): ``on_crash`` does not run, and the
        earlier outage's restart cannot resurrect the node early.
        """
        restart_at = self.at + self.restart_after

        def fire() -> None:
            if self.restart_after > 0:
                federation.hold_down(self.site, restart_at)
            if federation.nodes[self.site].crashed:
                return  # already down: the outage was merely extended
            if on_crash is not None:
                on_crash(self)
            federation.crash_site(self.site)

        federation.kernel.call_at(self.at, fire)
        if self.restart_after > 0:
            federation.restart_site(self.site, at=restart_at)

    def to_dict(self) -> dict[str, Any]:
        return {"site": self.site, "at": self.at, "restart_after": self.restart_after}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CrashPoint":
        return cls(**data)


class FaultInjector:
    """Deterministic fault source bound to one federation.

    Injected-fault counts live on a metrics registry -- the
    federation's own when observability is enabled, a private one
    otherwise -- so chaos runs and instrumented runs report through
    the same machinery.  The ``injected_*`` attribute API is kept as
    read-only properties.
    """

    def __init__(self, federation: "Federation", stream: str = "faults"):
        self.federation = federation
        self.kernel = federation.kernel
        self._rng = self.kernel.rng.stream(stream)
        obs = getattr(federation, "obs", None)
        self.registry = obs.registry if obs is not None else MetricsRegistry()
        protocol = federation.config.gtm.protocol
        self._aborts = self.registry.counter("injected_aborts", protocol=protocol)
        self._crashes = self.registry.counter("injected_crashes", protocol=protocol)
        self._partitions = self.registry.counter(
            "injected_partitions", protocol=protocol
        )

    @property
    def injected_aborts(self) -> int:
        return int(self._aborts.value)

    @property
    def injected_crashes(self) -> int:
        return int(self._crashes.value)

    @property
    def injected_partitions(self) -> int:
        return int(self._partitions.value)

    # ------------------------------------------------------------------
    # Erroneous aborts in the §3.2 window
    # ------------------------------------------------------------------

    def erroneous_aborts_after_ready(
        self,
        probability: float,
        sites: Optional[list[str]] = None,
        delay: float = 0.5,
    ) -> None:
        """Abort ready-voted locals with ``probability``.

        Only meaningful for the §3.2-window protocols (commit-after and
        one-phase), whose locals wait for the decision in the *running*
        state; a prepared local in the READY state is immune (its
        scheduler may no longer abort it), which this injector respects
        by skipping every vote cast from the ready state.
        """
        targets = sites or list(self.federation.engines)

        def make_hook(site: str):
            def hook(gtxn_id: str, txn_id: str, prepared: bool) -> None:
                if prepared or self._rng.random() >= probability:
                    return
                self.kernel._schedule(delay, self._system_abort, site, txn_id, gtxn_id)

            return hook

        for site in targets:
            self.federation.comms[site].on_ready_voted.append(make_hook(site))

    # ------------------------------------------------------------------
    # Direct aborts and crashes
    # ------------------------------------------------------------------

    def _system_abort(self, site: str, txn_id: str, gtxn_id: Optional[str] = None) -> None:
        self._aborts.inc()
        details = {} if gtxn_id is None else {"gtxn": gtxn_id}
        self.kernel.trace.emit("fault", site, txn_id, kind="system_abort", **details)
        self.federation.engines[site].force_abort(txn_id, LocalAbortReason.SYSTEM)

    def abort_subtxn(self, site: str, txn_id: str, at: Optional[float] = None) -> None:
        """Force-abort one local transaction (a "system abort")."""
        if at is None:
            self._system_abort(site, txn_id)
        else:
            self.kernel.call_at(at, self._system_abort, site, txn_id)

    def lose_next_message(self, kind: str) -> None:
        """Drop the next message of ``kind`` (e.g. a ``finished`` reply).

        This is the §3.2 propagation hazard in its purest form: the
        local commit happened, but the redo mechanism never learns it.
        """
        self.federation.network.drop_once.add(kind)

    def crash_site(self, site: str, at: float, recover_after: Optional[float] = None) -> None:
        """Crash ``site`` at ``at``; restart after ``recover_after`` if set.

        One counted and traced :class:`CrashPoint`: a crash that only
        extends a running outage is not counted as a fresh one.
        """
        CrashPoint(site, at, recover_after or 0.0).schedule(
            self.federation, self._count_crash
        )

    def _count_crash(self, point: CrashPoint) -> None:
        self._crashes.inc()
        self.kernel.trace.emit("fault", point.site, point.site, kind="crash")

    def partition_link(
        self, a: str, b: str, at: float, heal_after: Optional[float] = None
    ) -> None:
        """Cut the ``a``--``b`` link at ``at``; heal ``heal_after`` later."""

        def fire() -> None:
            self._partitions.inc()
            self.kernel.trace.emit("fault", a, b, kind="partition")
            self.federation.network.partition(a, b)

        self.kernel.call_at(at, fire)
        if heal_after is not None:
            self.kernel.call_at(
                at + heal_after, self.federation.network.heal, a, b
            )

    def counters(self) -> dict[str, int]:
        """Injected-fault accounting for the per-bench JSON reports."""
        return {
            "injected_aborts": self.injected_aborts,
            "injected_crashes": self.injected_crashes,
            "injected_partitions": self.injected_partitions,
        }

    def random_crashes(
        self,
        sites: list[str],
        horizon: float,
        crash_rate: float,
        outage: float,
    ) -> None:
        """Schedule Poisson-ish crash/recover cycles until ``horizon``.

        Each site crashes with exponential inter-arrival ``1/crash_rate``
        and recovers ``outage`` later.  Crash times are pre-sampled so
        the schedule is independent of execution interleaving.  A zero
        rate schedules nothing (the fault-level-0 baseline).
        """
        if crash_rate <= 0.0:
            return
        for site in sites:
            t = self._rng.expovariate(crash_rate)
            while t < horizon:
                self.crash_site(site, at=t, recover_after=outage)
                t += outage + self._rng.expovariate(crash_rate)

    def __repr__(self) -> str:
        return (
            f"<FaultInjector aborts={self.injected_aborts} "
            f"crashes={self.injected_crashes}>"
        )
