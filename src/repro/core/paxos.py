"""Paxos Commit: replicated, non-blocking commit decisions.

Gray & Lamport's *Consensus on Transaction Commit* replaces the
coordinator's single forced decision-log write with one consensus
instance per global transaction, run over ``2F + 1`` acceptor
processes with their own stable logs.  The decision is *chosen* once a
majority (``F + 1``) of acceptors has accepted the same value, so it
survives any ``F`` acceptor crashes -- and because any coordinator can
read the majority (or finish the ballot at a higher number), a crashed
coordinator never leaves a transaction blocked in doubt: a timeout on
a live peer triggers leader takeover instead of orphan adoption.

The cost claim reproduced by ``bench_p1_paxos``: with ``F = 0`` the
fast path is one Phase 2a/2b round over a single acceptor -- exactly
one forced write per committed transaction, the same as 2PC's one
decision force.

Three pieces live here:

* :class:`PaxosAcceptor` -- one acceptor process with stable
  ``max_ballot`` / ``accepted`` state and a forced write per promise
  or acceptance (its log-force trace records feed the ``repro.check``
  crash-point enumeration, like any site's).
* :class:`AcceptorGroup` -- the ``2F + 1`` ensemble plus the majority
  read path :meth:`AcceptorGroup.decision_for`.
* :class:`PaxosLeader` -- the per-transaction leader embedded in a GTM
  shard: ballot-0 fast path (no Phase 1a -- ballot 0 is reserved for
  the transaction's home coordinator), and the takeover path running a
  full Phase 1a/1b + 2a/2b round at a higher ballot.

Ballot numbering: ballot 0 belongs to the home leader's fast path;
takeover ballots are ``round * n_coordinators + coordinator_index``
with ``round >= 1``, so every proposer owns a disjoint ballot sequence
and all takeover ballots exceed 0.

The read path is deliberately conservative: a majority of readable
acceptors showing *no* accepted record is **not** presumed abort -- a
crashed leader's in-flight ballot-0 Phase 2a messages could still
land.  Presumed abort is only ever concluded through a takeover round:
``F + 1`` promises at a higher ballot with no accepted value prove the
fast path can no longer reach a majority at ballot 0, and the takeover
then *chooses* abort.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import MessageTimeout
from repro.net.node import Node
from repro.sim.events import Future

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.gtm import GlobalTransactionManager
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.sim.kernel import Kernel


class PaxosAcceptor:
    """One acceptor: stable ballot/acceptance state behind forced writes.

    The acceptor's stable storage is modelled like the central decision
    log: the ``max_ballot`` and ``accepted`` dicts survive a crash, but
    an update only lands after its forced write completed -- a crash
    mid-force loses the write (the serve process is interrupted at the
    yield point, before the state mutates).
    """

    def __init__(
        self,
        kernel: "Kernel",
        network: "Network",
        index: int,
        log_force_time: float = 1.0,
    ):
        self.kernel = kernel
        self.network = network
        self.index = index
        self.name = f"acceptor{index}"
        self.log_force_time = log_force_time
        # Acceptors talk to coordinators (central nodes); marking them
        # central keeps the star topology check honest without opening
        # local-to-local links.
        self.node = network.add_node(Node(kernel, self.name, is_central=True))
        # A crash loses the force in flight: the serve process dies at
        # its yield point, before the state mutates.  (Parked on its
        # mailbox, the crash's ``fail_waiters`` already ends it; handed
        # a message in the crash's instant, ``Node._serve`` drops it.)
        self._forcing = False
        self.node.on_crash.append(self._interrupt_force)
        # Stable (crash-surviving) per-transaction state.
        self.max_ballot: dict[str, int] = {}
        self.accepted: dict[str, dict] = {}
        self.forces = 0
        self.promises = 0
        self.acceptances = 0
        self.rejections = 0
        self.node.serve(self._handle, f"{self.name}-serve")

    def _interrupt_force(self) -> None:
        if self._forcing:
            self._forcing = False
            self.node.server.interrupt(cause=f"{self.name} crashed")

    # -- the acceptor protocol -------------------------------------------------

    def _handle(self, message: "Message") -> Optional[Generator[Any, Any, None]]:
        """Serve one message; the node's loop drives the forced write."""
        if message.kind == "paxos_p1a":
            return self._on_p1a(message)
        if message.kind == "paxos_p2a":
            return self._on_p2a(message)
        return None  # acceptors speak only Paxos

    def _on_p1a(self, message: "Message") -> Generator[Any, Any, None]:
        """Phase 1a: promise not to accept below ``ballot``."""
        gtxn_id = message.gtxn_id
        ballot = message.payload["ballot"]
        if ballot >= self.max_ballot.get(gtxn_id, -1):
            yield from self._force(gtxn_id)
            self.max_ballot[gtxn_id] = ballot
            self.promises += 1
            self._reply(
                message, "paxos_p1b",
                promised=True, ballot=ballot,
                accepted=self.accepted.get(gtxn_id),
            )
        else:
            self.rejections += 1
            self._reply(
                message, "paxos_p1b",
                promised=False, ballot=self.max_ballot[gtxn_id],
            )

    def _on_p2a(self, message: "Message") -> Generator[Any, Any, None]:
        """Phase 2a: accept ``record`` unless promised to a higher ballot."""
        gtxn_id = message.gtxn_id
        record = message.payload["record"]
        ballot = record["ballot"]
        if ballot >= self.max_ballot.get(gtxn_id, -1):
            if self.accepted.get(gtxn_id) == record:
                # Retransmitted 2a for the already-accepted record: the
                # first force made it durable; just re-ack.
                self._reply(message, "paxos_p2b", accepted=True, ballot=ballot)
                return
            yield from self._force(gtxn_id)
            self.max_ballot[gtxn_id] = ballot
            self.accepted[gtxn_id] = record
            self.acceptances += 1
            self._reply(message, "paxos_p2b", accepted=True, ballot=ballot)
        else:
            self.rejections += 1
            self._reply(
                message, "paxos_p2b",
                accepted=False, ballot=self.max_ballot[gtxn_id],
            )

    def _force(self, gtxn_id: str) -> Generator[Any, Any, None]:
        """One forced write to the acceptor's stable log."""
        start = self.kernel.now
        self._forcing = True
        yield self.log_force_time
        self._forcing = False
        self.forces += 1
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(
                "log_force", self.name, f"force-{self.forces}",
                txn=gtxn_id, records=1, start=start,
            )

    def _reply(self, message: "Message", kind: str, **payload: Any) -> None:
        self.network.send(message.reply(kind, **payload))

    def __repr__(self) -> str:
        status = "down" if self.node.crashed else "up"
        return f"<PaxosAcceptor {self.name} ({status}) forces={self.forces}>"


class AcceptorGroup:
    """The ``2F + 1`` acceptor ensemble and its majority read path."""

    def __init__(
        self,
        kernel: "Kernel",
        network: "Network",
        f: int,
        log_force_time: float = 1.0,
    ):
        if f < 0:
            raise ValueError(f"negative fault tolerance F={f}")
        self.f = f
        self.acceptors = [
            PaxosAcceptor(kernel, network, i, log_force_time=log_force_time)
            for i in range(2 * f + 1)
        ]
        self.by_name = {a.name: a for a in self.acceptors}
        self.names = [a.name for a in self.acceptors]

    @property
    def majority(self) -> int:
        return self.f + 1

    def total_forces(self) -> int:
        return sum(a.forces for a in self.acceptors)

    def decision_for(self, gtxn_id: str) -> Optional[str]:
        """The *chosen* decision readable right now, or ``None``.

        Reads the stable state of every non-crashed acceptor.  A value
        is chosen once ``F + 1`` acceptors hold an accepted record with
        that value (counting across ballots is sound: takeover rounds
        re-propose the highest accepted value they see, so at most one
        value ever reaches a majority, and once reached it is stable).

        ``None`` means "not decidable from here": fewer than ``F + 1``
        acceptors readable, or no value at majority yet.  Crucially, a
        readable majority with *zero* accepted records is still
        ``None`` -- in-flight ballot-0 messages of a crashed leader
        could complete a commit; only a takeover round may conclude
        presumed abort.
        """
        readable = [a for a in self.acceptors if not a.node.crashed]
        if len(readable) < self.majority:
            return None
        counts: dict[str, int] = {}
        for acceptor in readable:
            record = acceptor.accepted.get(gtxn_id)
            if record is not None:
                value = record["value"]
                counts[value] = counts.get(value, 0) + 1
        for value, count in counts.items():
            if count >= self.majority:
                return value
        return None

    def metrics(self) -> dict[str, Any]:
        return {
            "acceptors": len(self.acceptors),
            "f": self.f,
            "acceptor_forces": self.total_forces(),
            "promises": sum(a.promises for a in self.acceptors),
            "acceptances": sum(a.acceptances for a in self.acceptors),
            "rejections": sum(a.rejections for a in self.acceptors),
            "crashed": sum(1 for a in self.acceptors if a.node.crashed),
        }

    def __repr__(self) -> str:
        live = sum(1 for a in self.acceptors if not a.node.crashed)
        return f"<AcceptorGroup 2F+1={len(self.acceptors)} live={live}>"


class PaxosLeader:
    """Per-transaction leader logic, embedded in a GTM shard.

    The home coordinator runs :meth:`commit_fast` (ballot 0, no Phase
    1a).  Any coordinator -- home on retry, or a peer after a takeover
    timeout -- runs :meth:`resolve`, which first tries the cheap
    majority read and then drives full ballots until a decision is
    chosen.
    """

    def __init__(
        self,
        gtm: "GlobalTransactionManager",
        gtxn_id: str,
        rms: list[str],
    ):
        self.gtm = gtm
        self.gtxn_id = gtxn_id
        self.rms = list(rms)

    @property
    def group(self) -> AcceptorGroup:
        group = self.gtm.acceptors
        if group is None:
            raise RuntimeError("paxos leader without an acceptor group")
        return group

    # -- quorum RPC ----------------------------------------------------------

    def _quorum_call(
        self, kind: str, payload: dict[str, Any], need: int
    ) -> Generator[Any, Any, dict[str, "Message"]]:
        """Send ``kind`` to every acceptor; return once ``need`` replied.

        Per-acceptor requests run as tracked child processes (they die
        with the coordinator); crashed or slow acceptors time out
        individually, so ``F`` dead acceptors never stall the quorum.
        """
        group = self.group
        total = len(group.names)
        replies: dict[str, "Message"] = {}
        state = {"done": 0}
        gate = Future(label=f"paxos-quorum:{self.gtxn_id}:{kind}")

        def attempt(name: str) -> Generator[Any, Any, None]:
            try:
                reply = yield from self.gtm.comm.request(
                    name, kind,
                    gtxn_id=self.gtxn_id,
                    timeout=self.gtm.config.msg_timeout,
                    **payload,
                )
                replies[name] = reply
            except MessageTimeout:
                pass
            finally:
                state["done"] += 1
                if not gate._done and (
                    len(replies) >= need or state["done"] >= total
                ):
                    gate.resolve(None)

        for name in group.names:
            process = self.gtm.kernel.spawn(
                attempt(name), name=f"paxos:{self.gtxn_id}:{kind}:{name}"
            )
            self.gtm.track_service(process)
        yield gate
        return dict(replies)

    # -- ballot 0: the fast path ----------------------------------------------

    def commit_fast(self, votes: dict[str, str]) -> Generator[Any, Any, str]:
        """Ballot-0 Phase 2a/2b over the all-prepared vote set.

        Called only when every RM voted prepared; the commit record
        batches the votes, one consensus instance per transaction.
        Returns the chosen decision -- ``"commit"`` unless a higher
        ballot (a takeover that presumed this leader dead) got there
        first, in which case the takeover's choice stands.
        """
        record = {
            "ballot": 0,
            "rms": list(self.rms),
            "value": "commit",
            "votes": dict(votes),
        }
        group = self.group
        while True:
            replies = yield from self._quorum_call(
                "paxos_p2a", {"record": record}, group.majority
            )
            accepts = sum(
                1 for r in replies.values() if r.payload.get("accepted")
            )
            if accepts >= group.majority:
                return "commit"
            if any(not r.payload.get("accepted") for r in replies.values()):
                # Promised to a higher ballot: a takeover is (or was)
                # running; defer to whatever consensus chooses.
                decision = yield from self.resolve()
                return decision
            # Too few acceptors reachable right now; wait and retry.
            yield self.gtm.config.status_poll_interval

    # -- takeover ---------------------------------------------------------------

    def resolve(self) -> Generator[Any, Any, str]:
        """Read or finish the consensus instance; never gives up.

        Loops takeover rounds at increasing ballots until a decision is
        chosen.  Blocks only while more than ``F`` acceptors are down
        -- the bound Paxos promises.
        """
        pool = self.gtm.pool
        if pool is not None and self.gtm in pool.coordinators:
            index = pool.coordinators.index(self.gtm)
            n_coords = len(pool.coordinators)
        else:
            index, n_coords = 0, 1
        round_no = 0
        while True:
            decision = self.group.decision_for(self.gtxn_id)
            if decision is not None:
                return decision
            round_no += 1
            ballot = round_no * n_coords + index
            decision = yield from self._takeover_round(ballot)
            if decision is not None:
                return decision
            yield self.gtm.config.status_poll_interval

    def _takeover_round(self, ballot: int) -> Generator[Any, Any, Optional[str]]:
        """One full Phase 1a/1b + 2a/2b round at ``ballot``.

        Phase 1 majority with no accepted record proves ballot 0 can no
        longer choose commit -- the round then proposes abort (presumed
        abort, now safe).  Otherwise it re-proposes the highest-ballot
        accepted value, preserving any possibly-chosen decision.
        """
        group = self.group
        replies = yield from self._quorum_call(
            "paxos_p1a", {"ballot": ballot}, group.majority
        )
        promised = [
            r for r in replies.values() if r.payload.get("promised")
        ]
        if len(promised) < group.majority:
            return None  # pre-empted or partitioned; caller retries higher
        best: Optional[dict] = None
        for reply in promised:
            accepted = reply.payload.get("accepted")
            if accepted is not None and (
                best is None or accepted["ballot"] > best["ballot"]
            ):
                best = accepted
        record = {
            "ballot": ballot,
            "rms": best["rms"] if best is not None else list(self.rms),
            "value": best["value"] if best is not None else "abort",
            "votes": best["votes"] if best is not None else {},
        }
        replies = yield from self._quorum_call(
            "paxos_p2a", {"record": record}, group.majority
        )
        accepts = sum(1 for r in replies.values() if r.payload.get("accepted"))
        if accepts >= group.majority:
            return record["value"]
        return None
