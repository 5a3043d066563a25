"""EXP-P1 -- Paxos Commit: replicated decisions at 2PC's F=0 price.

Three claims, one per section:

**Cost (the §4-style table).**  Per committed transaction, Paxos
Commit with ``F = 0`` forces exactly as many decision-log writes as
2PC -- one ballot-0 acceptance on a single acceptor versus one
hardened decision record.  Fault tolerance is bought per replica:
``F = 1`` forces ``2F + 1 = 3`` writes per commit and adds the
Phase 2a/2b message round to each acceptor.

**Coordinator kill.**  With a single central GTM, 2PC leaves every
in-flight prepared local blocked in doubt when the coordinator dies
and never recovers it -- the blocking window the paper motivates.  A
sharded 2PC pool resolves the same kill through failover from the
shared decision log after a bounded pause.  Paxos Commit resolves it
through leader takeover at a higher ballot -- and keeps doing so when
``F`` acceptors are killed *together with* the coordinator, a failure
the classic protocols cannot even express (their central log is
assumed immortal).

**Zero blocked transactions.**  Every paxos configuration ends with no
unresolved in-doubt transaction and the invariant battery intact; the
systematic version of this claim is ``python -m repro check --protocol
paxos --coordinators 2 --coordinator-crash-points --acceptor-crashes 1``.
"""

from repro.bench import format_table
from repro.core.gtm import GTMConfig
from repro.core.pool import AllCoordinatorsDown
from repro.core.invariants import atomicity_report, serializability_ok
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import Operation
from repro.core.protocols import preparable_protocols

from benchmarks._common import save_result

N_SITES = 3
N_KEYS = 16
COST_TXNS = 8
#: Wide spacing for the cost section: no decision-group batching, so
#: per-transaction force counts compare one to one.
COST_SPACING = 40.0
KILL_TXNS = 8
#: Early enough that shard 1's transactions (G0..G3 by crc32 routing)
#: are still in flight when their coordinator dies.
KILL_AT = 10.0
HORIZON = 6000.0

#: Headline numbers of the last ``run_experiment`` call (run_all.py).
METRICS: dict = {}
#: Fault accounting of the kill runs, including the per-destination
#: retransmit give-up counter (``retransmit_budget_exhausted``).
FAULT_COUNTERS: dict = {}


def build(protocol: str, coordinators: int = 1, paxos_f: int = 1,
          seed: int = 7) -> Federation:
    preparable = protocol in preparable_protocols()
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
            seed=seed,
            latency=1.0,
            coordinators=coordinators,
            paxos_f=paxos_f,
            gtm=GTMConfig(protocol=protocol, granularity="per_site"),
        ),
    )


def transfers(n: int, spacing: float) -> list[dict]:
    return [
        {
            "operations": [
                Operation("increment", f"t{i % N_SITES}", f"k{i % N_KEYS}", -1),
                Operation("increment", f"t{(i + 1) % N_SITES}", f"k{i % N_KEYS}", 1),
            ],
            "name": f"G{i}",
            "delay": i * spacing,
        }
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Section 1: the §4-style cost table
# ---------------------------------------------------------------------------


def measure_cost(protocol: str, paxos_f: int = 0) -> dict:
    fed = build(protocol, paxos_f=paxos_f)
    outcomes = fed.run_transactions(transfers(COST_TXNS, COST_SPACING))
    assert all(outcome.committed for outcome in outcomes)
    assert atomicity_report(fed).ok
    committed = len(outcomes)
    if protocol == "paxos":
        decision_forces = fed.acceptors.total_forces()
        label = f"paxos F={paxos_f}"
    else:
        decision_forces = fed.gtm.decision_log.forces
        label = protocol
    return {
        "label": label,
        "committed": committed,
        "decision_forces": decision_forces,
        "forces_per_commit": decision_forces / committed,
        "messages_per_commit": fed.network.sent / committed,
        "mean_response": (
            sum(o.response_time for o in outcomes) / committed
        ),
    }


# ---------------------------------------------------------------------------
# Section 2: coordinator kill -- blocked, paused, or taken over
# ---------------------------------------------------------------------------


def measure_kill(
    protocol: str,
    coordinators: int,
    kill_index: int = 0,
    paxos_f: int = 1,
    acceptor_crashes: int = 0,
) -> dict:
    """Kill a coordinator mid-traffic (never restarted) and audit."""
    fed = build(protocol, coordinators=coordinators, paxos_f=paxos_f)
    if acceptor_crashes:
        for i in range(acceptor_crashes):
            fed.crash_site(fed.acceptors.names[i], at=KILL_AT)

    def submitter(index: int, batch: dict):
        yield batch["delay"]
        try:
            outcome = yield fed.submit(batch["operations"], name=batch["name"])
        except AllCoordinatorsDown:
            return None  # single-GTM config after the kill: rejected
        return outcome

    processes = [
        fed.kernel.spawn(submitter(i, batch), name=f"client:{i}")
        for i, batch in enumerate(transfers(KILL_TXNS, spacing=4.0))
    ]
    fed.crash_site(fed.coordinators[kill_index].name, at=KILL_AT)
    fed.run(until=HORIZON)
    unresolved = fed.pool.unresolved_orphans()
    finish_times = [
        outcome.finish_time
        for gtm in fed.coordinators
        for outcome in gtm.outcomes
        if outcome.finish_time is not None
    ]
    # How long past the kill the system still needed to settle
    # everything it could settle -- the failover/takeover pause.  A
    # blocked configuration shows unresolved > 0 instead: its pause is
    # unbounded.
    pause = max((t - KILL_AT for t in finish_times if t > KILL_AT), default=0.0)
    return {
        "config": (
            f"{protocol} x{coordinators}"
            + (f" F={paxos_f}" if protocol == "paxos" else "")
            + (f" +{acceptor_crashes} acceptor kill" if acceptor_crashes else "")
        ),
        "submitted": KILL_TXNS,
        "clients_done": sum(1 for p in processes if p.done),
        "unresolved_indoubt": len(unresolved),
        "resolution_pause": pause,
        "takeovers": fed.pool.takeovers_started,
        "failovers": fed.pool.failovers_started,
        "atomicity_ok": atomicity_report(fed).ok,
        "serializable": serializability_ok(fed),
        "counters": {
            **fed.network.reliability_counts(),
            "paxos_concluded": sum(g.recovery.concluded for g in fed.coordinators),
        },
    }


# ---------------------------------------------------------------------------


def headline() -> dict:
    """Compact summary for BENCH_perf.json."""
    costs = [
        measure_cost("2pc"),
        measure_cost("paxos", paxos_f=0),
        measure_cost("paxos", paxos_f=1),
    ]
    blocked = measure_kill("2pc", coordinators=1)
    paused = measure_kill("2pc", coordinators=2, kill_index=1)
    paxos = measure_kill(
        "paxos", coordinators=2, kill_index=1, paxos_f=1, acceptor_crashes=1
    )
    return {
        "scenario": (
            f"{COST_TXNS} spaced transfers over {N_SITES} sites (cost); "
            f"{KILL_TXNS} transfers with a coordinator kill at t={KILL_AT} "
            "never restarted (kill)"
        ),
        "cost_per_commit": {
            row["label"]: {
                "decision_forces": round(row["forces_per_commit"], 2),
                "messages": round(row["messages_per_commit"], 2),
                "mean_response": round(row["mean_response"], 2),
            }
            for row in costs
        },
        "f0_force_parity_with_2pc": (
            costs[1]["decision_forces"] == costs[0]["decision_forces"]
        ),
        "coordinator_kill": {
            row["config"]: {
                "unresolved_indoubt": row["unresolved_indoubt"],
                "resolution_pause": round(row["resolution_pause"], 1),
                "takeovers": row["takeovers"],
                "failovers": row["failovers"],
                "invariants_ok": row["atomicity_ok"] and row["serializable"],
            }
            for row in (blocked, paused, paxos)
        },
        "classic_single_gtm_blocks": blocked["unresolved_indoubt"] > 0,
        "paxos_nonblocking_with_f_acceptor_kill": (
            paxos["unresolved_indoubt"] == 0
        ),
    }


def run_experiment() -> str:
    METRICS.clear()
    FAULT_COUNTERS.clear()

    costs = [
        measure_cost("2pc"),
        measure_cost("paxos", paxos_f=0),
        measure_cost("paxos", paxos_f=1),
        measure_cost("paxos", paxos_f=2),
    ]
    table = format_table(
        ["config", "committed", "decision forces/txn", "msgs/txn",
         "resp(mean)"],
        [
            [
                row["label"], row["committed"],
                round(row["forces_per_commit"], 2),
                round(row["messages_per_commit"], 2),
                round(row["mean_response"], 2),
            ]
            for row in costs
        ],
        title="EXP-P1a: decision durability cost per committed transaction",
    )

    kills = [
        measure_kill("2pc", coordinators=1),
        measure_kill("2pc", coordinators=2, kill_index=1),
        measure_kill("paxos", coordinators=2, kill_index=1, paxos_f=1),
        measure_kill(
            "paxos", coordinators=2, kill_index=1, paxos_f=1,
            acceptor_crashes=1,
        ),
    ]
    table += "\n\n" + format_table(
        ["config", "submitted", "unresolved", "pause", "takeovers",
         "failovers", "invariants"],
        [
            [
                row["config"], row["submitted"], row["unresolved_indoubt"],
                "blocked" if row["unresolved_indoubt"]
                else round(row["resolution_pause"], 1),
                row["takeovers"], row["failovers"],
                "OK" if row["atomicity_ok"] and row["serializable"]
                else "VIOLATED",
            ]
            for row in kills
        ],
        title=(
            f"EXP-P1b: coordinator killed at t={KILL_AT}, never restarted"
        ),
    )

    # The tentpole claims, enforced.
    assert costs[1]["decision_forces"] == costs[0]["decision_forces"], (
        "F=0 Paxos Commit must force exactly like 2PC: "
        f"{costs[1]['decision_forces']} vs {costs[0]['decision_forces']}"
    )
    assert costs[2]["decision_forces"] == 3 * costs[2]["committed"]
    assert costs[3]["decision_forces"] == 5 * costs[3]["committed"]
    assert kills[0]["unresolved_indoubt"] > 0, (
        "a single central 2PC GTM kill must exhibit the blocking window"
    )
    for row in kills[1:]:
        assert row["unresolved_indoubt"] == 0, row
        assert row["atomicity_ok"] and row["serializable"], row
        assert row["clients_done"] == KILL_TXNS, row
    assert kills[2]["takeovers"] >= 1 and kills[3]["takeovers"] >= 1

    METRICS.update(
        forces_per_commit={
            row["label"]: round(row["forces_per_commit"], 2) for row in costs
        },
        messages_per_commit={
            row["label"]: round(row["messages_per_commit"], 2) for row in costs
        },
        kill_unresolved={
            row["config"]: row["unresolved_indoubt"] for row in kills
        },
        kill_pause={
            row["config"]: round(row["resolution_pause"], 1) for row in kills
        },
    )
    FAULT_COUNTERS.update({
        row["config"]: row["counters"] for row in kills
    })
    return table


def test_p1_paxos(benchmark):
    from benchmarks._common import run_once

    save_result("p1_paxos", run_once(benchmark, run_experiment))
