"""Truly heterogeneous federations: mixed 2PL and optimistic sites.

§3.2 names the optimistic scheduler explicitly: a local transaction may
be aborted "by an optimistic scheduler since the transaction did not
survive the validation phase" -- after the ready answer was already
sent.  These tests integrate sites with different concurrency control
schemes (and different speeds) under each protocol.
"""

import pytest

from repro.core.gtm import GTMConfig
from repro.core.invariants import atomicity_report, serializability_ok
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.localdb.config import LocalDBConfig
from repro.mlt.actions import increment, read, write
from repro.storage.disk import StorageConfig


def build_mixed(protocol: str, granularity: str = "per_site", seed: int = 9,
                preparable: bool = False) -> Federation:
    """One strict-2PL site, one optimistic site, one slow site."""
    return Federation(
        [
            SiteSpec(
                "pessimist", tables={"tp": {"x": 100, "y": 10}},
                config=LocalDBConfig(scheduler="2pl"), preparable=preparable,
            ),
            SiteSpec(
                "optimist", tables={"to": {"x": 200}},
                config=LocalDBConfig(scheduler="occ"), preparable=preparable,
            ),
            SiteSpec(
                "sluggish", tables={"ts": {"x": 300}},
                config=LocalDBConfig(
                    storage=StorageConfig(
                        page_read_time=3.0, page_write_time=3.0, log_force_time=3.0
                    )
                ),
                preparable=preparable,
            ),
        ],
        FederationConfig(
            seed=seed, gtm=GTMConfig(protocol=protocol, granularity=granularity)
        ),
    )


TRANSFER = [
    increment("tp", "x", -5),
    increment("to", "x", 5),
    read("ts", "x"),
]


@pytest.mark.parametrize(
    "protocol,granularity",
    [("before", "per_action"), ("before", "per_site"), ("after", "per_site")],
)
def test_mixed_schedulers_commit(protocol, granularity):
    fed = build_mixed(protocol, granularity)
    process = fed.submit(TRANSFER)
    fed.run()
    outcome = process.value
    assert outcome.committed
    assert outcome.reads == {"ts['x']": 300}
    assert fed.peek("pessimist", "tp", "x") == 95
    assert fed.peek("optimist", "to", "x") == 205
    assert atomicity_report(fed).ok


def test_2pc_works_on_preparable_occ_site():
    """A modified OCC manager validates and installs at prepare time."""
    fed = build_mixed("2pc", preparable=True)
    process = fed.submit(TRANSFER)
    fed.run()
    assert process.value.committed
    assert fed.peek("optimist", "to", "x") == 205


def test_validation_abort_after_ready_triggers_redo():
    """The paper's optimistic-scheduler scenario under commit-after:

    a purely local transaction at the optimistic site commits between
    the global subtransaction's ready answer and its commit, stealing
    the validation -- the global subtransaction is erroneously aborted
    and must be redone.
    """
    fed = build_mixed("after", seed=11)
    engine = fed.engines["optimist"]

    # The global txn reads to.x early, then works elsewhere for a while.
    process = fed.submit(
        [read("to", "x"), write("to", "x", 250)]
        + [increment("tp", "y", 1)] * 6,
        name="G_slowpoke",
    )

    def local_interloper():
        # A local (non-federated) transaction at the optimistic site
        # commits a conflicting write while the global one is busy;
        # backward validation will kill the global subtxn at commit.
        yield 20.0
        txn = engine.begin()
        yield from engine.write(txn, "to", "x", 201)
        yield from engine.commit(txn)

    fed.kernel.spawn(local_interloper())
    fed.run()
    outcome = process.value
    assert outcome.committed
    # The redo repeated the optimist subtransaction after validation
    # killed the first execution.
    assert outcome.redo_executions >= 1
    validation_aborts = engine.aborts
    from repro.localdb.txn import LocalAbortReason

    assert validation_aborts[LocalAbortReason.VALIDATION] >= 1
    assert fed.peek("optimist", "to", "x") == 250
    assert atomicity_report(fed).ok


def test_validation_abort_under_commit_before_retried_in_cm():
    """Per-action commit-before: the CM absorbs validation aborts by
    retrying the short L0 transaction."""
    fed = build_mixed("before", granularity="per_action", seed=12)
    engine = fed.engines["optimist"]

    def churn():
        # Continuous local writes to a different key keep the OCC
        # commit sequence moving without conflicting.
        for i in range(10):
            yield 2.0
            txn = engine.begin()
            yield from engine.write(txn, "to", f"noise{i}", i)
            yield from engine.commit(txn)

    fed.kernel.spawn(churn())
    process = fed.submit(TRANSFER)
    fed.run()
    assert process.value.committed
    assert atomicity_report(fed).ok


def test_slow_site_does_not_block_fast_sites_under_before():
    """Commit-before+MLT: the fast sites' locks are long released while
    the slow site still grinds."""
    fed = build_mixed("before", granularity="per_action", seed=13)
    p1 = fed.submit(
        [increment("tp", "x", 1)] + [increment("ts", "x", 1)] * 4, name="G_slow"
    )

    def delayed():
        yield 8.0
        outcome = yield fed.submit([increment("tp", "x", 1)], name="G_fast")
        return outcome

    p2 = fed.kernel.spawn(delayed())
    fed.run()
    assert p1.value.committed and p2.value.committed
    assert p2.value.finish_time < p1.value.finish_time
    assert fed.peek("pessimist", "tp", "x") == 102


def test_mixed_federation_soak_conserves_and_serializes():
    """A small soak: random transfers across the mixed federation."""
    fed = build_mixed("before", granularity="per_action", seed=14)
    rng = fed.kernel.rng.stream("soak")
    tables = [("tp", "x"), ("to", "x"), ("ts", "x")]
    batches = []
    for _ in range(12):
        src, dst = rng.sample(tables, 2)
        amount = rng.randint(1, 9)
        batches.append(
            {
                "operations": [
                    increment(src[0], src[1], -amount),
                    increment(dst[0], dst[1], amount),
                ],
                "intends_abort": rng.random() < 0.25,
                "delay": rng.uniform(0, 30),
            }
        )
    fed.run_transactions(batches)
    total = (
        fed.peek("pessimist", "tp", "x")
        + fed.peek("optimist", "to", "x")
        + fed.peek("sluggish", "ts", "x")
    )
    assert total == 600
    assert atomicity_report(fed).ok
    assert serializability_ok(fed)


def test_aborted_2pc_leaves_no_write_on_preparable_occ_site(monkeypatch):
    """Every participant votes ready, yet the decision is abort (as if
    another participant voted no): the optimistic site installed its
    workspace at prepare and must undo it, on every retried attempt."""
    from repro.core.invariants import check_invariants
    from repro.core.protocols.two_phase import TwoPhaseCommit

    def decide_abort(self, ctx, votes):
        ctx.gtxn.set_decision("abort", votes=dict(votes))
        return "abort", "participant voted abort"
        yield  # pragma: no cover - generator protocol

    monkeypatch.setattr(TwoPhaseCommit, "decide", decide_abort)
    fed = build_mixed("2pc", preparable=True)
    process = fed.submit(TRANSFER)
    fed.run()
    assert not process.value.committed
    assert fed.peek("optimist", "to", "x") == 200
    assert fed.peek("pessimist", "tp", "x") == 100
    conserved = {("tp", "x"): 100, ("to", "x"): 200}
    assert check_invariants(fed, conserved=conserved) == []


def test_a_prepared_optimistic_install_is_isolated_until_decided(monkeypatch):
    """G1 prepares at the optimistic site (installing +5 to ``to.x``)
    and is decided abort 30 u late; G2 increments ``to.x`` meanwhile.
    G2 must not read G1's undecided install: at the optimistic site it
    fails validation until G1's abort, then commits its +7 on the
    restored value, and G1's rollback restores over no foreign write."""
    from repro.core.invariants import check_invariants
    from repro.core.protocols.two_phase import TwoPhaseCommit

    decide = TwoPhaseCommit.decide

    def late_abort_for_g1(self, ctx, votes):
        if not ctx.gtxn.gtxn_id.startswith("G1"):
            return (yield from decide(self, ctx, votes))
        yield 30.0
        ctx.gtxn.set_decision("abort", votes=dict(votes))
        return "abort", "participant voted abort"

    monkeypatch.setattr(TwoPhaseCommit, "decide", late_abort_for_g1)
    fed = build_mixed("2pc", preparable=True)
    g1, g2 = fed.run_transactions([
        {"operations": [increment("to", "x", 5), increment("tp", "y", -5)], "name": "G1"},
        {"operations": [increment("to", "x", 7)], "name": "G2", "delay": 10.0},
    ])
    assert not g1.committed and g2.committed
    assert fed.peek("optimist", "to", "x") == 207
    assert fed.peek("pessimist", "tp", "y") == 10
    assert check_invariants(fed) == []
