"""Presumed-abort 2PC with the read-only optimization ([ML 83])."""

from repro.core.invariants import atomicity_report
from repro.mlt.actions import increment, read
from tests.protocols.conftest import build_fed, submit_and_run

TRANSFER = [increment("t0", "x", -10), increment("t1", "x", 10)]


def test_update_transaction_commits():
    fed = build_fed("2pc-pa")
    outcome = submit_and_run(fed, TRANSFER)
    assert outcome.committed
    assert fed.peek("s0", "t0", "x") == 90
    assert fed.peek("s1", "t1", "x") == 110
    assert atomicity_report(fed).ok


def test_readonly_participant_skips_phase_two():
    """The read-only site votes 'readonly' and gets no decide message."""
    fed = build_fed("2pc-pa")
    outcome = submit_and_run(fed, [increment("t0", "x", 5), read("t1", "x")])
    assert outcome.committed
    decides_to_s1 = [
        r for r in fed.kernel.trace.select(category="message")
        if r.subject == "decide" and r.details.get("dest") == "s1"
    ]
    assert decides_to_s1 == []
    decides_to_s0 = [
        r for r in fed.kernel.trace.select(category="message")
        if r.subject == "decide" and r.details.get("dest") == "s0"
    ]
    assert len(decides_to_s0) == 1


def test_fully_readonly_transaction_single_round():
    fed = build_fed("2pc-pa")
    outcome = submit_and_run(fed, [read("t0", "x"), read("t1", "y")])
    assert outcome.committed
    assert outcome.reads == {"t0['x']": 100, "t1['y']": 50}
    kinds = fed.network.message_counts()
    assert "decide" not in kinds  # nobody needed phase 2


def test_fewer_messages_than_plain_2pc_with_readonly_site():
    operations = [increment("t0", "x", 5), read("t1", "x")]
    fed_pa = build_fed("2pc-pa")
    submit_and_run(fed_pa, operations)
    fed_2pc = build_fed("2pc")
    submit_and_run(fed_2pc, operations)
    assert fed_pa.network.sent < fed_2pc.network.sent


def test_presumed_abort_sends_no_ack_round():
    fed = build_fed("2pc-pa")
    outcome = submit_and_run(fed, TRANSFER, intends_abort=True)
    assert not outcome.committed
    assert fed.peek("s0", "t0", "x") == 100
    # Aborts are fire-and-forget: the decide goes out, but the protocol
    # does not wait for (or count on) finished replies.
    fed_plain = build_fed("2pc")
    submit_and_run(fed_plain, TRANSFER, intends_abort=True)
    assert fed.network.sent < fed_plain.network.sent


def test_readonly_site_releases_locks_at_vote():
    """After voting readonly, the site's locks are gone: a second
    transaction can write there while the first awaits phase 2."""
    from tests.protocols.conftest import submit_delayed

    fed = build_fed("2pc-pa")
    p1 = fed.submit([read("t1", "x"), increment("t0", "x", 5)], name="RO")
    p2 = submit_delayed(fed, [increment("t1", "x", 7)], delay=1.0, name="W")
    fed.run()
    assert p1.value.committed and p2.value.committed
    assert fed.peek("s1", "t1", "x") == 107
    assert atomicity_report(fed).ok


def test_abort_vote_still_possible():
    fed = build_fed("2pc-pa")
    fed.gtm.RETRY_ATTEMPTS = 0
    outcome = submit_and_run(
        fed, [increment("t0", "missing", 1), increment("t1", "x", 1)]
    )
    assert not outcome.committed
    assert fed.peek("s1", "t1", "x") == 100
